//! Contracts of the tensor plane's branch-free scalar kernels
//! (`llmnpu::tensor::ops`): the polynomial `exp_nonpos` the attention
//! softmax and SiLU run on, the SiLU itself, and the i8 quantizer every
//! static-scale activation path and the LUT drivers share. Each is
//! written so a loop over it vectorizes; each is held here to the scalar
//! expression it stands for.

use llmnpu::quant::per_tensor::{quantize_value, QuantizedMatrix};
use llmnpu::tensor::ops::{exp_nonpos, quantize_i8, silu};
use llmnpu::tensor::Tensor;

/// Distance in representable floats between two finite same-sign values.
fn ulps(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn polynomial_exp_stays_within_two_ulp_and_keeps_its_special_values() {
    assert_eq!(exp_nonpos(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(exp_nonpos(-0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(exp_nonpos(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
    assert_eq!(exp_nonpos(-1e30).to_bits(), 0.0f32.to_bits());
    assert_eq!(exp_nonpos(-88.0).to_bits(), 0.0f32.to_bits());
    assert!(exp_nonpos(f32::NAN).is_nan());
    // A dense deterministic sweep of [-87, 0]: every 97th float.
    let mut worst = 0;
    let mut x_bits = (-87.0f32).to_bits();
    while x_bits > (-1e-30f32).to_bits() {
        let x = f32::from_bits(x_bits);
        let d = ulps(exp_nonpos(x), x.exp());
        assert!(
            d <= 2,
            "exp({x}): {} vs {} ({d} ulp)",
            exp_nonpos(x),
            x.exp()
        );
        worst = worst.max(d);
        x_bits -= 97;
    }
    assert!(worst >= 1, "the sweep should not be trivially exact");
}

/// The quantizer every i8 path used before it was made branch-free.
fn round_clamp_cast(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-127.0, 127.0) as i8
}

/// Scales from subnormal to ones whose `±127` limit overflows to `±∞`.
const SCALES: [f32; 6] = [1e-40, 1e-30, 0.01, 1.0, 1e30, 3e36];

/// The inputs where rounding and saturation decide: signed zeros, NaN,
/// infinities, subnormals, every `(k + ½)·s` tie and its neighbours, and
/// the `±127·s` limit and its neighbours.
fn edge_values(scale: f32) -> Vec<f32> {
    let mut values = vec![
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
    ];
    for k in -130..=130 {
        let tie = (k as f32 + 0.5) * scale;
        values.extend([tie, tie.next_up(), tie.next_down()]);
    }
    for limit in [127.0 * scale, 127.5 * scale, 128.0 * scale] {
        values.extend([limit, limit.next_up(), limit.next_down()]);
    }
    values.extend(values.clone().iter().map(|v| -v));
    values
}

#[test]
fn quantizer_is_bit_identical_to_round_clamp_cast_for_every_input() {
    // A strided sweep over every bit pattern (both signs, NaN payloads
    // and infinities included), then the edges, at every scale.
    let mut inputs: Vec<f32> = (0..=u32::MAX).step_by(16_411).map(f32::from_bits).collect();
    for scale in SCALES {
        inputs.extend(edge_values(scale));
        for &x in &inputs {
            let want = round_clamp_cast(x, scale);
            assert_eq!(quantize_i8(x, scale), want, "x = {x:e}, scale = {scale:e}");
            assert_eq!(
                quantize_value(x, scale),
                want,
                "x = {x:e}, scale = {scale:e}"
            );
        }
        // The same values through the tensor loop the served paths run
        // (vectorized in an optimized build).
        let t = Tensor::from_vec(inputs.clone(), [inputs.len()]).expect("1-d tensor");
        let q = QuantizedMatrix::quantize_with_scale(&t, scale);
        let want: Vec<i8> = inputs.iter().map(|&x| round_clamp_cast(x, scale)).collect();
        assert_eq!(q.data().as_slice(), &want[..], "scale = {scale:e}");
    }
    assert_eq!(quantize_i8(f32::NAN, 0.0), 0);
    assert_eq!(quantize_i8(0.0, 0.0), 0);
    assert_eq!(quantize_i8(-1.0, 0.0), -127);
    assert_eq!(quantize_i8(-0.0, 1.0), 0);
}

/// The SiLU every FFN ran before it moved onto `exp_nonpos`.
fn silu_libm(v: f32) -> f32 {
    v / (1.0 + (-v).exp())
}

#[test]
fn silu_on_the_kernel_exp_stays_within_four_ulp_of_libm() {
    let mut inputs: Vec<f32> = (0..=u32::MAX).step_by(4_099).map(f32::from_bits).collect();
    // Dense around zero, through the flush point of `exp_nonpos`, and
    // every special value.
    inputs.extend((-2000..=2000).map(|i| i as f32 * 0.05));
    inputs.extend((0..4000).map(|i| -75.0 - i as f32 * 0.01));
    inputs.extend([0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    inputs.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, f32::from_bits(1)]);
    let got = silu(&Tensor::from_vec(inputs.clone(), [inputs.len()]).expect("1-d tensor"));
    let mut worst = 0;
    for (&v, &g) in inputs.iter().zip(got.as_slice()) {
        let want = silu_libm(v);
        if want.is_nan() || want.is_infinite() || want == 0.0 {
            // NaN, ±∞ and both zeros come back exactly as they did.
            assert!(
                g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                "silu({v:e}) = {g:e}, was {want:e}"
            );
        } else if want.abs() >= 1e-35 {
            assert_eq!(g.is_sign_negative(), want.is_sign_negative(), "silu({v:e})");
            let d = ulps(g, want);
            assert!(d <= 4, "silu({v:e}) = {g:e} vs {want:e} ({d} ulp)");
            worst = worst.max(d);
        } else {
            assert!((g - want).abs() <= 1e-35, "silu({v:e}) = {g:e} vs {want:e}");
        }
    }
    assert!(worst >= 1, "the sweep should not be trivially exact");
}

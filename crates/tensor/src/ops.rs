//! Elementwise and reduction kernels: softmax, activations, masking,
//! arithmetic. These are the float operators that the paper keeps on
//! CPU/GPU (Figure 5, orange nodes) — plus the two branch-free scalar
//! kernels the vectorized loops share: [`exp_nonpos`] (attention's
//! softmax and [`silu`]) and [`quantize_i8`] (every static-scale
//! activation quantizer and the LUT drivers' per-row one).

use crate::kernel::microkernel::fmadd;
use crate::{Error, Result, Tensor};

/// `e^x` for `x ≤ 0` (a softmax argument after the row maximum is
/// subtracted), branch-free so a loop over it vectorizes: ≤ 2 ulp of
/// `f32::exp` down to `ln(2⁻¹²⁶)`, exactly `0` below that (including
/// `−∞`, which is what a masked score holds), exactly `1` at `±0`, and
/// NaN for NaN.
///
/// Range reduction `x = n·ln 2 + r` with `n` rounded through the
/// `1.5 · 2²³` add (an integer lands in the low mantissa bits, so the
/// same value feeds the exponent of `2ⁿ` without a float→int convert),
/// `ln 2` split so `n · LN2_HI` is exact, and `e^r = 1 + r + r²·p(r)`
/// with a degree-5 `p` on `|r| ≤ ln 2 / 2`.
#[inline(always)]
#[must_use]
pub fn exp_nonpos(x: f32) -> f32 {
    const LN2_HI: f32 = 0.693_145_75;
    const LN2_LO: f32 = 1.428_606_8e-6;
    /// `ln(2⁻¹²⁶)`: below it `e^x` is subnormal and flushed to zero.
    const MIN_X: f32 = -87.336_54;
    let t = fmadd(x, std::f32::consts::LOG2_E, ROUND);
    let n = t - ROUND;
    let r = fmadd(n, -LN2_LO, fmadd(n, -LN2_HI, x));
    let mut p = 0.000_198_527_62;
    p = fmadd(p, r, 0.001_393_043_6);
    p = fmadd(p, r, 0.008_333_361);
    p = fmadd(p, r, 0.041_666_485);
    p = fmadd(p, r, 0.166_666_67);
    p = fmadd(p, r, 0.5);
    let y = fmadd(p, r * r, r) + 1.0;
    let two_n = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    if x < MIN_X {
        0.0
    } else {
        y * two_n
    }
}

/// `1.5 · 2²³`: adding it to a float of magnitude ≤ 2²² rounds that float
/// to an integer and leaves the integer, offset by `2²²`, in the low
/// mantissa bits — a float → int conversion with no convert instruction.
const ROUND: f32 = 12_582_912.0;

/// Symmetric i8 quantization of `x` at `scale`: `x / scale` rounded half
/// away from zero, saturated to `±127`, NaN to `0`.
///
/// Bit for bit `(x / scale).round().clamp(-127.0, 127.0) as i8` for every
/// input, NaN, `±∞`, `−0` and subnormals included — but branch-free with
/// no float → int convert: the `as` cast compiles to one scalar
/// `cvttss2si` per lane, which keeps a loop of these from vectorizing.
/// Here the clamped integer is read back out of the bits of `r + 1.5·2²³`
/// instead.
#[inline(always)]
#[must_use]
pub fn quantize_i8(x: f32, scale: f32) -> i8 {
    let r = (x / scale).round();
    let r = if r.is_nan() { 0.0 } else { r }.clamp(-127.0, 127.0);
    (r + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as i8
}

/// Row-wise softmax over the matrix view.
///
/// Numerically stabilized by subtracting the row maximum before
/// exponentiation.
///
/// # Example
///
/// ```
/// use llmnpu_tensor::{Tensor, ops};
///
/// # fn main() -> Result<(), llmnpu_tensor::Error> {
/// let t = Tensor::from_vec(vec![0.0_f32, 0.0], [1, 2])?;
/// let s = ops::softmax(&t);
/// assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn softmax(x: &Tensor<f32>) -> Tensor<f32> {
    let (rows, cols) = x.matrix_dims();
    let mut out = Tensor::zeros([rows, cols]);
    for r in 0..rows {
        let row = x.row(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let out_row = out.row_mut(r);
        let mut sum = 0.0_f32;
        for (o, &v) in out_row.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        if sum > 0.0 {
            for o in out_row.iter_mut() {
                *o /= sum;
            }
        }
    }
    out
}

/// SiLU activation `x · sigmoid(x)` (used by LLaMA/Qwen/Mistral FFNs),
/// as `v / (1 + e^{−v})`.
///
/// `e^{−v}` comes from `e = e^{−|v|}` on the branch-free [`exp_nonpos`]
/// — `e` itself for `v ≥ 0`, `1 / e` below — so the loop vectorizes
/// where libm's `expf` is a call per element, and the result does not
/// depend on the host's libm. Within 4 ulp of the libm expression
/// wherever that is at least `1e-35` in magnitude; below it (`v` under
/// ≈ −80, where `exp_nonpos` flushes past `ln 2⁻¹²⁶`) within `1e-35`.
/// NaN stays NaN, `±∞` gives `+∞` / NaN and `±0` gives `±0`, as before.
#[must_use]
pub fn silu(x: &Tensor<f32>) -> Tensor<f32> {
    x.map(|v| {
        let e = exp_nonpos(-v.abs());
        let exp_neg_v = if v >= 0.0 { e } else { 1.0 / e };
        v / (1.0 + exp_neg_v)
    })
}

/// GELU activation (tanh approximation, used by Gemma/Phi FFNs).
#[must_use]
pub fn gelu(x: &Tensor<f32>) -> Tensor<f32> {
    x.map(|v| {
        0.5 * v * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (v + 0.044_715 * v * v * v)).tanh())
    })
}

/// ReLU activation.
#[must_use]
pub fn relu(x: &Tensor<f32>) -> Tensor<f32> {
    x.map(|v| v.max(0.0))
}

/// Elementwise sum of two tensors of identical shape (residual connections).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if shapes differ.
pub fn add(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
    zip_with("add", a, b, |x, y| x + y)
}

/// Elementwise product of two tensors of identical shape (gated FFNs).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if shapes differ.
pub fn mul(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
    zip_with("mul", a, b, |x, y| x * y)
}

fn zip_with(
    op: &'static str,
    a: &Tensor<f32>,
    b: &Tensor<f32>,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor<f32>> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            op,
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Ok(Tensor::from_vec(data, a.shape().clone()).expect("same volume by construction"))
}

/// Scales every element by a constant.
#[must_use]
pub fn scale(x: &Tensor<f32>, factor: f32) -> Tensor<f32> {
    x.map(|v| v * factor)
}

/// Applies a causal mask in place to square or rectangular attention scores.
///
/// Row `i` of the matrix view may attend to columns `0..=i + offset`; later
/// columns are set to `-inf`. `offset` is the number of tokens that precede
/// this chunk (`0` for a full prompt, `chunk_start` for chunked prefill — the
/// chunk-level causal dependency of §3.2).
pub fn causal_mask_inplace(scores: &mut Tensor<f32>, offset: usize) {
    let (rows, cols) = scores.matrix_dims();
    for r in 0..rows {
        let limit = (r + offset + 1).min(cols);
        for v in &mut scores.row_mut(r)[limit..] {
            *v = f32::NEG_INFINITY;
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ (internal kernel; callers validate shapes).
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]).unwrap();
        let s = softmax(&t);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0], [1, 3]).unwrap();
        let b = Tensor::from_vec(vec![101.0_f32, 102.0, 103.0], [1, 3]).unwrap();
        let sa = softmax(&a);
        let sb = softmax(&b);
        for (x, y) in sa.as_slice().iter().zip(sb.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_neg_infinity_mask() {
        let t = Tensor::from_vec(vec![0.0_f32, f32::NEG_INFINITY], [1, 2]).unwrap();
        let s = softmax(&t);
        assert!((s.as_slice()[0] - 1.0).abs() < 1e-6);
        assert_eq!(s.as_slice()[1], 0.0);
    }

    #[test]
    fn silu_known_values() {
        let t = Tensor::from_vec(vec![0.0_f32, 1.0], [2]).unwrap();
        let s = silu(&t);
        assert_eq!(s.as_slice()[0], 0.0);
        assert!((s.as_slice()[1] - 0.731_058_6).abs() < 1e-5);
    }

    #[test]
    fn gelu_known_values() {
        let t = Tensor::from_vec(vec![0.0_f32, 1.0, -1.0], [3]).unwrap();
        let g = gelu(&t);
        assert_eq!(g.as_slice()[0], 0.0);
        assert!((g.as_slice()[1] - 0.841_19).abs() < 1e-3);
        assert!((g.as_slice()[2] + 0.158_81).abs() < 1e-3);
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(vec![-2.0_f32, 3.0], [2]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn add_mul_validate_shapes() {
        let a = Tensor::from_vec(vec![1.0_f32, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![3.0_f32, 4.0], [2]).unwrap();
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(mul(&a, &b).unwrap().as_slice(), &[3.0, 8.0]);
        let c = Tensor::<f32>::zeros([3]);
        assert!(add(&a, &c).is_err());
        assert!(mul(&a, &c).is_err());
    }

    #[test]
    fn causal_mask_zero_offset() {
        let mut s = Tensor::full(1.0_f32, [3, 3]);
        causal_mask_inplace(&mut s, 0);
        assert_eq!(s.row(0), &[1.0, f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_eq!(s.row(1), &[1.0, 1.0, f32::NEG_INFINITY]);
        assert_eq!(s.row(2), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn causal_mask_with_chunk_offset() {
        // A chunk of 2 new tokens attending over 4 total positions, with 2
        // tokens of history: row 0 sees 3 positions, row 1 sees all 4.
        let mut s = Tensor::full(1.0_f32, [2, 4]);
        causal_mask_inplace(&mut s, 2);
        assert_eq!(s.row(0), &[1.0, 1.0, 1.0, f32::NEG_INFINITY]);
        assert_eq!(s.row(1), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn scale_multiplies() {
        let t = Tensor::from_vec(vec![1.0_f32, -2.0], [2]).unwrap();
        assert_eq!(scale(&t, 0.5).as_slice(), &[0.5, -1.0]);
    }
}

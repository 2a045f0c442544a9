//! Register-tiled microkernels.
//!
//! Each call computes one `MR × NR` tile of `C += A · B` from packed
//! panels (see [`super::pack`]), holding the whole tile in accumulator
//! registers across the K loop. The accumulators are structured as two
//! explicit 4-row banks: this is the widest shape current rustc reliably
//! keeps in SIMD registers without spilling, and with two banks the FMA
//! chains of neighbouring rows interleave enough to hide the FMA latency
//! on one core.
//!
//! # Float contraction
//!
//! When the build target has hardware FMA (`target_feature = "fma"`, e.g.
//! via `-C target-cpu=native`), the f32 kernel accumulates with
//! [`f32::mul_add`], which compiles to a fused multiply-add — roughly
//! twice the throughput of separate mul + add on x86. Without the
//! feature it falls back to plain `a * b + c`, because `mul_add` would
//! otherwise lower to a libm call. The choice is fixed at compile time,
//! so results are deterministic for any given build; across *different*
//! builds the fused and unfused kernels may differ by one rounding.

/// Rows per microkernel tile.
pub const MR: usize = 8;
/// Columns per microkernel tile.
pub const NR: usize = 16;

/// Fused (or contracted) multiply-add; see the module docs. Shared with
/// the driver's GEMV path so both always use the same contraction rule.
#[inline(always)]
pub(super) fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// `C_tile += A_panel · B_panel` over `kc` K steps, `f32`.
///
/// `a_panel` is K-major `MR`-wide, `b_panel` is K-major `NR`-wide; both
/// must hold at least `kc` steps. The tile accumulates into `acc`.
#[inline(never)]
pub fn microkernel_f32(kc: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let mut lo = [[0.0f32; NR]; 4];
    let mut hi = [[0.0f32; NR]; 4];
    for (a, b) in a_panel
        .chunks_exact(MR)
        .zip(b_panel.chunks_exact(NR))
        .take(kc)
    {
        let bv: &[f32; NR] = b.try_into().expect("NR-sized chunk");
        for r in 0..4 {
            let ar = a[r];
            let row = &mut lo[r];
            for j in 0..NR {
                row[j] = fmadd(ar, bv[j], row[j]);
            }
        }
        for r in 0..4 {
            let ar = a[4 + r];
            let row = &mut hi[r];
            for j in 0..NR {
                row[j] = fmadd(ar, bv[j], row[j]);
            }
        }
    }
    for r in 0..4 {
        for j in 0..NR {
            acc[r][j] += lo[r][j];
            acc[4 + r][j] += hi[r][j];
        }
    }
}

/// `C_tile += A_panel · B_panel` over `kc` K steps, integer path: the
/// one body behind both integer tile loops.
///
/// The A panel arrives widened to `i16` (see [`super::pack`]); the B
/// panel is one **unsigned** byte per element — either a column panel of
/// [`super::pack::PackedMatrixI8`] (`b + 128`) or `lut_unpack`'s output
/// (one stored code per byte). Either way the signed value is
/// `byte − bias`, and the caller removes `bias · Σ a` afterwards, once
/// per (row, group). Products are exact in `i32`, and no partial sum can
/// leave `i32` while `128 · 255 · K < 2^31`, i.e. for any `K ≤ 2^16`, so
/// the result is bit-identical to the scalar reference regardless of
/// blocking or thread count.
///
/// The operand type is not cosmetic. A product of a sign-extended `i16`
/// and a value whose upper bits are known zero compiles to one paired
/// widening multiply-accumulate (`vpmaddwd`/`vpdpwssd`-class on x86)
/// where two signed `i16` operands need a full-width 32-bit multiply
/// plus an add, and a byte per element halves the panel traffic
/// (`BENCH_kernels.json`, `rows` / `lut_decode`). Pairing two K steps
/// per `i32` lane — the shape those instructions really have, twice the
/// MACs each — does *not* survive the auto-vectorizer: both the
/// interleaved-panel and the two-rows-per-iteration formulation
/// scalarize (≈ 6 Gop/s), so under `forbid(unsafe_code)` this body is
/// the ceiling. `#[inline(never)]` keeps it a standalone function, which
/// is the shape the vectorizer is checked against.
#[inline(never)]
pub fn microkernel_int(kc: usize, a_panel: &[i16], b_panel: &[u8], acc: &mut [[i32; NR]; MR]) {
    let mut lo = [[0i32; NR]; 4];
    let mut hi = [[0i32; NR]; 4];
    for (a, b) in a_panel
        .chunks_exact(MR)
        .zip(b_panel.chunks_exact(NR))
        .take(kc)
    {
        let mut bv = [0i32; NR];
        for j in 0..NR {
            bv[j] = i32::from(b[j]);
        }
        for r in 0..4 {
            let ar = i32::from(a[r]);
            let row = &mut lo[r];
            for j in 0..NR {
                row[j] += ar * bv[j];
            }
        }
        for r in 0..4 {
            let ar = i32::from(a[4 + r]);
            let row = &mut hi[r];
            for j in 0..NR {
                row[j] += ar * bv[j];
            }
        }
    }
    for r in 0..4 {
        for j in 0..NR {
            acc[r][j] += lo[r][j];
            acc[4 + r][j] += hi[r][j];
        }
    }
}

/// Splits one group of a LUT column panel into one stored code per byte:
/// the K-major `NR`-wide `u8` B operand [`microkernel_int`] consumes.
///
/// `codes` is the group's run of `NR`-byte rows in the plane-split panel
/// layout of [`super::lut`]: byte `j` of row `i` carries column `j`'s
/// codes for positions `i`, `rows + i`, … (one per `BITS`-wide field,
/// least significant first; 2 planes for int4, 4 for int2). Plane `t`
/// lands in panel rows `t · rows ..`, so panel row `p` holds the 16
/// columns' *stored* codes of group position `p`; the bias is removed
/// later, once per (row, group), through the activation group sum.
#[inline(never)]
pub(super) fn lut_unpack<const BITS: usize>(codes: &[u8], panel: &mut [u8]) {
    let mask = (1u8 << BITS) - 1;
    for (t, plane) in panel.chunks_exact_mut(codes.len()).enumerate() {
        for (dst, &src) in plane.iter_mut().zip(codes) {
            *dst = (src >> (BITS * t)) & mask;
        }
    }
}

/// One group of one LUT column panel against one quantized activation
/// row, lanes = output columns: `acc[j] = Σ_p code(p, j) · aq[p]` over
/// the group's positions, reading `codes` in place (the GEMV-shaped
/// counterpart of [`lut_unpack`] + [`microkernel_int`]; same layout,
/// `aq` in position order). At `BITS = 8` a byte-row is one position of
/// one plane and the "group" is a whole offset-`u8` column panel of
/// [`super::pack::PackedMatrixI8`]: the i8 GEMV is this function.
///
/// The partial-sum table `T[p][v] = aq[p] · (v − bias)` is evaluated in
/// registers, entry by entry as each code selects it, rather than
/// materialized; every entry is an exact small integer, so the result is
/// bit-identical to a lookup in the materialized table in any order. The
/// bias is hoisted out by the exact identity
/// `Σ (code − bias) · aq = Σ code · aq − bias · Σ aq` — the caller
/// subtracts the second term.
///
/// Three codegen properties are load-bearing, all checked by the
/// `lut_decode` bench rows rather than by eye: `#[inline(always)]` into
/// the `#[inline(never)]` row walker in [`super::lut`] (standalone per
/// group, the call and the spilled result cost a third of a `gs = 32`
/// GEMV; inlined any further out, the lanes degrade to scalar
/// shuffling); each byte-row is widened to `i32` lanes *before* its
/// fields are shifted out (x86 has no byte shift, and the masked field's
/// known-zero upper bits are what select the paired widening
/// multiply-accumulate, `vpmaddwd`/`vpdpwssd`-class); and the sum runs
/// through **four** accumulator rows — `BITS / 2` byte-rows per step ×
/// `8 / BITS` planes, for every width — which is the shape the
/// vectorizer keeps in 16-lane registers (with one row, or eight, it
/// vectorizes across byte-rows with gathers instead). An integer sum is
/// freely reassociable, so none of this is visible in the result.
#[inline(always)]
pub(super) fn lut_dot<const BITS: usize>(codes: &[u8], aq: &[i16]) -> [i32; NR] {
    let mask = (1i32 << BITS) - 1;
    let rows = codes.len() / NR;
    assert_eq!(aq.len(), rows * 8 / BITS, "one activation per code");
    let step = BITS / 2;
    debug_assert_eq!(rows % step, 0, "groups are a multiple of 4 positions");
    let mut acc = [[0i32; NR]; 4];
    for (i, block) in codes.chunks_exact(step * NR).enumerate() {
        for r in 0..step {
            let mut w = [0i32; NR];
            for j in 0..NR {
                w[j] = i32::from(block[r * NR + j]);
            }
            for t in 0..8 / BITS {
                let x = i32::from(aq[t * rows + step * i + r]);
                for j in 0..NR {
                    acc[step * t + r][j] += ((w[j] >> (BITS * t)) & mask) * x;
                }
            }
        }
    }
    let [mut out, rest @ ..] = acc;
    for row in rest {
        for j in 0..NR {
            out[j] += row[j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_tile_matches_scalar_product() {
        let kc = 7;
        let a: Vec<f32> = (0..kc * MR).map(|x| (x % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..kc * NR).map(|x| (x % 7) as f32 - 3.0).collect();
        let mut acc = [[0.0f32; NR]; MR];
        microkernel_f32(kc, &a, &b, &mut acc);
        for r in 0..MR {
            for j in 0..NR {
                let want: f32 = (0..kc).map(|p| a[p * MR + r] * b[p * NR + j]).sum();
                assert!(
                    (acc[r][j] - want).abs() < 1e-4,
                    "tile ({r},{j}): {} vs {want}",
                    acc[r][j]
                );
            }
        }
    }

    #[test]
    fn int_tile_is_exact_over_the_whole_unsigned_range() {
        // A spans the full signed `i8` range; B bytes past `i8::MAX` must
        // not sign-extend (the offset i8 panels use all of `0..=255`).
        let kc = 9;
        let a: Vec<i16> = (0..kc * MR).map(|x| (x % 256) as i16 - 128).collect();
        let b: Vec<u8> = (0..kc * NR).map(|x| (x * 7 % 256) as u8).collect();
        let mut acc = [[1i32; NR]; MR];
        microkernel_int(kc, &a, &b, &mut acc);
        for r in 0..MR {
            for j in 0..NR {
                let want: i32 = (0..kc)
                    .map(|p| i32::from(a[p * MR + r]) * i32::from(b[p * NR + j]))
                    .sum();
                assert_eq!(acc[r][j], 1 + want, "tile ({r},{j})");
            }
        }
    }

    #[test]
    fn accumulates_into_existing_tile() {
        let mut acc = [[1.0f32; NR]; MR];
        microkernel_f32(1, &[1.0; MR], &[2.0; NR], &mut acc);
        assert!(acc.iter().flatten().all(|&x| (x - 3.0).abs() < 1e-6));
    }

    /// Packs `len × NR` stored codes (`code(p, j)`) into the plane-split
    /// byte-rows of one group.
    fn pack_group<const BITS: usize>(len: usize, code: impl Fn(usize, usize) -> u8) -> Vec<u8> {
        let rows = len * BITS / 8;
        let mut codes = vec![0u8; rows * NR];
        for p in 0..len {
            for j in 0..NR {
                codes[(p % rows) * NR + j] |= code(p, j) << (BITS * (p / rows));
            }
        }
        codes
    }

    /// `lut_dot` and `lut_unpack` + `microkernel_int` against the
    /// semantic ground truth: a materialized table per position, indexed
    /// by the stored code, for one group of `len` positions.
    fn check_group<const BITS: usize>(len: usize) {
        let bias = 1 << (BITS - 1);
        let code = |p: usize, j: usize| ((p * 7 + j * 5 + 3) % (1 << BITS)) as u8;
        let codes = pack_group::<BITS>(len, code);
        let aq: Vec<i16> = (0..len)
            .map(|p| ((p * 31 + 9) % 255) as i16 - 127)
            .collect();
        let aq_sum: i32 = aq.iter().map(|&x| i32::from(x)).sum();
        let mut want = [0i32; NR];
        for (p, &av) in aq.iter().enumerate() {
            let table: Vec<i32> = (0..1 << BITS).map(|v| i32::from(av) * (v - bias)).collect();
            for (j, w) in want.iter_mut().enumerate() {
                *w += table[usize::from(code(p, j))];
            }
        }
        let got = lut_dot::<BITS>(&codes, &aq);
        assert_eq!(got.map(|s| s - bias * aq_sum), want, "dot, len {len}");

        let mut panel = vec![0u8; len * NR];
        lut_unpack::<BITS>(&codes, &mut panel);
        for (p, row) in panel.chunks_exact(NR).enumerate() {
            for (j, &c) in row.iter().enumerate() {
                assert_eq!(c, code(p, j), "unpack ({p},{j}), len {len}");
            }
        }
        // Row r of the tile carries `(r + 1) · aq`.
        let mut a_panel = vec![0i16; len * MR];
        for (p, &av) in aq.iter().enumerate() {
            for r in 0..MR {
                a_panel[p * MR + r] = av * (r as i16 + 1) % 128;
            }
        }
        let mut acc = [[0i32; NR]; MR];
        microkernel_int(len, &a_panel, &panel, &mut acc);
        for (r, acc_row) in acc.iter().enumerate() {
            for (j, &got) in acc_row.iter().enumerate() {
                let want: i32 = (0..len)
                    .map(|p| i32::from(a_panel[p * MR + r]) * i32::from(code(p, j)))
                    .sum();
                assert_eq!(got, want, "tile ({r},{j}), len {len}");
            }
        }
    }

    #[test]
    fn lut_dot_at_eight_bits_is_a_plain_panel_dot() {
        // One plane, one byte per position: the offset-`u8` i8 panel.
        for len in [0usize, 4, 8, 36] {
            let codes: Vec<u8> = (0..len * NR).map(|x| (x * 11 % 256) as u8).collect();
            let aq: Vec<i16> = (0..len).map(|p| (p * 29 % 256) as i16 - 128).collect();
            let got = lut_dot::<8>(&codes, &aq);
            for (j, &s) in got.iter().enumerate() {
                let want: i32 = (0..len)
                    .map(|p| i32::from(codes[p * NR + j]) * i32::from(aq[p]))
                    .sum();
                assert_eq!(s, want, "lane {j}, len {len}");
            }
        }
    }

    #[test]
    fn lut_group_kernels_match_materialized_table() {
        // Down to the smallest group a ragged tail can leave.
        for len in [4usize, 8, 12, 32, 76] {
            check_group::<4>(len);
        }
        for len in [4usize, 8, 12, 32, 84] {
            check_group::<2>(len);
        }
    }
}

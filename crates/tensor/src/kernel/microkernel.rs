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
//!
//! # The integer dot-product engine: one audited `unsafe` block
//!
//! The integer tile ([`microkernel_int`]) has two bodies and one
//! dispatch. On `x86_64`, when the running CPU reports AVX-512 VNNI and
//! VBMI, it runs a `#[target_feature]` body built on `vpdpbusd` — four
//! `u8 × i8` products summed into each `i32` lane per instruction, the
//! CPU's INT8 matrix-engine analogue; everywhere else it runs the
//! portable body, [`microkernel_int_portable`], which is also the
//! reference the tests hold the dispatched body to. Calling a
//! `#[target_feature]` function from code compiled without those features
//! is the one `unsafe` operation here, so this module is the crate's one
//! scoped `allow(unsafe_code)` and the dispatch is its one `unsafe`
//! block; the VNNI body itself uses value intrinsics only. Both bodies
//! are exact integer arithmetic over `K ≤ 2^16`, so which one runs never
//! changes a bit: results stay fixed per build on every host.

#![allow(unsafe_code)]

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
/// one tile behind both integer tile loops (the i8 tile loop and the LUT
/// tile walker), dispatched once per call to the fastest body the
/// running CPU has (see the module docs).
///
/// The A panel is signed `i8` in `[kc / 4][MR][4]` order (see
/// [`super::pack::pack_a_i8`]): each row's four consecutive K values are
/// adjacent, one 32-bit broadcast. The B panel is K-major, `NR`
/// **unsigned** bytes per K step — either a column panel of
/// [`super::pack::PackedMatrixI8`] (`b + 128`) or `lut_unpack`'s output
/// (one stored code per byte). Either way the signed value is
/// `byte − bias`, and the caller removes `bias · Σ a` afterwards, once
/// per (row, group). `kc` is the panel depth, a multiple of 4 (both
/// packers pad K with zero activations). Products are exact in `i32`,
/// and no partial sum can leave `i32` while `128 · 255 · K < 2^31`, i.e.
/// for any `K ≤ 2^16`, so the result is bit-identical to the scalar
/// reference regardless of body, blocking or thread count.
#[inline]
pub fn microkernel_int(kc: usize, a_panel: &[i8], b_panel: &[u8], acc: &mut [[i32; NR]; MR]) {
    debug_assert!(kc <= 1 << 16, "K = {kc} is past the exactness bound 2^16");
    debug_assert!(kc.is_multiple_of(4), "K = {kc} is not a multiple of 4");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni")
        && is_x86_feature_detected!("avx512vbmi")
    {
        // SAFETY: the only precondition of calling a `#[target_feature]`
        // function is that the running CPU supports every feature it
        // enables; `vnni::microkernel_int` enables exactly the four
        // `is_x86_feature_detected!` just reported present.
        return unsafe { vnni::microkernel_int(kc, a_panel, b_panel, acc) };
    }
    microkernel_int_portable(kc, a_panel, b_panel, acc);
}

/// The portable body of [`microkernel_int`] (same contract): the path on
/// every CPU without AVX-512 VNNI + VBMI, and the reference the tests pin
/// the dispatched body to.
///
/// The operand types are not cosmetic. A product of a sign-extended `i8`
/// and a value whose upper bits are known zero compiles to one paired
/// widening multiply-accumulate (`vpmovzxbd` + `vpdpwssd` on an AVX-512
/// host) where a full-width 32-bit multiply plus an add would be needed
/// otherwise, and a byte per element keeps panel traffic low
/// (`BENCH_kernels.json`, `rows` / `lut_decode`). Pairing K steps per
/// `i32` lane — the shape those instructions really have — does *not*
/// survive the auto-vectorizer (it scalarizes, ≈ 6 Gop/s), which is why
/// the four-MACs-per-lane `vpdpbusd` body is written with intrinsics.
/// `#[inline(never)]` keeps this a standalone function, which is the
/// shape the vectorizer is checked against.
#[inline(never)]
pub fn microkernel_int_portable(
    kc: usize,
    a_panel: &[i8],
    b_panel: &[u8],
    acc: &mut [[i32; NR]; MR],
) {
    let mut lo = [[0i32; NR]; 4];
    let mut hi = [[0i32; NR]; 4];
    for (a, b) in a_panel
        .chunks_exact(4 * MR)
        .zip(b_panel.chunks_exact(4 * NR))
        .take(kc / 4)
    {
        for (t, b) in b.chunks_exact(NR).enumerate() {
            let mut bv = [0i32; NR];
            for j in 0..NR {
                bv[j] = i32::from(b[j]);
            }
            for r in 0..4 {
                let ar = i32::from(a[4 * r + t]);
                let row = &mut lo[r];
                for j in 0..NR {
                    row[j] += ar * bv[j];
                }
            }
            for r in 0..4 {
                let ar = i32::from(a[4 * (4 + r) + t]);
                let row = &mut hi[r];
                for j in 0..NR {
                    row[j] += ar * bv[j];
                }
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

/// The AVX-512 VNNI body of [`microkernel_int`]. Compiled on every
/// `x86_64` build whatever `target-cpu` says, run only where detected.
#[cfg(target_arch = "x86_64")]
mod vnni {
    use std::arch::x86_64::{
        __m512i, _mm512_dpbusd_epi32, _mm512_extracti32x4_epi32, _mm512_permutexvar_epi8,
        _mm512_set1_epi32, _mm512_setr_epi32, _mm512_setzero_si512, _mm_extract_epi32,
    };

    use super::{MR, NR};

    /// `vpermb` indices turning four K-major 16-byte B rows into
    /// `[16 columns][4 k]`: output byte `4j + t` is input byte `16t + j`,
    /// so `i32` lane `j` holds column `j`'s four K steps, lowest first.
    const QUAD_TRANSPOSE: [i32; NR] = {
        let mut lanes = [0; NR];
        let mut j = 0;
        while j < NR {
            lanes[j] = 0x3020_1000 + 0x0101_0101 * j as i32;
            j += 1;
        }
        lanes
    };

    /// Four K steps per iteration: one 64-byte B load and one `vpermb`,
    /// then per row one 32-bit broadcast of its four A bytes and one
    /// `vpdpbusd` (`u8` B × `i8` A, four products summed into each `i32`
    /// lane, no saturation). The eight accumulators are the tile.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512vbmi")]
    #[inline(never)]
    pub(super) fn microkernel_int(
        kc: usize,
        a_panel: &[i8],
        b_panel: &[u8],
        acc: &mut [[i32; NR]; MR],
    ) {
        let transpose = from_lanes(QUAD_TRANSPOSE);
        let mut tile = [_mm512_setzero_si512(); MR];
        for (a, b) in a_panel
            .chunks_exact(4 * MR)
            .zip(b_panel.chunks_exact(4 * NR))
            .take(kc / 4)
        {
            let b = from_lanes(std::array::from_fn(|j| quad(b, j)));
            let b = _mm512_permutexvar_epi8(transpose, b);
            for (r, row) in tile.iter_mut().enumerate() {
                let a = i32::from_le_bytes(std::array::from_fn(|t| a[4 * r + t] as u8));
                *row = _mm512_dpbusd_epi32(*row, b, _mm512_set1_epi32(a));
            }
        }
        for (acc_row, row) in acc.iter_mut().zip(tile) {
            for (s, lane) in acc_row.iter_mut().zip(to_lanes(row)) {
                *s += lane;
            }
        }
    }

    /// Bytes `4j .. 4j + 4` of `bytes` as one little-endian lane.
    #[inline(always)]
    fn quad(bytes: &[u8], j: usize) -> i32 {
        i32::from_le_bytes(std::array::from_fn(|t| bytes[4 * j + t]))
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn from_lanes(l: [i32; NR]) -> __m512i {
        _mm512_setr_epi32(
            l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7], l[8], l[9], l[10], l[11], l[12], l[13],
            l[14], l[15],
        )
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn to_lanes(v: __m512i) -> [i32; NR] {
        let quarters = [
            _mm512_extracti32x4_epi32::<0>(v),
            _mm512_extracti32x4_epi32::<1>(v),
            _mm512_extracti32x4_epi32::<2>(v),
            _mm512_extracti32x4_epi32::<3>(v),
        ];
        let mut lanes = [0; NR];
        for (out, q) in lanes.chunks_exact_mut(4).zip(quarters) {
            out.copy_from_slice(&[
                _mm_extract_epi32::<0>(q),
                _mm_extract_epi32::<1>(q),
                _mm_extract_epi32::<2>(q),
                _mm_extract_epi32::<3>(q),
            ]);
        }
        lanes
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

    /// An A panel in the tile's `[kc / 4][MR][4]` order, `a(p, r)` at
    /// K step `p` of row `r`.
    fn a_quads(kc: usize, a: impl Fn(usize, usize) -> i8) -> Vec<i8> {
        let mut panel = vec![0i8; kc * MR];
        for p in 0..kc {
            for r in 0..MR {
                panel[(p / 4 * MR + r) * 4 + p % 4] = a(p, r);
            }
        }
        panel
    }

    /// Runs both integer bodies into copies of `init` and pins them
    /// bit-identical to each other.
    fn int_tile(kc: usize, a: &[i8], b: &[u8], init: i32) -> [[i32; NR]; MR] {
        let mut portable = [[init; NR]; MR];
        microkernel_int_portable(kc, a, b, &mut portable);
        let mut dispatched = [[init; NR]; MR];
        microkernel_int(kc, a, b, &mut dispatched);
        assert_eq!(portable, dispatched, "bodies disagree, kc {kc}");
        dispatched
    }

    #[test]
    fn int_tile_is_exact_over_the_whole_unsigned_range() {
        // A spans the full signed `i8` range; B bytes past `i8::MAX` must
        // not sign-extend (the offset i8 panels use all of `0..=255`).
        // Every A value and every B byte occurs.
        let kc = 32;
        let a = |p: usize, r: usize| (p * MR + r) as u8 as i8;
        let b: Vec<u8> = (0..kc * NR).map(|x| (x * 7 % 256) as u8).collect();
        let acc = int_tile(kc, &a_quads(kc, a), &b, 1);
        for (r, acc_row) in acc.iter().enumerate() {
            for (j, &got) in acc_row.iter().enumerate() {
                let want: i32 = (0..kc)
                    .map(|p| i32::from(a(p, r)) * i32::from(b[p * NR + j]))
                    .sum();
                assert_eq!(got, 1 + want, "tile ({r},{j})");
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
        let a = |p: usize, r: usize| (aq[p] * (r as i16 + 1) % 128) as i8;
        let acc = int_tile(len, &a_quads(len, a), &panel, 0);
        for (r, acc_row) in acc.iter().enumerate() {
            for (j, &got) in acc_row.iter().enumerate() {
                let want: i32 = (0..len)
                    .map(|p| i32::from(a(p, r)) * i32::from(code(p, j)))
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

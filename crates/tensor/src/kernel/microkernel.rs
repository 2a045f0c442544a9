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
//! The integer tile runs two jobs: the i8 panel tile
//! ([`microkernel_int`], the i8 tile loop's) and the fused LUT tile
//! ([`lut_tile`], the LUT GEMM's at `m > 2`). Each has two bodies, and
//! one dispatch selects for both. On `x86_64`, when the running CPU
//! reports AVX-512 VNNI and VBMI, it runs `#[target_feature]` bodies
//! built on `vpdpbusd` — four `u8 × i8` products summed into each `i32`
//! lane per instruction, the CPU's INT8 matrix-engine analogue — through
//! one entry over an enum of tile jobs; everywhere else it runs the
//! portable bodies, [`microkernel_int_portable`] and
//! [`lut_tile_portable`], which are also the references the tests hold
//! the dispatched bodies to. Calling a `#[target_feature]` function from
//! code compiled without those features is the one `unsafe` operation
//! here, so this module is the crate's one scoped `allow(unsafe_code)`
//! and the dispatch is its one `unsafe` block; the VNNI bodies
//! themselves use value intrinsics only. Every body is exact integer
//! arithmetic over `K ≤ 2^16`, and the LUT bodies run the reference's
//! group epilogue as a separate multiply and add, so which one runs
//! never changes a bit: results stay fixed per build on every host.

#![allow(unsafe_code)]

/// Rows per microkernel tile.
pub const MR: usize = 8;
/// Columns per microkernel tile.
pub const NR: usize = 16;

/// Fused (or contracted) multiply-add; see the module docs. Shared with
/// the driver's GEMV path and [`crate::ops::exp_nonpos`] so all of them
/// use the same contraction rule.
#[inline(always)]
pub(crate) fn fmadd(a: f32, b: f32, c: f32) -> f32 {
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
/// tile behind the i8 tile loop, dispatched once per call to the fastest
/// body the running CPU has (see the module docs).
///
/// The A panel is signed `i8` in `[kc / 4][MR][4]` order (see
/// [`super::pack::pack_a_i8`]): each row's four consecutive K values are
/// adjacent, one 32-bit broadcast. The B panel is a column panel of
/// [`super::pack::PackedMatrixI8`]: K-major, `NR` **unsigned** bytes
/// (`b + 128`) per K step, so the signed value is `byte − 128` and the
/// caller removes `128 · Σ a` afterwards, once per row. `kc` is the
/// panel depth, a multiple of 4 (the packer pads K with zero
/// activations). Products are exact in `i32`, and no partial sum can
/// leave `i32` while `128 · 255 · K < 2^31`, i.e. for any `K ≤ 2^16`, so
/// the result is bit-identical to the scalar reference regardless of
/// body, blocking or thread count.
#[inline]
pub fn microkernel_int(kc: usize, a_panel: &[i8], b_panel: &[u8], acc: &mut [[i32; NR]; MR]) {
    debug_assert!(kc <= 1 << 16, "K = {kc} is past the exactness bound 2^16");
    debug_assert!(kc.is_multiple_of(4), "K = {kc} is not a multiple of 4");
    run_int_tile(IntTile::Panel {
        kc,
        a_panel,
        b_panel,
        acc,
    });
}

/// One `MR`-row register tile of a LUT GEMM against one `NR`-column panel
/// of [`super::lut::PackedLut`]: the operands [`lut_tile`] and
/// [`lut_tile_portable`] read, every group of the panel at once.
#[derive(Clone, Copy, Debug)]
pub struct LutTile<'a> {
    /// The panel's codes, group after group, in the plane-split layout
    /// of [`super::lut`]: byte `j` of byte-row `i` of a group with `R`
    /// byte-rows carries column `j`'s codes for group positions `i`,
    /// `R + i`, … (one per `BITS`-wide field, least significant first).
    /// Every group but a ragged last one is `group_size · BITS / 8`
    /// byte-rows.
    pub codes: &'a [u8],
    /// The panel's weight scales, `[group][NR]`.
    pub w_scales: &'a [f32],
    /// Positions per group, a positive multiple of 4.
    pub group_size: usize,
    /// The rows' `i8` activations over the padded `K`, in the
    /// `[K / 4][MR][4]` A-panel order of [`microkernel_int`].
    pub a_panel: &'a [i8],
    /// Per-(group, row) bias corrections `bias · Σ aq` over the group's
    /// positions, `[group][MR]` (`bias` = 8 for int4, 2 for int2).
    pub a_corrs: &'a [i32],
    /// Per-row activation scales, `MR` of them; a padding row has scale 0.
    pub a_scales: &'a [f32],
}

/// One group of a [`LutTile`], cut out for a body.
struct LutGroup<'a> {
    /// `R` byte-rows of `NR` codes.
    codes: &'a [u8],
    w_scales: &'a [f32; NR],
    /// `R · 8 / BITS` positions of A panel.
    a: &'a [i8],
    corrs: &'a [i32; MR],
}

impl<'a> LutTile<'a> {
    /// The tile's groups in ascending order — the order the group
    /// epilogue must run in for the float sums to be the reference's.
    fn groups<const BITS: usize>(&self) -> impl Iterator<Item = LutGroup<'a>> {
        let gs = self.group_size;
        self.codes
            .chunks(gs * BITS / 8 * NR)
            .zip(self.w_scales.as_chunks::<NR>().0)
            .zip(self.a_panel.chunks(gs * MR))
            .zip(self.a_corrs.as_chunks::<MR>().0)
            .map(|(((codes, w_scales), a), corrs)| LutGroup {
                codes,
                w_scales,
                a,
                corrs,
            })
    }

    /// Panics unless the operands agree with each other.
    fn check<const BITS: usize>(&self) {
        const { assert!(BITS == 4 || BITS == 2, "LUT codes are 4 or 2 bits wide") };
        let gs = self.group_size;
        assert!(
            gs >= 4 && gs.is_multiple_of(4),
            "LUT group size must be a positive multiple of 4, got {gs}"
        );
        debug_assert!(
            gs <= 1 << 16,
            "group size {gs} is past the exactness bound 2^16"
        );
        let k_pad = self.codes.len() * 8 / BITS / NR;
        let groups = k_pad.div_ceil(gs);
        assert!(
            self.codes.len().is_multiple_of(NR) && k_pad.is_multiple_of(4),
            "LUT tile: {} code bytes are not whole quads of NR-byte rows",
            self.codes.len()
        );
        assert_eq!(self.a_panel.len(), k_pad * MR, "LUT tile: A panel depth");
        assert_eq!(self.w_scales.len(), groups * NR, "LUT tile: weight scales");
        assert_eq!(self.a_corrs.len(), groups * MR, "LUT tile: corrections");
        assert_eq!(self.a_scales.len(), MR, "LUT tile: activation scales");
    }
}

/// The fused LUT tile: `out[r][j] = Σ_g (acc − corr) as f32 ·
/// (a_scale[r] · w_scale[g][j])` in ascending group order, where `acc` is
/// row `r`'s dot with column `j`'s stored codes over group `g` and
/// `corr` its `bias · Σ aq` —
/// `C = dequant(A · B)` for `MR` rows and one `NR`-column panel, written
/// once. Dispatched to the fastest body the running CPU has (see the
/// module docs); every body computes the reference's float expression
/// with a separate multiply and add, so which one runs never changes a
/// bit.
///
/// # Panics
///
/// Panics if `BITS` is not 4 or 2, or the operands disagree with each
/// other (see [`LutTile`]).
#[inline]
pub fn lut_tile<const BITS: usize>(tile: &LutTile<'_>, out: &mut [[f32; NR]; MR]) {
    tile.check::<BITS>();
    let tile = *tile;
    run_int_tile(if BITS == 4 {
        IntTile::Lut4(tile, out)
    } else {
        IntTile::Lut2(tile, out)
    });
}

/// One job for the integer tile: the i8 panel tile or the fused LUT tile
/// at either code width.
enum IntTile<'a> {
    Panel {
        kc: usize,
        a_panel: &'a [i8],
        b_panel: &'a [u8],
        acc: &'a mut [[i32; NR]; MR],
    },
    Lut4(LutTile<'a>, &'a mut [[f32; NR]; MR]),
    Lut2(LutTile<'a>, &'a mut [[f32; NR]; MR]),
}

/// The one dispatch: the AVX-512 VNNI bodies where the running CPU has
/// them, the portable bodies everywhere else.
#[inline]
fn run_int_tile(job: IntTile<'_>) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni")
        && is_x86_feature_detected!("avx512vbmi")
    {
        // SAFETY: the only precondition of calling a `#[target_feature]`
        // function is that the running CPU supports every feature it
        // enables; `vnni::run` enables exactly the four
        // `is_x86_feature_detected!` just reported present.
        return unsafe { vnni::run(job) };
    }
    match job {
        IntTile::Panel {
            kc,
            a_panel,
            b_panel,
            acc,
        } => microkernel_int_portable(kc, a_panel, b_panel, acc),
        IntTile::Lut4(tile, out) => lut_tile_portable::<4>(&tile, out),
        IntTile::Lut2(tile, out) => lut_tile_portable::<2>(&tile, out),
    }
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

/// The portable body of [`lut_tile`] (same contract): the path on every
/// CPU without AVX-512 VNNI + VBMI, and the reference the tests pin the
/// dispatched body to.
///
/// Per group, `lut_group_portable` sums the codes against the eight
/// rows in `i32`; the group epilogue then adds them into eight rows of
/// `f32` outputs, written once at the end.
///
/// # Panics
///
/// Panics if `BITS` is not 4 or 2, or the operands disagree with each
/// other (see [`LutTile`]).
#[inline(never)]
pub fn lut_tile_portable<const BITS: usize>(tile: &LutTile<'_>, out: &mut [[f32; NR]; MR]) {
    tile.check::<BITS>();
    let mut res = [[0.0f32; NR]; MR];
    for group in tile.groups::<BITS>() {
        let acc = lut_group_portable::<BITS>(group.codes, group.a);
        for (r, res_row) in res.iter_mut().enumerate() {
            let (corr, a_scale) = (group.corrs[r], tile.a_scales[r]);
            for j in 0..NR {
                res_row[j] += (acc[r][j] - corr) as f32 * (a_scale * group.w_scales[j]);
            }
        }
    }
    *out = res;
}

/// One group of [`lut_tile_portable`]: `acc[r][j] = Σ_p a(p, r) ·
/// code(p, j)` over the group's positions, walked a plane at a time
/// (plane `t`, byte-row `i` is position `t · R + i`), so a quad that
/// straddles two planes needs nothing special. Shaped like
/// [`microkernel_int_portable`] — the masked code's known-zero upper bits
/// and two banks of four rows are what keep it in 16-lane registers —
/// and `#[inline(never)]` for the same reason.
#[inline(never)]
fn lut_group_portable<const BITS: usize>(codes: &[u8], a: &[i8]) -> [[i32; NR]; MR] {
    let rows = codes.len() / NR;
    let mut lo = [[0i32; NR]; 4];
    let mut hi = [[0i32; NR]; 4];
    for t in 0..8 / BITS {
        for (i, row) in codes.chunks_exact(NR).enumerate() {
            let p = t * rows + i;
            let a = &a[p / 4 * 4 * MR + p % 4..];
            let mut bv = [0i32; NR];
            for j in 0..NR {
                bv[j] = i32::from((row[j] >> (BITS * t)) & ((1 << BITS) - 1));
            }
            for r in 0..4 {
                let ar = i32::from(a[4 * r]);
                for j in 0..NR {
                    lo[r][j] += ar * bv[j];
                }
            }
            for r in 0..4 {
                let ar = i32::from(a[4 * (4 + r)]);
                for j in 0..NR {
                    hi[r][j] += ar * bv[j];
                }
            }
        }
    }
    let mut acc = [[0i32; NR]; MR];
    acc[..4].copy_from_slice(&lo);
    acc[4..].copy_from_slice(&hi);
    acc
}

/// The AVX-512 VNNI bodies of [`microkernel_int`] and [`lut_tile`].
/// Compiled on every `x86_64` build whatever `target-cpu` says, run only
/// where detected.
#[cfg(target_arch = "x86_64")]
mod vnni {
    use std::arch::x86_64::{
        __m512, __m512i, _mm512_add_ps, _mm512_and_si512, _mm512_castps_si512, _mm512_castsi512_ps,
        _mm512_cvtepi32_ps, _mm512_dpbusd_epi32, _mm512_extracti32x4_epi32, _mm512_mul_ps,
        _mm512_permutexvar_epi8, _mm512_set1_epi32, _mm512_set1_epi8, _mm512_set1_ps,
        _mm512_setr_epi32, _mm512_setzero_ps, _mm512_setzero_si512, _mm512_srl_epi64,
        _mm512_sub_epi32, _mm_extract_epi32, _mm_set_epi64x,
    };

    use super::{IntTile, LutTile, MR, NR};

    /// The one `#[target_feature]` entry: runs `job` on its VNNI body.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512vbmi")]
    pub(super) fn run(job: IntTile<'_>) {
        match job {
            IntTile::Panel {
                kc,
                a_panel,
                b_panel,
                acc,
            } => microkernel_int(kc, a_panel, b_panel, acc),
            IntTile::Lut4(tile, out) => lut_tile::<4>(&tile, out),
            IntTile::Lut2(tile, out) => lut_tile::<2>(&tile, out),
        }
    }

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
    fn microkernel_int(kc: usize, a_panel: &[i8], b_panel: &[u8], acc: &mut [[i32; NR]; MR]) {
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

    /// The fused LUT tile: per group, each 64-byte block of four code
    /// byte-rows is loaded once and transposed once (`vpermb` commutes
    /// with the per-byte plane split), then each plane is one `vpand` (and
    /// one `vpsrlq` to the next) and eight `vpdpbusd` against its quad of
    /// A. The group epilogue converts, multiplies by `a_scale · w_scale`
    /// and adds — a separate multiply and add, never an FMA, so the bits
    /// are the reference's — into eight `f32` registers held across
    /// groups, stored once at the end.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512vbmi")]
    #[inline(never)]
    fn lut_tile<const BITS: usize>(tile: &LutTile<'_>, out: &mut [[f32; NR]; MR]) {
        let transpose = from_lanes(QUAD_TRANSPOSE);
        let mask = _mm512_set1_epi8(((1u8 << BITS) - 1) as i8);
        let plane_shift = _mm_set_epi64x(0, BITS as i64);
        let a_scales: [__m512; MR] = std::array::from_fn(|r| _mm512_set1_ps(tile.a_scales[r]));
        let mut res = [_mm512_setzero_ps(); MR];
        for group in tile.groups::<BITS>() {
            let mut acc = [_mm512_setzero_si512(); MR];
            let rows = group.codes.len() / NR;
            let quads = group.a.as_chunks::<{ 4 * MR }>().0;
            if rows.is_multiple_of(4) {
                for (i, block) in group.codes.chunks_exact(4 * NR).enumerate() {
                    let mut planes = _mm512_permutexvar_epi8(transpose, load(block));
                    for t in 0..8 / BITS {
                        let b = _mm512_and_si512(planes, mask);
                        dot(&mut acc, b, &quads[t * rows / 4 + i]);
                        planes = _mm512_srl_epi64(planes, plane_shift);
                    }
                }
            } else {
                for (q, a) in quads.iter().enumerate() {
                    let quad = quad_codes::<BITS>(group.codes, 4 * q);
                    dot(&mut acc, _mm512_permutexvar_epi8(transpose, load(&quad)), a);
                }
            }
            let w = _mm512_castsi512_ps(from_lanes(group.w_scales.map(|w| w.to_bits() as i32)));
            for (((res, acc), &corr), a_scale) in
                res.iter_mut().zip(acc).zip(group.corrs).zip(a_scales)
            {
                let s = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, _mm512_set1_epi32(corr)));
                *res = _mm512_add_ps(*res, _mm512_mul_ps(s, _mm512_mul_ps(a_scale, w)));
            }
        }
        for (out_row, res) in out.iter_mut().zip(res) {
            *out_row = to_lanes(_mm512_castps_si512(res)).map(|x| f32::from_bits(x as u32));
        }
    }

    /// `acc[r] += b · a(r)` over one quad: per row one 32-bit broadcast of
    /// its four A bytes and one `vpdpbusd`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512vbmi")]
    #[inline]
    fn dot(acc: &mut [__m512i; MR], b: __m512i, a: &[i8; 4 * MR]) {
        for (r, row) in acc.iter_mut().enumerate() {
            let a = i32::from_le_bytes(std::array::from_fn(|t| a[4 * r + t] as u8));
            *row = _mm512_dpbusd_epi32(*row, b, _mm512_set1_epi32(a));
        }
    }

    /// The first 64 bytes of `bytes` as one vector.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load(bytes: &[u8]) -> __m512i {
        let bytes = &bytes[..4 * NR];
        from_lanes(std::array::from_fn(|j| {
            i32::from_le_bytes(bytes[4 * j..][..4].try_into().expect("four bytes"))
        }))
    }

    /// The stored codes of group positions `p0 .. p0 + 4`, K-major, one per
    /// byte, wherever those positions sit among the planes of `codes` (one
    /// group's byte-rows): the B operand of one quad that may straddle two
    /// planes.
    fn quad_codes<const BITS: usize>(codes: &[u8], p0: usize) -> [u8; 4 * NR] {
        let rows = codes.len() / NR;
        let mut quad = [0u8; 4 * NR];
        for (s, dst) in quad.chunks_exact_mut(NR).enumerate() {
            let (t, i) = ((p0 + s) / rows, (p0 + s) % rows);
            for (d, &c) in dst.iter_mut().zip(&codes[i * NR..][..NR]) {
                *d = (c >> (BITS * t)) & ((1 << BITS) - 1);
            }
        }
        quad
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

/// One group of one LUT column panel against one quantized activation
/// row, lanes = output columns: `acc[j] = Σ_p code(p, j) · aq[p]` over
/// the group's positions, reading `codes` in place (the GEMV-shaped
/// counterpart of one group of [`lut_tile`]; same layout, `aq` in
/// position order). At `BITS = 8` a byte-row is one position of
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

    /// Runs both LUT tile bodies and pins them bit-identical to each
    /// other.
    fn lut_tiles<const BITS: usize>(tile: &LutTile<'_>) -> [[f32; NR]; MR] {
        let mut portable = [[f32::NAN; NR]; MR];
        lut_tile_portable::<BITS>(tile, &mut portable);
        let mut dispatched = [[f32::NAN; NR]; MR];
        lut_tile::<BITS>(tile, &mut dispatched);
        let bits = |t: [[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
        assert_eq!(bits(portable), bits(dispatched), "LUT tile bodies disagree");
        dispatched
    }

    /// `lut_dot` and the fused LUT tile against the semantic ground
    /// truth: a materialized table per position, indexed by the stored
    /// code, for one group of `len` positions.
    fn check_group<const BITS: usize>(len: usize) {
        let bias = 1 << (BITS - 1);
        let code = |p: usize, j: usize| ((p * 7 + j * 5 + 3) % (1 << BITS)) as u8;
        let codes = pack_group::<BITS>(len, code);
        let aq: Vec<i16> = (0..len)
            .map(|p| ((p * 31 + 9) % 255) as i16 - 127)
            .collect();
        let aq_sum: i32 = aq.iter().map(|&x| i32::from(x)).sum();
        // Row r of the tile carries `(r + 1) · aq`, wrapped into i8.
        let a = |p: usize, r: usize| (aq[p] * (r as i16 + 1) % 128) as i8;
        let table_sum = |a: &dyn Fn(usize) -> i32, j: usize| -> i32 {
            (0..len)
                .map(|p| {
                    let table: Vec<i32> = (0..1 << BITS).map(|v| a(p) * (v - bias)).collect();
                    table[usize::from(code(p, j))]
                })
                .sum()
        };
        let got = lut_dot::<BITS>(&codes, &aq);
        for (j, &s) in got.iter().enumerate() {
            let want = table_sum(&|p| i32::from(aq[p]), j);
            assert_eq!(s - bias * aq_sum, want, "dot ({j}), len {len}");
        }

        let w_scales: Vec<f32> = (0..NR).map(|j| 0.25 + j as f32 / 64.0).collect();
        let a_scales: Vec<f32> = (0..MR).map(|r| 0.5 / (r as f32 + 1.0)).collect();
        let a_corrs: Vec<i32> = (0..MR)
            .map(|r| bias * (0..len).map(|p| i32::from(a(p, r))).sum::<i32>())
            .collect();
        let tile = LutTile {
            codes: &codes,
            w_scales: &w_scales,
            group_size: len,
            a_panel: &a_quads(len, a),
            a_corrs: &a_corrs,
            a_scales: &a_scales,
        };
        let out = lut_tiles::<BITS>(&tile);
        for (r, out_row) in out.iter().enumerate() {
            for (j, &got) in out_row.iter().enumerate() {
                let acc = table_sum(&|p| i32::from(a(p, r)), j);
                let want = 0.0 + acc as f32 * (a_scales[r] * w_scales[j]);
                assert_eq!(got.to_bits(), want.to_bits(), "tile ({r},{j}), len {len}");
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
        // Down to the smallest group a ragged tail can leave; 4, 12, 20
        // and 76 (int4) and every int2 length but 32 put a quad across
        // two planes.
        for len in [4usize, 8, 12, 20, 32, 76] {
            check_group::<4>(len);
        }
        for len in [4usize, 8, 12, 32, 84] {
            check_group::<2>(len);
        }
    }

    /// Both LUT tile bodies over several groups with a ragged last one,
    /// at the extremes of the `i32` sums: every code 0 or every code at
    /// its maximum against activations of ±127 and −128, so each group
    /// sum is as far from zero as a group of its length allows. Each
    /// output is checked against the group epilogue written out in
    /// scalar `f32`, in ascending group order.
    #[test]
    fn lut_tile_bodies_agree_at_the_extremes() {
        fn check<const BITS: usize>(k: usize, gs: usize, code: u8, a: i8) {
            let bias = 1 << (BITS - 1);
            let lens: Vec<usize> = (0..k).step_by(gs).map(|g0| gs.min(k - g0)).collect();
            let codes: Vec<u8> = lens
                .iter()
                .flat_map(|&len| pack_group::<BITS>(len, |_, _| code))
                .collect();
            let w_scales: Vec<f32> = (0..lens.len() * NR).map(|i| 1.0 + i as f32 / 7.0).collect();
            let a_of = |p: usize, r: usize| if (p + r).is_multiple_of(2) { a } else { -127 };
            let mut a_corrs = Vec::new();
            for (g, &len) in lens.iter().enumerate() {
                for r in 0..MR {
                    let sum: i32 = (0..len).map(|p| i32::from(a_of(g * gs + p, r))).sum();
                    a_corrs.push(bias * sum);
                }
            }
            let a_scales = [0.0, 1.0, 0.5, 3.0e-3, 7.0, 1.0e-30, 2.0, f32::NAN];
            let tile = LutTile {
                codes: &codes,
                w_scales: &w_scales,
                group_size: gs,
                a_panel: &a_quads(k, a_of),
                a_corrs: &a_corrs,
                a_scales: &a_scales,
            };
            let out = lut_tiles::<BITS>(&tile);
            for (r, out_row) in out.iter().enumerate() {
                for (j, &got) in out_row.iter().enumerate() {
                    let mut want = 0.0f32;
                    for (g, &len) in lens.iter().enumerate() {
                        let acc: i32 = (0..len)
                            .map(|p| i32::from(a_of(g * gs + p, r)) * (i32::from(code) - bias))
                            .sum();
                        want += acc as f32 * (a_scales[r] * w_scales[g * NR + j]);
                    }
                    let at = format!("i{BITS} k={k} gs={gs} code={code} a={a} ({r},{j})");
                    assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                }
            }
        }
        for (k, gs) in [(72usize, 32usize), (1376, 20), (40, 12)] {
            for a in [127i8, -127, -128] {
                check::<4>(k, gs, 0, a);
                check::<4>(k, gs, 15, a);
                check::<2>(k, gs, 0, a);
                check::<2>(k, gs, 3, a);
            }
        }
    }
}

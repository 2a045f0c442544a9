//! Tiled causal attention over paged K/V: `QKᵀ` → softmax → `PV`.
//!
//! The operator the paper keeps out of the chunk-shared NPU subgraphs
//! and runs in float on the CPU lane (§3.2) — its shape is dynamic — so
//! it is the CPU lane's largest kernel. The contract, the reduction
//! orders and the identities they buy are stated in the
//! [module docs](super#attention); this file is the implementation.

use super::microkernel::{fmadd, microkernel_f32, MR, NR};
use std::ops::Range;

use super::{probe, GEMV_MAX_ROWS};
use crate::{ops, Tensor};

/// Keys per tile: one K-major `NR`-wide panel, the B operand of
/// [`microkernel_f32`]. A constant of the kernel, never the page size.
pub const KEY_TILE: usize = NR;

/// Query rows scored against one packed key tile before the next tile
/// is packed; bounds the score scratch at `ROW_BLOCK × kv_len` floats.
const ROW_BLOCK: usize = 8 * MR;

/// Head geometry of one attention call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadGeometry {
    /// Query heads.
    pub heads: usize,
    /// Key/value heads; `heads / kv_heads` query heads share each.
    pub kv_heads: usize,
    /// Width of one head.
    pub head_dim: usize,
}

impl HeadGeometry {
    fn q_dim(self) -> usize {
        self.heads * self.head_dim
    }

    fn kv_dim(self) -> usize {
        self.kv_heads * self.head_dim
    }

    fn group(self) -> usize {
        self.heads / self.kv_heads
    }
}

/// One row per cached position, in position order, whatever the paging.
fn page_rows<'a>(pages: &[&'a [f32]], kv_dim: usize) -> Vec<&'a [f32]> {
    pages
        .iter()
        .inspect(|p| assert_eq!(p.len() % kv_dim, 0, "page is not whole rows"))
        .flat_map(|p| p.chunks_exact(kv_dim))
        .collect()
}

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
    const ROUND: f32 = 12_582_912.0;
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

/// Softmax numerators of one score row, in place, and their sum.
///
/// `row` is a whole number of `NR`-wide lane groups with every masked
/// entry already `−∞`. The maximum ignores NaN (so a NaN score survives
/// into its own numerator and from there into the sum); the sum keeps
/// `NR` lane partials in ascending position order and folds them in one
/// fixed tree, so it depends on the row's values and length only.
/// Masked entries come out exactly `0`. Normalisation is the caller's:
/// dividing the `head_dim` outputs is cheaper than dividing the row.
fn softmax_numerators(row: &mut [f32]) -> f32 {
    let mut max = [f32::NEG_INFINITY; NR];
    for lanes in row.chunks_exact(NR) {
        for j in 0..NR {
            max[j] = if lanes[j] > max[j] { lanes[j] } else { max[j] };
        }
    }
    let max = max
        .iter()
        .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
    let mut sum = [0.0f32; NR];
    for lanes in row.chunks_exact_mut(NR) {
        for j in 0..NR {
            let e = exp_nonpos(lanes[j] - max);
            lanes[j] = e;
            sum[j] += e;
        }
    }
    let mut width = NR / 2;
    while width > 0 {
        for j in 0..width {
            sum[j] += sum[j + width];
        }
        width /= 2;
    }
    sum[0]
}

/// `(Σ_c probs[r][c] · v[c][col..col + w]) / sums[r]` for `R` rows against
/// one `≤ NR`-wide panel of the value head (lanes past `w` are padding),
/// ascending `c` from zero per output. Rows share each loaded value row
/// up to the shortest row's causal limit (`probs` rows arrive in
/// ascending-limit order, each cut at its limit), then finish their own
/// tails, so no masked position is ever multiplied.
fn pv_panel<const R: usize>(
    probs: [&[f32]; R],
    sums: [f32; R],
    v_rows: &[&[f32]],
    col: usize,
    w: usize,
) -> [[f32; NR]; R] {
    let load = |v_row: &[f32]| -> [f32; NR] {
        let src = &v_row[col..col + w];
        <[f32; NR]>::try_from(src).unwrap_or_else(|_| {
            let mut padded = [0.0; NR];
            padded[..w].copy_from_slice(src);
            padded
        })
    };
    let shared = probs[0].len();
    let mut acc = [[0.0f32; NR]; R];
    for (c, v_row) in v_rows[..shared].iter().enumerate() {
        let v = load(v_row);
        for r in 0..R {
            let p = probs[r][c];
            for j in 0..NR {
                acc[r][j] = fmadd(p, v[j], acc[r][j]);
            }
        }
    }
    for r in 0..R {
        for (c, v_row) in v_rows[..probs[r].len()].iter().enumerate().skip(shared) {
            let v = load(v_row);
            let p = probs[r][c];
            for j in 0..NR {
                acc[r][j] = fmadd(p, v[j], acc[r][j]);
            }
        }
        for a in &mut acc[r] {
            *a /= sums[r];
        }
    }
    acc
}

/// The `m = group × seq` query rows that share one KV head: row `i` is
/// query head `i % group` of position `start_pos + i / group`, so causal
/// limits ascend with `i`.
#[derive(Clone, Copy)]
struct HeadRows {
    geom: HeadGeometry,
    kv_head: usize,
    start_pos: usize,
    kv_len: usize,
}

impl HeadRows {
    /// Offset of row `i`'s head slice in the query / output matrix.
    fn at(&self, i: usize) -> usize {
        let group = self.geom.group();
        (i / group) * self.geom.q_dim() + (self.kv_head * group + i % group) * self.geom.head_dim
    }

    /// Cached positions row `i` may attend to.
    fn limit(&self, i: usize) -> usize {
        (self.start_pos + i / self.geom.group() + 1).min(self.kv_len)
    }

    /// This KV head's columns of a cached row.
    fn columns<'a>(&self, kv_row: &'a [f32]) -> &'a [f32] {
        &kv_row[self.kv_head * self.geom.head_dim..][..self.geom.head_dim]
    }
}

/// Scores of the block `rows` (at most `GEMV_MAX_ROWS` of a head's
/// rows — transposing a key tile costs as much as scoring one or two
/// rows against it) dotted straight from the row-major key rows: the
/// tile path's expression without the transpose.
fn scores_direct(
    head: HeadRows,
    rows: Range<usize>,
    q: &[f32],
    k_rows: &[&[f32]],
    scores: &mut [f32],
    stride: usize,
) {
    let hd = head.geom.head_dim;
    let scale = 1.0 / (hd as f32).sqrt();
    for (i, s_row) in rows.zip(scores.chunks_exact_mut(stride)) {
        let q_row = &q[head.at(i)..][..hd];
        for (s, k_row) in s_row.iter_mut().zip(&k_rows[..head.limit(i)]) {
            let chain = q_row
                .iter()
                .zip(head.columns(k_row))
                .fold(0.0, |acc, (&a, &b)| fmadd(a, b, acc));
            // The tile path adds its chain into a zeroed accumulator,
            // which turns −0 into +0.
            *s = (0.0 + chain) * scale;
        }
    }
}

/// Scores of the block `rows` through the microkernel: query rows packed
/// once into K-major `MR`-wide A panels, each key tile transposed once
/// into the K-major `NR`-wide B panel (`panels` holds both) and run
/// against every row panel it is not fully masked for.
fn scores_tiled(
    head: HeadRows,
    rows: Range<usize>,
    q: &[f32],
    k_rows: &[&[f32]],
    scores: &mut [f32],
    stride: usize,
    panels: &mut [f32],
) {
    let hd = head.geom.head_dim;
    let scale = 1.0 / (hd as f32).sqrt();
    let (q_panels, k_panel) = panels.split_at_mut(ROW_BLOCK * hd);
    let q_panels = &mut q_panels[..rows.len().next_multiple_of(MR) * hd];
    q_panels.fill(0.0);
    for (r, i) in rows.clone().enumerate() {
        let panel = &mut q_panels[(r / MR) * MR * hd..];
        for (k, &x) in q[head.at(i)..][..hd].iter().enumerate() {
            panel[k * MR + r % MR] = x;
        }
    }
    for c0 in (0..head.limit(rows.end - 1)).step_by(KEY_TILE) {
        // Lanes past the cache's end keep stale keys: their scores land
        // past every row's limit and are never read.
        for (j, k_row) in k_rows[c0..].iter().take(KEY_TILE).enumerate() {
            for (k, &x) in head.columns(k_row).iter().enumerate() {
                k_panel[k * NR + j] = x;
            }
        }
        for (a_panel, r0) in q_panels.chunks_exact(MR * hd).zip((0..).step_by(MR)) {
            let r1 = (r0 + MR).min(rows.len());
            if c0 >= head.limit(rows.start + r1 - 1) {
                continue; // tile fully masked for these rows
            }
            let mut acc = [[0.0f32; NR]; MR];
            microkernel_f32(hd, a_panel, k_panel, &mut acc);
            for (s_row, acc_row) in scores[r0 * stride..r1 * stride]
                .chunks_exact_mut(stride)
                .zip(&acc)
            {
                for (s, &a) in s_row[c0..c0 + NR].iter_mut().zip(acc_row) {
                    *s = a * scale;
                }
            }
        }
    }
}

/// Causal multi-head attention of `seq` query rows at absolute
/// positions `start_pos..` over paged K/V, into `out`.
///
/// `q` and `out` are `seq × heads·head_dim` row-major; `pages_k[i]` /
/// `pages_v[i]` hold whole `kv_heads·head_dim`-wide rows covering cache
/// positions in order. Row `r` attends to positions
/// `0..min(start_pos + r + 1, kv_len)`. Reports to the kernel probe as
/// site `"attention"` with `m = group · seq`, `n = kv_len`,
/// `k = head_dim`.
///
/// # Panics
///
/// Panics if `kv_heads` does not divide `heads`, a slice length
/// disagrees with the geometry, or the K and V pagings hold different
/// row counts.
pub fn attention_paged(
    geom: HeadGeometry,
    start_pos: usize,
    q: &[f32],
    pages_k: &[&[f32]],
    pages_v: &[&[f32]],
    out: &mut [f32],
) {
    let hd = geom.head_dim;
    assert_eq!(geom.heads % geom.kv_heads, 0, "heads must group evenly");
    assert_eq!(q.len() % geom.q_dim(), 0, "query is not whole rows");
    assert_eq!(q.len(), out.len(), "output shape mismatch");
    let k_rows = page_rows(pages_k, geom.kv_dim());
    let v_rows = page_rows(pages_v, geom.kv_dim());
    assert_eq!(k_rows.len(), v_rows.len(), "K and V row counts differ");
    let kv_len = k_rows.len();
    let m = geom.group() * (q.len() / geom.q_dim());
    if m == 0 {
        return;
    }
    if kv_len == 0 {
        out.fill(0.0);
        return;
    }
    let visible = (start_pos + q.len() / geom.q_dim()).min(kv_len);
    let stride = visible.next_multiple_of(NR);
    let mut scratch = vec![0.0f32; m.min(ROW_BLOCK) * stride + ROW_BLOCK * hd + hd * NR];
    let (scores, panels) = scratch.split_at_mut(m.min(ROW_BLOCK) * stride);

    probe::profiled("attention", m, kv_len, hd, || {
        for kv_head in 0..geom.kv_heads {
            let head = HeadRows {
                geom,
                kv_head,
                start_pos,
                kv_len,
            };
            for i0 in (0..m).step_by(ROW_BLOCK) {
                let rows = (m - i0).min(ROW_BLOCK);
                let scores = &mut scores[..rows * stride];
                if rows <= GEMV_MAX_ROWS {
                    scores_direct(head, i0..i0 + rows, q, &k_rows, scores, stride);
                } else {
                    scores_tiled(head, i0..i0 + rows, q, &k_rows, scores, stride, panels);
                }
                // The causal mask is each row's length.
                let mut sums = [0.0f32; ROW_BLOCK];
                for ((r, s_row), sum) in scores.chunks_exact_mut(stride).enumerate().zip(&mut sums)
                {
                    let limit = head.limit(i0 + r);
                    let row = &mut s_row[..limit.next_multiple_of(NR)];
                    row[limit..].fill(f32::NEG_INFINITY);
                    *sum = softmax_numerators(row);
                }
                let probs = |r: usize| &scores[r * stride..][..head.limit(i0 + r)];
                for d0 in (0..hd).step_by(NR) {
                    let w = (hd - d0).min(NR);
                    let col = kv_head * hd + d0;
                    let mut store = |r: usize, acc: &[f32; NR]| {
                        out[head.at(i0 + r) + d0..][..w].copy_from_slice(&acc[..w]);
                    };
                    for r0 in (0..rows - rows % MR).step_by(MR) {
                        let acc = pv_panel::<MR>(
                            std::array::from_fn(|x| probs(r0 + x)),
                            std::array::from_fn(|x| sums[r0 + x]),
                            &v_rows,
                            col,
                            w,
                        );
                        for (x, acc_row) in acc.iter().enumerate() {
                            store(r0 + x, acc_row);
                        }
                    }
                    for (r, &sum) in sums.iter().enumerate().take(rows).skip(rows - rows % MR) {
                        let [acc] = pv_panel::<1>([probs(r)], [sum], &v_rows, col, w);
                        store(r, &acc);
                    }
                }
            }
        }
    });
}

/// The scalar oracle [`attention_paged`] is tested against: one
/// `[seq, kv_len]` score matrix per head from [`ops::dot`], masked by
/// [`ops::causal_mask_inplace`], normalised by [`ops::softmax`], then a
/// row-by-row `PV`. Same signature and masking as the kernel; the floats
/// agree to rounding, not bit for bit.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry.
pub fn attention_reference(
    geom: HeadGeometry,
    start_pos: usize,
    q: &[f32],
    pages_k: &[&[f32]],
    pages_v: &[&[f32]],
    out: &mut [f32],
) {
    let (hd, group, q_dim) = (geom.head_dim, geom.group(), geom.q_dim());
    assert_eq!(q.len(), out.len(), "output shape mismatch");
    let seq = q.len() / q_dim;
    let k_rows = page_rows(pages_k, geom.kv_dim());
    let v_rows = page_rows(pages_v, geom.kv_dim());
    let scale = 1.0 / (hd as f32).sqrt();
    out.fill(0.0);
    for head in 0..geom.heads {
        let col0 = (head / group) * hd;
        let mut scores = Tensor::zeros([seq, k_rows.len()]);
        for r in 0..seq {
            let q_head = &q[r * q_dim + head * hd..][..hd];
            for (s, k_row) in scores.row_mut(r).iter_mut().zip(&k_rows) {
                *s = ops::dot(q_head, &k_row[col0..col0 + hd]) * scale;
            }
        }
        ops::causal_mask_inplace(&mut scores, start_pos);
        let probs = ops::softmax(&scores);
        for r in 0..seq {
            let o_head = &mut out[r * q_dim + head * hd..][..hd];
            for (&p, v_row) in probs.row(r).iter().zip(&v_rows) {
                for (o, &v) in o_head.iter_mut().zip(&v_row[col0..col0 + hd]) {
                    *o += p * v;
                }
            }
        }
    }
}

//! Causal attention over paged K/V: `QKᵀ` → softmax → `PV`.
//!
//! The operator the paper keeps out of the chunk-shared NPU subgraphs
//! and runs in float on the CPU lane (§3.2) — its shape is dynamic — so
//! it is the CPU lane's largest kernel. The contract, the two
//! orientations, the reduction orders and the identities they buy are
//! stated in the [module docs](super#attention); this file is the
//! implementation.
//!
//! No pass transposes a key or value row, and no dependent chain runs
//! alone. A block of query rows puts one row per SIMD lane
//! (`lane_block`): every score and `PV` step multiplies one page
//! element, broadcast from its row in place, into a lane vector, and
//! several keys' (or dimensions') chains run side by side. A decode row
//! (`decode_row`) has no rows to fill lanes with: its dot products run
//! eight keys' scalar chains side by side, its softmax puts the call's
//! heads in the lanes, and its `PV` runs eight heads' chains side by
//! side. Both orientations evaluate every output with the same
//! operations in the same order, so which one runs never changes a bit.

use std::cell::RefCell;
use std::ops::Range;

use super::microkernel::{fmadd, NR};
use super::probe;
use crate::ops::{self, exp_nonpos};
use crate::Tensor;

/// Keys per softmax tile: a score row's sum keeps one partial per
/// position mod `KEY_TILE`, folded by one fixed tree. A constant of the
/// kernel, never the page size.
pub const KEY_TILE: usize = NR;

/// Query rows per lane group: a block holds one query row per SIMD lane.
const LANES: usize = NR;

/// Lane groups per lane block: they share each key element's broadcast
/// in the score pass, and each block of value rows in the `PV` passes.
const BLOCK_GROUPS: usize = 2;

/// Rows per lane block.
const BLOCK_ROWS: usize = BLOCK_GROUPS * LANES;

/// Keys scored at once (per lane group of a block, or per decode row):
/// their dot chains are independent, so this many `fmadd`s are in flight
/// where one chain would wait on each.
const SCORE_KEYS: usize = 8;

/// Output dimensions per `PV` pass of a block: one accumulator each.
const PV_DIMS: usize = NR;

/// Positions per block of a lane block's numerators and `PV` passes:
/// every pass takes its turn on a block of probabilities and value rows
/// while the block is in cache.
const PV_BLOCK: usize = 64;

/// Rows per KV head at or below which a call runs in the decode
/// orientation: a lane group costs about three decode rows (measured at
/// 32 heads × 16 dims over 704 keys), so fewer rows than that would
/// leave most lanes empty.
const DECODE_MAX_ROWS: usize = 3;

/// Query heads whose decode-orientation `PV` chains run side by side.
const DECODE_HEADS: usize = 8;

/// Positions per block of a decode row's `PV` pass: every head takes its
/// turn on a block of page rows while the block is in cache, so the
/// pages stream through once rather than once per head.
const DECODE_BLOCK: usize = 16;

/// One value per lane: per query row of a lane group.
type Lanes = [f32; LANES];

thread_local! {
    /// Per-thread scratch: the scores (and a block's transposed queries
    /// and `PV` accumulators), and the allocation behind the K / V row
    /// table, which is empty between calls. A warm call allocates
    /// nothing.
    static SCRATCH: RefCell<(Vec<f32>, Vec<&'static [f32]>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `v`'s allocation, emptied, as a table of another lifetime: collecting
/// an emptied vector's own iterator reuses its buffer in place.
fn recycle<'b>(mut v: Vec<&[f32]>) -> Vec<&'b [f32]> {
    v.clear();
    v.into_iter()
        .map(|_| -> &'b [f32] { unreachable!("the table is empty") })
        .collect()
}

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

    /// `1 / √head_dim`, applied to every dot product.
    fn scale(self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }
}

/// One row per cached position, in position order, whatever the paging.
fn page_rows<'p, 'a: 'p>(
    pages: &'p [&'a [f32]],
    kv_dim: usize,
) -> impl Iterator<Item = &'a [f32]> + 'p {
    pages
        .iter()
        .inspect(move |p| assert_eq!(p.len() % kv_dim, 0, "page is not whole rows"))
        .flat_map(move |p| p.chunks_exact(kv_dim))
}

/// `(0 + chain) · scale`: every score's expression. The zero start turns
/// a `−0` chain into `+0`.
#[inline(always)]
fn score(chain: f32, scale: f32) -> f32 {
    (0.0 + chain) * scale
}

/// The one tree every softmax sum folds its [`KEY_TILE`] partials with,
/// lane by lane.
#[inline(always)]
fn fold_partials<const L: usize>(mut part: [[f32; L]; KEY_TILE]) -> [f32; L] {
    for width in [KEY_TILE / 2, KEY_TILE / 4, KEY_TILE / 8, KEY_TILE / 16] {
        let (lo, hi) = part.split_at_mut(width);
        for (a, b) in lo.iter_mut().zip(&*hi) {
            for (a, b) in a.iter_mut().zip(b) {
                *a += b;
            }
        }
    }
    part[0]
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

    /// Offset of this KV head's columns in a cached row.
    fn col(&self) -> usize {
        self.kv_head * self.geom.head_dim
    }
}

/// Dot products of keys `keys[..T]` for every lane of `G` lane groups,
/// into `tiles[g][t]`: lane `j` of group `g` gets `Σ_d key[d] ·
/// qt[g][d][j]`, one ascending-`d` `fmadd` chain from zero per key and
/// lane, each key element broadcast straight from its page row and shared
/// by the groups.
#[inline(never)]
fn score_lanes<const T: usize, const G: usize>(
    head: HeadRows,
    qt: [&[Lanes]; G],
    keys: &[&[f32]],
    tiles: [&mut [Lanes; T]; G],
) {
    let hd = head.geom.head_dim;
    let keys: [&[f32]; T] = std::array::from_fn(|t| &keys[t][head.col()..][..hd]);
    let qt = qt.map(|qt| &qt[..hd]);
    let mut acc = [[[0.0f32; LANES]; T]; G];
    for d in 0..hd {
        for t in 0..T {
            let k = keys[t][d];
            for g in 0..G {
                for j in 0..LANES {
                    acc[g][t][j] = fmadd(k, qt[g][d][j], acc[g][t][j]);
                }
            }
        }
    }
    for (tile, acc) in tiles.into_iter().zip(acc) {
        *tile = acc;
    }
}

/// The dot products of every key of `k_rows` for `G` lane groups, into
/// `scores[g][c]`: `T` keys at a time, then one by one.
fn score_rows<const T: usize, const G: usize>(
    head: HeadRows,
    qt: [&[Lanes]; G],
    k_rows: &[&[f32]],
    scores: [&mut [Lanes]; G],
) {
    let mut tiles = scores.map(|s| {
        let (tiles, rest) = s.as_chunks_mut::<T>();
        (tiles.iter_mut(), rest.as_chunks_mut::<1>().0.iter_mut())
    });
    let (whole, rest) = k_rows.as_chunks::<T>();
    for keys in whole {
        let tile = std::array::from_fn(|g| tiles[g].0.next().expect("a tile per key tile"));
        score_lanes::<T, G>(head, qt, keys, tile);
    }
    for key in rest {
        let tile = std::array::from_fn(|g| tiles[g].1.next().expect("a score per key"));
        score_lanes::<1, G>(head, qt, std::slice::from_ref(key), tile);
    }
}

/// Scores from dot products, in place, and each lane's maximum, which
/// ignores NaN (a NaN score survives into its own numerator, and from
/// there into the lane's sum). `−∞` (masked) stays `−∞`.
#[inline(never)]
fn scale_lanes(scores: &mut [Lanes], scale: f32) -> Lanes {
    let mut max = [f32::NEG_INFINITY; LANES];
    for s in scores {
        for j in 0..LANES {
            let x = score(s[j], scale);
            s[j] = x;
            max[j] = if x > max[j] { x } else { max[j] };
        }
    }
    max
}

/// Softmax numerators of positions `c0..` for every lane, in place:
/// `exp(score − max)` per lane, each summed into the partial of its
/// position mod [`KEY_TILE`], so partial `t` takes positions `≡ t` in
/// ascending order. A masked (`−∞`) score gives exactly `0`, which adds
/// nothing: the sums are those of each lane's row alone. Normalisation
/// is the caller's: dividing the `head_dim` outputs is cheaper than
/// dividing the row.
#[inline(always)]
fn numerators(scores: &mut [Lanes], c0: usize, max: &Lanes, sum: &mut [Lanes; KEY_TILE]) {
    for (c, s) in (c0..).zip(scores) {
        for j in 0..LANES {
            s[j] = exp_nonpos(s[j] - max[j]);
        }
        let part = &mut sum[c % KEY_TILE];
        for j in 0..LANES {
            part[j] += s[j];
        }
    }
}

/// `acc[d][j] += Σ_c p[c][j] · v[c][col + d]` for every lane `j` over
/// positions that every lane sees, ascending, each value element
/// broadcast from its page row. The accumulators are four banks of four
/// dimensions, which rustc keeps in registers (see
/// [`super::microkernel`]).
#[inline(never)]
fn pv_lanes(probs: &[Lanes], v_rows: &[&[f32]], col: usize, acc: &mut [Lanes; PV_DIMS]) {
    let mut banks: [[Lanes; 4]; PV_DIMS / 4] =
        std::array::from_fn(|b| std::array::from_fn(|d| acc[4 * b + d]));
    for (p, v_row) in probs.iter().zip(v_rows) {
        let v = &v_row[col..][..PV_DIMS];
        for (b, bank) in banks.iter_mut().enumerate() {
            for (d, a) in bank.iter_mut().enumerate() {
                let x = v[4 * b + d];
                for j in 0..LANES {
                    a[j] = fmadd(p[j], x, a[j]);
                }
            }
        }
    }
    *acc = std::array::from_fn(|d| banks[d / 4][d % 4]);
}

/// Lane `j`'s own rest of its `PV` sums: `acc[d] += Σ_c p[c][j] ·
/// v[c][col + d]` for `d < w` over the positions of `probs`, ascending,
/// with the dimensions in the lanes. Runs each lane's tail past the
/// positions every lane sees (so no masked position is ever multiplied)
/// and whole rows of a head narrower than a pass.
fn pv_lane(
    probs: &[Lanes],
    j: usize,
    v_rows: &[&[f32]],
    col: usize,
    w: usize,
    acc: &mut [f32; PV_DIMS],
) {
    for (p, v_row) in probs.iter().zip(v_rows) {
        for (a, &x) in acc.iter_mut().zip(&v_row[col..][..w]) {
            *a = fmadd(p[j], x, *a);
        }
    }
}

/// Rows `rows` of one KV head (at most [`BLOCK_ROWS`], in a call with
/// more than [`DECODE_MAX_ROWS`] per KV head), one query row per lane.
///
/// The queries are transposed once. Both lane groups score every key
/// from one broadcast ([`score_rows`]); per group the causal mask sets a
/// lane's scores past its limit to `−∞` and [`scale_lanes`] scales them
/// and takes the maxima. Then, a block of positions at a time and for
/// both groups while the block's value rows are in cache, the softmax
/// [`numerators`] and the `PV` passes ([`pv_lanes`]) over the positions
/// every lane of the group sees. Past those, each lane finishes its own
/// tail ([`pv_lane`]).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn lane_block(
    head: HeadRows,
    rows: Range<usize>,
    q: &[f32],
    k_rows: &[&[f32]],
    v_rows: &[&[f32]],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let hd = head.geom.head_dim;
    let groups = rows.len().div_ceil(LANES);
    // Lanes past the block's last row repeat it; nothing reads them.
    let row = |g: usize, j: usize| (rows.start + g * LANES + j).min(rows.end - 1);
    let visible = head.limit(rows.end - 1);
    let passes = hd / PV_DIMS;
    let len = groups * (hd + visible + passes * PV_DIMS) * LANES;
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    let (acc_t, rest) = scratch[..len]
        .as_chunks_mut::<LANES>()
        .0
        .split_at_mut(groups * passes * PV_DIMS);
    let acc_t = acc_t.as_chunks_mut::<PV_DIMS>().0;
    let (qt, scores) = rest.split_at_mut(groups * hd);
    for (g, qt) in qt.chunks_exact_mut(hd).enumerate() {
        for j in 0..LANES {
            for (lanes, &x) in qt.iter_mut().zip(&q[head.at(row(g, j))..][..hd]) {
                lanes[j] = x;
            }
        }
    }
    let (qt, k_rows) = (&*qt, &k_rows[..visible]);
    let (s0, s1) = scores.split_at_mut(visible);
    if groups == 2 {
        let qt = [&qt[..hd], &qt[hd..]];
        score_rows::<SCORE_KEYS, 2>(head, qt, k_rows, [&mut *s0, &mut *s1]);
    } else {
        score_rows::<SCORE_KEYS, 1>(head, [qt], k_rows, [&mut *s0]);
    }

    // Per lane group: the causal mask, the scale and the maxima.
    let mut scores = [s0, s1];
    let limits: [[usize; LANES]; BLOCK_GROUPS] =
        std::array::from_fn(|g| std::array::from_fn(|j| head.limit(row(g, j))));
    let mut max = [[f32::NEG_INFINITY; LANES]; BLOCK_GROUPS];
    for ((scores, limits), max) in scores.iter_mut().zip(&limits).zip(&mut max).take(groups) {
        for (j, &limit) in limits.iter().enumerate() {
            for s in &mut scores[limit..] {
                s[j] = f32::NEG_INFINITY;
            }
        }
        *max = scale_lanes(scores, head.geom.scale());
    }
    // The positions every lane of a group sees, in whole passes of
    // `PV_DIMS` dimensions, a block of positions at a time for both
    // groups while the block's value rows are in cache.
    let shared: [usize; BLOCK_GROUPS] =
        std::array::from_fn(|g| if passes > 0 { limits[g][0] } else { 0 });
    let mut parts = [[[0.0f32; LANES]; KEY_TILE]; BLOCK_GROUPS];
    acc_t.fill([[0.0; LANES]; PV_DIMS]);
    for c0 in (0..shared[groups - 1]).step_by(PV_BLOCK) {
        for (g, acc_t) in acc_t
            .chunks_exact_mut(passes.max(1))
            .enumerate()
            .take(groups)
        {
            let end = (c0 + PV_BLOCK).min(shared[g]);
            if c0 < end {
                let probs = &mut scores[g][c0..end];
                numerators(probs, c0, &max[g], &mut parts[g]);
                for (p, acc) in acc_t.iter_mut().enumerate() {
                    pv_lanes(probs, &v_rows[c0..end], head.col() + p * PV_DIMS, acc);
                }
            }
        }
    }
    // Each lane's own tail, and heads narrower than a pass.
    for g in 0..groups {
        let (scores, limits) = (&mut *scores[g], &limits[g]);
        numerators(&mut scores[shared[g]..], shared[g], &max[g], &mut parts[g]);
        let sum = fold_partials(parts[g]);
        for d0 in (0..hd).step_by(PV_DIMS) {
            let w = (hd - d0).min(PV_DIMS);
            let from = if w == PV_DIMS { shared[g] } else { 0 };
            for (j, i) in (rows.start + g * LANES..rows.end).take(LANES).enumerate() {
                let mut a = [0.0f32; PV_DIMS];
                if w == PV_DIMS {
                    for (a, acc) in a.iter_mut().zip(&acc_t[g * passes + d0 / PV_DIMS]) {
                        *a = acc[j];
                    }
                }
                let probs = &scores[from..limits[j]];
                pv_lane(probs, j, &v_rows[from..], head.col() + d0, w, &mut a);
                for (o, a) in out[head.at(i) + d0..][..w].iter_mut().zip(&a) {
                    *o = a / sum[j];
                }
            }
        }
    }
}

/// Dot products of one query row with `T` keys, their chains side by
/// side: `Σ_d q[d] · key[d]` in ascending `d` from zero, the expression
/// [`score_lanes`] evaluates per lane.
#[inline(always)]
fn dots<const T: usize>(q_row: &[f32], keys: [&[f32]; T]) -> [f32; T] {
    let hd = q_row.len();
    let keys = keys.map(|k| &k[..hd]);
    let mut acc = [0.0f32; T];
    for d in 0..hd {
        let x = q_row[d];
        for t in 0..T {
            acc[t] = fmadd(x, keys[t][d], acc[t]);
        }
    }
    acc
}

/// `acc[x][j] += Σ_c probs[c · heads + h0 + x] · v[c][cols[x] + j]` for
/// `H` heads over the positions of `v_rows`, ascending; lanes are output
/// dimensions and the `H` heads' chains run side by side.
#[inline(never)]
fn pv_heads<const H: usize, const W: usize>(
    probs: &[f32],
    heads: usize,
    h0: usize,
    v_rows: &[&[f32]],
    cols: [usize; H],
    acc: &mut [[f32; W]; H],
) {
    let mut a = *acc;
    for (p, v_row) in probs.chunks_exact(heads).zip(v_rows) {
        let p: &[f32; H] = p[h0..][..H].try_into().expect("H heads");
        for h in 0..H {
            let v: &[f32; W] = v_row[cols[h]..][..W].try_into().expect("W columns");
            for j in 0..W {
                a[h][j] = fmadd(p[h], v[j], a[h][j]);
            }
        }
    }
    *acc = a;
}

/// [`pv_heads`] for heads `h0..h0 + H` and dimensions `d0..d0 + W` over
/// one block of positions, accumulating into `acc` (`heads × head_dim`,
/// head-major).
fn pv_block<const H: usize, const W: usize>(
    geom: HeadGeometry,
    probs: &[f32],
    v_rows: &[&[f32]],
    (h0, d0): (usize, usize),
    acc: &mut [f32],
) {
    let hd = geom.head_dim;
    let at = |x: usize| (h0 + x) * hd + d0;
    let mut a: [[f32; W]; H] =
        std::array::from_fn(|x| acc[at(x)..][..W].try_into().expect("W dims"));
    let cols = std::array::from_fn(|x| (h0 + x) / geom.group() * hd + d0);
    pv_heads::<H, W>(probs, geom.heads, h0, v_rows, cols, &mut a);
    for (x, a) in a.iter().enumerate() {
        acc[at(x)..][..W].copy_from_slice(a);
    }
}

/// Query position `pos` of a call with at most [`DECODE_MAX_ROWS`] rows
/// per KV head: every query head, all at causal limit `limit`.
///
/// Scores are position-major across the heads (`scores[c · heads + h]`),
/// so the softmax runs with the heads in the lanes: per head the same
/// maximum, the same [`KEY_TILE`] partials in the same order and the
/// same [`fold_partials`] tree as a lane of a block. Each head's dot
/// products run [`SCORE_KEYS`] keys' chains side by side, scalar: the
/// keys' elements are a page row apart, so packing them into one vector
/// would cost an insert per element. `PV` runs [`DECODE_HEADS`] heads'
/// chains side by side, [`DECODE_BLOCK`] positions at a time.
#[allow(clippy::too_many_arguments)]
fn decode_row(
    geom: HeadGeometry,
    pos: usize,
    limit: usize,
    q: &[f32],
    k_rows: &[&[f32]],
    v_rows: &[&[f32]],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let (hd, heads) = (geom.head_dim, geom.heads);
    let rows = limit.next_multiple_of(KEY_TILE);
    let len = (rows + KEY_TILE + 1 + hd) * heads;
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    let (scores, rest) = scratch[..len].split_at_mut(rows * heads);
    let (parts, rest) = rest.split_at_mut(KEY_TILE * heads);
    let (max, acc) = rest.split_at_mut(heads);
    let col = |h: usize| (h / geom.group()) * hd;
    let q_row = |h: usize| &q[pos * geom.q_dim() + h * hd..][..hd];
    let scale = geom.scale();
    let (whole, rest) = k_rows[..limit].as_chunks::<SCORE_KEYS>();
    for (c0, keys) in (0..).step_by(SCORE_KEYS).zip(whole) {
        for h in 0..heads {
            let keys = keys.map(|k| &k[col(h)..][..hd]);
            for (t, a) in dots(q_row(h), keys).into_iter().enumerate() {
                scores[(c0 + t) * heads + h] = score(a, scale);
            }
        }
    }
    for (c, k_row) in (limit - rest.len()..).zip(rest) {
        for h in 0..heads {
            let [a] = dots(q_row(h), [&k_row[col(h)..][..hd]]);
            scores[c * heads + h] = score(a, scale);
        }
    }
    // The causal mask: positions past the limit, to the end of the tile.
    scores[limit * heads..].fill(f32::NEG_INFINITY);
    max.fill(f32::NEG_INFINITY);
    for row in scores.chunks_exact(heads) {
        for (m, &x) in max.iter_mut().zip(row) {
            *m = if x > *m { x } else { *m };
        }
    }
    parts.fill(0.0);
    for (c, row) in scores.chunks_exact_mut(heads).enumerate() {
        let part = &mut parts[(c % KEY_TILE) * heads..][..heads];
        for ((x, &m), p) in row.iter_mut().zip(&*max).zip(part) {
            *x = exp_nonpos(*x - m);
            *p += *x;
        }
    }
    for width in [KEY_TILE / 2, KEY_TILE / 4, KEY_TILE / 8, KEY_TILE / 16] {
        let (lo, hi) = parts.split_at_mut(width * heads);
        for (p, &x) in lo.iter_mut().zip(&hi[..width * heads]) {
            *p += x;
        }
    }

    acc.fill(0.0);
    let blocks = scores[..limit * heads].chunks(DECODE_BLOCK * heads);
    for (probs, v_rows) in blocks.zip(v_rows[..limit].chunks(DECODE_BLOCK)) {
        let mut h0 = 0;
        while h0 < heads {
            let wide = heads - h0 >= DECODE_HEADS;
            for d0 in (0..hd).step_by(NR) {
                match (wide, hd - d0 >= NR) {
                    (true, true) => {
                        pv_block::<DECODE_HEADS, NR>(geom, probs, v_rows, (h0, d0), acc)
                    }
                    (true, false) => (d0..hd).for_each(|d| {
                        pv_block::<DECODE_HEADS, 1>(geom, probs, v_rows, (h0, d), acc)
                    }),
                    (false, _) => (d0..hd.min(d0 + NR))
                        .for_each(|d| pv_block::<1, 1>(geom, probs, v_rows, (h0, d), acc)),
                }
            }
            h0 += if wide { DECODE_HEADS } else { 1 };
        }
    }
    for (h, (a, &sum)) in acc.chunks_exact(hd).zip(&parts[..heads]).enumerate() {
        for (o, &a) in out[pos * geom.q_dim() + h * hd..][..hd].iter_mut().zip(a) {
            *o = a / sum;
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
    assert_eq!(geom.heads % geom.kv_heads, 0, "heads must group evenly");
    assert_eq!(q.len() % geom.q_dim(), 0, "query is not whole rows");
    assert_eq!(q.len(), out.len(), "output shape mismatch");
    let seq = q.len() / geom.q_dim();
    let m = geom.group() * seq;
    SCRATCH.with(|cell| {
        let mut fresh = Default::default();
        let mut held = cell.try_borrow_mut();
        // A re-entrant call (none today) gets throwaway buffers.
        let (scratch, table) = match &mut held {
            Ok(held) => &mut **held,
            Err(_) => &mut fresh,
        };
        let mut rows = recycle(std::mem::take(table));
        rows.extend(page_rows(pages_k, geom.kv_dim()));
        let kv_len = rows.len();
        rows.extend(page_rows(pages_v, geom.kv_dim()));
        assert_eq!(rows.len(), 2 * kv_len, "K and V row counts differ");
        let (k_rows, v_rows) = rows.split_at(kv_len);
        if kv_len == 0 {
            out.fill(0.0);
        } else if m > 0 {
            probe::profiled("attention", m, kv_len, geom.head_dim, || {
                if m <= DECODE_MAX_ROWS {
                    for pos in 0..seq {
                        let limit = (start_pos + pos + 1).min(kv_len);
                        decode_row(geom, pos, limit, q, k_rows, v_rows, out, scratch);
                    }
                    return;
                }
                for kv_head in 0..geom.kv_heads {
                    let head = HeadRows {
                        geom,
                        kv_head,
                        start_pos,
                        kv_len,
                    };
                    for r0 in (0..m).step_by(BLOCK_ROWS) {
                        let rows = r0..m.min(r0 + BLOCK_ROWS);
                        lane_block(head, rows, q, k_rows, v_rows, out, scratch);
                    }
                }
            });
        }
        *table = recycle(rows);
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
    let k_rows: Vec<&[f32]> = page_rows(pages_k, geom.kv_dim()).collect();
    let v_rows: Vec<&[f32]> = page_rows(pages_v, geom.kv_dim()).collect();
    let scale = geom.scale();
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

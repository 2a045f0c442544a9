//! Property tests for the tiled attention kernel: for *any* head
//! geometry, chunk height, history length and paging it must agree with
//! the scalar oracle to rounding, and — the part serving relies on — keep
//! its identities bit for bit: paging-invariant, row-subset-invariant
//! (row `r` of a block ≡ the one-row call at `start_pos + r`, which is
//! chunked ≡ whole prefill and batched ≡ solo decode), and causally
//! isolated even from non-finite data past a row's limit.

use proptest::prelude::*;

use llmnpu::tensor::kernel::attention::{
    attention_paged, attention_reference, exp_nonpos, HeadGeometry, KEY_TILE,
};

/// Deterministic pseudo-random floats in `(-amp, amp)`.
fn noise(seed: u64, len: usize, amp: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            amp * ((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        })
        .collect()
}

/// One attention problem: `seq` query rows ending a cache of `kv_len`
/// positions.
struct Case {
    geom: HeadGeometry,
    seq: usize,
    kv_len: usize,
    q: Vec<f32>,
    keys: Vec<f32>,
    values: Vec<f32>,
}

impl Case {
    fn new(
        heads: usize,
        group: usize,
        head_dim: usize,
        seq: usize,
        kv_len: usize,
        seed: u64,
    ) -> Self {
        let geom = HeadGeometry {
            heads,
            kv_heads: heads / group,
            head_dim,
        };
        let kv_dim = geom.kv_heads * head_dim;
        Case {
            geom,
            seq,
            kv_len,
            q: noise(seed, seq * heads * head_dim, 2.0),
            keys: noise(seed + 1, kv_len * kv_dim, 1.5),
            values: noise(seed + 2, kv_len * kv_dim, 1.0),
        }
    }

    fn kv_dim(&self) -> usize {
        self.geom.kv_heads * self.geom.head_dim
    }

    fn q_dim(&self) -> usize {
        self.geom.heads * self.geom.head_dim
    }

    fn start_pos(&self) -> usize {
        self.kv_len - self.seq
    }

    /// The kernel over `keys` / `values` cut into pages of `page_rows`.
    fn run_paged(&self, keys: &[f32], values: &[f32], page_rows: usize) -> Vec<f32> {
        let pages_k: Vec<&[f32]> = keys.chunks(page_rows * self.kv_dim()).collect();
        let pages_v: Vec<&[f32]> = values.chunks(page_rows * self.kv_dim()).collect();
        let mut out = vec![f32::NAN; self.q.len()];
        attention_paged(
            self.geom,
            self.start_pos(),
            &self.q,
            &pages_k,
            &pages_v,
            &mut out,
        );
        out
    }

    fn run(&self) -> Vec<f32> {
        self.run_paged(&self.keys, &self.values, self.kv_len)
    }

    /// Query row `r` alone, at its own position, over the rows it may see
    /// (and, with `whole_cache`, the masked ones too).
    fn run_row(&self, r: usize, whole_cache: bool) -> Vec<f32> {
        let visible = if whole_cache {
            self.kv_len
        } else {
            self.start_pos() + r + 1
        };
        let q = &self.q[r * self.q_dim()..(r + 1) * self.q_dim()];
        let mut out = vec![f32::NAN; q.len()];
        attention_paged(
            self.geom,
            self.start_pos() + r,
            q,
            &[&self.keys[..visible * self.kv_dim()]],
            &[&self.values[..visible * self.kv_dim()]],
            &mut out,
        );
        out
    }
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The issue's shape matrix, deterministic: every head width, every
/// grouping (MHA, GQA, MQA), chunk heights on both sides of the direct /
/// tiled split and of a row tile, histories that are not a multiple of
/// the key tile (and, at history 0, some that are).
#[test]
fn kernel_matches_the_scalar_oracle_across_the_shape_matrix() {
    let heads = 8;
    let mut seed = 1;
    for head_dim in [2usize, 8, 16, 64, 80] {
        for group in [1usize, 2, 4, heads] {
            for seq in [1usize, 3, 32, 33] {
                for history in [0usize, 5, 3 * KEY_TILE + 7] {
                    seed += 1;
                    let case = Case::new(heads, group, head_dim, seq, history + seq, seed);
                    let got = case.run();
                    let mut want = vec![0.0; got.len()];
                    attention_reference(
                        case.geom,
                        case.start_pos(),
                        &case.q,
                        &[&case.keys],
                        &[&case.values],
                        &mut want,
                    );
                    let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-5 * scale.max(1.0),
                            "hd={head_dim} group={group} seq={seq} kv={} out[{i}]: {g} vs {w}",
                            case.kv_len
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn any_paging_of_the_same_rows_is_bit_identical() {
    for (group, head_dim, seq, kv_len) in [
        (1usize, 16usize, 32usize, 200usize),
        (4, 8, 1, 101),
        (2, 80, 5, 77),
    ] {
        let case = Case::new(8, group, head_dim, seq, kv_len, 77);
        let contiguous = bits(&case.run());
        for page_rows in [1usize, 3, 16, 64, 100] {
            assert_eq!(
                bits(&case.run_paged(&case.keys, &case.values, page_rows)),
                contiguous,
                "group={group} hd={head_dim} seq={seq} page_rows={page_rows}"
            );
        }
    }
}

#[test]
fn every_row_of_a_block_equals_its_one_row_call() {
    // Pins chunked ≡ whole prefill and batched ≡ solo decode in one
    // identity, and with it direct-path ≡ tiled-path scores (a one-row
    // call at group 1 takes the direct path, the block the tiled one).
    for (group, head_dim, seq, kv_len) in [
        (1usize, 16usize, 32usize, 75usize),
        (1, 64, 33, 33),
        (2, 8, 19, 40),
        (8, 2, 3, 21),
        (1, 80, 70, 90),
    ] {
        let case = Case::new(8, group, head_dim, seq, kv_len, 5);
        let block = case.run();
        for r in 0..seq {
            let row = bits(&block[r * case.q_dim()..(r + 1) * case.q_dim()]);
            assert_eq!(
                bits(&case.run_row(r, false)),
                row,
                "group={group} hd={head_dim} row {r}"
            );
            assert_eq!(
                bits(&case.run_row(r, true)),
                row,
                "group={group} hd={head_dim} row {r}, masked rows present"
            );
        }
    }
}

#[test]
fn masked_rows_cannot_reach_a_row_and_visible_ones_cannot_hide() {
    for (group, seq, kv_len) in [
        (1usize, 32usize, 70usize),
        (4, 9, 30),
        (8, 1, 20),
        (1, 2, 40),
    ] {
        let case = Case::new(8, group, 16, seq, kv_len, 9);
        let clean = case.run();
        let kv_dim = case.kv_dim();
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Row `r` sees positions `..= start_pos + r`: poison the first
            // position it must not see, in K and V, on every head.
            for r in 0..seq.saturating_sub(1) {
                let at = (case.start_pos() + r + 1) * kv_dim;
                let (mut keys, mut values) = (case.keys.clone(), case.values.clone());
                keys[at..at + kv_dim].fill(poison);
                values[at..at + kv_dim].fill(poison);
                let got = case.run_paged(&keys, &values, 16);
                let rows = (r + 1) * case.q_dim();
                assert_eq!(
                    bits(&got[..rows]),
                    bits(&clean[..rows]),
                    "group={group} seq={seq}: {poison} at row {} leaked upward",
                    r + 1
                );
                assert!(
                    got[rows..rows + case.q_dim()].iter().all(|v| v.is_nan()),
                    "group={group} seq={seq}: {poison} hidden from the row that sees it"
                );
            }
        }
        // A visible NaN in V alone, or K alone, reaches every row that sees it.
        for in_keys in [true, false] {
            let (mut keys, mut values) = (case.keys.clone(), case.values.clone());
            let target = if in_keys { &mut keys } else { &mut values };
            target[..kv_dim].fill(f32::NAN);
            let got = case.run_paged(&keys, &values, 16);
            assert!(
                got.iter().all(|v| v.is_nan()),
                "NaN at position 0 was hidden"
            );
        }
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometry and data: oracle agreement, paging identity and
    /// the row-subset identity together.
    #[test]
    fn random_problems_keep_every_identity(
        head_dim in prop::sample::select(vec![2usize, 8, 16, 64, 80]),
        group in prop::sample::select(vec![1usize, 2, 4, 8]),
        seq in prop::sample::select(vec![1usize, 3, 32, 33]),
        history in 0usize..90,
        page_rows in prop::sample::select(vec![1usize, 3, 16, 64, 100]),
        seed in 0u64..1_000_000,
    ) {
        let case = Case::new(8, group, head_dim, seq, history + seq, seed);
        let got = case.run();
        let mut want = vec![0.0; got.len()];
        attention_reference(case.geom, case.start_pos(), &case.q, &[&case.keys], &[&case.values], &mut want);
        let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-5 * scale, "{} vs {}", g, w);
        }
        prop_assert_eq!(bits(&case.run_paged(&case.keys, &case.values, page_rows)), bits(&got));
        let r = seed as usize % seq;
        prop_assert_eq!(
            bits(&case.run_row(r, false)),
            bits(&got[r * case.q_dim()..(r + 1) * case.q_dim()])
        );
    }
}

//! Rotary position embeddings (RoPE).
//!
//! The paper implements RoPE as one of the custom operators added on top of
//! QNN (§4: "we implemented specific operators like KVCache, SiLU, RMSNorm,
//! ROPE"). It runs in float on the CPU/GPU side of the partition.

use crate::{Error, Result, Tensor};

/// Applies rotary position embeddings in place to a `[seq, dim]` tensor.
///
/// Pairs `(x[2i], x[2i+1])` are rotated by angle `pos / theta^(2i/dim)`,
/// where `pos` is the absolute token position (`start_pos + row`). Passing
/// the chunk's global start position keeps chunked prefill bit-identical to
/// whole-prompt prefill — the property §3.2 relies on.
///
/// # Errors
///
/// Returns [`Error::InvalidDimension`] if the row width is odd.
pub fn apply_rope_inplace(x: &mut Tensor<f32>, start_pos: usize, theta: f32) -> Result<()> {
    let (rows, cols) = x.matrix_dims();
    apply_rope_heads_inplace(x, cols, start_pos..start_pos + rows, theta)
}

/// [`apply_rope_inplace`] on every `head_dim`-wide head slice of a
/// `[rows, heads · head_dim]` tensor, row `r` at absolute position
/// `positions[r]` (consecutive for a prefill chunk, one per request for a
/// batched decode step). The rotation of pair `i` at one position is the
/// same for every head, so its `sin`/`cos` is evaluated once per (row,
/// pair) and its frequency once per pair; each head slice gets exactly
/// the floats [`apply_rope_inplace`] gives a copy of it.
///
/// # Errors
///
/// Returns [`Error::InvalidDimension`] if `head_dim` is odd or does not
/// divide the row width, or `positions` does not yield one position per
/// row.
pub fn apply_rope_heads_inplace(
    x: &mut Tensor<f32>,
    head_dim: usize,
    positions: impl IntoIterator<Item = usize>,
    theta: f32,
) -> Result<()> {
    let (rows, cols) = x.matrix_dims();
    if head_dim == 0 || !head_dim.is_multiple_of(2) || !cols.is_multiple_of(head_dim) {
        return Err(Error::InvalidDimension {
            op: "apply_rope_inplace",
            what: format!("head dimension {head_dim} must be even and divide {cols}"),
        });
    }
    let freqs: Vec<f32> = (0..head_dim / 2)
        .map(|i| theta.powf(-2.0 * i as f32 / head_dim as f32))
        .collect();
    let mut sin_cos = vec![(0.0f32, 0.0f32); freqs.len()];
    let mut positions = positions.into_iter();
    for r in 0..rows {
        let Some(pos) = positions.next() else {
            return Err(Error::InvalidDimension {
                op: "apply_rope_inplace",
                what: format!("{r} positions for {rows} rows"),
            });
        };
        for (sc, &freq) in sin_cos.iter_mut().zip(&freqs) {
            *sc = (pos as f32 * freq).sin_cos();
        }
        for head in x.row_mut(r).chunks_exact_mut(head_dim) {
            for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(&sin_cos) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a * cos - b * sin;
                pair[1] = a * sin + b * cos;
            }
        }
    }
    Ok(())
}

/// Convenience wrapper returning a new tensor; see [`apply_rope_inplace`].
///
/// # Errors
///
/// Returns [`Error::InvalidDimension`] if the row width is odd.
pub fn apply_rope(x: &Tensor<f32>, start_pos: usize, theta: f32) -> Result<Tensor<f32>> {
    let mut out = x.clone();
    apply_rope_inplace(&mut out, start_pos, theta)?;
    Ok(out)
}

/// The default RoPE base used by the LLaMA family.
pub const DEFAULT_THETA: f32 = 10_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_zero_is_identity() {
        let x = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], [1, 4]).unwrap();
        let y = apply_rope(&x, 0, DEFAULT_THETA).unwrap();
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_pair_norm() {
        let x = Tensor::from_vec(vec![3.0_f32, 4.0, 1.0, 1.0], [1, 4]).unwrap();
        let y = apply_rope(&x, 17, DEFAULT_THETA).unwrap();
        let norm_in = (9.0_f32 + 16.0).sqrt();
        let norm_out = (y.as_slice()[0].powi(2) + y.as_slice()[1].powi(2)).sqrt();
        assert!((norm_in - norm_out).abs() < 1e-4);
    }

    #[test]
    fn chunked_positions_match_full_sequence() {
        // RoPE applied to rows 4..8 via start_pos must equal RoPE applied to
        // a full 8-row tensor — the chunk-equivalence invariant of §3.2.
        let full =
            Tensor::from_vec((0..8 * 4).map(|v| (v as f32).sin()).collect(), [8, 4]).unwrap();
        let full_roped = apply_rope(&full, 0, DEFAULT_THETA).unwrap();

        let tail = Tensor::from_vec(full.as_slice()[4 * 4..].to_vec(), [4, 4]).unwrap();
        let tail_roped = apply_rope(&tail, 4, DEFAULT_THETA).unwrap();

        for (a, b) in full_roped.as_slice()[4 * 4..]
            .iter()
            .zip(tail_roped.as_slice())
        {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_odd_dim() {
        let x = Tensor::<f32>::zeros([1, 3]);
        assert!(apply_rope(&x, 0, DEFAULT_THETA).is_err());
    }

    #[test]
    fn head_slices_rotate_bit_identically_to_a_copied_head() {
        // The shared per-(position, pair) table must give every head slice
        // exactly what rotating a copy of that slice alone gives, for
        // consecutive positions (prefill) and scattered ones (batched
        // decode).
        let (rows, heads, head_dim) = (5usize, 3usize, 8usize);
        let x = Tensor::from_vec(
            (0..rows * heads * head_dim)
                .map(|v| (v as f32 * 0.37).sin())
                .collect(),
            [rows, heads * head_dim],
        )
        .unwrap();
        for positions in [vec![7usize, 8, 9, 10, 11], vec![40, 3, 3, 1000, 0]] {
            let mut got = x.clone();
            apply_rope_heads_inplace(&mut got, head_dim, positions.iter().copied(), DEFAULT_THETA)
                .unwrap();
            for (r, &pos) in positions.iter().enumerate() {
                for h in 0..heads {
                    let span = h * head_dim..(h + 1) * head_dim;
                    let mut head =
                        Tensor::from_vec(x.row(r)[span.clone()].to_vec(), [1, head_dim]).unwrap();
                    apply_rope_inplace(&mut head, pos, DEFAULT_THETA).unwrap();
                    let want: Vec<u32> = head.row(0).iter().map(|v| v.to_bits()).collect();
                    let have: Vec<u32> = got.row(r)[span].iter().map(|v| v.to_bits()).collect();
                    assert_eq!(have, want, "row {r} head {h} at position {pos}");
                }
            }
        }
        let mut y = x.clone();
        assert!(apply_rope_heads_inplace(&mut y, 5, 0..rows, DEFAULT_THETA).is_err());
        assert!(apply_rope_heads_inplace(&mut y, head_dim, 0..rows - 1, DEFAULT_THETA).is_err());
    }

    #[test]
    fn rope_preserves_relative_angle_in_dot_product() {
        // <rope(q, m), rope(k, n)> depends only on m - n for a single pair.
        let q = Tensor::from_vec(vec![1.0_f32, 0.5], [1, 2]).unwrap();
        let k = Tensor::from_vec(vec![0.3_f32, -0.7], [1, 2]).unwrap();
        let dot = |a: &Tensor<f32>, b: &Tensor<f32>| {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| x * y)
                .sum::<f32>()
        };
        let d1 = dot(
            &apply_rope(&q, 5, DEFAULT_THETA).unwrap(),
            &apply_rope(&k, 3, DEFAULT_THETA).unwrap(),
        );
        let d2 = dot(
            &apply_rope(&q, 12, DEFAULT_THETA).unwrap(),
            &apply_rope(&k, 10, DEFAULT_THETA).unwrap(),
        );
        assert!((d1 - d2).abs() < 1e-5);
    }
}

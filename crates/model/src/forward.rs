//! The reference decoder-only transformer forward pass.
//!
//! This is the numeric-plane workhorse: a real (small-scale) transformer
//! whose linear layers are delegated to a [`LinearBackend`], and whose
//! prefill can run either whole-prompt or in fixed-size chunks. Chunked
//! prefill with the KV cache is bit-compatible with whole-prompt prefill —
//! the invariant that makes llm.npu's chunk-sharing graphs (§3.2) sound —
//! and the tests at the bottom pin that property down.
//!
//! There is one layer loop (`Transformer::forward_rows`) over
//! `(kv, start_pos, rows)` segments of one stacked activation: a prefill
//! chunk is one segment of `seq` rows, a batched decode step is B segments
//! of one row, and solo `generate` / `last_hidden` / `calibrate` are the
//! same calls on a one-page [`PagedKvCache::solo`] store. Every K/V row is
//! written to, and attended from, [`PagedKvCache`] pages.
//!
//! A layer makes four backend calls, one per activation
//! ([`LinearInput`]): Q | K | V come back side by side from one call and
//! are split after the shadow merge, Gate | Up likewise before the
//! activation, then O and Down. On the int8 lane that is four activation
//! quantizations and four GEMMs per layer, where the seven projections
//! used to cost seven of each.

use llmnpu_tensor::kernel::attention::{attention_paged, HeadGeometry};
use llmnpu_tensor::{norm, ops, rope, Tensor};

use crate::backend::{CalibrationSet, LinearBackend, LinearInput, LinearKind};
use crate::config::{ActKind, ModelConfig, NormKind};
use crate::kv::{PagedKvCache, PagedKvReader};
use crate::sample::{Sampler, SamplerConfig};
use crate::weights::ModelWeights;
use crate::{Error, Result};

/// Norm epsilon used throughout.
const EPS: f32 = 1e-5;

/// A runnable transformer: weights + a linear backend.
pub struct Transformer<'a> {
    weights: &'a ModelWeights,
    backend: &'a dyn LinearBackend,
    /// Cached all-zero beta for the RMS-normed LM head: `logits` runs
    /// once per decode step, so the decode hot loop must not re-allocate
    /// a zero vector per token.
    zero_beta: Vec<f32>,
}

impl<'a> Transformer<'a> {
    /// Binds weights to a backend.
    #[must_use]
    pub fn new(weights: &'a ModelWeights, backend: &'a dyn LinearBackend) -> Self {
        let zero_beta = vec![0.0; weights.config.hidden];
        Transformer {
            weights,
            backend,
            zero_beta,
        }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.weights.config
    }

    /// Embeds a token sequence into `[seq, hidden]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TokenOutOfRange`] for ids outside the vocabulary.
    pub fn embed(&self, tokens: &[u32]) -> Result<Tensor<f32>> {
        let vocab = self.config().vocab;
        let h = self.config().hidden;
        let mut data = Vec::with_capacity(tokens.len() * h);
        for &t in tokens {
            if t as usize >= vocab {
                return Err(Error::TokenOutOfRange { token: t, vocab });
            }
            data.extend_from_slice(self.weights.embedding.row(t as usize));
        }
        Ok(Tensor::from_vec(data, [tokens.len(), h])?)
    }

    /// Prefills `tokens` from position 0 in fixed-size chunks, processed
    /// causally (§3.2's chunk-wise prefill) — the sequential reference
    /// the out-of-order executor is held bit-identical to. Returns the
    /// final hidden states `[seq, hidden]`.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid tokens, a zero chunk length, backend
    /// failures, or if `kv` cannot hold `tokens.len()` positions.
    pub fn prefill_chunked(
        &self,
        tokens: &[u32],
        chunk_len: usize,
        kv: &mut PagedKvCache,
    ) -> Result<Tensor<f32>> {
        if chunk_len == 0 {
            return Err(Error::InvalidConfig {
                what: "chunk length must be non-zero".to_owned(),
            });
        }
        let h = self.config().hidden;
        let mut out = Vec::with_capacity(tokens.len() * h);
        for (c, chunk) in tokens.chunks(chunk_len).enumerate() {
            let hidden = self.prefill_paged(chunk, c * chunk_len, kv)?;
            out.extend_from_slice(hidden.as_slice());
        }
        Ok(Tensor::from_vec(out, [tokens.len(), h])?)
    }

    /// Prefills `tokens` starting at absolute position `start_pos`,
    /// writing K/V into `kv`'s pages and reading attention through its
    /// block table. Returns the final hidden states `[seq, hidden]`.
    /// Page size never changes a float: any paging of `kv` produces the
    /// hidden states and cached rows of the one-page store.
    ///
    /// A non-zero `start_pos` resumes after an already-populated prefix
    /// (an earlier chunk, a decode history, or prefix sharing: `kv`'s
    /// leading blocks hold another request's identical prompt prefix).
    ///
    /// # Errors
    ///
    /// Returns an error on invalid tokens, backend failures, or if the
    /// cache's reserved capacity cannot hold
    /// `start_pos + tokens.len()` positions.
    pub fn prefill_paged(
        &self,
        tokens: &[u32],
        start_pos: usize,
        kv: &mut PagedKvCache,
    ) -> Result<Tensor<f32>> {
        let segment = Segment {
            kv,
            start_pos,
            rows: tokens.len(),
        };
        self.forward_rows(self.embed(tokens)?, &mut [segment], None)
    }

    /// One decode step for a **batch** of concurrent requests: embeds
    /// the B previous tokens as one `[B, hidden]` activation so every
    /// linear site runs a single `m = B` GEMM instead of B separate
    /// GEMVs, while RoPE, the KV append, and attention stay per-request
    /// (each entry rotates at its own absolute position and attends over
    /// its own paged history).
    ///
    /// Every backend is row-wise (see [`LinearBackend`]), so row `i` of
    /// the result is bit-identical to running entry `i`'s decode step
    /// alone — stacking rows into one GEMM never changes a float of any
    /// row. Returns the `[B, hidden]` post-forward hidden states
    /// (the LM-head inputs for the *next* sampling step).
    ///
    /// # Errors
    ///
    /// Returns an error on an empty batch, invalid tokens, backend
    /// failures, or paged-cache addressing failures.
    pub fn decode_forward_batch(
        &self,
        entries: &mut [PagedDecodeEntry<'_>],
    ) -> Result<Tensor<f32>> {
        if entries.is_empty() {
            return Err(Error::InvalidConfig {
                what: "batched decode needs at least one entry".to_owned(),
            });
        }
        let tokens: Vec<u32> = entries.iter().map(|e| e.token).collect();
        let mut segments: Vec<Segment<'_>> = entries
            .iter_mut()
            .map(|e| Segment {
                kv: &mut *e.kv,
                start_pos: e.pos,
                rows: 1,
            })
            .collect();
        self.forward_rows(self.embed(&tokens)?, &mut segments, None)
    }

    /// Autoregressive generation: prefills `prompt` (chunked when
    /// `chunk_len` is given), then samples `max_new_tokens` tokens with a
    /// fresh seeded [`Sampler`], forwarding each sampled token through
    /// the decode path to extend the KV cache — a solo store of exactly
    /// the `prompt + max_new_tokens − 1` positions the run writes.
    ///
    /// This is the single-stream reference the continuous-batching
    /// scheduler in `llmnpu-core` is held bit-identical to: it performs
    /// exactly one LM-head projection + sample per emitted token and one
    /// decode forward per *consumed* token (the final sampled token is
    /// never forwarded), in program order.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty prompt, invalid tokens, an invalid
    /// sampler configuration, or backend failures.
    pub fn generate(
        &self,
        prompt: &[u32],
        chunk_len: Option<usize>,
        max_new_tokens: usize,
        sampler_cfg: &SamplerConfig,
    ) -> Result<Vec<u32>> {
        if prompt.is_empty() {
            return Err(Error::InvalidConfig {
                what: "cannot generate from an empty prompt".to_owned(),
            });
        }
        let capacity = prompt.len() + max_new_tokens.saturating_sub(1);
        let mut kv = PagedKvCache::solo(self.config(), capacity)?;
        let hidden = self.prefill_solo(prompt, chunk_len, &mut kv)?;
        let (rows, h) = hidden.matrix_dims();
        let mut last = Tensor::from_vec(hidden.row(rows - 1).to_vec(), [1, h])?;
        let mut sampler = Sampler::new(sampler_cfg)?;
        let mut out = Vec::with_capacity(max_new_tokens);
        for step in 0..max_new_tokens {
            let logits = self.logits(&last)?;
            let token = sampler.sample(logits.row(0))?;
            out.push(token);
            if step + 1 < max_new_tokens {
                last = self.prefill_paged(&[token], prompt.len() + step, &mut kv)?;
            }
        }
        Ok(out)
    }

    /// Projects hidden states to logits through the LM head.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn logits(&self, hidden: &Tensor<f32>) -> Result<Tensor<f32>> {
        let normed = self.apply_norm(hidden, &self.weights.final_norm_gamma, &self.zero_beta)?;
        // The LM head is the single largest f32 GEMM in the numeric plane
        // ([seq, hidden] × [hidden, vocab]); it was packed once at
        // synthesis, so no call repacks it. Thread count never changes the
        // bits produced.
        Ok(llmnpu_tensor::gemm::matmul_f32_prepacked(
            &normed,
            &self.weights.head,
            crate::backend::host_threads(),
        )?)
    }

    /// Final hidden state of the last token after a prefill (the features
    /// the accuracy proxy tasks read).
    ///
    /// # Errors
    ///
    /// Returns an error on empty input or any forward failure.
    pub fn last_hidden(&self, tokens: &[u32], chunk_len: Option<usize>) -> Result<Vec<f32>> {
        if tokens.is_empty() {
            return Err(Error::InvalidConfig {
                what: "empty token sequence".to_owned(),
            });
        }
        let mut kv = PagedKvCache::solo(self.config(), tokens.len())?;
        let hidden = self.prefill_solo(tokens, chunk_len, &mut kv)?;
        let (rows, _) = hidden.matrix_dims();
        Ok(hidden.row(rows - 1).to_vec())
    }

    /// The prompt pass of a solo run: whole-prompt, or chunked when
    /// `chunk_len` is given.
    fn prefill_solo(
        &self,
        tokens: &[u32],
        chunk_len: Option<usize>,
        kv: &mut PagedKvCache,
    ) -> Result<Tensor<f32>> {
        match chunk_len {
            Some(c) => self.prefill_chunked(tokens, c, kv),
            None => self.prefill_paged(tokens, 0, kv),
        }
    }

    fn apply_norm(&self, x: &Tensor<f32>, gamma: &[f32], beta: &[f32]) -> Result<Tensor<f32>> {
        Ok(match self.config().norm {
            NormKind::Rms => norm::rms_norm(x, gamma, EPS)?,
            NormKind::Layer => norm::layer_norm(x, gamma, beta, EPS)?,
        })
    }

    /// The one layer loop: the forward over already-embedded hidden
    /// states `h`, whose rows are the concatenation of `segments` — each
    /// a run of `rows` consecutive positions from `start_pos` of one
    /// request's cache. Linear sites see the whole stacked activation;
    /// RoPE, the K/V write and attention are per segment.
    ///
    /// `recorder`, when present, captures the input activation of every
    /// linear site — the calibration hook used to build quantized backends.
    ///
    /// The body is a straight-line composition of the public `stage_*`
    /// functions below — the same closures the out-of-order prefill
    /// executor dispatches — so the sequential and DAG-executed paths can
    /// never numerically drift: they *are* the same code.
    fn forward_rows(
        &self,
        mut h: Tensor<f32>,
        segments: &mut [Segment<'_>],
        mut recorder: Option<&mut CalibrationSet>,
    ) -> Result<Tensor<f32>> {
        let cfg = self.config();
        let q_dim = cfg.q_dim();
        let positions: Vec<usize> = segments
            .iter()
            .flat_map(|s| s.start_pos..s.start_pos + s.rows)
            .collect();
        for layer in 0..cfg.layers {
            // --- Attention block ---
            let a_in = self.stage_attn_pre(layer, &h)?;
            if let Some(rec) = recorder.as_deref_mut() {
                for kind in [LinearKind::Q, LinearKind::K, LinearKind::V] {
                    rec.entry((layer, kind)).or_default().push(a_in.clone());
                }
            }
            let main = self.stage_linear_main(layer, LinearInput::Attn, &a_in)?;
            let shadow = self.stage_linear_shadow(layer, LinearInput::Attn, &a_in)?;
            let (q, k, v) = self.qkv_finish_at(main, shadow, positions.iter().copied())?;

            let mut attn = Tensor::zeros([positions.len(), q_dim]);
            let mut row = 0;
            for s in segments.iter_mut() {
                let end = row + s.rows;
                for r in 0..s.rows {
                    s.kv.write_position(layer, s.start_pos + r, k.row(row + r), v.row(row + r))?;
                }
                s.kv.view(layer, s.start_pos + s.rows, |pages_k, pages_v| {
                    attend(
                        &q.as_slice()[row * q_dim..end * q_dim],
                        pages_k,
                        pages_v,
                        cfg,
                        s.start_pos,
                        &mut attn.as_mut_slice()[row * q_dim..end * q_dim],
                    )
                })??;
                row = end;
            }
            if let Some(rec) = recorder.as_deref_mut() {
                rec.entry((layer, LinearKind::O))
                    .or_default()
                    .push(attn.clone());
            }
            h = self.stage_attn_out(layer, &h, &attn)?;

            // --- FFN block ---
            let f_in = self.stage_ffn_pre(layer, &h)?;
            if let Some(rec) = recorder.as_deref_mut() {
                if self.weights.layers[layer].w_gate.is_some() {
                    rec.entry((layer, LinearKind::Gate))
                        .or_default()
                        .push(f_in.clone());
                }
                rec.entry((layer, LinearKind::Up))
                    .or_default()
                    .push(f_in.clone());
            }
            let ffn_mid = self.stage_ffn_mid(layer, &f_in)?;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.entry((layer, LinearKind::Down))
                    .or_default()
                    .push(ffn_mid.clone());
            }
            h = self.stage_ffn_down(layer, &h, &ffn_mid)?;
        }
        Ok(h)
    }

    // --- Schedulable stage functions -----------------------------------
    //
    // One public function per prefill-DAG stage (llmnpu-graph's six-stage
    // decomposition, collapsed to the numeric boundaries): the sequential
    // `forward_rows` composes them in program order, and the
    // out-of-order executor in `llmnpu-sched` wraps each in a task
    // closure and dispatches them as dependencies resolve. The two
    // shadow-host stages (`QkvLinear`, `Ffn`) additionally split into the
    // input's main and shadow halves (`stage_linear_main` /
    // `stage_linear_shadow`) and a finish that merges them, so the
    // quantized main path and the float shadow path can run on different
    // lanes; each fused stage is *defined as* that composition, so split
    // and fused execution are bit-identical by construction.

    /// `AttnPre`: the pre-attention norm.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn stage_attn_pre(&self, layer: usize, h: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lw = &self.weights.layers[layer];
        self.apply_norm(h, &lw.attn_norm_gamma, &lw.attn_norm_beta)
    }

    /// `QkvLinear` + RoPE, fused: full Q/K/V projections at the chunk's
    /// absolute positions, ready for the cache and attention.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or backend failure.
    pub fn stage_qkv(
        &self,
        layer: usize,
        a_in: &Tensor<f32>,
        start_pos: usize,
    ) -> Result<(Tensor<f32>, Tensor<f32>, Tensor<f32>)> {
        let main = self.stage_linear_main(layer, LinearInput::Attn, a_in)?;
        let shadow = self.stage_linear_shadow(layer, LinearInput::Attn, a_in)?;
        self.stage_qkv_finish(main, shadow, start_pos)
    }

    /// The main (quantized-lane) half of `input`'s projections: one
    /// `[rows, Σ n]` output, the sibling sites side by side (see
    /// [`LinearBackend`]).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or backend failure.
    pub fn stage_linear_main(
        &self,
        layer: usize,
        input: LinearInput,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>> {
        self.backend.linear_main(layer, input, x)
    }

    /// The shadow (float-lane) half of `input`'s projections — `None`
    /// when there is nothing to merge.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn stage_linear_shadow(
        &self,
        layer: usize,
        input: LinearInput,
        x: &Tensor<f32>,
    ) -> Result<Option<Tensor<f32>>> {
        self.backend.linear_shadow(layer, input, x)
    }

    /// Merges the Q | K | V halves, splits them, and applies RoPE — the
    /// §3.3 CPU→NPU merge followed by the position encoding.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn stage_qkv_finish(
        &self,
        main: Tensor<f32>,
        shadow: Option<Tensor<f32>>,
        start_pos: usize,
    ) -> Result<(Tensor<f32>, Tensor<f32>, Tensor<f32>)> {
        let (seq, _) = main.matrix_dims();
        self.qkv_finish_at(main, shadow, start_pos..start_pos + seq)
    }

    /// [`Transformer::stage_qkv_finish`] with row `i` rotated at
    /// `positions[i]` — rows of a batched decode step sit at unrelated
    /// absolute positions.
    fn qkv_finish_at(
        &self,
        mut qkv: Tensor<f32>,
        shadow: Option<Tensor<f32>>,
        positions: impl Iterator<Item = usize> + Clone,
    ) -> Result<(Tensor<f32>, Tensor<f32>, Tensor<f32>)> {
        if let Some(s) = &shadow {
            crate::backend::merge_linear(&mut qkv, s)?;
        }
        let cfg = self.config();
        let (q_dim, kv_dim) = (cfg.q_dim(), cfg.kv_dim());
        let mut q = take_cols(&qkv, 0..q_dim)?;
        let mut k = take_cols(&qkv, q_dim..q_dim + kv_dim)?;
        let v = take_cols(&qkv, q_dim + kv_dim..q_dim + 2 * kv_dim)?;
        let hd = cfg.head_dim;
        rope::apply_rope_heads_inplace(&mut q, hd, positions.clone(), rope::DEFAULT_THETA)?;
        rope::apply_rope_heads_inplace(&mut k, hd, positions, rope::DEFAULT_THETA)?;
        Ok((q, k, v))
    }

    /// `Attention`: scores, causal mask, softmax, A·V over the first
    /// `visible_rows` cached positions of `kv`'s layer `layer`, walked
    /// page by page — no per-row gather. `kv` is a detached
    /// [`PagedKvReader`] snapshot so a long attention walk never holds
    /// the lock that owns the request's cache (concurrent stage tasks of
    /// the same request would serialize on it otherwise).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or if `visible_rows` exceeds
    /// the snapshot's reserved capacity.
    pub fn stage_attention(
        &self,
        layer: usize,
        q: &Tensor<f32>,
        kv: &PagedKvReader,
        visible_rows: usize,
        start_pos: usize,
    ) -> Result<Tensor<f32>> {
        kv.view(layer, visible_rows, |pages_k, pages_v| {
            attention_over_pages(q, pages_k, pages_v, self.config(), start_pos)
        })?
    }

    /// `OProj`: output projection plus residual add.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or backend failure.
    pub fn stage_attn_out(
        &self,
        layer: usize,
        h: &Tensor<f32>,
        attn: &Tensor<f32>,
    ) -> Result<Tensor<f32>> {
        let attn_out = self.backend.linear(layer, LinearInput::AttnOut, attn)?;
        Ok(ops::add(h, &attn_out)?)
    }

    /// `FfnPre`: the post-attention norm.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn stage_ffn_pre(&self, layer: usize, h: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lw = &self.weights.layers[layer];
        self.apply_norm(h, &lw.ffn_norm_gamma, &lw.ffn_norm_beta)
    }

    /// The FFN mid section (gate/up projections + activation), fused.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or backend failure.
    pub fn stage_ffn_mid(&self, layer: usize, f_in: &Tensor<f32>) -> Result<Tensor<f32>> {
        let main = self.stage_linear_main(layer, LinearInput::Ffn, f_in)?;
        let shadow = self.stage_linear_shadow(layer, LinearInput::Ffn, f_in)?;
        self.stage_ffn_mid_finish(main, shadow)
    }

    /// Merges the Gate | Up halves and applies the activation.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn stage_ffn_mid_finish(
        &self,
        mut main: Tensor<f32>,
        shadow: Option<Tensor<f32>>,
    ) -> Result<Tensor<f32>> {
        if let Some(s) = &shadow {
            crate::backend::merge_linear(&mut main, s)?;
        }
        let ffn = self.config().ffn_hidden;
        let act = match self.config().act {
            ActKind::Gelu => return Ok(ops::gelu(&main)),
            ActKind::SiluGated => ops::silu,
            ActKind::GeluGated => ops::gelu,
        };
        let (rows, width) = main.matrix_dims();
        if width != 2 * ffn {
            return Err(Error::Tensor(llmnpu_tensor::Error::InvalidDimension {
                op: "stage_ffn_mid_finish",
                what: format!("gate | up is {width} wide, expected 2 × {ffn}"),
            }));
        }
        // `act(gate) · up`, reading `up` in place from the fused rows.
        let mut mid = act(&take_cols(&main, 0..ffn)?);
        for r in 0..rows {
            for (g, &u) in mid.row_mut(r).iter_mut().zip(&main.row(r)[ffn..]) {
                *g *= u;
            }
        }
        Ok(mid)
    }

    /// The FFN down projection plus residual add (the tail of the `Ffn`
    /// stage).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or backend failure.
    pub fn stage_ffn_down(
        &self,
        layer: usize,
        h: &Tensor<f32>,
        ffn_mid: &Tensor<f32>,
    ) -> Result<Tensor<f32>> {
        let ffn_out = self.backend.linear(layer, LinearInput::FfnOut, ffn_mid)?;
        Ok(ops::add(h, &ffn_out)?)
    }

    /// Runs a calibration pass: prefills every prompt with this backend and
    /// records the input activation of every linear site.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid tokens or backend failures.
    pub fn calibrate(&self, prompts: &[Vec<u32>]) -> Result<CalibrationSet> {
        let mut set = CalibrationSet::new();
        for prompt in prompts {
            let segment = Segment {
                kv: &mut PagedKvCache::solo(self.config(), prompt.len())?,
                start_pos: 0,
                rows: prompt.len(),
            };
            self.forward_rows(self.embed(prompt)?, &mut [segment], Some(&mut set))?;
        }
        Ok(set)
    }
}

/// Columns `cols` of `t`'s matrix view, as a `[rows, cols.len()]` tensor:
/// one site's block of a fused projection's output.
fn take_cols(t: &Tensor<f32>, cols: std::ops::Range<usize>) -> Result<Tensor<f32>> {
    let (rows, width) = t.matrix_dims();
    if cols.end > width {
        return Err(Error::Tensor(llmnpu_tensor::Error::InvalidDimension {
            op: "take_cols",
            what: format!("columns {cols:?} of a {width}-wide activation"),
        }));
    }
    let mut data = Vec::with_capacity(rows * cols.len());
    for r in 0..rows {
        data.extend_from_slice(&t.row(r)[cols.clone()]);
    }
    Ok(Tensor::from_vec(data, [rows, cols.len()])?)
}

/// One request's slot in a batched decode step: the token to forward,
/// the absolute position it occupies (the request's KV length before
/// this step), and the request's paged cache.
#[derive(Debug)]
pub struct PagedDecodeEntry<'a> {
    /// Previously sampled token to run through the decode forward.
    pub token: u32,
    /// Absolute position `token` lands at (= tokens cached so far).
    pub pos: usize,
    /// The request's paged KV cache.
    pub kv: &'a mut PagedKvCache,
}

/// One run of consecutive rows of a stacked activation: `rows` positions
/// from `start_pos` of the request that owns `kv`.
struct Segment<'a> {
    kv: &'a mut PagedKvCache,
    start_pos: usize,
    rows: usize,
}

/// Multi-head attention with GQA/MQA head sharing and chunk-offset causal
/// masking over **paged** K/V storage: `q` is `[seq, heads*head_dim]`;
/// `pages_k[i]` / `pages_v[i]` each hold a whole page of `rows_i × kv_dim` contiguous
/// elements (`kv_dim = kv_heads × head_dim`), covering cache positions in
/// order. Runs the tiled kernel
/// [`llmnpu_tensor::kernel::attention::attention_paged`], whose key tile
/// is a constant of the kernel rather than the page size and whose every
/// output row depends only on its own query row and the keys it may see
/// — so the one-page store and any paging of the same rows produce
/// **bit-identical** outputs, and row `r` equals the one-row call
/// at `start_pos + r`.
///
/// # Errors
///
/// Returns an error if the page widths are inconsistent with `cfg`.
pub fn attention_over_pages(
    q: &Tensor<f32>,
    pages_k: &[&[f32]],
    pages_v: &[&[f32]],
    cfg: &ModelConfig,
    start_pos: usize,
) -> Result<Tensor<f32>> {
    let (seq, _) = q.matrix_dims();
    let mut out = Tensor::zeros([seq, cfg.q_dim()]);
    attend(
        q.as_slice(),
        pages_k,
        pages_v,
        cfg,
        start_pos,
        out.as_mut_slice(),
    )?;
    Ok(out)
}

/// [`attention_over_pages`] on bare query rows, into the caller's output
/// rows (batched decode attends one row of a `[B, q_dim]` activation per
/// request).
fn attend(
    q: &[f32],
    pages_k: &[&[f32]],
    pages_v: &[&[f32]],
    cfg: &ModelConfig,
    start_pos: usize,
    out: &mut [f32],
) -> Result<()> {
    let kv_dim = cfg.kv_dim();
    let rows = |pages: &[&[f32]]| pages.iter().map(|p| p.len() / kv_dim).sum::<usize>();
    let whole = |pages: &[&[f32]]| pages.iter().all(|p| p.len().is_multiple_of(kv_dim));
    let shapes_agree = whole(pages_k)
        && whole(pages_v)
        && rows(pages_k) == rows(pages_v)
        && q.len() == out.len()
        && q.len().is_multiple_of(cfg.q_dim());
    if !shapes_agree {
        return Err(Error::Tensor(llmnpu_tensor::Error::InvalidDimension {
            op: "attention_over_pages",
            what: format!(
                "query of {} elements (rows of {}) over K / V pages of {} / {} rows of kv_dim {kv_dim}",
                q.len(),
                cfg.q_dim(),
                rows(pages_k),
                rows(pages_v)
            ),
        }));
    }
    let geom = HeadGeometry {
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        head_dim: cfg.head_dim,
    };
    attention_paged(geom, start_pos, q, pages_k, pages_v, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FloatBackend;
    use crate::config::ModelConfig;
    use crate::weights::{synthesize, OutlierSpec};

    fn setup() -> (ModelWeights, FloatBackend) {
        let w = synthesize(&ModelConfig::tiny(), 42, OutlierSpec::default()).unwrap();
        (w.clone(), FloatBackend::new(w))
    }

    fn tokens(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| (i * 7 + 3) % 64).collect()
    }

    /// The reference layout: a one-page store of `tokens` positions.
    fn solo(t: &Transformer<'_>, tokens: usize) -> PagedKvCache {
        PagedKvCache::solo(t.config(), tokens).unwrap()
    }

    /// `tokens` positions on a caller-supplied pool of `block_tokens`-row
    /// pages.
    fn paged_store(
        t: &Transformer<'_>,
        block_tokens: usize,
        tokens: usize,
    ) -> (std::sync::Arc<llmnpu_kv::BlockPool>, PagedKvCache) {
        let pool = std::sync::Arc::new(
            llmnpu_kv::BlockPool::new(llmnpu_kv::PoolConfig {
                layers: t.config().layers,
                kv_dim: t.config().kv_dim(),
                block_tokens,
                blocks: tokens.div_ceil(block_tokens) + 2,
            })
            .unwrap(),
        );
        let kv = PagedKvCache::reserve(&pool, tokens).unwrap();
        (pool, kv)
    }

    /// Leading positions of `kv` that hold a written (non-zero) K row in
    /// every layer.
    fn filled_positions(t: &Transformer<'_>, kv: &PagedKvCache) -> usize {
        let kv_dim = t.config().kv_dim();
        (0..t.config().layers)
            .map(|layer| {
                let (k, _) = kv.rows(layer, kv.capacity_tokens()).unwrap();
                k.chunks(kv_dim)
                    .take_while(|row| row.iter().any(|&x| x != 0.0))
                    .count()
            })
            .min()
            .unwrap()
    }

    /// The first `tokens` cached K **and** V rows of every layer agree to
    /// the bit, page layout aside.
    fn assert_same_rows(t: &Transformer<'_>, a: &PagedKvCache, b: &PagedKvCache, tokens: usize) {
        for layer in 0..t.config().layers {
            assert_eq!(
                a.rows(layer, tokens).unwrap(),
                b.rows(layer, tokens).unwrap(),
                "cached rows diverged at layer {layer}"
            );
        }
    }

    #[test]
    fn embed_validates_tokens() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        assert!(t.embed(&[0, 5, 63]).is_ok());
        assert!(matches!(
            t.embed(&[64]),
            Err(Error::TokenOutOfRange { token: 64, .. })
        ));
    }

    #[test]
    fn prefill_fills_cache() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let mut cache = solo(&t, 8);
        let h = t.prefill_paged(&tokens(6), 0, &mut cache).unwrap();
        assert_eq!(h.shape().dims(), &[6, 32]);
        assert_eq!(filled_positions(&t, &cache), 6);
    }

    #[test]
    fn chunked_prefill_equals_whole_prefill() {
        // The central §3.2 invariant: chunked causal prefill is numerically
        // identical to whole-prompt prefill.
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let toks = tokens(10);

        let mut cache_whole = solo(&t, toks.len());
        let whole = t.prefill_paged(&toks, 0, &mut cache_whole).unwrap();

        for chunk_len in [1usize, 3, 4, 5, 10, 16] {
            let mut cache_chunked = solo(&t, toks.len());
            let chunked = t
                .prefill_chunked(&toks, chunk_len, &mut cache_chunked)
                .unwrap();
            let mse = whole.mse(&chunked).unwrap();
            assert!(mse < 1e-9, "chunk_len {chunk_len}: mse {mse} should be ~0");
            assert_eq!(filled_positions(&t, &cache_chunked), toks.len());
        }
    }

    #[test]
    fn chunked_prefill_rejects_zero_chunk() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let mut cache = solo(&t, 4);
        assert!(t.prefill_chunked(&tokens(4), 0, &mut cache).is_err());
    }

    #[test]
    fn decode_extends_cache_and_yields_logits() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let mut cache = solo(&t, 8);
        t.prefill_paged(&tokens(5), 0, &mut cache).unwrap();
        assert_eq!(filled_positions(&t, &cache), 5);
        let hidden = t.prefill_paged(&[9], 5, &mut cache).unwrap();
        let logits = t.logits(&hidden).unwrap();
        assert_eq!(logits.shape().dims(), &[1, 64]);
        assert_eq!(filled_positions(&t, &cache), 6);
    }

    #[test]
    fn generate_is_deterministic_and_chunking_invariant() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let prompt = tokens(7);
        let cfg = SamplerConfig::top_k(8, 0.9, 1234);
        let a = t.generate(&prompt, Some(3), 6, &cfg).unwrap();
        let b = t.generate(&prompt, Some(3), 6, &cfg).unwrap();
        assert_eq!(a, b, "same seed must reproduce the stream");
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&tk| (tk as usize) < t.config().vocab));
        // FloatBackend is row-wise, so whole-prompt and chunked prefill
        // are bit-identical — and therefore so is the sampled stream.
        let whole = t.generate(&prompt, None, 6, &cfg).unwrap();
        assert_eq!(a, whole);
        // A different seed must eventually diverge under sampling.
        let mut other = cfg.clone();
        other.seed = 99;
        let c = t.generate(&prompt, Some(3), 6, &other).unwrap();
        assert!(a != c || a.len() < 2, "seeds 1234 and 99 coincided");
    }

    #[test]
    fn generate_greedy_matches_manual_decode_loop() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let prompt = tokens(5);
        let generated = t
            .generate(&prompt, None, 4, &SamplerConfig::greedy())
            .unwrap();

        // Manual loop: prefill, then argmax over logits per step.
        let mut cache = solo(&t, prompt.len() + 3);
        let hidden = t.prefill_paged(&prompt, 0, &mut cache).unwrap();
        let (rows, h) = hidden.matrix_dims();
        let mut last = Tensor::from_vec(hidden.row(rows - 1).to_vec(), [1, h]).unwrap();
        let mut manual = Vec::new();
        for step in 0..4 {
            let logits = t.logits(&last).unwrap();
            let row = logits.row(0);
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            manual.push(best as u32);
            if step < 3 {
                let pos = prompt.len() + step;
                last = t.prefill_paged(&[best as u32], pos, &mut cache).unwrap();
            }
        }
        assert_eq!(generated, manual);
    }

    #[test]
    fn generate_rejects_empty_prompt() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        assert!(t.generate(&[], None, 4, &SamplerConfig::greedy()).is_err());
    }

    #[test]
    fn causality_first_token_ignores_suffix() {
        // Changing later tokens must not change the first token's hidden
        // state — the property that makes causal chunking possible at all.
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);

        let h1 = t.prefill_paged(&[1, 2, 3, 4], 0, &mut solo(&t, 4)).unwrap();
        let h2 = t
            .prefill_paged(&[1, 60, 61, 62], 0, &mut solo(&t, 4))
            .unwrap();
        for (a, b) in h1.row(0).iter().zip(h2.row(0)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gqa_and_mqa_configs_run() {
        for cfg in [
            ModelConfig::gemma_2b().scaled_down(32, 2, 64).unwrap(),
            ModelConfig::mistral_7b().scaled_down(32, 2, 64).unwrap(),
            ModelConfig::phi2_27b().scaled_down(40, 2, 64).unwrap(),
        ] {
            let w = synthesize(&cfg, 9, OutlierSpec::default()).unwrap();
            let be = FloatBackend::new(w.clone());
            let t = Transformer::new(&w, &be);
            let h = t.prefill_paged(&tokens(6), 0, &mut solo(&t, 6)).unwrap();
            assert_eq!(h.shape().dims(), &[6, cfg.hidden]);
            assert!(h.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn calibration_records_every_site() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let cal = t.calibrate(&[tokens(4), tokens(6)]).unwrap();
        let sites = crate::backend::model_sites(&w);
        for site in &sites {
            let recs = cal.get(site).unwrap_or_else(|| panic!("missing {site:?}"));
            assert_eq!(recs.len(), 2, "one recording per prompt");
        }
    }

    #[test]
    fn last_hidden_matches_prefill_row() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let toks = tokens(7);
        let h = t.prefill_paged(&toks, 0, &mut solo(&t, 7)).unwrap();
        let last = t.last_hidden(&toks, None).unwrap();
        assert_eq!(h.row(6), last.as_slice());
        let last_chunked = t.last_hidden(&toks, Some(3)).unwrap();
        for (a, b) in last.iter().zip(&last_chunked) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn paged_prefill_bit_identical_to_contiguous_at_any_page_size() {
        // N-token pages ≡ the one-page (contiguous) store: hidden states
        // and cached K and V rows.
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let toks = tokens(10);
        let mut contiguous = solo(&t, toks.len());
        let whole = t.prefill_paged(&toks, 0, &mut contiguous).unwrap();

        for block_tokens in [1usize, 3, 4, 16] {
            let (pool, mut paged) = paged_store(&t, block_tokens, toks.len());
            let h = t.prefill_paged(&toks, 0, &mut paged).unwrap();
            assert_eq!(
                h.as_slice(),
                whole.as_slice(),
                "hidden states diverged at page size {block_tokens}"
            );
            assert_same_rows(&t, &paged, &contiguous, toks.len());
            paged.release().unwrap();
            assert_eq!(pool.used_blocks(), 0, "pages leaked");
        }
    }

    #[test]
    fn paged_chunked_prefill_matches_contiguous_chunked() {
        // Chunk-at-a-time paged prefill (what the serving executor runs)
        // against the chunked reference on the one-page store.
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let toks = tokens(11);
        let mut contiguous = solo(&t, toks.len());
        let reference = t.prefill_chunked(&toks, 4, &mut contiguous).unwrap();

        let (_pool, mut paged) = paged_store(&t, 3, toks.len());
        let mut hidden = Vec::new();
        let mut pos = 0;
        for chunk in toks.chunks(4) {
            let h = t.prefill_paged(chunk, pos, &mut paged).unwrap();
            hidden.extend_from_slice(h.as_slice());
            pos += chunk.len();
        }
        assert_eq!(hidden.as_slice(), reference.as_slice());
        assert_same_rows(&t, &paged, &contiguous, toks.len());
        paged.release().unwrap();
    }

    #[test]
    fn prefill_past_solo_capacity_is_out_of_range_and_keeps_earlier_rows() {
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let toks = tokens(6);
        let mut kv = solo(&t, toks.len());
        t.prefill_paged(&toks, 0, &mut kv).unwrap();
        let before: Vec<_> = (0..t.config().layers)
            .map(|layer| kv.rows(layer, toks.len()).unwrap())
            .collect();
        assert!(matches!(
            t.prefill_paged(&[9], toks.len(), &mut kv),
            Err(Error::Kv(llmnpu_kv::Error::OutOfRange { .. }))
        ));
        for (layer, rows) in before.iter().enumerate() {
            assert_eq!(&kv.rows(layer, toks.len()).unwrap(), rows);
        }
        // A chunk straddling the end fails too, and no row before its
        // start is rewritten.
        assert!(t.prefill_paged(&[9, 9], toks.len() - 1, &mut kv).is_err());
        for (layer, rows) in before.iter().enumerate() {
            let (k, v) = kv.rows(layer, toks.len() - 1).unwrap();
            let n = k.len();
            assert_eq!((&k[..], &v[..]), (&rows.0[..n], &rows.1[..n]));
        }
    }

    #[test]
    fn batched_decode_rows_match_solo_generate_streams() {
        // Two concurrent greedy streams decoded through one m=B forward
        // per step must emit exactly their solo `generate` tokens.
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let prompts = [tokens(6), tokens(4)];
        let max_new = 5usize;
        let solo: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| {
                t.generate(p, None, max_new, &SamplerConfig::greedy())
                    .unwrap()
            })
            .collect();

        let pool = std::sync::Arc::new(
            llmnpu_kv::BlockPool::new(llmnpu_kv::PoolConfig {
                layers: t.config().layers,
                kv_dim: t.config().kv_dim(),
                block_tokens: 4,
                blocks: 16,
            })
            .unwrap(),
        );
        let mut caches: Vec<PagedKvCache> = prompts
            .iter()
            .map(|p| PagedKvCache::reserve(&pool, p.len() + max_new).unwrap())
            .collect();
        let mut last: Vec<Tensor<f32>> = Vec::new();
        for (p, kv) in prompts.iter().zip(&mut caches) {
            let h = t.prefill_paged(p, 0, kv).unwrap();
            let (rows, hd) = h.matrix_dims();
            last.push(Tensor::from_vec(h.row(rows - 1).to_vec(), [1, hd]).unwrap());
        }
        let mut streams: Vec<Vec<u32>> = vec![Vec::new(); prompts.len()];
        for step in 0..max_new {
            // Sample each stream from its current last-hidden row.
            for i in 0..prompts.len() {
                let logits = t.logits(&last[i]).unwrap();
                let row = logits.row(0);
                let mut best = 0usize;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                streams[i].push(best as u32);
            }
            if step + 1 == max_new {
                break;
            }
            // One batched forward advances both caches.
            let mut iter = caches.iter_mut();
            let mut entries: Vec<PagedDecodeEntry<'_>> = Vec::new();
            for (i, kv) in iter.by_ref().enumerate() {
                entries.push(PagedDecodeEntry {
                    token: *streams[i].last().unwrap(),
                    pos: prompts[i].len() + step,
                    kv,
                });
            }
            let h = t.decode_forward_batch(&mut entries).unwrap();
            let (_, hd) = h.matrix_dims();
            for (i, l) in last.iter_mut().enumerate() {
                *l = Tensor::from_vec(h.row(i).to_vec(), [1, hd]).unwrap();
            }
        }
        assert_eq!(streams, solo, "batched decode diverged from solo streams");
        for kv in &mut caches {
            kv.release().unwrap();
        }
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn hot_channels_produce_activation_outliers() {
        // The synthetic weights must actually generate the outlier pattern
        // the paper measures: linear inputs with a few extreme channels.
        let (w, be) = setup();
        let t = Transformer::new(&w, &be);
        let cal = t.calibrate(&[tokens(8)]).unwrap();
        // Look at the Q input of layer 1 (post-norm activation).
        let acts = &cal[&(1, LinearKind::Q)][0];
        let mut channel_max = vec![0.0_f32; 32];
        let (rows, _cols) = acts.matrix_dims();
        for r in 0..rows {
            for (cm, &v) in channel_max.iter_mut().zip(acts.row(r)) {
                *cm = cm.max(v.abs());
            }
        }
        let mut sorted = channel_max.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Top channel should dwarf the median channel.
        let median = sorted[16];
        assert!(
            sorted[0] > 4.0 * median,
            "top {} vs median {median}",
            sorted[0]
        );
    }
}

//! Stage 3 — **prove**: the round's spliced graph as an
//! [`llmnpu_verify::Plan`], proven clean before a single closure runs.
//! The spliced graph carries every invariant the round relies on:
//! acyclicity, the pinned admission order, race-free KV writes, the page
//! budget, and poison-proof cleanup; a finding aborts the round.

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::TaskRole;
use llmnpu_graph::layer::Stage;
use llmnpu_obs::{EventKind, Plane};
use llmnpu_verify::{Access, Segment};

use super::build::{RoundGraph, RunCtx};
use super::ServeTaskKind;
use crate::{Error, Result};

/// Proves the round's plan, or rejects it with
/// [`Error::PlanRejected`]. `free_blocks` is the pool's free count
/// *after* planning: every cache eviction the planner needed has
/// already happened, so it is the round's true page budget — capacity
/// is constant for the rest of the round.
pub(super) fn prove(
    ctx: RunCtx<'_>,
    built: &RoundGraph<'_>,
    plans: &[ChunkPlan],
    free_blocks: usize,
) -> Result<llmnpu_verify::Report> {
    let verified = llmnpu_verify::verify(&verify_plan(ctx, built, plans, free_blocks));
    if !verified.is_clean() {
        return Err(Error::PlanRejected {
            findings: verified.findings.iter().map(ToString::to_string).collect(),
        });
    }
    if let Some(sink) = ctx.round.sink() {
        let st = &verified.stats;
        sink.event(Plane::Plan, EventKind::PlanVerified, None, || {
            format!(
                "{} task(s), {} edge(s), {} segment(s), peak {} page(s)",
                st.tasks, st.edges, st.segments, st.peak_pages
            )
        });
    }
    Ok(verified)
}

/// Translates one round's spliced lane graph into an
/// [`llmnpu_verify::Plan`].
///
/// The structural half (tasks, lanes, edges, barriers, times) comes from
/// [`LaneGraph::verify_plan`](llmnpu_sched::LaneGraph::verify_plan); the
/// per-task class, owner and gate/fault flags were stated when the task
/// was pushed ([`super::build::TaskMeta`]). This function adds what only
/// the planner's segment table knows:
///
/// - **KV address spaces**: space `seg * layers + layer` holds segment
///   `seg`'s absolute token positions at one decoder layer; prefix
///   sharing maps a sharer's shared positions into its donor's spaces
///   (transitively), exactly like the pool's block tables — a sharer
///   never writes a donor space (copy-on-write gives it fresh pages).
///   Writers are the KV-appending `QkvLinear` stages (the one
///   [`PrefillDag::writes_kv`](llmnpu_graph::dag::PrefillDag::writes_kv)
///   names for each chunk and layer) and decode steps ≥ 1 (position
///   `prompt + step − 1`); readers are `Attention` stages (Equation 2's visibility: everything
///   through the chunk's end) and decode steps (everything before the
///   new position).
/// - **The cache-slot space** (one cell per round member, after the KV
///   spaces): admission installs a cache, release/eviction drains it,
///   a prefix fork reads the donor's cell.
/// - **The segment table** for the page-budget and leak proofs: fresh
///   blocks per admission (the planner's own formula), blocks the global
///   prefix cache retains past the terminal, the donor link, and each
///   incarnation's terminal (Release, or Evicted for a preempted one).
///
/// Prefix-cache interplay: pages adopted from the global cache carry no
/// in-plan writer, so their positions (`[0, full)` of a cached hit) are
/// deliberately invisible to the race checker — only the row-copied
/// partial tail (written by Admit into the sharer's own space) and the
/// suffix are declared.
fn verify_plan(
    ctx: RunCtx<'_>,
    built: &RoundGraph<'_>,
    plans: &[ChunkPlan],
    free_blocks: usize,
) -> llmnpu_verify::Plan {
    let RunCtx {
        round, segments, ..
    } = ctx;
    let requests = &round.requests;
    let pool_cfg = round.pool.config();
    let mut plan = built.graph.verify_plan();
    let layers = pool_cfg.layers.max(1);
    let kv_space = |seg: usize, layer: usize| (seg * layers + layer) as u64;
    let slot_space = (segments.len() * layers) as u64;
    let slot_cell = |seg: usize| Access::cell(slot_space, ctx.member(seg) as u64);

    // Which (segment, absolute-position range) backs each segment's KV:
    // its own space from the whole-page prefix boundary on (a row-copied
    // partial tail lands in the sharer's own space), its donor's coverage
    // (clipped, transitively) before it. Cache-adopted pages have no
    // in-plan writer: positions below a hit's full-page length stay
    // undeclared. Built in segment order — a donor is always an earlier
    // segment.
    let bt = pool_cfg.block_tokens.max(1);
    let mut coverage: Vec<Vec<(usize, u64, u64)>> = Vec::with_capacity(segments.len());
    for (s, seg) in segments.iter().enumerate() {
        let full = seg.prefix_full_tokens(bt) as u64;
        let mut cov: Vec<(usize, u64, u64)> = Vec::new();
        if let Some(sh) = seg.shared {
            for &(cs, lo, hi) in &coverage[sh.donor_seg] {
                if lo < full {
                    cov.push((cs, lo, hi.min(full)));
                }
            }
        }
        cov.push((s, full, requests[seg.req].total_tokens() as u64));
        coverage.push(cov);
    }
    // Reads of everything segment `s` can see below position `hi`.
    let visible = |s: usize, layer: usize, hi: u64| {
        coverage[s]
            .iter()
            .filter(move |&&(_, clo, chi)| clo < chi.min(hi))
            .map(move |&(cs, clo, chi)| Access::range(kv_space(cs, layer), clo, chi.min(hi)))
    };

    for (task, m) in plan.tasks.iter_mut().zip(&built.meta) {
        let s = m.segs[0];
        task.class = m.class;
        task.gated = m.gated;
        task.fallible = m.fallible;
        task.owner = Some(s);
        match m.kind {
            ServeTaskKind::Admit => {
                task.serialized = true;
                task.writes.push(slot_cell(s));
                if let Some(sh) = segments[s].shared {
                    task.reads.push(slot_cell(sh.donor_seg));
                    // Unaligned tail: Admit row-copies the donor's tail
                    // rows into the sharer's first private page — a read
                    // of the donor's coverage and a write to own space.
                    let (lo, hi) = (segments[s].prefix_full_tokens(bt) as u64, sh.tokens as u64);
                    if lo < hi {
                        for layer in 0..layers {
                            for &(cs, clo, chi) in &coverage[sh.donor_seg] {
                                let (rlo, rhi) = (clo.max(lo), chi.min(hi));
                                if rlo < rhi {
                                    task.reads
                                        .push(Access::range(kv_space(cs, layer), rlo, rhi));
                                }
                            }
                            task.writes.push(Access::range(kv_space(s, layer), lo, hi));
                        }
                    }
                } else if let Some(hit) = &segments[s].cached {
                    // Cached-tail copy: the source page belongs to the
                    // cache (no in-plan writer to read from); only the
                    // write into the sharer's own space is declared.
                    if let Some((_, rows)) = hit.tail {
                        let (lo, hi) = (hit.tokens as u64, (hit.tokens + rows) as u64);
                        for layer in 0..layers {
                            task.writes.push(Access::range(kv_space(s, layer), lo, hi));
                        }
                    }
                }
            }
            ServeTaskKind::PrefillStage {
                chunk,
                layer,
                stage,
                role,
            } => {
                task.reads.push(slot_cell(s));
                let shared = segments[s].prefix_tokens();
                let suffix = requests[segments[s].req].prompt.len() - shared;
                let clen = plans[s].chunk_len;
                let lo = (shared + chunk * clen) as u64;
                let hi = (shared + chunk * clen + clen.min(suffix - chunk * clen)) as u64;
                if m.writes_kv {
                    task.writes.push(Access::range(kv_space(s, layer), lo, hi));
                }
                if role == TaskRole::Main && stage == Stage::Attention {
                    task.reads.extend(visible(s, layer, hi));
                }
            }
            ServeTaskKind::PrefillFinish => task.reads.push(slot_cell(s)),
            ServeTaskKind::Evicted | ServeTaskKind::Release => task.writes.push(slot_cell(s)),
            ServeTaskKind::Decode { step, .. } => {
                for &s in &m.segs {
                    task.reads.push(slot_cell(s));
                    if step == 0 {
                        // Step 0 samples from the prefill's last hidden
                        // row: no forward pass, no KV traffic.
                        continue;
                    }
                    let prompt = requests[segments[s].req].prompt.len();
                    let pos = (prompt + step - 1) as u64;
                    for layer in 0..layers {
                        task.writes.push(Access::cell(kv_space(s, layer), pos));
                        task.reads.extend(visible(s, layer, pos + 1));
                    }
                }
            }
        }
    }

    plan.page_capacity = Some(free_blocks);
    for (seg, build) in segments.iter().zip(&built.builds) {
        plan.segments.push(Segment {
            admit: Some(build.admit),
            terminal: if seg.evicted {
                Some(build.prefill_finish)
            } else {
                build.release
            },
            fresh_blocks: seg.fresh_blocks(pool_cfg, &requests[seg.req]),
            // A surviving prefill publishes its full prompt pages to the
            // global cache: those stay resident past Release (the cache
            // holds a reference) and only return via eviction/flush —
            // the planner's final figure, net of pressure reclaims.
            retained_blocks: seg.retained,
            donor: seg.shared.map(|sh| sh.donor_seg),
        });
    }
    plan
}

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
///   `seg`'s absolute token positions at one decoder layer. Writers are
///   the KV-appending `QkvLinear` stages (the one
///   [`PrefillDag::writes_kv`](llmnpu_graph::dag::PrefillDag::writes_kv)
///   names for each chunk and layer) and decode steps ≥ 1 (position
///   `prompt + step − 1`); readers are `Attention` stages (Equation 2's
///   visibility: everything through the chunk's end) and decode steps
///   (everything before the new position).
/// - **The cache-slot space** (one cell per round member, after the KV
///   spaces): admission installs a cache, release/eviction drains it.
/// - **The segment table** for the page-budget and leak proofs: fresh
///   blocks per admission (the planner's own formula), blocks the global
///   prefix cache retains past the terminal, and each incarnation's
///   terminal (Release, or Evicted for a preempted one).
///
/// Prefix-cache interplay: pages adopted from the global cache carry no
/// in-plan writer, so their positions (`[0, full)` of a cached hit) are
/// deliberately invisible to the race checker — a segment's visible K/V
/// is its own space from the hit's full-page length on, where Admit
/// row-copies the partial tail and the prefill writes the suffix.
fn verify_plan(
    ctx: RunCtx<'_>,
    built: &RoundGraph<'_>,
    plans: &[ChunkPlan],
    free_blocks: usize,
) -> llmnpu_verify::Plan {
    let RunCtx {
        round, segments, ..
    } = ctx;
    let pool_cfg = round.pool.config();
    let mut plan = built.graph.verify_plan();
    let layers = pool_cfg.layers.max(1);
    let kv_space = |seg: usize, layer: usize| (seg * layers + layer) as u64;
    let slot_space = (segments.len() * layers) as u64;
    let slot_cell = |seg: usize| Access::cell(slot_space, ctx.member(seg) as u64);

    // Reads of everything segment `s` can see below position `hi`: its
    // own space from the cached full pages on.
    let visible = |s: usize, layer: usize, hi: u64| {
        let lo = segments[s].prefix_full_tokens() as u64;
        (lo < hi).then(|| Access::range(kv_space(s, layer), lo, hi))
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
                // Cached-tail copy: the source page belongs to the cache
                // (no in-plan writer to read from); only the write into
                // the segment's own space is declared.
                if let Some((_, rows)) = segments[s].cached.as_ref().and_then(|hit| hit.tail) {
                    let lo = segments[s].prefix_full_tokens() as u64;
                    for layer in 0..layers {
                        task.writes
                            .push(Access::range(kv_space(s, layer), lo, lo + rows as u64));
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
                let cached = segments[s].prefix_tokens();
                let suffix = round.request(segments[s].req).prompt.len() - cached;
                let clen = plans[s].chunk_len;
                let lo = (cached + chunk * clen) as u64;
                let hi = (cached + chunk * clen + clen.min(suffix - chunk * clen)) as u64;
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
                    let prompt = round.request(segments[s].req).prompt.len();
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
            fresh_blocks: seg.fresh_blocks(pool_cfg, round.request(seg.req)),
            // A surviving prefill publishes its full prompt pages to the
            // global cache: those stay resident past Release (the cache
            // holds a reference) and only return via eviction/flush —
            // the planner's final figure, net of pressure reclaims.
            retained_blocks: seg.retained,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use llmnpu_kv::BlockTable;
    use llmnpu_model::backend::FloatBackend;
    use llmnpu_model::config::ModelConfig;
    use llmnpu_model::forward::Transformer;
    use llmnpu_model::weights::{synthesize, OutlierSpec};
    use llmnpu_soc::spec::SocSpec;
    use llmnpu_verify::{verify, FindingKind, Plan, TaskClass};

    use super::*;
    use crate::engine::{EngineConfig, LlmNpuEngine};
    use crate::serve::build::{build_round, Prefill, RoundState};
    use crate::serve::plan::{plan_batch, SegmentPlan};
    use crate::serve::{queue_of, GenerationRequest, PressurePolicy, Round, ServeOptions};

    /// The translated first round of `requests` on a fresh session whose
    /// prefix cache already holds the full pages of `cached`; `check`
    /// sees the planned segments and the built graph first.
    fn round_plan(
        requests: &[GenerationRequest],
        opts: &ServeOptions,
        cached: &[u32],
        check: impl FnOnce(&[SegmentPlan], &RoundGraph<'_>),
    ) -> Plan {
        let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
        let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let mut ecfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
        ecfg.chunk_len = 3;
        let engine = LlmNpuEngine::new(ecfg).unwrap();
        let session = engine.open_serve_session(&t, opts).unwrap();
        if !cached.is_empty() {
            let mut table = BlockTable::reserve(&session.pool, cached.len()).unwrap();
            session
                .cache
                .insert(&session.pool, cached, table.blocks())
                .unwrap();
            table.release(&session.pool).unwrap();
        }

        let round = Round::new(queue_of(requests), opts, &session, None, None, 0.0);
        round.cache.begin_round();
        let plan = plan_batch(&round).unwrap();
        let free_blocks = round.pool.free_blocks();
        let live = RoundState::new(&round, plan.segments.len()).unwrap();
        let ctx = RunCtx {
            round: &round,
            segments: &plan.segments,
            live: &live,
            t: &t,
        };
        let prefill = Prefill::new(&engine, ctx).unwrap();
        let built = build_round(&engine, ctx, &prefill, plan.cohorts).unwrap();
        check(&plan.segments, &built);
        verify_plan(ctx, &built, &prefill.plans, free_blocks)
    }

    fn kinds(plan: &Plan) -> Vec<FindingKind> {
        verify(plan).findings.iter().map(|f| f.kind).collect()
    }

    /// The unmutated plan is clean, and each mutation of the page proof
    /// is caught: one page below the proven peak over-commits, a
    /// terminal cut loose from its admission leaks, and a Release that
    /// is not a barrier is unbarriered cleanup.
    fn assert_mutations_caught(name: &str, plan: &Plan) {
        let report = verify(plan);
        assert!(report.is_clean(), "{name}: {:?}", report.findings);

        let mut tight = plan.clone();
        tight.page_capacity = Some(report.stats.peak_pages - 1);
        assert!(
            kinds(&tight).contains(&FindingKind::PageOverCommit),
            "{name}: capacity {} below the peak",
            report.stats.peak_pages - 1
        );
        for (s, seg) in plan.segments.iter().enumerate() {
            let mut loose = plan.clone();
            loose.tasks[seg.terminal.unwrap()].deps.clear();
            assert!(
                kinds(&loose).contains(&FindingKind::PageLeak),
                "{name}: segment {s}'s terminal without deps"
            );
        }
        let releases: Vec<usize> = (0..plan.tasks.len())
            .filter(|&t| plan.tasks[t].class == TaskClass::Release)
            .collect();
        assert!(!releases.is_empty(), "{name}: no Release to mutate");
        for t in releases {
            let mut unbarriered = plan.clone();
            unbarriered.tasks[t].barrier = false;
            assert!(
                kinds(&unbarriered).contains(&FindingKind::UnbarrieredCleanup),
                "{name}: Release {t} without its barrier"
            );
        }
    }

    #[test]
    fn a_cached_tail_round_catches_every_page_mutation() {
        // The cache holds two full 4-token pages of `common + [50, 51,
        // 52]`; R0 adopts page 0 and row-copies 2 tail rows of page 1.
        let common: Vec<u32> = (0..6).map(|i| (i * 7 + 3) % 96).collect();
        let cached = [common.as_slice(), &[50, 51, 52]].concat();
        let requests = [
            GenerationRequest::new([common.as_slice(), &[60, 61, 62]].concat(), 3),
            GenerationRequest::new(vec![80, 81, 82, 83, 84], 2),
        ];
        let opts = ServeOptions {
            block_tokens: 4,
            kv_pool_blocks: Some(16),
            decode_batch: 2,
            ..ServeOptions::default()
        };
        let plan = round_plan(&requests, &opts, &cached, |segs, _| {
            let hit = segs[0].cached.as_ref().expect("R0 hits the cache");
            assert_eq!(
                (hit.blocks.len(), hit.tail.map(|(_, rows)| rows)),
                (1, Some(2))
            );
        });
        assert_mutations_caught("cached tail", &plan);
    }

    #[test]
    fn a_preempting_reclaiming_round_catches_every_page_mutation() {
        // 6 pages of 4 tokens (the planner's cohort test): R1 preempts
        // R0; R0's re-admission waits for R1 and reclaims the pages R1
        // would leave cached (stage 2); R2 then preempts it.
        let requests = [
            GenerationRequest::new((0..16).collect(), 4),
            GenerationRequest::new((50..66).collect(), 4),
            GenerationRequest::new(vec![90, 91, 92, 93], 4),
        ];
        let opts = ServeOptions {
            max_active: 4,
            block_tokens: 4,
            kv_pool_blocks: Some(6),
            pressure: PressurePolicy::EvictYoungest,
            decode_batch: 2,
            ..ServeOptions::default()
        };
        let plan = round_plan(&requests, &opts, &[], |segs, _| {
            let evicted: Vec<bool> = segs.iter().map(|s| s.evicted).collect();
            assert_eq!(evicted, [true, false, true, false, false]);
            assert_eq!(segs[1].retained, 0, "R1's cached pages reclaimed");
        });
        assert_mutations_caught("preempt + reclaim", &plan);
    }

    #[test]
    fn a_cohort_members_first_token_waits_on_its_own_prefill_alone() {
        // One 3-wide cohort over prompts of 4, 13 and 30 tokens: each
        // member's step 0 is its own width-1 task after its own
        // PrefillFinish, and step 1 batches all three after them.
        let requests: Vec<GenerationRequest> = [4u32, 13, 30]
            .iter()
            .enumerate()
            .map(|(r, &len)| {
                let prompt = (0..len).map(|i| (i * 5 + 11 * r as u32 + 1) % 96).collect();
                GenerationRequest::new(prompt, 3)
            })
            .collect();
        let opts = ServeOptions {
            block_tokens: 4,
            kv_pool_blocks: Some(24),
            max_active: 3,
            decode_batch: 3,
            ..ServeOptions::default()
        };
        // (step-0 task, its member's PrefillFinish) per member, and
        // step 1.
        let (mut firsts, mut step1) = (Vec::new(), 0);
        let plan = round_plan(&requests, &opts, &[], |segs, built| {
            assert!(segs.iter().all(|s| s.cohort == 0 && !s.evicted));
            for (s, seg) in segs.iter().enumerate() {
                let d0 = built.token_tasks[seg.req][0];
                assert_eq!(
                    built.meta[d0].kind,
                    ServeTaskKind::Decode { step: 0, width: 1 },
                    "member {}'s step 0",
                    seg.req
                );
                firsts.push((d0, built.builds[s].prefill_finish));
            }
            step1 = built.token_tasks[0][1];
            assert!((0..3).all(|m| built.token_tasks[m][1] == step1));
            assert_eq!(
                built.meta[step1].kind,
                ServeTaskKind::Decode { step: 1, width: 3 }
            );
        });
        for &(d0, finish) in &firsts {
            assert_eq!(plan.tasks[d0].deps, [finish], "{}", plan.tasks[d0].label);
        }
        let mut step1_deps = plan.tasks[step1].deps.clone();
        step1_deps.sort_unstable();
        let mut step0s: Vec<usize> = firsts.iter().map(|&(d0, _)| d0).collect();
        step0s.sort_unstable();
        assert_eq!(step1_deps, step0s);
        let report = verify(&plan);
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}

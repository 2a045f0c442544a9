//! Stage 1 — **plan**: the deterministic admission planner. Decides, from
//! request order and page arithmetic alone, every admission, prefix
//! reuse from the global cache, pressure step (cache evict → retained-page
//! reclaim → preemption → wait) and decode cohort of a round, as a list
//! of [`SegmentPlan`]s the builder turns into tasks.

use std::collections::VecDeque;

use llmnpu_kv::{CachedPrefix, PoolConfig};
use llmnpu_obs::{EventKind, Plane};

use super::{kv_err, GenerationRequest, PressurePolicy, Round};
use crate::{Error, Result};

/// One planned incarnation of a request.
#[derive(Debug)]
pub(super) struct SegmentPlan {
    pub(super) req: usize,
    pub(super) attempt: usize,
    /// Preempted: ends in an Evicted task after prefill; no decode.
    pub(super) evicted: bool,
    /// Admission gates: earlier segments whose pages must be back first —
    /// each anchored at the segment's Release task, or at its Evicted
    /// task, which *is* the terminal of a preempted incarnation.
    pub(super) gates: Vec<usize>,
    /// Global prefix-cache hit reused at admission: the cached full
    /// pages are retained into the request's table, the partial tail
    /// (if any) row-copied. The producer may be long gone.
    pub(super) cached: Option<CachedPrefix>,
    /// Decode cohort id (`usize::MAX` for evicted segments).
    pub(super) cohort: usize,
    /// Full prompt pages this segment's prefill leaves resident in the
    /// global prefix cache past its release — zeroed when the segment is
    /// evicted (a preempted incarnation never reaches its insert) or a
    /// later admission takes the pages back.
    pub(super) retained: usize,
}

impl SegmentPlan {
    /// Prompt tokens covered by the cache hit, including a row-copied
    /// partial tail — where this segment's own prefill starts.
    pub(super) fn prefix_tokens(&self) -> usize {
        self.cached.as_ref().map_or(0, CachedPrefix::matched_tokens)
    }

    /// Prefix tokens covered by *whole* cached pages (the part that
    /// costs no fresh blocks; the tail rows live in a fresh page).
    pub(super) fn prefix_full_tokens(&self) -> usize {
        self.cached.as_ref().map_or(0, |hit| hit.tokens)
    }

    /// Fresh blocks the segment draws from the pool at admission:
    /// `req`'s worst case beyond whole cached prefix pages.
    pub(super) fn fresh_blocks(&self, cfg: &PoolConfig, req: &GenerationRequest) -> usize {
        cfg.blocks_for(req.total_tokens() - self.prefix_full_tokens())
    }

    /// Full prompt pages `req`'s prefill publishes to the prefix cache
    /// beyond the pages it adopted from the cache (re-inserting those
    /// adds no residency). Conservative under insert collisions:
    /// first-wins means a colliding insert retains nothing, so the plan
    /// may over-charge (never under-charge) residency.
    fn cacheable_blocks(&self, block_tokens: usize, req: &GenerationRequest) -> usize {
        (req.prompt.len() - self.prefix_full_tokens()) / block_tokens
    }
}

/// The planner's output for one round.
pub(super) struct RoundPlan {
    /// Every incarnation, in planned (= physical reservation) order.
    pub(super) segments: Vec<SegmentPlan>,
    /// Number of decode cohorts.
    pub(super) cohorts: usize,
}

/// Planner state over one [`Round`]. Cache lookups happen lazily inside
/// [`Planner::admit`], in admission order, so claim stamps accrue
/// exactly as the plan consumes hits and unclaimed entries stay
/// evictable for later admissions; cached-prefix evictions under
/// planning pressure release pages from the live pool physically,
/// before any task executes.
struct Planner<'r> {
    round: &'r Round<'r>,
    segments: Vec<SegmentPlan>,
    /// Active segments in admission order.
    active: Vec<usize>,
    /// Latest planned segment of each request — a re-admission must
    /// gate on its evicted predecessor (they share the runtime cache
    /// slot, so the old incarnation's release must precede the new
    /// reservation).
    latest_seg: Vec<Option<usize>>,
    free: usize,
}

impl Planner<'_> {
    fn pool_cfg(&self) -> &PoolConfig {
        self.round.pool.config()
    }

    /// Retires active segment `seg` from the plan: its fresh pages
    /// return to `free`, minus what it retains in the prefix cache.
    fn release_plan(&mut self, seg: usize) {
        let s = &self.segments[seg];
        self.free += s.fresh_blocks(self.pool_cfg(), self.round.request(s.req)) - s.retained;
    }

    /// Emits a Plan-plane event for request `req`. Planning is
    /// single-threaded, so these events are recorded in a deterministic
    /// order and belong to the canonical modeled export.
    fn trace(&self, kind: EventKind, req: usize, f: impl FnOnce() -> String) {
        if let Some(sink) = self.round.sink() {
            sink.event(Plane::Plan, kind, Some(self.round.members[req].id), f);
        }
    }

    /// Plans the admission of one incarnation, returning its segment id.
    fn admit(
        &mut self,
        req: usize,
        attempt: usize,
        pending: &mut VecDeque<(usize, usize)>,
    ) -> Result<usize> {
        let round = self.round;
        let request = round.request(req);
        let mut cand = SegmentPlan {
            req,
            attempt,
            evicted: false,
            gates: Vec::new(),
            cached: None,
            cohort: usize::MAX,
            retained: 0,
        };
        // Global prefix-cache probe, capped so at least one suffix
        // token remains to prefill. The lookup stamps the matched nodes
        // with the current round — an eviction claim that keeps the hit
        // resident until this admission physically retains it.
        let prompt = &request.prompt;
        if round.opts.share_prefixes && prompt.len() > 1 {
            let hit = round.cache.lookup(&prompt[..prompt.len() - 1]);
            if hit.matched_tokens() > 0 {
                cand.cached = Some(hit);
            }
        }
        if let Some(prev) = self.latest_seg[req] {
            cand.gates.push(prev);
        }
        let need = cand.fresh_blocks(self.pool_cfg(), request);
        loop {
            if self.active.len() < round.opts.max_active && need <= self.free {
                break;
            }
            if self.active.len() >= round.opts.max_active {
                // Concurrency cap: wait for the earliest active request
                // (continuous batching's "a slot frees, the next joins").
                self.wait_for_earliest(&mut cand);
                continue;
            }
            // Memory pressure, stage 1: evict cold cached prefixes —
            // they are reuse opportunities, not admitted work, so they
            // always go before a live request is preempted. The pages
            // free physically right now (planning precedes execution),
            // so the round's budget proof sees them. Claimed (this
            // round) and mid-reuse entries are refused, so a hit relied
            // on above cannot be pulled out from under its admission.
            let evicted = round
                .cache
                .evict_lru(round.pool, need - self.free)
                .map_err(kv_err)?;
            if evicted > 0 {
                self.trace(EventKind::Pressure, req, || {
                    format!("stage 1: {evicted} cached page(s) evicted")
                });
                self.free += evicted;
                continue;
            }
            // Memory pressure, stage 2: take back full prompt pages that
            // earlier, already released admissions of *this* round plan
            // to leave in the cache. The runtime admission valve
            // re-evicts them from the cache once the owner's release has
            // actually run (the gate below orders that), so the budget
            // may count them free.
            let mut reclaimed = 0usize;
            for s in 0..self.segments.len() {
                if self.free + reclaimed >= need {
                    break;
                }
                if self.segments[s].retained > 0 && !self.active.contains(&s) {
                    reclaimed += std::mem::take(&mut self.segments[s].retained);
                    cand.gates.push(s);
                }
            }
            if reclaimed > 0 {
                self.trace(EventKind::Pressure, req, || {
                    format!("stage 2: {reclaimed} retained page(s) reclaimed")
                });
                self.free += reclaimed;
                continue;
            }
            // Memory pressure, stage 3: preempt the youngest active
            // request.
            if round.opts.pressure == PressurePolicy::EvictYoungest && attempt == 0 {
                if let Some(seg) = self.active.pop() {
                    // A preempted incarnation never reaches its
                    // prefill-finish insert: nothing stays resident.
                    let victim = &mut self.segments[seg];
                    victim.evicted = true;
                    victim.retained = 0;
                    let (vr, va) = (victim.req, victim.attempt);
                    self.release_plan(seg);
                    cand.gates.push(seg);
                    self.trace(EventKind::Pressure, req, || {
                        format!("stage 3: R{} attempt {va} preempted", round.members[vr].id)
                    });
                    pending.push_front((vr, va + 1));
                    continue;
                }
            }
            // Wait for the earliest active request's pages.
            if self.active.is_empty() {
                return Err(Error::InvalidConfig {
                    what: format!(
                        "request {req} needs {need} KV pages but the pool has only {} total",
                        self.pool_cfg().blocks
                    ),
                });
            }
            self.wait_for_earliest(&mut cand);
        }

        let seg = self.segments.len();
        if round.opts.share_prefixes {
            cand.retained = cand.cacheable_blocks(self.pool_cfg().block_tokens, request);
        }
        self.free -= need;
        cand.gates.sort_unstable();
        cand.gates.dedup();
        let gates = cand.gates.len();
        self.segments.push(cand);
        self.latest_seg[req] = Some(seg);
        self.active.push(seg);
        self.trace(EventKind::Admission, req, || {
            format!("attempt {attempt}: {need} fresh page(s), {gates} gate(s)")
        });
        Ok(seg)
    }

    /// Retires the earliest active segment on the candidate's behalf:
    /// its planned pages free and the candidate gates on its completion.
    fn wait_for_earliest(&mut self, cand: &mut SegmentPlan) {
        let seg = self.active.remove(0);
        self.release_plan(seg);
        cand.gates.push(seg);
    }
}

/// Plans every admission, eviction, and decode cohort for a round.
/// Lookups against (and pressure evictions from) the global prefix
/// cache happen here, at plan time — `round.pool` is the live pool, so
/// evicted cached pages free physically before any task executes.
pub(super) fn plan_batch(round: &Round<'_>) -> Result<RoundPlan> {
    let n = round.members.len();
    let mut planner = Planner {
        round,
        free: round.pool.free_blocks(),
        segments: Vec::new(),
        active: Vec::new(),
        latest_seg: vec![None; n],
    };
    let mut pending: VecDeque<(usize, usize)> = (0..n).map(|r| (r, 0)).collect();
    while let Some((req, attempt)) = pending.pop_front() {
        planner.admit(req, attempt, &mut pending)?;
    }
    let mut segments = planner.segments;

    // Decode cohorts: consecutive surviving segments batch together
    // until the width cap, or until a segment waits on a cohort member
    // (a gate inside the cohort would deadlock the step barrier). The
    // wait may be indirect: `waits_on[e] == Some(c)` marks a preempted
    // incarnation `e` whose own gates reach into cohort `c` while it is
    // open, so a segment gating on `e`'s eviction waits on `c` too.
    // A resumed prefill never shares a cohort with a request that is
    // not: its fresh cohort-mates' steps from 1 on would wait on the
    // rest of the resumed prefill, which a cohort of its own overlaps
    // with their decode.
    let mut cohorts = 0usize;
    let mut current: Vec<usize> = Vec::new();
    let mut current_resumed = false;
    let mut waits_on: Vec<Option<usize>> = vec![None; segments.len()];
    for (s, seg) in segments.iter_mut().enumerate() {
        let waits_on_member = seg
            .gates
            .iter()
            .any(|&g| current.contains(&g) || waits_on[g] == Some(cohorts));
        if seg.evicted {
            if waits_on_member {
                waits_on[s] = Some(cohorts);
            }
            continue;
        }
        let resumed = round.members[seg.req].resumed;
        if !current.is_empty()
            && (current.len() >= round.opts.decode_batch
                || waits_on_member
                || resumed != current_resumed)
        {
            cohorts += 1;
            current.clear();
        }
        current_resumed = resumed;
        seg.cohort = cohorts;
        current.push(s);
    }
    if !current.is_empty() {
        cohorts += 1;
    }
    Ok(RoundPlan { segments, cohorts })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use llmnpu_kv::{BlockPool, PrefixCache};

    use super::*;
    use crate::faults::FaultPlan;
    use crate::serve::{queue_of, ServeOptions};

    fn reqs(shapes: &[(usize, usize)]) -> Vec<GenerationRequest> {
        shapes
            .iter()
            .map(|&(p, n)| GenerationRequest::new((0..p as u32).collect(), n))
            .collect()
    }

    /// Plans `requests` against a fresh `blocks`-page pool of
    /// `block_tokens`-token pages and an empty prefix cache.
    fn plan(
        requests: Vec<GenerationRequest>,
        (block_tokens, blocks): (usize, usize),
        (max_active, decode_batch): (usize, usize),
        pressure: PressurePolicy,
        share: bool,
    ) -> Result<(Vec<SegmentPlan>, usize)> {
        let pool = Arc::new(
            BlockPool::new(PoolConfig {
                layers: 2,
                kv_dim: 8,
                block_tokens,
                blocks,
            })
            .unwrap(),
        );
        let opts = ServeOptions {
            max_active,
            pressure,
            decode_batch,
            share_prefixes: share,
            ..ServeOptions::default()
        };
        let round = Round {
            members: queue_of(&requests),
            opts: &opts,
            pool: &pool,
            cache: &PrefixCache::new(block_tokens),
            faults: FaultPlan::default(),
            obs: None,
            arrivals: None,
            finished: None,
            clock_ms: 0.0,
        };
        plan_batch(&round).map(|p| (p.segments, p.cohorts))
    }

    #[test]
    fn planner_matches_count_gating_when_pages_ample() {
        // Ample pages: the plan degenerates to the classic
        // `r gates on r - max_active` continuous-batching structure.
        let requests = reqs(&[(8, 4), (8, 4), (8, 4), (8, 4)]);
        let (segs, _) = plan(
            requests,
            (4, 100),
            (2, 1),
            PressurePolicy::EvictYoungest,
            false,
        )
        .unwrap();
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|s| !s.evicted));
        assert!(segs[0].gates.is_empty());
        assert!(segs[1].gates.is_empty());
        assert_eq!(segs[2].gates, vec![0]);
        assert_eq!(segs[3].gates, vec![1]);
    }

    #[test]
    fn planner_evicts_youngest_and_requeues_with_recompute() {
        // Pool of 6 pages, 4-token pages; each request needs 3 pages
        // (8 + 4 = 12 tokens). Request 2 cannot fit alongside 0 and 1:
        // under EvictYoungest it preempts request 1, which is replanned
        // *after* request 2.
        let requests = reqs(&[(8, 4), (8, 4), (8, 4)]);
        let (segs, _) = plan(
            requests,
            (4, 6),
            (8, 1),
            PressurePolicy::EvictYoungest,
            false,
        )
        .unwrap();
        assert_eq!(segs.len(), 4, "one extra incarnation for the victim");
        assert!(segs[1].evicted, "request 1's first incarnation preempted");
        assert_eq!(segs[2].req, 2);
        assert!(
            segs[2].gates.contains(&1),
            "preemptor waits for the eviction to free pages"
        );
        let requeued = &segs[3];
        assert_eq!((requeued.req, requeued.attempt), (1, 1));
        assert!(!requeued.evicted);
    }

    #[test]
    fn planner_waits_under_wait_policy() {
        let requests = reqs(&[(8, 4), (8, 4), (8, 4)]);
        let (segs, _) = plan(requests, (4, 6), (8, 1), PressurePolicy::Wait, false).unwrap();
        assert_eq!(segs.len(), 3, "no evictions under Wait");
        assert!(segs.iter().all(|s| !s.evicted));
        assert_eq!(segs[2].gates, vec![0]);
    }

    #[test]
    fn planner_rejects_impossible_requests() {
        let requests = reqs(&[(40, 8)]);
        let err = plan(
            requests,
            (4, 4),
            (2, 1),
            PressurePolicy::EvictYoungest,
            false,
        )
        .unwrap_err();
        assert!(err.to_string().contains("KV pages"));
    }

    #[test]
    fn planner_cohorts_break_on_waits_through_a_preempted_incarnation() {
        // 6 pages of 4 tokens; R0 and R1 need 5 pages each, R2 needs 2.
        // R1 preempts R0. R0's re-admission may not preempt, so it waits
        // for R1 (and reclaims the pages R1 would leave cached); R2 then
        // preempts it. R2 gates only on that eviction, which itself
        // gates on R1's release — so R2 fully waits on R1 and must not
        // share its decode cohort, even though no gate of R2 names R1
        // and the width cap would allow it.
        let mut requests = reqs(&[(16, 4), (16, 4), (4, 4)]);
        requests[1].prompt = (50..66).collect();
        requests[2].prompt = vec![90, 91, 92, 93];
        let (segs, cohorts) = plan(
            requests,
            (4, 6),
            (4, 2),
            PressurePolicy::EvictYoungest,
            true,
        )
        .unwrap();
        let shape: Vec<(usize, usize, bool)> =
            segs.iter().map(|s| (s.req, s.attempt, s.evicted)).collect();
        assert_eq!(
            shape,
            [
                (0, 0, true),
                (1, 0, false),
                (0, 1, true),
                (2, 0, false),
                (0, 2, false)
            ]
        );
        assert!(segs[2].gates.contains(&1), "R0's re-admission waits for R1");
        assert_eq!(segs[3].gates, vec![2], "R2 waits on R1 only via R0.1");
        assert_ne!(segs[1].cohort, segs[3].cohort, "R2 waits on R1 via R0.1");
        assert_eq!(cohorts, 3, "R1 | R2 | requeued R0");
    }

    #[test]
    fn planner_cohorts_respect_width_and_gates() {
        let requests = reqs(&[(8, 4), (8, 4), (8, 4), (8, 4)]);
        // max_active 2 → segment 2 gates on 0, breaking its cohort.
        let (segs, cohorts) = plan(
            requests,
            (4, 100),
            (2, 4),
            PressurePolicy::EvictYoungest,
            false,
        )
        .unwrap();
        assert_eq!(cohorts, 2);
        assert_eq!(segs[0].cohort, segs[1].cohort);
        assert_ne!(segs[1].cohort, segs[2].cohort);
        assert_eq!(segs[2].cohort, segs[3].cohort);
    }
}

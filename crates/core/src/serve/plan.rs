//! Stage 1 — **plan**: the deterministic admission planner. Decides, from
//! request order and page arithmetic alone, every admission, prefix
//! reuse (live donor or global cache), pressure step (cache evict →
//! retained-page reclaim → preemption → wait) and decode cohort of a
//! round, as a list of [`SegmentPlan`]s the builder turns into tasks.

use std::collections::VecDeque;

use llmnpu_kv::{CachedPrefix, PoolConfig};
use llmnpu_obs::{EventKind, Plane};

use super::{kv_err, GenerationRequest, PressurePolicy, Round};
use crate::{Error, Result};

/// How an admission gate anchors to an earlier segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum GateKind {
    /// Wait for the segment to be fully done (its pages released):
    /// anchored at its Release task — or its Evicted task, which *is*
    /// the terminal of a preempted incarnation.
    Done,
    /// Wait for the segment's prefill to finish (its KV prefix is fully
    /// written — what a prefix sharer needs).
    PrefillDone,
}

/// A shared prompt prefix chosen by the planner (live donor).
#[derive(Debug, Clone, Copy)]
pub(super) struct SharedPrefix {
    /// Segment whose table donates the blocks.
    pub(super) donor_seg: usize,
    /// Shared tokens — any length: the full pages below it are
    /// ref-shared from the donor, the sub-page remainder is recovered
    /// by a leading-row copy at admission.
    pub(super) tokens: usize,
}

/// One planned incarnation of a request.
#[derive(Debug)]
pub(super) struct SegmentPlan {
    pub(super) req: usize,
    pub(super) attempt: usize,
    /// Preempted: ends in an Evicted task after prefill; no decode.
    pub(super) evicted: bool,
    /// Admission gates on earlier segments.
    pub(super) gates: Vec<(usize, GateKind)>,
    /// Live-donor prefix share (mutually exclusive with `cached`).
    pub(super) shared: Option<SharedPrefix>,
    /// Global prefix-cache hit reused at admission: the cached full
    /// pages are retained into the request's table, the partial tail
    /// (if any) row-copied. No donor gate — the producer may be long
    /// gone.
    pub(super) cached: Option<CachedPrefix>,
    /// Decode cohort id (`usize::MAX` for evicted segments).
    pub(super) cohort: usize,
    /// Segments that fork this segment's blocks: their Admit must
    /// precede this segment's Release.
    pub(super) sharer_segs: Vec<usize>,
    /// Full prompt pages this segment's prefill leaves resident in the
    /// global prefix cache past its release — the planner's *final*
    /// figure after pressure reclaims (zero for evicted incarnations or
    /// pages a later admission already took back).
    pub(super) retained: usize,
}

impl SegmentPlan {
    /// Prompt tokens covered by any prefix reuse (donor or cache),
    /// including a row-copied partial tail — where this segment's own
    /// prefill starts.
    pub(super) fn prefix_tokens(&self) -> usize {
        match (&self.shared, &self.cached) {
            (Some(sh), _) => sh.tokens,
            (None, Some(hit)) => hit.matched_tokens(),
            (None, None) => 0,
        }
    }

    /// Prefix tokens covered by *whole* reused pages (the part that
    /// costs no fresh blocks; the tail rows live in a fresh page).
    pub(super) fn prefix_full_tokens(&self, block_tokens: usize) -> usize {
        match (&self.shared, &self.cached) {
            (Some(sh), _) => sh.tokens - sh.tokens % block_tokens,
            (None, Some(hit)) => hit.tokens,
            (None, None) => 0,
        }
    }

    /// Fresh blocks the segment draws from the pool at admission:
    /// `req`'s worst case beyond whole reused prefix pages.
    pub(super) fn fresh_blocks(&self, cfg: &PoolConfig, req: &GenerationRequest) -> usize {
        cfg.blocks_for(req.total_tokens() - self.prefix_full_tokens(cfg.block_tokens))
    }

    /// Full prompt pages `req`'s prefill publishes to the prefix cache
    /// beyond pages already reused from a prefix (those were cached or
    /// donor-held before — re-inserting them adds no residency).
    /// Conservative under insert collisions: first-wins means a
    /// colliding insert retains nothing, so the plan may over-charge
    /// (never under-charge) residency.
    fn cacheable_blocks(&self, block_tokens: usize, req: &GenerationRequest) -> usize {
        (req.prompt.len() - self.prefix_full_tokens(block_tokens)) / block_tokens
    }
}

/// The planner's output for one round.
pub(super) struct RoundPlan {
    /// Every incarnation, in planned (= physical reservation) order.
    pub(super) segments: Vec<SegmentPlan>,
    /// Number of decode cohorts.
    pub(super) cohorts: usize,
    /// Pages ref-shared from live donors instead of re-allocated.
    pub(super) shared_blocks: usize,
}

/// Plan-time page bookkeeping: groups of physically co-released blocks.
#[derive(Debug)]
struct PlanGroup {
    blocks: usize,
    holders: usize,
    /// Blocks of this group that stay resident past its release —
    /// the full prompt pages the owning segment's prefill-finish task
    /// inserts into the global prefix cache. Zeroed if the owner is
    /// evicted (a preempted incarnation never reaches its insert).
    retained: usize,
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
    groups: Vec<PlanGroup>,
    /// Groups each segment holds (its own + every group its shared
    /// donor held, transitively) — conservative co-release tracking.
    held: Vec<Vec<usize>>,
    /// Active segments in admission order.
    active: Vec<usize>,
    /// Latest planned segment of each request — a re-admission must
    /// gate on its evicted predecessor (they share the runtime cache
    /// slot, so the old incarnation's release must precede the new
    /// reservation).
    latest_seg: Vec<Option<usize>>,
    free: usize,
}

fn common_prefix_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Planner<'_> {
    fn pool_cfg(&self) -> &PoolConfig {
        self.round.pool.config()
    }

    /// The longest usable shared prefix between request `req` and any
    /// active segment: fully inside the donor's *prompt* (only
    /// prefilled pages are shareable), leaving the sharer at least one
    /// suffix token to prefill, and spanning at least one whole page
    /// (a sub-page overlap is not worth a PrefillDone gate on the
    /// donor). No block or chunk alignment beyond that — full pages
    /// are ref-shared, the remainder rows are copied.
    fn best_share(&self, req: usize) -> Option<SharedPrefix> {
        if !self.round.opts.share_prefixes {
            return None;
        }
        let requests = &self.round.requests;
        let prompt = &requests[req].prompt;
        let mut best: Option<SharedPrefix> = None;
        for &seg in &self.active {
            let donor_req = self.segments[seg].req;
            let lcp = common_prefix_len(prompt, &requests[donor_req].prompt);
            let cap = lcp.min(prompt.len() - 1);
            if cap < self.pool_cfg().block_tokens {
                continue;
            }
            if best.is_none_or(|b| cap > b.tokens) {
                best = Some(SharedPrefix {
                    donor_seg: seg,
                    tokens: cap,
                });
            }
        }
        best
    }

    /// Releases an active segment's planned pages (group holders
    /// decrement; fully released groups return to `free`, minus what
    /// the group's owner retains in the prefix cache).
    fn release_plan(&mut self, seg: usize) {
        let held = std::mem::take(&mut self.held[seg]);
        for g in held {
            self.groups[g].holders -= 1;
            if self.groups[g].holders == 0 {
                self.free += self.groups[g].blocks - self.groups[g].retained;
            }
        }
    }

    /// Emits a Plan-plane event for request `req`. Planning is
    /// single-threaded, so these events are recorded in a deterministic
    /// order and belong to the canonical modeled export.
    fn trace(&self, kind: EventKind, req: usize, f: impl FnOnce() -> String) {
        if let Some(sink) = self.round.sink() {
            sink.event(Plane::Plan, kind, Some(self.round.orig_ids[req]), f);
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
        let request = &round.requests[req];
        // Global prefix-cache probe, capped so at least one suffix
        // token remains to prefill. The lookup stamps the matched nodes
        // with the current round — an eviction claim that keeps the hit
        // resident until this admission physically retains it. A live
        // donor wins only when it covers strictly more tokens (a cache
        // hit costs no gate and holds no donor pages).
        let mut probe: Option<CachedPrefix> = None;
        let prompt = &request.prompt;
        if self.round.opts.share_prefixes && prompt.len() > 1 {
            let hit = self.round.cache.lookup(&prompt[..prompt.len() - 1]);
            if hit.matched_tokens() > 0 {
                probe = Some(hit);
            }
        }
        // The candidate segment: its prefix source and gates evolve as
        // the pressure ladder below releases earlier segments.
        let mut cand = SegmentPlan {
            req,
            attempt,
            evicted: false,
            gates: Vec::new(),
            shared: self.best_share(req),
            cached: None,
            cohort: usize::MAX,
            sharer_segs: Vec::new(),
            retained: 0, // finalized from the group table after planning
        };
        if let Some(hit) = &probe {
            if cand
                .shared
                .is_none_or(|sh| sh.tokens <= hit.matched_tokens())
            {
                cand.shared = None;
            }
        }
        if let Some(prev) = self.latest_seg[req] {
            cand.gates.push((prev, GateKind::Done));
        }
        loop {
            // No donor (never had one, lost to the cache hit above, or
            // forgotten under pressure): the cache hit — still
            // claim-protected this round — is the prefix source.
            if cand.shared.is_none() && cand.cached.is_none() {
                cand.cached = probe.clone();
            }
            let need = cand.fresh_blocks(self.pool_cfg(), request);
            if self.active.len() < self.round.opts.max_active && need <= self.free {
                break;
            }
            if self.active.len() >= self.round.opts.max_active {
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
            let evicted = self
                .round
                .cache
                .evict_lru(self.round.pool, need - self.free)
                .map_err(kv_err)?;
            if evicted > 0 {
                self.trace(EventKind::Pressure, req, || {
                    format!("stage 1: {evicted} cached page(s) evicted")
                });
                self.free += evicted;
                continue;
            }
            // Memory pressure, stage 2: take back full prompt pages that
            // earlier admissions of *this* round plan to leave in the
            // cache, where the owning group is already fully released.
            // The runtime admission valve re-evicts them from the cache
            // once the owner's release has actually run (the Done gate
            // below orders that), so the budget may count them free.
            let mut reclaimed = 0usize;
            for g in 0..self.groups.len() {
                if self.free + reclaimed >= need {
                    break;
                }
                if self.groups[g].holders == 0 && self.groups[g].retained > 0 {
                    reclaimed += self.groups[g].retained;
                    self.groups[g].retained = 0;
                    cand.gates.push((g, GateKind::Done));
                }
            }
            if reclaimed > 0 {
                self.trace(EventKind::Pressure, req, || {
                    format!("stage 2: {reclaimed} retained page(s) reclaimed")
                });
                self.free += reclaimed;
                continue;
            }
            // Memory pressure, stage 3: preempt live work.
            if self.round.opts.pressure == PressurePolicy::EvictYoungest && attempt == 0 {
                // Youngest active that nobody shares pages from (a
                // donor's pages must outlive its sharers' admissions).
                let victim = (0..self.active.len()).rev().find(|&i| {
                    let seg = self.active[i];
                    self.segments[seg].sharer_segs.is_empty()
                        && cand.shared.is_none_or(|s| s.donor_seg != seg)
                });
                if let Some(i) = victim {
                    let seg = self.active.remove(i);
                    self.segments[seg].evicted = true;
                    self.segments[seg].cohort = usize::MAX;
                    // A preempted incarnation never reaches its
                    // prefill-finish insert: nothing stays resident.
                    let own = self.held[seg].first().copied();
                    if let Some(g) = own {
                        self.groups[g].retained = 0;
                    }
                    self.release_plan(seg);
                    cand.gates.push((seg, GateKind::Done));
                    let (vr, va) = (self.segments[seg].req, self.segments[seg].attempt);
                    self.trace(EventKind::Pressure, req, || {
                        format!(
                            "stage 3: R{} attempt {va} preempted",
                            self.round.orig_ids[vr]
                        )
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
        let fresh = cand.fresh_blocks(self.pool_cfg(), request);
        let retained = if round.opts.share_prefixes {
            cand.cacheable_blocks(self.pool_cfg().block_tokens, request)
        } else {
            0
        };
        let own_group = self.groups.len();
        self.groups.push(PlanGroup {
            blocks: fresh,
            holders: 1,
            retained,
        });
        self.free -= fresh;
        let mut held = vec![own_group];
        if let Some(s) = cand.shared {
            // Hold everything the donor holds: those pages cannot be
            // counted free until this segment also releases.
            let donor_held = self.held[s.donor_seg].clone();
            for g in donor_held {
                self.groups[g].holders += 1;
                held.push(g);
            }
            cand.gates.push((s.donor_seg, GateKind::PrefillDone));
            self.segments[s.donor_seg].sharer_segs.push(seg);
        }
        self.held.push(held);
        cand.gates
            .sort_by_key(|&(g, k)| (g, k == GateKind::PrefillDone));
        cand.gates.dedup();
        let gates = cand.gates.len();
        self.segments.push(cand);
        self.latest_seg[req] = Some(seg);
        self.active.push(seg);
        self.trace(EventKind::Admission, req, || {
            format!("attempt {attempt}: {fresh} fresh page(s), {gates} gate(s)")
        });
        Ok(seg)
    }

    /// Retires the earliest active segment on the candidate's behalf:
    /// its planned pages free, the candidate gates on its completion,
    /// and a pending share from it is dropped (its pages are no longer
    /// guaranteed resident at the candidate's admission).
    fn wait_for_earliest(&mut self, cand: &mut SegmentPlan) {
        let seg = self.active.remove(0);
        self.release_plan(seg);
        if cand.shared.is_some_and(|s| s.donor_seg == seg) {
            cand.shared = None;
        }
        cand.gates.push((seg, GateKind::Done));
    }
}

/// Plans every admission, eviction, and decode cohort for a round.
/// Lookups against (and pressure evictions from) the global prefix
/// cache happen here, at plan time — `round.pool` is the live pool, so
/// evicted cached pages free physically before any task executes.
pub(super) fn plan_batch(round: &Round<'_>) -> Result<RoundPlan> {
    let n = round.requests.len();
    let mut planner = Planner {
        round,
        free: round.pool.free_blocks(),
        segments: Vec::new(),
        groups: Vec::new(),
        held: Vec::new(),
        active: Vec::new(),
        latest_seg: vec![None; n],
    };
    let mut pending: VecDeque<(usize, usize)> = (0..n).map(|r| (r, 0)).collect();
    while let Some((req, attempt)) = pending.pop_front() {
        planner.admit(req, attempt, &mut pending)?;
    }
    let Planner {
        mut segments,
        groups,
        ..
    } = planner;

    // Decode cohorts: consecutive surviving segments batch together
    // until the width cap, or until a segment *fully waits* on a cohort
    // member (a Done gate inside the cohort would deadlock the step
    // barrier; PrefillDone gates — prefix sharing — are fine). The wait
    // may be indirect: `waits_on[e] == Some(c)` marks a preempted
    // incarnation `e` whose own Done gates reach into cohort `c` while
    // it is open, so a segment gating on `e`'s eviction waits on `c` too.
    // A resumed prefill never shares a cohort with a request that is
    // not: every member's first token waits on the cohort's slowest
    // prefill.
    let mut cohorts = 0usize;
    let mut current: Vec<usize> = Vec::new();
    let mut current_resumed = false;
    let mut waits_on: Vec<Option<usize>> = vec![None; segments.len()];
    for (s, seg) in segments.iter_mut().enumerate() {
        // Finalize cache residency from the group table (one group per
        // segment, same index): pressure stages may have zeroed a
        // group's retained count after its segment was pushed.
        seg.retained = groups[s].retained;
        let waits_on_member = seg.gates.iter().any(|&(g, k)| {
            k == GateKind::Done && (current.contains(&g) || waits_on[g] == Some(cohorts))
        });
        if seg.evicted {
            if waits_on_member {
                waits_on[s] = Some(cohorts);
            }
            continue;
        }
        let resumed = seg.req >= round.resumed_from;
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

    let bt = round.pool.config().block_tokens;
    let shared_blocks = segments
        .iter()
        .filter(|s| s.shared.is_some())
        .map(|s| s.prefix_full_tokens(bt) / bt)
        .sum();
    Ok(RoundPlan {
        segments,
        cohorts,
        shared_blocks,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use llmnpu_kv::{BlockPool, PrefixCache};

    use super::*;
    use crate::faults::FaultPlan;
    use crate::serve::ServeOptions;

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
    ) -> Result<(Vec<SegmentPlan>, usize, usize)> {
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
        let n = requests.len();
        let round = Round {
            requests,
            orig_ids: (0..n).collect(),
            attempt_base: vec![0; n],
            opts: &opts,
            pool: &pool,
            cache: &PrefixCache::new(block_tokens),
            faults: FaultPlan::default(),
            obs: None,
            arrivals: None,
            resumed_from: n,
        };
        plan_batch(&round).map(|p| (p.segments, p.cohorts, p.shared_blocks))
    }

    #[test]
    fn planner_matches_count_gating_when_pages_ample() {
        // Ample pages: the plan degenerates to the classic
        // `r gates on r - max_active` continuous-batching structure.
        let requests = reqs(&[(8, 4), (8, 4), (8, 4), (8, 4)]);
        let (segs, _, _) = plan(
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
        assert_eq!(segs[2].gates, vec![(0, GateKind::Done)]);
        assert_eq!(segs[3].gates, vec![(1, GateKind::Done)]);
    }

    #[test]
    fn planner_evicts_youngest_and_requeues_with_recompute() {
        // Pool of 6 pages, 4-token pages; each request needs 3 pages
        // (8 + 4 = 12 tokens). Request 2 cannot fit alongside 0 and 1:
        // under EvictYoungest it preempts request 1, which is replanned
        // *after* request 2.
        let requests = reqs(&[(8, 4), (8, 4), (8, 4)]);
        let (segs, _, _) = plan(
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
            segs[2].gates.contains(&(1, GateKind::Done)),
            "preemptor waits for the eviction to free pages"
        );
        let requeued = &segs[3];
        assert_eq!((requeued.req, requeued.attempt), (1, 1));
        assert!(!requeued.evicted);
    }

    #[test]
    fn planner_waits_under_wait_policy() {
        let requests = reqs(&[(8, 4), (8, 4), (8, 4)]);
        let (segs, _, _) = plan(requests, (4, 6), (8, 1), PressurePolicy::Wait, false).unwrap();
        assert_eq!(segs.len(), 3, "no evictions under Wait");
        assert!(segs.iter().all(|s| !s.evicted));
        assert_eq!(segs[2].gates, vec![(0, GateKind::Done)]);
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
    fn planner_shares_unaligned_prefixes() {
        // Identical 16-token prompts, 4-token pages → the first 15
        // tokens (leaving ≥1 suffix token, no page alignment required)
        // are shareable: 3 full pages ref-shared + a 3-row tail copy.
        let mut requests = reqs(&[(16, 4), (16, 4)]);
        requests[1].prompt = requests[0].prompt.clone();
        let (segs, _, shared_blocks) = plan(
            requests,
            (4, 100),
            (4, 1),
            PressurePolicy::EvictYoungest,
            true,
        )
        .unwrap();
        let sh = segs[1].shared.expect("request 1 shares request 0's prefix");
        assert_eq!(sh.donor_seg, 0);
        assert_eq!(sh.tokens, 15);
        assert_eq!(shared_blocks, 3, "only full pages are ref-shared");
        assert!(segs[1].gates.contains(&(0, GateKind::PrefillDone)));
        assert_eq!(segs[0].sharer_segs, vec![1]);
    }

    #[test]
    fn planner_cohorts_break_on_waits_through_a_preempted_incarnation() {
        // 6 pages of 4 tokens. R0 and R1 share a 16-token prompt (5 pages
        // each): R1 cannot fit beside its own donor, so it waits for R0
        // to finish. R2 (2 pages) then preempts R1 — so R2 gates on R1's
        // eviction, which itself gates on R0's release. R2 therefore
        // fully waits on R0 and must not share its decode cohort, even
        // though no gate of R2 names R0 and the width cap would allow it.
        let mut requests = reqs(&[(16, 4), (16, 4), (4, 4)]);
        requests[2].prompt = vec![90, 91, 92, 93];
        let (segs, cohorts, _) = plan(
            requests,
            (4, 6),
            (4, 2),
            PressurePolicy::EvictYoungest,
            true,
        )
        .unwrap();
        assert!(segs[1].evicted && segs[1].gates.contains(&(0, GateKind::Done)));
        assert_eq!(segs[2].gates, vec![(1, GateKind::Done)]);
        assert_ne!(segs[0].cohort, segs[2].cohort, "R2 waits on R0 via R1");
        assert_eq!(cohorts, 3, "R0 | R2 | requeued R1");
    }

    #[test]
    fn planner_cohorts_respect_width_and_gates() {
        let requests = reqs(&[(8, 4), (8, 4), (8, 4), (8, 4)]);
        // max_active 2 → segment 2 gates Done on 0, breaking its cohort.
        let (segs, cohorts, _) = plan(
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

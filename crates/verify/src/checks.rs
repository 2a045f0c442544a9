//! The analyses behind [`crate::verify`]: structure/cycle detection,
//! lane-serialization, access aliasing, page accounting, and
//! barrier/gate coverage, all over one shared reachability index.

use std::collections::HashSet;

use crate::{Finding, FindingKind, Plan, PlanStats, Report, TaskClass};

/// Descendant reachability restricted to "interesting" targets (tasks
/// an ordering query can name): one bitset row per task, bit `i` set
/// when interesting task `i` is strictly downstream. Rows are computed
/// in one reverse-topological pass, so the index costs
/// `O(tasks × interesting / 64)` words — small for real plans because
/// only resource-bearing and accounting tasks are targets.
struct Reach {
    words: usize,
    /// Task id → interesting index (bit position), if targetable.
    idx: Vec<Option<u32>>,
    rows: Vec<u64>,
}

impl Reach {
    fn build(n: usize, succs: &[Vec<usize>], topo: &[usize], interesting: &[bool]) -> Self {
        let mut idx: Vec<Option<u32>> = vec![None; n];
        let mut k = 0u32;
        for t in 0..n {
            if interesting[t] {
                idx[t] = Some(k);
                k += 1;
            }
        }
        let words = (k as usize).div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        let mut tmp = vec![0u64; words];
        for &t in topo.iter().rev() {
            for &s in &succs[t] {
                tmp.copy_from_slice(&rows[s * words..(s + 1) * words]);
                if let Some(bit) = idx[s] {
                    tmp[(bit / 64) as usize] |= 1u64 << (bit % 64);
                }
                let row = &mut rows[t * words..(t + 1) * words];
                for (dst, src) in row.iter_mut().zip(&tmp) {
                    *dst |= src;
                }
            }
        }
        Reach { words, idx, rows }
    }

    /// Whether `to` is strictly downstream of `from`. `to` must be an
    /// interesting task; a non-interesting target reports unreachable.
    fn reaches(&self, from: usize, to: usize) -> bool {
        match self.idx[to] {
            Some(bit) => {
                self.rows[from * self.words + (bit / 64) as usize] & (1u64 << (bit % 64)) != 0
            }
            None => false,
        }
    }

    /// Ordered either way.
    fn ordered(&self, a: usize, b: usize) -> bool {
        self.reaches(a, b) || self.reaches(b, a)
    }
}

fn label(plan: &Plan, t: usize) -> &str {
    &plan.tasks[t].label
}

pub(crate) fn run(plan: &Plan) -> Report {
    let n = plan.tasks.len();
    let mut findings: Vec<Finding> = Vec::new();
    let mut stats = PlanStats {
        tasks: n,
        segments: plan.segments.len(),
        page_capacity: plan.page_capacity,
        ..PlanStats::default()
    };

    // ---- 1a. Structure: dependency indices, times ---------------------
    let mut structural_ok = true;
    for (t, task) in plan.tasks.iter().enumerate() {
        stats.edges += task.deps.len();
        for &d in &task.deps {
            if d >= n || d == t {
                structural_ok = false;
                findings.push(Finding {
                    kind: FindingKind::InvalidDep,
                    tasks: vec![t],
                    detail: format!(
                        "task {t} ({}) depends on {}",
                        task.label,
                        if d == t {
                            "itself".to_string()
                        } else {
                            format!("out-of-range task {d}")
                        }
                    ),
                });
            }
        }
        let times_ok = task.release_ms.is_finite()
            && task.release_ms >= 0.0
            && task.duration_ms.is_finite()
            && task.duration_ms >= 0.0;
        if !times_ok {
            findings.push(Finding {
                kind: FindingKind::InvalidTime,
                tasks: vec![t],
                detail: format!(
                    "task {t} ({}) has infeasible timing: release {} ms, duration {} ms",
                    task.label, task.release_ms, task.duration_ms
                ),
            });
        }
    }
    {
        let mut lanes: Vec<usize> = plan.tasks.iter().map(|t| t.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        stats.lanes = lanes.len();
    }

    // ---- 5 (order-independent half): barrier/gate classification ------
    for (t, task) in plan.tasks.iter().enumerate() {
        match task.class {
            TaskClass::Release | TaskClass::Evict => {
                if task.gated {
                    findings.push(Finding {
                        kind: FindingKind::UnbarrieredCleanup,
                        tasks: vec![t],
                        detail: format!(
                            "cleanup task {t} ({}) is gate-skippable: pages would strand \
                             when its request goes terminal",
                            task.label
                        ),
                    });
                }
                if !task.barrier {
                    findings.push(Finding {
                        kind: FindingKind::UnbarrieredCleanup,
                        tasks: vec![t],
                        detail: format!(
                            "cleanup task {t} ({}) is not a poison-absorbing barrier: an \
                             upstream failure would skip it and leak its pages",
                            task.label
                        ),
                    });
                }
            }
            TaskClass::Admit => {
                if !task.barrier {
                    findings.push(Finding {
                        kind: FindingKind::UnbarrieredCleanup,
                        tasks: vec![t],
                        detail: format!(
                            "admission task {t} ({}) is not a barrier: a failed predecessor \
                             would poison it and break the admission chain's page accounting",
                            task.label
                        ),
                    });
                }
                if task.owner.is_some() && !task.gated {
                    findings.push(ungated(plan, t));
                }
            }
            TaskClass::Other => {
                if task.owner.is_some() && !task.gated {
                    findings.push(ungated(plan, t));
                }
            }
        }
    }

    // ---- 1b. Cycle detection (Kahn) -----------------------------------
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    for (t, task) in plan.tasks.iter().enumerate() {
        for &d in &task.deps {
            if d < n && d != t {
                succs[d].push(t);
                indeg[t] += 1;
            }
        }
    }
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
    // LIFO order is fine: any topological order serves the reachability
    // index equally.
    while let Some(t) = ready.pop() {
        topo.push(t);
        for &s in &succs[t] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if topo.len() < n {
        let mut stuck: Vec<usize> = (0..n).filter(|&t| indeg[t] > 0).collect();
        stuck.truncate(8);
        let names: Vec<&str> = stuck.iter().map(|&t| label(plan, t)).collect();
        findings.push(Finding {
            kind: FindingKind::Cycle,
            tasks: stuck,
            detail: format!(
                "{} task(s) sit on dependency cycles (dispatch would deadlock); first stuck: {:?}",
                n - topo.len(),
                names
            ),
        });
        structural_ok = false;
    }
    if !structural_ok {
        // Reachability over a broken relation proves nothing; stop here.
        return Report { findings, stats };
    }

    // ---- Shared reachability index ------------------------------------
    let mut interesting = vec![false; n];
    for (t, task) in plan.tasks.iter().enumerate() {
        if task.serialized || !task.reads.is_empty() || !task.writes.is_empty() {
            interesting[t] = true;
        }
    }
    for seg in &plan.segments {
        for id in [seg.admit, seg.terminal].into_iter().flatten() {
            if id < n {
                interesting[id] = true;
            }
        }
    }
    let reach = Reach::build(n, &succs, &topo, &interesting);
    let mut topo_pos = vec![0usize; n];
    for (i, &t) in topo.iter().enumerate() {
        topo_pos[t] = i;
    }

    // ---- 2. Lane serialization ----------------------------------------
    {
        let mut by_lane: Vec<(usize, usize)> = plan
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, task)| task.serialized)
            .map(|(t, task)| (task.lane, t))
            .collect();
        by_lane.sort_by_key(|&(lane, t)| (lane, topo_pos[t]));
        for pair in by_lane.windows(2) {
            let ((lane_a, a), (lane_b, b)) = (pair[0], pair[1]);
            if lane_a != lane_b {
                continue;
            }
            // Consecutive-in-topo-order connectivity is exactly total
            // order on a DAG (a Hamiltonian path through the lane's
            // serialized tasks).
            if reach.reaches(a, b) {
                stats.serialized_pairs += 1;
            } else {
                findings.push(Finding {
                    kind: FindingKind::UnorderedLanePair,
                    tasks: vec![a, b],
                    detail: format!(
                        "serialized tasks {a} ({}) and {b} ({}) share lane {} with no \
                         ordering edge: the lane serializes them in an arbitrary order \
                         the plan's accounting cannot rely on",
                        label(plan, a),
                        label(plan, b),
                        plan.lane_name(lane_a)
                    ),
                });
            }
        }
    }

    // ---- 3. Access aliasing -------------------------------------------
    {
        // (space, lo, hi, task, is_write), grouped by space via sort.
        let mut accs: Vec<(u64, u64, u64, usize, bool)> = Vec::new();
        for (t, task) in plan.tasks.iter().enumerate() {
            for a in &task.reads {
                if a.lo < a.hi {
                    accs.push((a.space, a.lo, a.hi, t, false));
                }
            }
            for a in &task.writes {
                if a.lo < a.hi {
                    accs.push((a.space, a.lo, a.hi, t, true));
                }
            }
        }
        accs.sort_unstable_by_key(|&(space, lo, hi, t, w)| (space, lo, hi, t, w));
        let mut reported: HashSet<(usize, usize)> = HashSet::new();
        let mut active: Vec<(u64, usize, bool)> = Vec::new(); // (hi, task, write)
        let mut cur_space = u64::MAX;
        for &(space, lo, hi, t, w) in &accs {
            if space != cur_space {
                active.clear();
                cur_space = space;
            }
            active.retain(|&(ahi, _, _)| ahi > lo);
            for &(_, other, ow) in &active {
                if other == t || !(w || ow) {
                    continue;
                }
                if reach.ordered(t, other) {
                    stats.alias_pairs += 1;
                } else {
                    let key = (t.min(other), t.max(other));
                    if reported.insert(key) {
                        findings.push(Finding {
                            kind: FindingKind::KvWriteRace,
                            tasks: vec![key.0, key.1],
                            detail: format!(
                                "tasks {} ({}) and {} ({}) touch overlapping addresses in \
                                 space {space} (at least one writing) with no ordering edge \
                                 — a plan-level data race",
                                key.0,
                                label(plan, key.0),
                                key.1,
                                label(plan, key.1),
                            ),
                        });
                    }
                }
            }
            active.push((hi, t, w));
        }
    }

    // ---- 4. Page accounting: leak proof + budget proof ----------------
    page_checks(plan, &reach, &mut findings, &mut stats);

    Report { findings, stats }
}

fn ungated(plan: &Plan, t: usize) -> Finding {
    Finding {
        kind: FindingKind::UngatedTask,
        tasks: vec![t],
        detail: format!(
            "request-owned task {t} ({}) is not consulted by the dispatch gate: a \
             cancelled, expired, or failed request would keep consuming lane time",
            plan.tasks[t].label
        ),
    }
}

fn page_checks(plan: &Plan, reach: &Reach, findings: &mut Vec<Finding>, stats: &mut PlanStats) {
    let n = plan.tasks.len();
    let nsegs = plan.segments.len();

    // Leak proof: every admission's pages provably return on all
    // outcome paths. The executor side of the argument: a barrier task
    // runs even when dependencies failed or were skipped, and an
    // ungated task cannot be dropped by the dispatch gate — so a
    // barrier+ungated terminal downstream of the admission *always*
    // executes once dispatch completes.
    for (s, seg) in plan.segments.iter().enumerate() {
        let Some(admit) = seg.admit else { continue };
        if admit >= n {
            findings.push(Finding {
                kind: FindingKind::InvalidDep,
                tasks: vec![],
                detail: format!("segment {s} names out-of-range admit task {admit}"),
            });
            continue;
        }
        match seg.terminal {
            None => findings.push(Finding {
                kind: FindingKind::PageLeak,
                tasks: vec![admit],
                detail: format!(
                    "segment {s} reserves {} block(s) at task {admit} ({}) but has no \
                     release/evict task: its pages never provably return",
                    seg.fresh_blocks,
                    label(plan, admit)
                ),
            }),
            Some(term) if term >= n => findings.push(Finding {
                kind: FindingKind::PageLeak,
                tasks: vec![admit],
                detail: format!("segment {s} names out-of-range terminal task {term}"),
            }),
            Some(term) => {
                if !reach.reaches(admit, term) {
                    findings.push(Finding {
                        kind: FindingKind::PageLeak,
                        tasks: vec![admit, term],
                        detail: format!(
                            "segment {s}'s terminal {term} ({}) is not ordered after its \
                             admission {admit} ({}): the release could run before the \
                             reservation and the pages would leak",
                            label(plan, term),
                            label(plan, admit)
                        ),
                    });
                }
                let tt = &plan.tasks[term];
                if !matches!(tt.class, TaskClass::Release | TaskClass::Evict) {
                    // Barrier/gating of real Release/Evict tasks is
                    // checked by classification above; this catches a
                    // terminal that is not a cleanup task at all.
                    findings.push(Finding {
                        kind: FindingKind::UnbarrieredCleanup,
                        tasks: vec![term],
                        detail: format!(
                            "segment {s}'s terminal {term} ({}) is not a release/evict \
                             task: nothing provably returns its pages",
                            tt.label
                        ),
                    });
                }
            }
        }
    }

    // Fallible-task coverage: a task that can fail must belong to a
    // segment whose cleanup the checks above proved poison-proof (or to
    // no segment at all — structural plans carry no fault metadata).
    for (t, task) in plan.tasks.iter().enumerate() {
        if !task.fallible {
            continue;
        }
        let Some(owner) = task.owner else { continue };
        let covered = plan
            .segments
            .get(owner)
            .and_then(|seg| seg.terminal)
            .and_then(|term| plan.tasks.get(term))
            .is_some_and(|term| term.barrier && !term.gated);
        if !covered {
            findings.push(Finding {
                kind: FindingKind::UnbarrieredCleanup,
                tasks: vec![t],
                detail: format!(
                    "fallible task {t} ({}) belongs to segment {owner}, whose cleanup is \
                     not reachable through a poison-absorbing, ungated barrier",
                    task.label
                ),
            });
        }
    }

    // Budget proof: walk admissions in planned order; before each,
    // credit back every segment whose terminal is a proven ancestor of
    // this admission (guaranteed done before it dispatches); then debit
    // the fresh blocks. The free count may never go negative — the
    // static mirror of the planner's gate-for-pages loop, recomputed
    // independently from the segment table.
    let Some(cap) = plan.page_capacity else {
        return;
    };
    if nsegs == 0 {
        return;
    }
    let admits: Vec<(usize, usize)> = plan
        .segments
        .iter()
        .enumerate()
        .filter_map(|(s, seg)| seg.admit.map(|a| (s, a)))
        .collect();
    for pair in admits.windows(2) {
        let ((_, a), (sb, b)) = (pair[0], pair[1]);
        if !reach.reaches(a, b) {
            findings.push(Finding {
                kind: FindingKind::UnorderedLanePair,
                tasks: vec![a, b],
                detail: format!(
                    "admission chain broken before segment {sb}: admit {b} ({}) is not \
                     ordered after admit {a} ({}) — page accounting is schedule-dependent",
                    label(plan, b),
                    label(plan, a)
                ),
            });
            // Without a pinned admission order the symbolic walk below
            // is meaningless.
            return;
        }
    }

    let mut anc = vec![false; n];
    let mut frontier: Vec<usize> = Vec::new();
    let mut credited = vec![false; nsegs];
    let mut free = cap as i64;
    let mut peak: i64 = 0;
    for &(s, admit) in &admits {
        // Grow the cumulative ancestor set up to this admission. The
        // chain check above makes ancestor sets nested along the walk,
        // so marking is monotone and the whole walk is O(V + E).
        frontier.extend(plan.tasks[admit].deps.iter().copied());
        while let Some(t) = frontier.pop() {
            if anc[t] {
                continue;
            }
            anc[t] = true;
            frontier.extend(plan.tasks[t].deps.iter().copied());
        }
        for (g, seg) in plan.segments.iter().enumerate() {
            if credited[g] || !seg.terminal.is_some_and(|term| term < n && anc[term]) {
                continue;
            }
            // Retained pages (cached prefixes) do not come back at the
            // terminal; they leave the pool's planning budget.
            free += seg.fresh_blocks.saturating_sub(seg.retained_blocks) as i64;
            credited[g] = true;
        }
        free -= plan.segments[s].fresh_blocks as i64;
        peak = peak.max(cap as i64 - free);
        if free < 0 {
            findings.push(Finding {
                kind: FindingKind::PageOverCommit,
                tasks: vec![admit],
                detail: format!(
                    "admission {admit} ({}) over-commits the pool: segment {s} needs {} \
                     fresh block(s) but only {} are provably free of {cap} at its dispatch",
                    label(plan, admit),
                    plan.segments[s].fresh_blocks,
                    free + plan.segments[s].fresh_blocks as i64,
                ),
            });
            break;
        }
    }
    stats.peak_pages = peak.max(0) as usize;
}

//! The defect matrix from the verifier's spec: hand-built broken plans,
//! one per defect class, each asserting the *exact* finding kind — plus
//! positive passes proving the clean templates the broken ones are
//! perturbed from verify with zero findings.

use llmnpu_verify::{verify, Access, FindingKind, Plan, PlanTask, Segment, TaskClass};

fn kinds(plan: &Plan) -> Vec<FindingKind> {
    verify(plan).findings.iter().map(|f| f.kind).collect()
}

/// A two-segment serve-shaped plan: chained admissions, gated fallible
/// prefill work with per-segment KV write sets, ordered reads, and
/// barrier releases. Every negative case below is this plan with one
/// invariant broken.
fn clean_plan() -> Plan {
    let mut admit0 = PlanTask::new("admit r0", 0, vec![]);
    admit0.class = TaskClass::Admit;
    admit0.barrier = true;
    admit0.gated = true;
    admit0.serialized = true;
    admit0.owner = Some(0);

    let mut prefill0 = PlanTask::new("prefill r0", 1, vec![0]);
    prefill0.gated = true;
    prefill0.fallible = true;
    prefill0.owner = Some(0);
    prefill0.writes = vec![Access::range(0, 0, 4)];

    let mut finish0 = PlanTask::new("finish r0", 0, vec![1]);
    finish0.gated = true;
    finish0.owner = Some(0);
    finish0.reads = vec![Access::range(0, 0, 4)];

    let mut admit1 = PlanTask::new("admit r1", 0, vec![0]);
    admit1.class = TaskClass::Admit;
    admit1.barrier = true;
    admit1.gated = true;
    admit1.serialized = true;
    admit1.owner = Some(1);

    let mut prefill1 = PlanTask::new("prefill r1", 1, vec![3]);
    prefill1.gated = true;
    prefill1.fallible = true;
    prefill1.owner = Some(1);
    prefill1.writes = vec![Access::range(1, 0, 4)];

    let mut release0 = PlanTask::new("release r0", 0, vec![2]);
    release0.class = TaskClass::Release;
    release0.barrier = true;
    release0.owner = Some(0);

    let mut release1 = PlanTask::new("release r1", 0, vec![4]);
    release1.class = TaskClass::Release;
    release1.barrier = true;
    release1.owner = Some(1);

    Plan {
        tasks: vec![
            admit0, prefill0, finish0, admit1, prefill1, release0, release1,
        ],
        lane_names: vec!["cpu".into(), "npu".into()],
        page_capacity: Some(8),
        segments: vec![
            Segment {
                admit: Some(0),
                terminal: Some(5),
                fresh_blocks: 2,
                retained_blocks: 0,
            },
            Segment {
                admit: Some(3),
                terminal: Some(6),
                fresh_blocks: 2,
                retained_blocks: 0,
            },
        ],
    }
}

#[test]
fn clean_plan_is_clean() {
    let report = verify(&clean_plan());
    assert!(
        report.is_clean(),
        "unexpected findings: {:?}",
        report.findings
    );
    assert_eq!(report.stats.tasks, 7);
    assert_eq!(report.stats.segments, 2);
    assert_eq!(report.stats.page_capacity, Some(8));
    // admit r0 -> admit r1 is the one serialized same-lane pair.
    assert_eq!(report.stats.serialized_pairs, 1);
    // prefill r0's write overlaps finish r0's read, proven ordered.
    assert!(report.stats.alias_pairs >= 1);
    // Both segments live at the second admission: 4 of 8 pages held.
    assert_eq!(report.stats.peak_pages, 4);
}

#[test]
fn empty_plan_is_clean() {
    assert!(verify(&Plan::default()).is_clean());
}

#[test]
fn cycle_is_caught() {
    // Two tasks depending on each other: dispatch would deadlock.
    let plan = Plan {
        tasks: vec![
            PlanTask::new("a", 0, vec![1]),
            PlanTask::new("b", 0, vec![0]),
        ],
        ..Plan::default()
    };
    assert!(kinds(&plan).contains(&FindingKind::Cycle));
}

#[test]
fn invalid_dep_is_caught() {
    let plan = Plan {
        tasks: vec![PlanTask::new("a", 0, vec![7])],
        ..Plan::default()
    };
    assert_eq!(kinds(&plan), vec![FindingKind::InvalidDep]);

    let plan = Plan {
        tasks: vec![PlanTask::new("self", 0, vec![0])],
        ..Plan::default()
    };
    assert_eq!(kinds(&plan), vec![FindingKind::InvalidDep]);
}

#[test]
fn invalid_time_is_caught() {
    let mut plan = Plan::default();
    let mut t = PlanTask::new("nan release", 0, vec![]);
    t.release_ms = f64::NAN;
    plan.tasks = vec![t];
    assert_eq!(kinds(&plan), vec![FindingKind::InvalidTime]);

    let mut plan = Plan::default();
    let mut t = PlanTask::new("negative duration", 0, vec![]);
    t.duration_ms = -1.0;
    plan.tasks = vec![t];
    assert_eq!(kinds(&plan), vec![FindingKind::InvalidTime]);
}

#[test]
fn unordered_serialized_lane_pair_is_caught() {
    // Two order-sensitive tasks on one lane with no edge between them:
    // the lane serializes them in whichever order the dispatcher picks.
    let mut plan = Plan::default();
    let mut a = PlanTask::new("admit a", 2, vec![]);
    a.serialized = true;
    a.barrier = true;
    a.class = TaskClass::Admit;
    let mut b = PlanTask::new("admit b", 2, vec![]);
    b.serialized = true;
    b.barrier = true;
    b.class = TaskClass::Admit;
    plan.tasks = vec![a, b];
    assert_eq!(kinds(&plan), vec![FindingKind::UnorderedLanePair]);

    // Same pair with an ordering edge verifies clean.
    let mut plan2 = Plan::default();
    let mut a = PlanTask::new("admit a", 2, vec![]);
    a.serialized = true;
    a.barrier = true;
    a.class = TaskClass::Admit;
    let mut b = PlanTask::new("admit b", 2, vec![0]);
    b.serialized = true;
    b.barrier = true;
    b.class = TaskClass::Admit;
    plan2.tasks = vec![a, b];
    let report = verify(&plan2);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.stats.serialized_pairs, 1);

    // Different lanes: no ordering requirement.
    let mut plan3 = Plan::default();
    let mut a = PlanTask::new("admit a", 0, vec![]);
    a.serialized = true;
    a.barrier = true;
    a.class = TaskClass::Admit;
    let mut b = PlanTask::new("admit b", 1, vec![]);
    b.serialized = true;
    b.barrier = true;
    b.class = TaskClass::Admit;
    plan3.tasks = vec![a, b];
    assert!(verify(&plan3).is_clean());
}

#[test]
fn aliased_kv_write_is_caught() {
    // Two writers into overlapping positions of one (segment, layer)
    // space with no ordering edge.
    let mut plan = Plan::default();
    let mut w1 = PlanTask::new("qkv chunk0", 0, vec![]);
    w1.writes = vec![Access::range(7, 0, 4)];
    let mut w2 = PlanTask::new("qkv chunk1", 1, vec![]);
    w2.writes = vec![Access::range(7, 2, 6)];
    plan.tasks = vec![w1, w2];
    assert_eq!(kinds(&plan), vec![FindingKind::KvWriteRace]);

    // Write/read races count too (Eq. 2 visibility without the edge).
    let mut plan2 = Plan::default();
    let mut w = PlanTask::new("qkv", 0, vec![]);
    w.writes = vec![Access::cell(3, 9)];
    let mut r = PlanTask::new("attention", 1, vec![]);
    r.reads = vec![Access::range(3, 0, 16)];
    plan2.tasks = vec![w, r];
    assert_eq!(kinds(&plan2), vec![FindingKind::KvWriteRace]);

    // Disjoint ranges, different spaces, read/read, or an ordering edge
    // are all fine.
    let mut plan3 = Plan::default();
    let mut w1 = PlanTask::new("qkv chunk0", 0, vec![]);
    w1.writes = vec![Access::range(7, 0, 4)];
    let mut w2 = PlanTask::new("qkv chunk1", 1, vec![0]);
    w2.writes = vec![Access::range(7, 2, 6)];
    let mut w3 = PlanTask::new("other layer", 1, vec![]);
    w3.writes = vec![Access::range(8, 0, 6)];
    let mut r1 = PlanTask::new("read a", 0, vec![]);
    r1.reads = vec![Access::range(9, 0, 6)];
    let mut r2 = PlanTask::new("read b", 1, vec![]);
    r2.reads = vec![Access::range(9, 0, 6)];
    plan3.tasks = vec![w1, w2, w3, r1, r2];
    let report = verify(&plan3);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.stats.alias_pairs, 1);
}

#[test]
fn missing_release_edge_is_caught() {
    // The release exists but is not ordered after its admission: it
    // could run before the reservation and the pages would leak.
    let mut plan = clean_plan();
    plan.tasks[5].deps = vec![];
    let report = verify(&plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::PageLeak),
        "{:?}",
        report.findings
    );
}

#[test]
fn missing_release_task_is_caught() {
    let mut plan = clean_plan();
    plan.segments[1].terminal = None;
    let report = verify(&plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::PageLeak),
        "{:?}",
        report.findings
    );
}

#[test]
fn over_committed_page_budget_is_caught() {
    // Capacity 3 cannot hold two concurrent 2-block segments; the
    // second admission is not ordered after the first release.
    let mut plan = clean_plan();
    plan.page_capacity = Some(3);
    let report = verify(&plan);
    let over: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::PageOverCommit)
        .collect();
    assert_eq!(over.len(), 1, "{:?}", report.findings);
    // The flagged task is the second admission.
    assert_eq!(over[0].tasks, vec![3]);

    // Gating the second admission on the first release makes the same
    // capacity provably sufficient.
    let mut gated = clean_plan();
    gated.page_capacity = Some(3);
    gated.tasks[3].deps = vec![0, 5];
    let report = verify(&gated);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.stats.peak_pages, 2);
}

#[test]
fn unbarriered_cleanup_is_caught() {
    // A release that is not a poison-absorbing barrier: an upstream
    // failure would skip it and leak its pages.
    let mut plan = clean_plan();
    plan.tasks[5].barrier = false;
    let report = verify(&plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UnbarrieredCleanup && f.tasks == vec![5]),
        "{:?}",
        report.findings
    );

    // A gate-skippable release strands pages when its request goes
    // terminal.
    let mut plan = clean_plan();
    plan.tasks[6].gated = true;
    let report = verify(&plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UnbarrieredCleanup && f.tasks == vec![6]),
        "{:?}",
        report.findings
    );

    // A fallible task whose segment terminal is not a cleanup task at
    // all.
    let mut plan = clean_plan();
    plan.tasks[6].class = TaskClass::Other;
    let report = verify(&plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UnbarrieredCleanup),
        "{:?}",
        report.findings
    );
}

#[test]
fn ungated_request_task_is_caught() {
    // A request-owned compute task the dispatch gate never consults
    // would keep burning lane time after its request failed.
    let mut plan = clean_plan();
    plan.tasks[1].gated = false;
    let report = verify(&plan);
    assert_eq!(
        report.findings.iter().map(|f| f.kind).collect::<Vec<_>>(),
        vec![FindingKind::UngatedTask],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[0].tasks, vec![1]);
}

#[test]
fn broken_admission_chain_is_caught() {
    // Removing the admit-to-admit edge leaves the page walk
    // schedule-dependent.
    let mut plan = clean_plan();
    plan.tasks[3].deps = vec![];
    let report = verify(&plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UnorderedLanePair),
        "{:?}",
        report.findings
    );
}

#[test]
fn shared_prefix_co_release_holds_pages() {
    // A segment's pages are credited back only once its *own* terminal
    // is a proven ancestor of the admission. A third admission gated on
    // release r0 (and the chain tail) gets r0's two pages back, never
    // r1's: at capacity 4 it fits exactly.
    let mut plan = clean_plan();
    plan.page_capacity = Some(4);
    let mut admit2 = PlanTask::new("admit r2", 0, vec![3, 5]);
    admit2.class = TaskClass::Admit;
    admit2.barrier = true;
    admit2.gated = true;
    admit2.serialized = true;
    admit2.owner = Some(2);
    let mut release2 = PlanTask::new("release r2", 0, vec![7]);
    release2.class = TaskClass::Release;
    release2.barrier = true;
    release2.owner = Some(2);
    plan.tasks.push(admit2);
    plan.tasks.push(release2);
    plan.segments.push(Segment {
        admit: Some(7),
        terminal: Some(8),
        fresh_blocks: 2,
        retained_blocks: 0,
    });
    let report = verify(&plan);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.stats.peak_pages, 4);

    // One page less and the walk over-commits.
    let mut small = plan.clone();
    small.page_capacity = Some(3);
    assert!(kinds(&small).contains(&FindingKind::PageOverCommit));

    // Without the gate on release r0 nothing is credited: 4 held + 2
    // fresh > 4.
    let mut ungated = plan.clone();
    ungated.tasks[7].deps = vec![3];
    let report = verify(&ungated);
    assert_eq!(
        report.findings.iter().map(|f| f.kind).collect::<Vec<_>>(),
        vec![FindingKind::PageOverCommit],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[0].tasks, vec![7]);

    // r0's release credits r0's pages only: a third segment needing 3
    // fresh blocks over-commits, since r1 still holds its 2.
    let mut wider = plan;
    wider.segments[2].fresh_blocks = 3;
    assert_eq!(kinds(&wider), vec![FindingKind::PageOverCommit]);
}

#[test]
fn finding_kinds_render_kebab_case() {
    assert_eq!(FindingKind::KvWriteRace.to_string(), "kv-write-race");
    assert_eq!(FindingKind::PageOverCommit.to_string(), "page-over-commit");
    assert_eq!(
        FindingKind::UnbarrieredCleanup.to_string(),
        "unbarriered-cleanup"
    );
}

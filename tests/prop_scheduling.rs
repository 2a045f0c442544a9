//! Property-based tests for the scheduling stack: every policy must
//! produce a dependency-correct, processor-exclusive schedule for any
//! model/prompt/shadow configuration, and the policy ordering
//! (out-of-order ≤ fifo ≤ serial makespan) must hold universally.

use proptest::prelude::*;

use llmnpu::graph::chunk::ChunkPlan;
use llmnpu::graph::dag::{build_prefill_dag, DagConfig, PrefillDag};
use llmnpu::model::config::ModelConfig;
use llmnpu::sched::{schedule, validate_timeline, LaneGraph, Policy, ScheduleOutcome};
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::Processor;

fn arbitrary_dag() -> impl Strategy<Value = PrefillDag> {
    (
        1usize..4,                       // layers
        1usize..6,                       // chunks
        16usize..64,                     // chunk length
        0.0f64..1.0,                     // shadow fraction
        prop::bool::ANY,                 // shape optimized
        prop::option::of(Just(32usize)), // per-group or per-tensor
    )
        .prop_map(|(layers, chunks, chunk_len, shadow, shape_opt, group)| {
            let mut cfg = ModelConfig::tiny();
            cfg.layers = layers;
            let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
            let dag_cfg = DagConfig {
                plan: ChunkPlan::new(chunks * chunk_len, chunk_len).unwrap(),
                float_processor: Processor::Cpu,
                shadow_fraction: shadow,
                outlier_channels: 4,
                shape_optimized: shape_opt,
                npu_group_size: group,
            };
            build_prefill_dag(&cfg, &dag_cfg, &lat).unwrap()
        })
}

fn assert_schedule_valid(dag: &PrefillDag, outcome: &ScheduleOutcome) -> Result<(), TestCaseError> {
    // Every task exactly once, dependencies respected, Equation 4 — the
    // same check the executed plane is held to.
    let graph = LaneGraph::from_prefill_dag(dag).unwrap();
    let valid = validate_timeline(&outcome.timeline, &graph);
    prop_assert!(valid.is_ok(), "{valid:?}");

    // Makespan is the max end time and at least the critical path.
    prop_assert!((outcome.makespan_ms - outcome.timeline.makespan()).abs() < 1e-9);
    prop_assert!(outcome.makespan_ms + 1e-6 >= dag.critical_path_ms());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_policy_yields_valid_schedules(dag in arbitrary_dag()) {
        for policy in Policy::ALL {
            let outcome = schedule(&dag, policy).unwrap();
            assert_schedule_valid(&dag, &outcome)?;
        }
    }

    #[test]
    fn policy_ordering_holds(dag in arbitrary_dag()) {
        let serial = schedule(&dag, Policy::Serial).unwrap().makespan_ms;
        let fifo = schedule(&dag, Policy::FifoQueues).unwrap().makespan_ms;
        let ooo = schedule(&dag, Policy::OutOfOrder).unwrap().makespan_ms;
        prop_assert!(fifo <= serial + 1e-6, "fifo {fifo} > serial {serial}");
        prop_assert!(ooo <= fifo + 1e-6, "ooo {ooo} > fifo {fifo}");
    }

    #[test]
    fn serial_makespan_is_total_work(dag in arbitrary_dag()) {
        let serial = schedule(&dag, Policy::Serial).unwrap().makespan_ms;
        let total: f64 = dag.tasks().iter().map(|t| t.duration_ms).sum();
        prop_assert!((serial - total).abs() < 1e-6);
    }

    #[test]
    fn makespan_at_least_busiest_processor(dag in arbitrary_dag()) {
        for policy in Policy::ALL {
            let m = schedule(&dag, policy).unwrap().makespan_ms;
            for p in Processor::ALL {
                prop_assert!(m + 1e-6 >= dag.total_work_ms(p));
            }
        }
    }

    #[test]
    fn chunk_plans_conserve_tokens(
        prompt in 1usize..4096,
        chunk in 1usize..1024,
    ) {
        let plan = ChunkPlan::new(prompt, chunk).unwrap();
        prop_assert_eq!(plan.computed_tokens(), plan.prompt_len + plan.padding);
        prop_assert!(plan.padding < plan.chunk_len);
        prop_assert_eq!(plan.kv_len(plan.chunks - 1), plan.computed_tokens());
    }
}

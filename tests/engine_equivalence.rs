//! Property tests: the event-driven simulator engine must reproduce the
//! original O(n²) list scheduler exactly — bit-identical task records,
//! completion times and energy accounting — on random DAG plans with random
//! resource bindings, dependency structure and arrival times, including
//! long unsorted streams with exact arrival ties and admitted streams whose
//! release times differ from their arrivals.

use hidp::platform::{
    presets, AvailabilityEvent, Cluster, EdgeNode, Link, NetworkModel, NodeIndex, Processor,
    ProcessorAddr,
};
use hidp::sim::{
    simulate_admitted_stream, simulate_admitted_stream_faulty, simulate_stream,
    simulate_stream_reference, ExecutionPlan, TaskId, TraceDetail,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random valid plan: up to `max_tasks` tasks, each either a
/// compute on a random processor or a transfer between random nodes, with a
/// random subset of earlier tasks as dependencies.
fn random_plan(rng: &mut StdRng, cluster: &Cluster, max_tasks: usize) -> ExecutionPlan {
    let processors = cluster.all_processors();
    let nodes = cluster.len();
    let count = rng.gen_range(1..=max_tasks);
    let mut plan = ExecutionPlan::new();
    for i in 0..count {
        // Sparse random DAG: each task picks up to three earlier tasks.
        let mut deps: Vec<TaskId> = Vec::new();
        if i > 0 {
            for _ in 0..rng.gen_range(0..=3usize.min(i)) {
                let dep = TaskId(rng.gen_range(0..i));
                if !deps.contains(&dep) {
                    deps.push(dep);
                }
            }
        }
        if rng.gen_range(0..4) < 3 {
            let target: ProcessorAddr = processors[rng.gen_range(0..processors.len())];
            plan.add_compute(
                format!("c{i}"),
                target,
                rng.gen_range(1_000_000..2_000_000_000u64),
                rng.gen_range(0.0..1.0f64),
                &deps,
            );
        } else {
            plan.add_transfer(
                format!("t{i}"),
                NodeIndex(rng.gen_range(0..nodes)),
                NodeIndex(rng.gen_range(0..nodes)),
                rng.gen_range(1_000..50_000_000u64),
                &deps,
            );
        }
    }
    plan
}

/// A three-node cluster whose every duration is a multiple of 0.125 s: GPUs
/// at 1 or 2 GFLOP/s (full rate at affinity 1.0) and 1 MB/s links with no
/// latency. Sums of such durations are exact in `f64`, so schedules on it
/// produce exact ties and no sub-ULP near-ties.
fn grid_cluster() -> Cluster {
    let node = |name: &str, peaks: &[f64]| {
        let processors = peaks
            .iter()
            .map(|peak| Processor::gpu(name, 1, 1.0, *peak))
            .collect();
        EdgeNode::new(name, processors, 1.0).expect("valid node")
    };
    let link = Link::new(1.0, 0.0).expect("valid link");
    Cluster::new(
        vec![
            node("g0", &[1.0, 2.0]),
            node("g1", &[1.0]),
            node("g2", &[2.0, 1.0]),
        ],
        NetworkModel::uniform(link),
    )
    .expect("valid cluster")
}

/// A short random plan for [`grid_cluster`]: 1–6 tasks, each a compute of
/// 125–500 Mflop at affinity 1.0 or a transfer of 125–500 kB (same-node
/// transfers take zero time), depending on up to two earlier tasks.
fn grid_plan(rng: &mut StdRng, cluster: &Cluster) -> ExecutionPlan {
    let processors = cluster.all_processors();
    let mut plan = ExecutionPlan::new();
    for i in 0..rng.gen_range(1..=6usize) {
        let mut deps: Vec<TaskId> = Vec::new();
        for _ in 0..rng.gen_range(0..=2usize.min(i)) {
            let dep = TaskId(rng.gen_range(0..i));
            if !deps.contains(&dep) {
                deps.push(dep);
            }
        }
        let quanta = rng.gen_range(1..=4u64);
        if rng.gen_range(0..4) < 3 {
            let target = processors[rng.gen_range(0..processors.len())];
            plan.add_compute(format!("c{i}"), target, quanta * 125_000_000, 1.0, &deps);
        } else {
            plan.add_transfer(
                format!("t{i}"),
                NodeIndex(rng.gen_range(0..cluster.len())),
                NodeIndex(rng.gen_range(0..cluster.len())),
                quanta * 125_000,
                &deps,
            );
        }
    }
    plan
}

proptest! {
    #[test]
    fn event_engine_matches_list_scheduler_on_random_dags(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = presets::paper_cluster();
        let requests: Vec<(f64, ExecutionPlan)> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let arrival = rng.gen_range(0.0..2.0f64);
                (arrival, random_plan(&mut rng, &cluster, 40))
            })
            .collect();

        let reference = simulate_stream_reference(&requests, &cluster)
            .expect("reference engine simulates");
        let event = simulate_stream(&requests, &cluster).expect("event engine simulates");

        // Bit-identical, field by field: schedule order, times, accounting.
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(
            &reference.request_completion,
            &event.request_completion,
            "seed {}",
            seed
        );
        prop_assert_eq!(&reference.request_arrival, &event.request_arrival);
        prop_assert_eq!(reference.makespan, event.makespan);
        prop_assert_eq!(&reference.meter, &event.meter);
        // And therefore identical energies through the sorted accounting.
        prop_assert_eq!(
            reference.total_energy(&cluster).unwrap(),
            event.total_energy(&cluster).unwrap()
        );
    }

    #[test]
    fn event_engine_matches_list_scheduler_on_degraded_clusters(seed in 0u64..1_000_000) {
        // Same property on a prefix cluster (different resource universe).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
        let cluster = presets::paper_cluster()
            .take(rng.gen_range(1..=5usize))
            .expect("prefix cluster");
        let requests: Vec<(f64, ExecutionPlan)> = (0..rng.gen_range(1..4usize))
            .map(|_| (rng.gen_range(0.0..1.0f64), random_plan(&mut rng, &cluster, 25)))
            .collect();
        let reference = simulate_stream_reference(&requests, &cluster)
            .expect("reference engine simulates");
        let event = simulate_stream(&requests, &cluster).expect("event engine simulates");
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(reference.makespan, event.makespan);
        prop_assert_eq!(&reference.meter, &event.meter);
    }

    #[test]
    fn event_engine_matches_list_scheduler_on_tied_unsorted_streams(seed in 0u64..1_000_000) {
        // 20–80 short plans on the grid cluster, arrivals on a 0.25 s grid
        // (some at -0.0), drawn independently so the submission order is
        // unsorted. Every start and finish is then an exact grid value:
        // tasks tie with each other and with later requests' releases,
        // which drives the release gate through its `release == min key`
        // boundary and its release-order sort on unsorted input.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7135_0b5e);
        let cluster = grid_cluster();
        let requests: Vec<(f64, ExecutionPlan)> = (0..rng.gen_range(20..=80usize))
            .map(|_| {
                let slot = rng.gen_range(0..8u32);
                let arrival = if slot == 0 && rng.gen_range(0..2u32) == 0 {
                    -0.0
                } else {
                    f64::from(slot) * 0.25
                };
                (arrival, grid_plan(&mut rng, &cluster))
            })
            .collect();

        let reference = simulate_stream_reference(&requests, &cluster)
            .expect("reference engine simulates");
        let event = simulate_stream(&requests, &cluster).expect("event engine simulates");
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(&reference.request_completion, &event.request_completion);
        prop_assert_eq!(&reference.request_arrival, &event.request_arrival);
        prop_assert_eq!(reference.makespan, event.makespan);
        prop_assert_eq!(&reference.meter, &event.meter);
    }

    #[test]
    fn admitted_stream_matches_list_scheduler_on_release_times(seed in 0u64..1_000_000) {
        // An admitted stream schedules exactly like a plain stream released
        // at the admitted times; only latency accounting keeps the arrivals.
        // Random admission delays make the releases unsorted.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xad_3177ed);
        let cluster = presets::paper_cluster();
        let admitted: Vec<(f64, f64, ExecutionPlan)> = (0..rng.gen_range(1..=20usize))
            .map(|_| {
                let arrival = rng.gen_range(0.0..1.0f64);
                let delay = if rng.gen_range(0..10u32) < 3 {
                    0.0
                } else {
                    rng.gen_range(0.0..0.5f64)
                };
                (arrival, arrival + delay, random_plan(&mut rng, &cluster, 12))
            })
            .collect();
        let released: Vec<(f64, &ExecutionPlan)> =
            admitted.iter().map(|(_, release, plan)| (*release, plan)).collect();

        let reference = simulate_stream_reference(&released, &cluster)
            .expect("reference engine simulates");
        let event = simulate_admitted_stream(&admitted, &cluster, TraceDetail::Full)
            .expect("event engine simulates");
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(&reference.request_completion, &event.request_completion);
        prop_assert_eq!(&reference.meter, &event.meter);
        prop_assert_eq!(reference.makespan, event.makespan);
        let arrivals: Vec<f64> = admitted.iter().map(|(arrival, _, _)| *arrival).collect();
        prop_assert_eq!(&event.request_arrival, &arrivals);

        // The failure-aware mode with no down-flip is the plain mode.
        let mut ups: Vec<AvailabilityEvent> = (0..rng.gen_range(0..4usize))
            .map(|_| AvailabilityEvent {
                time: rng.gen_range(0.0..2.0f64),
                node: NodeIndex(rng.gen_range(0..cluster.len())),
                up: true,
            })
            .collect();
        ups.sort_by(|a, b| a.time.total_cmp(&b.time));
        for faults in [&[] as &[AvailabilityEvent], &ups] {
            let (report, failures) =
                simulate_admitted_stream_faulty(&admitted, &cluster, faults, TraceDetail::Full)
                    .expect("faulty mode simulates");
            prop_assert_eq!(&report, &event);
            prop_assert!(failures.is_empty());
        }
    }
}

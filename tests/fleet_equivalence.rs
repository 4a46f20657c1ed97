//! Equivalence suite for the fleet tier.
//!
//! Two contracts pin `FleetScenario` to the layers beneath it:
//!
//! 1. **Degenerate configuration**: on a one-cluster fleet every routing
//!    policy collapses to "send everything to cluster 0" and the WAN cost
//!    is zero, so the fleet run must agree with
//!    `ServingScenario::run_streaming` on the same requests and serving
//!    config — exactly, on every exactly-tracked aggregate, under every
//!    admission policy, with a bounded or unbounded in-flight window, and
//!    with or without drift, stragglers, the adaptive loop, kill semantics
//!    and load shedding. (Percentiles are excluded by design: the
//!    single-cluster path estimates them with P² sketches, the fleet with
//!    mergeable log-histograms.)
//! 2. **Thread-count invariance**: the sweep only decides *which thread*
//!    advances which cluster, so the whole `FleetSummary` must be
//!    bit-identical at 1/2/4/8 threads, for every routing policy, with
//!    failure timelines in play.

use hidp::core::{
    AdaptiveConfig, AdmissionPolicy, FailureMode, FleetScenario, FleetScratch, ParallelSweep,
    RecoveryPolicy, RoutingPolicy, ServingScenario, SlaClass,
};
use hidp::platform::{
    presets, Cluster, ClusterTimeline, DriftModel, Fleet, Link, NodeIndex, SlowdownWindow, WanModel,
};
use hidp::workloads::{
    poisson_stream_classed, regional_diurnal_stream, standard_drift_suite, FleetRequest,
};
use hidp::{HidpStrategy, WorkloadModel};

const LEADER: NodeIndex = NodeIndex(1);

/// Wraps one cluster into a single-region fleet (the WAN is a formality:
/// one site, zero cost everywhere).
fn single_cluster_fleet(cluster: Cluster) -> Fleet {
    let wan = WanModel::uniform(1, Link::new(100.0, 10.0).unwrap()).unwrap();
    Fleet::new(vec![cluster], vec![0], wan).unwrap()
}

#[test]
fn degenerate_single_cluster_fleet_matches_serving_streaming() {
    let cluster = presets::paper_cluster();
    let fleet = single_cluster_fleet(cluster.clone());
    let strategy = HidpStrategy::new();

    let models = [
        WorkloadModel::EfficientNetB0,
        WorkloadModel::InceptionV3,
        WorkloadModel::ResNet152,
    ];
    let stream = |rate: f64| {
        let requests = poisson_stream_classed(&models, rate, 90, 17, &SlaClass::ALL);
        hidp::workloads::InferenceRequest::to_serving(&requests)
    };
    let light = stream(4.0);
    let timeline = ClusterTimeline::new()
        .node_down(1.0, NodeIndex(3))
        .unwrap()
        .node_up(6.0, NodeIndex(3))
        .unwrap();
    let horizon = light.iter().map(|r| r.arrival).fold(1.0, f64::max);
    let drift = standard_drift_suite(&[cluster.len()], 0xd21f7, horizon, LEADER)
        .unwrap()
        .remove(0);
    let slowdown = SlowdownWindow {
        node: NodeIndex(0),
        start: 2.0,
        end: 8.0,
        factor: 2.5,
    };
    // One row per configuration: the plain config, each robust input
    // alone, and all of them at once. Kill runs have no retry, so the killed
    // requests are lost. The unbounded window admits every request at its
    // arrival. Shedding only fires under overload, so its rows also run a
    // 10x denser stream.
    #[derive(Clone)]
    struct Variant {
        name: &'static str,
        rate: f64,
        drift: DriftModel,
        slowdowns: Vec<SlowdownWindow>,
        adaptive: bool,
        failures: FailureMode,
        max_inflight: Option<usize>,
        shed: bool,
    }
    let plain = Variant {
        name: "plain",
        rate: 4.0,
        drift: DriftModel::default(),
        slowdowns: vec![],
        adaptive: false,
        failures: FailureMode::Ignore,
        max_inflight: Some(2),
        shed: false,
    };
    let variants = [
        Variant {
            name: "drift",
            drift: drift.clone(),
            ..plain.clone()
        },
        Variant {
            name: "slowdown",
            slowdowns: vec![slowdown],
            ..plain.clone()
        },
        Variant {
            name: "adaptive",
            adaptive: true,
            ..plain.clone()
        },
        Variant {
            name: "kill",
            failures: FailureMode::Kill,
            ..plain.clone()
        },
        Variant {
            name: "unbounded",
            max_inflight: None,
            ..plain.clone()
        },
        Variant {
            name: "shed",
            rate: 40.0,
            shed: true,
            ..plain.clone()
        },
        Variant {
            name: "shed-unbounded",
            rate: 40.0,
            max_inflight: None,
            shed: true,
            ..plain.clone()
        },
        Variant {
            name: "all",
            rate: 4.0,
            drift,
            slowdowns: vec![slowdown],
            adaptive: true,
            failures: FailureMode::Kill,
            max_inflight: Some(2),
            shed: true,
        },
        plain,
    ];

    for policy in [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::Priority,
        AdmissionPolicy::EarliestDeadline,
    ] {
        for variant in &variants {
            let name = variant.name;
            let serving_requests = stream(variant.rate);
            let fleet_requests: Vec<FleetRequest> = serving_requests
                .iter()
                .map(|&r| FleetRequest::new(r, 0))
                .collect();
            let recovery = RecoveryPolicy {
                shed: variant.shed,
                ..RecoveryPolicy::default()
            };
            let mut serving = ServingScenario::new(serving_requests)
                .with_policy(policy)
                .with_max_batch(4)
                .with_max_inflight(variant.max_inflight)
                .with_timeline(timeline.clone())
                .with_drift(variant.drift.clone())
                .with_slowdowns(variant.slowdowns.clone())
                .with_failure_mode(variant.failures)
                .with_recovery(recovery);
            if variant.adaptive {
                serving = serving.with_adaptive(AdaptiveConfig::default());
            }
            let reference = serving
                .run_streaming(&strategy, &cluster, LEADER)
                .expect("serving run succeeds");
            if variant.failures == FailureMode::Kill {
                assert!(
                    reference.robustness.lost > 0,
                    "{name}: the timeline kills work"
                );
            }
            // An overloaded bounded window must shed.
            if variant.shed && variant.rate > 4.0 && variant.max_inflight.is_some() {
                assert!(
                    reference.robustness.shed > 0,
                    "{name}/{}: shedding fires",
                    policy.name()
                );
            }

            for routing in [
                RoutingPolicy::Random { seed: 7 },
                RoutingPolicy::StaticHash,
                RoutingPolicy::LeastLoaded,
                RoutingPolicy::Locality,
            ] {
                let mut scenario = FleetScenario::new(fleet_requests.clone())
                    .with_routing(routing)
                    .with_policy(policy)
                    .with_max_batch(4)
                    .with_max_inflight(variant.max_inflight)
                    .with_timelines(vec![timeline.clone()])
                    .with_drifts(vec![variant.drift.clone()])
                    .with_slowdowns(vec![variant.slowdowns.clone()])
                    .with_failure_mode(variant.failures)
                    .with_recovery(recovery);
                if variant.adaptive {
                    scenario = scenario.with_adaptive(AdaptiveConfig::default());
                }
                let fleet_summary = scenario
                    .run_streaming(&strategy, &fleet, LEADER)
                    .expect("fleet run succeeds");

                let tag = format!("{name}/{}/{}", policy.name(), routing.name());
                // Every exactly-tracked aggregate is bit-identical.
                assert_eq!(fleet_summary.requests, reference.requests, "{tag}");
                assert_eq!(fleet_summary.batches, reference.batches, "{tag}");
                assert_eq!(
                    fleet_summary.epochs_applied, reference.epochs_applied,
                    "{tag}"
                );
                assert_eq!(fleet_summary.makespan, reference.makespan, "{tag}");
                assert_eq!(
                    fleet_summary.latency.count, reference.latency.count,
                    "{tag}"
                );
                assert_eq!(fleet_summary.latency.mean, reference.latency.mean, "{tag}");
                assert_eq!(
                    fleet_summary.mean_queueing_delay, reference.mean_queueing_delay,
                    "{tag}"
                );
                assert_eq!(
                    fleet_summary.max_queueing_delay, reference.max_queueing_delay,
                    "{tag}"
                );
                assert_eq!(
                    fleet_summary.deadline_misses, reference.deadline_misses,
                    "{tag}"
                );
                assert_eq!(fleet_summary.plan_cache, reference.plan_cache, "{tag}");
                assert_eq!(fleet_summary.robustness, reference.robustness, "{tag}");
                assert_eq!(fleet_summary.drift, reference.drift, "{tag}");
                for class in SlaClass::ALL {
                    match (fleet_summary.class(class), reference.class(class)) {
                        (Some(f), Some(r)) => {
                            assert_eq!(f.latency.count, r.latency.count, "{tag}/{class:?}");
                            assert_eq!(f.latency.mean, r.latency.mean, "{tag}/{class:?}");
                            assert_eq!(
                                f.mean_queueing_delay, r.mean_queueing_delay,
                                "{tag}/{class:?}"
                            );
                            assert_eq!(f.deadline_misses, r.deadline_misses, "{tag}/{class:?}");
                        }
                        (None, None) => {}
                        (f, r) => panic!("{tag}/{class:?}: class presence differs: {f:?} vs {r:?}"),
                    }
                }
                // One cluster ⇒ no WAN cost and trivial routing balance.
                assert_eq!(fleet_summary.clusters, 1, "{tag}");
                assert_eq!(fleet_summary.mean_wan_round_trip, 0.0, "{tag}");
                assert_eq!(
                    fleet_summary.busiest_cluster_requests, reference.requests,
                    "{tag}"
                );
            }
        }
    }
}

#[test]
fn fleet_run_is_bit_identical_at_every_thread_count() {
    let fleet = presets::generated_fleet(8, 3).unwrap();
    let strategy = HidpStrategy::new();
    let requests = regional_diurnal_stream(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        &[3.0, 1.0, 1.5],
        2.0,
        14.0,
        30.0,
        400,
        23,
        &SlaClass::ALL,
    );
    // Give two clusters a failure window so epoch flips are in play.
    let mut timelines = vec![ClusterTimeline::new(); 8];
    timelines[2] = ClusterTimeline::new()
        .node_down(3.0, NodeIndex(0))
        .unwrap()
        .node_up(12.0, NodeIndex(0))
        .unwrap();
    timelines[5] = ClusterTimeline::new().node_down(6.0, NodeIndex(2)).unwrap();

    for routing in [
        RoutingPolicy::Random { seed: 3 },
        RoutingPolicy::StaticHash,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::Locality,
    ] {
        let scenario = FleetScenario::new(requests.clone())
            .with_routing(routing)
            .with_policy(AdmissionPolicy::EarliestDeadline)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_timelines(timelines.clone())
            .with_round_seconds(2.0);
        let reference = scenario
            .run_streaming_in(
                &strategy,
                &fleet,
                LEADER,
                &ParallelSweep::new(1),
                &mut FleetScratch::new(),
            )
            .expect("fleet run succeeds");
        assert_eq!(reference.requests, requests.len(), "{}", routing.name());
        for threads in [2usize, 4, 8] {
            let mut scratch = FleetScratch::new();
            let summary = scenario
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    LEADER,
                    &ParallelSweep::new(threads),
                    &mut scratch,
                )
                .expect("fleet run succeeds");
            assert_eq!(
                summary,
                reference,
                "{} at {threads} threads",
                routing.name()
            );
        }
    }
}

#[test]
fn reused_scratch_is_bit_identical_to_fresh_scratch() {
    // The scratch is pure working memory: running scenario B after scenario
    // A in the same scratch must give the same summary as a cold run, even
    // when B needs fewer clusters than A touched.
    let strategy = HidpStrategy::new();
    let big = presets::generated_fleet(6, 2).unwrap();
    let small = presets::generated_fleet(3, 1).unwrap();
    let requests = regional_diurnal_stream(
        &[WorkloadModel::EfficientNetB0, WorkloadModel::ResNet152],
        &[2.0, 1.0],
        1.0,
        8.0,
        20.0,
        150,
        5,
        &SlaClass::ALL,
    );
    let big_scenario = FleetScenario::new(requests.clone()).with_max_batch(2);
    let small_requests: Vec<FleetRequest> = requests
        .iter()
        .map(|fr| FleetRequest::new(fr.request, 0))
        .collect();
    let small_scenario = FleetScenario::new(small_requests)
        .with_routing(RoutingPolicy::Locality)
        .with_max_batch(2);

    let sweep = ParallelSweep::new(1);
    let mut scratch = FleetScratch::new();
    let big_cold = big_scenario
        .run_streaming_in(&strategy, &big, LEADER, &sweep, &mut scratch)
        .unwrap();
    let small_reused = small_scenario
        .run_streaming_in(&strategy, &small, LEADER, &sweep, &mut scratch)
        .unwrap();
    let big_reused = big_scenario
        .run_streaming_in(&strategy, &big, LEADER, &sweep, &mut scratch)
        .unwrap();

    let small_cold = small_scenario
        .run_streaming(&strategy, &small, LEADER)
        .unwrap();
    // Cache warmth differs between cold and reused runs; everything else
    // must not.
    assert_eq!(
        small_reused.plan_cache.hits + small_reused.plan_cache.misses,
        small_cold.plan_cache.hits + small_cold.plan_cache.misses
    );
    let strip = |mut s: hidp::FleetSummary| {
        s.plan_cache = hidp::core::PlanCacheStats::default();
        s
    };
    assert_eq!(strip(small_reused), strip(small_cold));
    assert_eq!(strip(big_reused), strip(big_cold));
}

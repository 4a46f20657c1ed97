//! `fleet`: a 1M-request skewed regional diurnal trace through
//! `FleetScenario::run_streaming_in` on 64 generated clusters in 8 regions,
//! least-loaded routing, under the seeded standard fault and drift suites
//! with retry+failover recovery and adaptive re-planning. The router, the
//! barriered rounds, the robust worker loop and re-planning do the work.

use crate::probe::{digest, median, ratio, time_graphs, TimedPlanner};
use crate::soak::{MAX_BATCH, MIX};
use crate::{Config, Report};
use hidp_bench::LEADER;
use hidp_core::{
    AdaptiveConfig, AdmissionPolicy, FailureMode, FleetScenario, FleetScratch, FleetSummary,
    ParallelSweep, PlanCacheStats, RecoveryPolicy, RoutingPolicy, SlaClass,
};
use hidp_platform::{presets, Fleet};
use hidp_workloads::{regional_diurnal_stream, standard_drift_suite, standard_fault_suite};

const REQUESTS: usize = 1_000_000;
const CLUSTERS: usize = 64;
const REGIONS: usize = 8;
/// Scales the per-region rates so 64 clusters serve a loaded fleet.
const RATE_SCALE: f64 = 13.0;
/// With the default trace seed 42 these offsets give the fault seed 803845
/// and the drift seed 860663, the seeds of the recorded chaos and drift
/// experiments.
const FAULT_SEED_OFFSET: u64 = 803_845 - 42;
const DRIFT_SEED_OFFSET: u64 = 860_663 - 42;

/// The summary without its plan-cache traffic, which differs between a
/// cold and a warm pass by design.
fn simulated(summary: FleetSummary) -> FleetSummary {
    FleetSummary {
        plan_cache: PlanCacheStats::default(),
        ..summary
    }
}

fn scenario(seed: u64, fleet: &Fleet) -> Result<FleetScenario, String> {
    // Region weights 4, 2, 1, 1, …: the hot region dominates.
    let weights: Vec<f64> = (0..REGIONS)
        .map(|r| match r {
            0 => 4.0,
            1 => 2.0,
            _ => 1.0,
        })
        .collect();
    let requests = regional_diurnal_stream(
        &MIX,
        &weights,
        2.0 * RATE_SCALE,
        8.0 * RATE_SCALE,
        240.0,
        REQUESTS,
        seed,
        &SlaClass::ALL,
    );
    // Faults and drift land inside the arrival span.
    let horizon = requests
        .iter()
        .map(|r| r.request.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let nodes: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
    let faults = standard_fault_suite(
        &nodes,
        seed.wrapping_add(FAULT_SEED_OFFSET),
        horizon,
        LEADER,
    )
    .map_err(|e| format!("fault suite: {e}"))?;
    let drifts = standard_drift_suite(
        &nodes,
        seed.wrapping_add(DRIFT_SEED_OFFSET),
        horizon,
        LEADER,
    )
    .map_err(|e| format!("drift suite: {e}"))?;
    Ok(FleetScenario::new(requests)
        .with_label("fleet")
        .with_routing(RoutingPolicy::LeastLoaded)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(MAX_BATCH)
        .with_max_inflight(Some(4))
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(RecoveryPolicy::standard())
        .with_timelines(faults.iter().map(|p| p.timeline.clone()).collect())
        .with_slowdowns(faults.iter().map(|p| p.slowdowns.clone()).collect())
        .with_wan_degradations(faults[0].wan.clone())
        .with_drifts(drifts)
        .with_adaptive(AdaptiveConfig::default()))
}

struct State {
    fleet: Fleet,
    scenario: FleetScenario,
    scratch: FleetScratch,
    cold: FleetSummary,
    gen_s: f64,
    cold_planner_calls: u64,
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let tracer = &config.tracer;
    let planner = TimedPlanner::new(tracer);
    let sweep = ParallelSweep::new(config.threads);

    let (mut state, setup_s, setups) = config.setup(|| {
        let fleet = presets::generated_fleet(CLUSTERS, REGIONS)
            .map_err(|e| format!("fleet preset: {e}"))?;
        let (scenario, gen_s) = tracer.span("workloads.gen", || scenario(config.seed, &fleet));
        let scenario = scenario?;
        let mut scratch = FleetScratch::new();
        let before = planner.totals().calls;
        let (cold, _) = tracer.span("fleet.run", || {
            scenario.run_streaming_in(
                planner.for_pass(config.traced()),
                &fleet,
                LEADER,
                &sweep,
                &mut scratch,
            )
        });
        let cold = cold.map_err(|e| format!("cold pass: {e}"))?;
        Ok(State {
            fleet,
            scenario,
            scratch,
            cold,
            gen_s,
            cold_planner_calls: planner.totals().calls - before,
        })
    })?;
    report.ops(setups as u64);
    report.set("setup_s", setup_s);
    let cold = state.cold;
    report.check(cold.robustness.accounts_for_every_request(), || {
        format!("cold pass loses requests: {:?}", cold.robustness)
    });

    let (mut plain, mut traced_times) = (Vec::new(), Vec::new());
    let mut last = cold;
    let mut timed_calls = 0u64;
    let passes = config.timed_passes(|_, traced| {
        let before = planner.totals();
        let (summary, seconds) = tracer.span("fleet.run", || {
            state.scenario.run_streaming_in(
                planner.for_pass(traced),
                &state.fleet,
                LEADER,
                &sweep,
                &mut state.scratch,
            )
        });
        let summary = summary.map_err(|e| format!("timed pass: {e}"))?;
        if traced {
            traced_times.push(seconds);
            timed_calls = planner.totals().since(&before).calls;
        } else {
            plain.push(seconds);
        }
        report.check(simulated(summary) == simulated(cold), || {
            "a timed pass differs from the cold pass".to_string()
        });
        report.check(summary.robustness.accounts_for_every_request(), || {
            format!("timed pass loses requests: {:?}", summary.robustness)
        });
        last = summary;
        Ok(())
    })?;
    report.ops(passes as u64);
    report.set("rps", cold.requests as f64 / median(&plain));

    // Results must not depend on the thread count: one more warm pass at a
    // single thread, outside the timed passes.
    let (single, single_s) = tracer.span("fleet.run", || {
        state.scenario.run_streaming_in(
            &planner.inner,
            &state.fleet,
            LEADER,
            &ParallelSweep::new(1),
            &mut state.scratch,
        )
    });
    let single = single.map_err(|e| format!("one-thread pass: {e}"))?;
    report.ops(1);
    report.check(simulated(single) == simulated(cold), || {
        format!(
            "the one-thread summary differs from the {}-thread one",
            config.threads
        )
    });

    let r = cold.robustness;
    report.note(format!(
        "digest: fleet seed={} {:016x}",
        config.seed,
        digest(&simulated(cold))
    ));
    report.note(format!(
        "sim: requests={} batches={} p50_ms={} p99_ms={} queue_ms={} wan_ms={} miss_rate={} completed={} killed={} retried={} aborted={} lost={} replans={} observations={}",
        cold.requests,
        cold.batches,
        cold.latency.p50 * 1e3,
        cold.latency.p99 * 1e3,
        cold.mean_queueing_delay * 1e3,
        cold.mean_wan_round_trip * 1e3,
        cold.sla_miss_rate(),
        r.completed,
        r.killed,
        r.retried,
        r.aborted,
        r.lost,
        cold.drift.replans,
        cold.drift.observations,
    ));

    if config.traced() {
        let (graphs, graph_us) = time_graphs(tracer, &MIX, MAX_BATCH);
        let totals = planner.totals();
        report.set("workloads.gen_s", state.gen_s);
        report.set("workloads.requests", cold.requests as f64);
        report.set("dnn.graph_us", graph_us);
        report.set("dnn.graphs", graphs.len() as f64);
        report.set("planner.calls", timed_calls as f64);
        report.set("planner.search_us", totals.search_us());
        report.set("planner.lower_us", totals.lower_us());
        report.set("plan_cache.hits", last.plan_cache.hits as f64);
        report.set("plan_cache.misses", last.plan_cache.misses as f64);
        report.set("plan_cache.hit_ratio", last.plan_cache.hit_rate());
        report.set("fleet.pass_s", median(&traced_times));
        report.set("fleet.thread_speedup", single_s / median(&plain));
        report.set(
            "fleet.busiest_share",
            ratio(cold.busiest_cluster_requests as f64, cold.requests as f64),
        );
        report.set("fleet.sim_wan_ms", cold.mean_wan_round_trip * 1e3);
        report.set("fleet.sim_queue_ms", cold.mean_queueing_delay * 1e3);
        report.set("recovery.killed", r.killed as f64);
        report.set("recovery.retried", r.retried as f64);
        report.set("recovery.aborted", r.aborted as f64);
        report.set("recovery.lost", r.lost as f64);
        report.set(
            "recovery.completed_ratio",
            ratio(r.completed as f64, r.offered as f64),
        );
        report.set("adaptive.observations", cold.drift.observations as f64);
        report.set("adaptive.replans", cold.drift.replans as f64);
        report.set(
            "adaptive.cold_planner_calls",
            state.cold_planner_calls as f64,
        );
        report.set(
            "trace.overhead_pct",
            (median(&traced_times) / median(&plain) - 1.0) * 100.0,
        );
    }
    Ok(())
}

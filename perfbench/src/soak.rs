//! `soak`: a 1M-request diurnal trace through the streaming serving loop
//! (`ServingScenario::run_streaming_with_cache_in`) on the paper cluster.
//! After the cold pass the plan cache serves warm hits only, so the
//! admission, coalescing, estimator and sketch code does the work.

use crate::probe::{
    counting_allocs, digest, median, ratio, time_graphs, warm_probe_ns, TimedPlanner,
};
use crate::{Config, Report};
use hidp_bench::LEADER;
use hidp_core::{
    AdmissionPolicy, PlanCache, PlanCacheStats, ServingRequest, ServingScenario, ServingScratch,
    ServingSummary, SlaClass,
};
use hidp_dnn::zoo::WorkloadModel;
use hidp_platform::presets;
use hidp_workloads::InferenceRequest;

/// The Mix-5 model cycle every serving trace draws from.
pub const MIX: [WorkloadModel; 3] = [
    WorkloadModel::EfficientNetB0,
    WorkloadModel::InceptionV3,
    WorkloadModel::ResNet152,
];

/// Coalescing limit of every serving workload.
pub const MAX_BATCH: usize = 8;

const REQUESTS: usize = 1_000_000;

/// A diurnal Poisson trace over [`MIX`] with SLA classes cycling, swinging
/// between `trough` and `peak` req/s over a 2000 s day.
pub fn diurnal_trace(trough: f64, peak: f64, count: usize, seed: u64) -> Vec<ServingRequest> {
    InferenceRequest::to_serving(&hidp_workloads::diurnal_stream(
        &MIX,
        trough,
        peak,
        2000.0,
        count,
        seed,
        &SlaClass::ALL,
    ))
}

/// EDF admission, batch [`MAX_BATCH`], admission window 4.
pub fn edf_scenario(label: &str, requests: Vec<ServingRequest>) -> ServingScenario {
    ServingScenario::new(requests)
        .with_label(label)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(MAX_BATCH)
        .with_max_inflight(Some(4))
}

/// The summary without its plan-cache traffic, which differs between a
/// cold and a warm pass by design.
pub fn simulated(summary: ServingSummary) -> ServingSummary {
    ServingSummary {
        plan_cache: PlanCacheStats::default(),
        ..summary
    }
}

/// The per-layer serving outputs of one streaming summary.
pub fn serving_layers(report: &mut Report, s: &ServingSummary) {
    report.set("serving.batches", s.batches as f64);
    report.set(
        "serving.requests_per_batch",
        ratio(s.requests as f64, s.batches as f64),
    );
    report.set("serving.sim_p50_ms", s.latency.p50 * 1e3);
    report.set("serving.sim_p99_ms", s.latency.p99 * 1e3);
    report.set("serving.sim_queue_ms", s.mean_queueing_delay * 1e3);
    report.set("serving.miss_rate", s.sla_miss_rate());
}

struct State {
    scenario: ServingScenario,
    cache: PlanCache,
    scratch: ServingScratch,
    cold: ServingSummary,
    gen_s: f64,
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let cluster = presets::paper_cluster();
    let tracer = &config.tracer;
    let planner = TimedPlanner::new(tracer);

    let (mut state, setup_s, setups) = config.setup(|| {
        let (requests, gen_s) = tracer.span("workloads.gen", || {
            diurnal_trace(8.0, 24.0, REQUESTS, config.seed)
        });
        let scenario = edf_scenario("soak", requests);
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        let (cold, _) = tracer.span("serving.streaming", || {
            scenario.run_streaming_with_cache_in(
                planner.for_pass(config.traced()),
                &cluster,
                LEADER,
                &cache,
                &mut scratch,
            )
        });
        let cold = cold.map_err(|e| format!("cold pass: {e}"))?;
        Ok(State {
            scenario,
            cache,
            scratch,
            cold,
            gen_s,
        })
    })?;
    // One cold serving pass per set-up.
    report.ops(setups as u64);
    report.set("setup_s", setup_s);
    let cold = state.cold;
    report.check(cold.robustness.accounts_for_every_request(), || {
        format!("cold pass loses requests: {:?}", cold.robustness)
    });

    let (mut plain, mut traced_times, mut allocs) = (Vec::new(), Vec::new(), 0u64);
    let mut last = cold;
    let mut timed_calls = 0u64;
    let passes = config.timed_passes(|_, traced| {
        let State {
            scenario,
            cache,
            scratch,
            ..
        } = &mut state;
        let before = planner.totals();
        let ((summary, seconds), n) = counting_allocs(|| {
            tracer.span("serving.streaming", || {
                scenario.run_streaming_with_cache_in(
                    planner.for_pass(traced),
                    &cluster,
                    LEADER,
                    cache,
                    scratch,
                )
            })
        });
        let summary = summary.map_err(|e| format!("timed pass: {e}"))?;
        if traced {
            traced_times.push(seconds);
            allocs = allocs.max(n);
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
        report.check(summary.plan_cache.misses == 0 && timed_calls == 0, || {
            format!(
                "a warm soak pass planned: {} misses, {timed_calls} planner calls",
                summary.plan_cache.misses
            )
        });
        last = summary;
        Ok(())
    })?;
    report.ops(passes as u64);
    report.set("rps", cold.requests as f64 / median(&plain));

    report.note(format!(
        "digest: soak seed={} {:016x}",
        config.seed,
        digest(&simulated(cold))
    ));
    report.note(format!(
        "sim: requests={} batches={} p50_ms={} p99_ms={} queue_ms={} miss_rate={}",
        cold.requests,
        cold.batches,
        cold.latency.p50 * 1e3,
        cold.latency.p99 * 1e3,
        cold.mean_queueing_delay * 1e3,
        cold.sla_miss_rate()
    ));

    if config.traced() {
        let (graphs, graph_us) = time_graphs(tracer, &MIX, MAX_BATCH);
        let probe_ns = warm_probe_ns(
            tracer,
            &state.cache,
            &planner.inner,
            &cluster,
            LEADER,
            &graphs,
        )
        .map_err(|e| format!("warm probe: {e}"))?;
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
        report.set("plan_cache.probe_ns", probe_ns);
        report.set("serving.calls", 1.0);
        report.set("serving.pass_s", median(&traced_times));
        report.set("serving.allocs", allocs as f64);
        serving_layers(report, &cold);
        report.set(
            "trace.overhead_pct",
            (median(&traced_times) / median(&plain) - 1.0) * 100.0,
        );
    }
    Ok(())
}

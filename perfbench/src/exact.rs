//! `exact`: a below-capacity diurnal trace through records mode
//! (`ServingScenario::run_with_cache_in`), whose completions come from the
//! event engine, and once through streaming mode, whose completions come
//! from the dispatch estimator. Below capacity is where the two disagree
//! most, so this is where the estimator's error is measured.

use crate::probe::{
    counting_allocs, digest, median, ratio, time_graphs, warm_probe_ns, TimedPlanner,
};
use crate::soak::{diurnal_trace, edf_scenario, serving_layers, simulated, MAX_BATCH, MIX};
use crate::{Config, Report};
use hidp_bench::LEADER;
use hidp_core::{
    DistributedStrategy, PlanCache, PlanKey, ServingEvaluation, ServingScenario, ServingScratch,
    ServingSummary, TraceDetail,
};
use hidp_platform::{presets, Cluster};
use hidp_sim::{simulate_admitted_stream_in, ExecutionPlan, SimScratch};
use std::collections::HashMap;
use std::sync::Arc;

const REQUESTS: usize = 100_000;

struct State {
    scenario: ServingScenario,
    cache: PlanCache,
    scratch: ServingScratch,
    stream_scratch: ServingScratch,
    records: ServingEvaluation,
    streaming: ServingSummary,
    gen_s: f64,
}

/// `(arrival, admitted, plan)` per admitted batch of a records pass, with
/// plans read back from the warm cache: the input the records pass handed
/// to the event engine.
fn admitted_stream(
    state: &State,
    strategy: &dyn DistributedStrategy,
    cluster: &Cluster,
) -> Result<Vec<(f64, f64, Arc<ExecutionPlan>)>, String> {
    let requests = state.scenario.requests();
    let mut key = PlanKey::for_run(strategy, cluster, LEADER);
    let mut graphs = HashMap::new();
    let mut stream = Vec::with_capacity(state.records.admissions.len());
    for batch in &state.records.admissions {
        let head = &requests[batch.members[0]];
        let combined = head.batch * batch.members.len();
        let graph = graphs
            .entry((head.model, combined))
            .or_insert_with(|| head.model.graph(combined));
        key.graph_fingerprint = graph.fingerprint();
        key.batch = graph.input_shape().batch();
        let (plan, hit) = state
            .cache
            .plan_keyed(&key, strategy, graph, cluster, LEADER)
            .map_err(|e| format!("replay plan: {e}"))?;
        if !hit {
            return Err(format!(
                "replay plan for {:?} x{combined} was not cached",
                head.model
            ));
        }
        stream.push((head.arrival, batch.admitted, plan));
    }
    Ok(stream)
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let cluster = presets::paper_cluster();
    let tracer = &config.tracer;
    let planner = TimedPlanner::new(tracer);

    let (mut state, setup_s, setups) = config.setup(|| {
        // Peak 16 req/s stays under the ~18 req/s the paper cluster serves
        // this mix at, so queues stay short and the engine's backfilling
        // matters.
        let (requests, gen_s) = tracer.span("workloads.gen", || {
            diurnal_trace(6.0, 16.0, REQUESTS, config.seed)
        });
        let scenario = edf_scenario("exact", requests).with_trace_detail(TraceDetail::Summary);
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        let mut stream_scratch = ServingScratch::new();
        let s = planner.for_pass(config.traced());
        let (records, _) = tracer.span("serving.records", || {
            scenario.run_with_cache_in(s, &cluster, LEADER, &cache, &mut scratch)
        });
        let records = records.map_err(|e| format!("cold records pass: {e}"))?;
        let (streaming, _) = tracer.span("serving.streaming", || {
            scenario.run_streaming_with_cache_in(s, &cluster, LEADER, &cache, &mut stream_scratch)
        });
        let streaming = streaming.map_err(|e| format!("cold streaming pass: {e}"))?;
        Ok(State {
            scenario,
            cache,
            scratch,
            stream_scratch,
            records,
            streaming,
            gen_s,
        })
    })?;
    // A cold records pass and a cold streaming pass per set-up.
    report.ops(2 * setups as u64);
    report.set("setup_s", setup_s);
    report.check(
        state.records.robustness.accounts_for_every_request(),
        || {
            format!(
                "records pass loses requests: {:?}",
                state.records.robustness
            )
        },
    );
    report.check(
        state.streaming.robustness.accounts_for_every_request(),
        || {
            format!(
                "streaming pass loses requests: {:?}",
                state.streaming.robustness
            )
        },
    );

    let stream = admitted_stream(&state, &planner.inner, &cluster)?;
    let tasks: usize = stream.iter().map(|(_, _, plan)| plan.len()).sum();
    let mut sim = SimScratch::new();
    let (mut plain, mut records_s, mut replay_s, mut streaming_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut engine_allocs, mut serving_allocs) = (0u64, 0u64);
    let mut cache_stats = None;
    let passes = config.timed_passes(|_, traced| {
        let (pass, seconds) = tracer.span("serving.records", || {
            state.scenario.run_with_cache_in(
                planner.for_pass(traced),
                &cluster,
                LEADER,
                &state.cache,
                &mut state.scratch,
            )
        });
        let mut pass = pass.map_err(|e| format!("timed records pass: {e}"))?;
        cache_stats = pass.evaluation.plan_cache;
        pass.evaluation.plan_cache = state.records.evaluation.plan_cache;
        report.check(pass == state.records, || {
            "a timed records pass differs from the cold pass".to_string()
        });
        if !traced {
            plain.push(seconds);
            return Ok(());
        }
        records_s.push(seconds);
        let ((replay, seconds), allocs) = counting_allocs(|| {
            tracer.span("engine.replay", || {
                simulate_admitted_stream_in(&mut sim, &stream, &cluster, TraceDetail::Summary)
                    .map(|r| r.makespan)
            })
        });
        let makespan = replay.map_err(|e| format!("engine replay: {e}"))?;
        report.check(
            makespan.to_bits() == state.records.evaluation.makespan.to_bits(),
            || {
                format!(
                    "engine replay makespan {makespan} differs from the records pass's {}",
                    state.records.evaluation.makespan
                )
            },
        );
        replay_s.push(seconds);
        engine_allocs = engine_allocs.max(allocs);
        let ((summary, seconds), allocs) = counting_allocs(|| {
            tracer.span("serving.streaming", || {
                state.scenario.run_streaming_with_cache_in(
                    &planner,
                    &cluster,
                    LEADER,
                    &state.cache,
                    &mut state.stream_scratch,
                )
            })
        });
        let summary = summary.map_err(|e| format!("timed streaming pass: {e}"))?;
        report.check(simulated(summary) == simulated(state.streaming), || {
            "a timed streaming pass differs from the cold pass".to_string()
        });
        streaming_s.push(seconds);
        serving_allocs = serving_allocs.max(allocs);
        report.ops(2);
        Ok(())
    })?;
    report.ops(passes as u64);
    report.set("rps", REQUESTS as f64 / median(&plain));

    // The untraced run replays once, outside the timed passes, so the
    // engine check holds there too.
    if replay_s.is_empty() {
        let replay = simulate_admitted_stream_in(&mut sim, &stream, &cluster, TraceDetail::Summary)
            .map_err(|e| format!("engine replay: {e}"))?;
        let makespan = replay.makespan;
        report.ops(1);
        report.check(
            makespan.to_bits() == state.records.evaluation.makespan.to_bits(),
            || {
                format!(
                    "engine replay makespan {makespan} differs from the records pass's {}",
                    state.records.evaluation.makespan
                )
            },
        );
    }

    let records = &state.records;
    let streaming = &state.streaming;
    let exact = records.serving.latency;
    let p50_err = ratio((streaming.latency.p50 - exact.p50).abs(), exact.p50);
    let p99_err = ratio((streaming.latency.p99 - exact.p99).abs(), exact.p99);
    report.note(format!(
        "digest: exact seed={} {:016x}",
        config.seed,
        digest(&(
            records.evaluation.makespan,
            records.evaluation.total_energy,
            &records.serving,
            &records.evaluation.latencies,
            simulated(*streaming),
        ))
    ));
    report.note(format!(
        "sim: requests={REQUESTS} batches={} records_p50_ms={} records_p99_ms={} streaming_p50_ms={} streaming_p99_ms={} stream_p50_err={p50_err} stream_p99_err={p99_err}",
        records.admissions.len(),
        exact.p50 * 1e3,
        exact.p99 * 1e3,
        streaming.latency.p50 * 1e3,
        streaming.latency.p99 * 1e3,
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
        let cache = cache_stats.unwrap_or_default();
        report.set("workloads.gen_s", state.gen_s);
        report.set("workloads.requests", REQUESTS as f64);
        report.set("dnn.graph_us", graph_us);
        report.set("dnn.graphs", graphs.len() as f64);
        report.set("planner.search_us", totals.search_us());
        report.set("planner.lower_us", totals.lower_us());
        report.set("plan_cache.hits", cache.hits as f64);
        report.set("plan_cache.misses", cache.misses as f64);
        report.set("plan_cache.hit_ratio", cache.hit_rate());
        report.set("plan_cache.probe_ns", probe_ns);
        report.set("serving.calls", 2.0);
        report.set("serving.pass_s", median(&streaming_s));
        report.set("serving.allocs", serving_allocs as f64);
        serving_layers(report, streaming);
        report.set("stream_p50_err", p50_err);
        report.set("stream_p99_err", p99_err);
        report.set("admission.s", median(&records_s) - median(&replay_s));
        report.set("engine.calls", 1.0);
        report.set("engine.replay_s", median(&replay_s));
        report.set("engine.tasks", tasks as f64);
        report.set("engine.ns_per_task", median(&replay_s) * 1e9 / tasks as f64);
        report.set("engine.allocs", engine_allocs as f64);
        report.set(
            "trace.overhead_pct",
            (median(&records_s) / median(&plain) - 1.0) * 100.0,
        );
    }
    Ok(())
}

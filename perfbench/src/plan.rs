//! `plan`: cold-plans every (zoo model × batch 1–8 × leader × availability
//! subset containing the leader) key of the paper cluster through a fresh
//! `PlanCache` per pass, re-probes every key warm, and simulates every plan
//! once. The planner and the cache's miss/insert path do the work; no
//! serving loop or admitted-stream engine call is made.
//!
//! The seed only shuffles the order the keys are planned and inserted in:
//! every seed does the same work, so runs at different seeds compare.

use crate::probe::{digest, geomean, median, quantile, time_graphs, TimedPlanner, Tracer};
use crate::{Config, Report};
use hidp_core::{DistributedStrategy, PlanCache, PlanCacheStats, PlanKey};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::{presets, Cluster, NodeIndex};
use hidp_sim::{simulate, ExecutionPlan};
use std::sync::Arc;

const MAX_BATCH: usize = 8;

struct Key {
    /// Position in the unshuffled sweep order.
    index: usize,
    key: PlanKey,
    graph: usize,
    cluster: usize,
    leader: NodeIndex,
}

struct State {
    graphs: Vec<DnnGraph>,
    clusters: Vec<Cluster>,
    keys: Vec<Key>,
    /// Simulated (makespan, energy) per key from the set-up's cold sweep.
    reference: Vec<(f64, f64)>,
    gen_s: f64,
    graph_us: f64,
}

/// One sweep over every key.
struct Sweep {
    /// Host seconds of each cold `plan_keyed` miss.
    miss_s: Vec<f64>,
    /// Host seconds of the whole cold loop.
    cold_s: f64,
    /// Host seconds of the warm re-probe loop.
    probe_s: f64,
    quality: Vec<(f64, f64)>,
    cache: PlanCacheStats,
}

/// A seeded Fisher-Yates shuffle (splitmix64 draws).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Every availability subset of the paper cluster that contains each
/// leader: `(leader, cluster)` pairs.
fn clusters() -> Result<Vec<(NodeIndex, Cluster)>, String> {
    let base = presets::paper_cluster();
    let n = base.len();
    let mut out = Vec::with_capacity(n << (n - 1));
    for leader in 0..n {
        for mask in 0..1u32 << n {
            if mask & (1 << leader) == 0 {
                continue;
            }
            let mut cluster = base.clone();
            for node in (0..n).filter(|&node| mask & (1 << node) == 0) {
                cluster
                    .set_available(NodeIndex(node), false)
                    .map_err(|e| format!("availability: {e}"))?;
            }
            out.push((NodeIndex(leader), cluster));
        }
    }
    Ok(out)
}

fn sweep(
    state: &State,
    strategy: &dyn DistributedStrategy,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Sweep, String> {
    let cache = PlanCache::new();
    let mut miss_s = Vec::with_capacity(state.keys.len());
    let mut plans: Vec<Arc<ExecutionPlan>> = Vec::with_capacity(state.keys.len());
    let mut all_missed = true;
    let (result, cold_s) = tracer.span("plan.cold", || {
        for k in &state.keys {
            let graph = &state.graphs[k.graph];
            let cluster = &state.clusters[k.cluster];
            let (planned, seconds) = tracer.span("plan_cache.miss", || {
                cache.plan_keyed(&k.key, strategy, graph, cluster, k.leader)
            });
            let (plan, hit) = planned?;
            all_missed &= !hit;
            miss_s.push(seconds);
            plans.push(plan);
        }
        Ok::<(), hidp_core::CoreError>(())
    });
    result.map_err(|e| format!("cold planning: {e}"))?;
    report.ops(state.keys.len() as u64);
    report.check(all_missed, || "a cold key hit a fresh cache".to_string());

    let (warm, probe_s) = tracer.span("plan_cache.probe", || {
        let mut same = true;
        for (k, plan) in state.keys.iter().zip(&plans) {
            let graph = &state.graphs[k.graph];
            let cluster = &state.clusters[k.cluster];
            let (warm, hit) = cache.plan_keyed(&k.key, strategy, graph, cluster, k.leader)?;
            same &= hit && Arc::ptr_eq(&warm, plan);
        }
        Ok::<bool, hidp_core::CoreError>(same)
    });
    let warm = warm.map_err(|e| format!("warm re-probe: {e}"))?;
    report.check(warm, || {
        "a warm re-probe missed or returned another plan".to_string()
    });

    let mut quality = Vec::with_capacity(plans.len());
    for (k, plan) in state.keys.iter().zip(&plans) {
        let cluster = &state.clusters[k.cluster];
        let report_sim = simulate(plan, cluster).map_err(|e| format!("simulate: {e}"))?;
        let energy = report_sim
            .total_energy(cluster)
            .map_err(|e| format!("energy: {e}"))?;
        let makespan = report_sim.makespan;
        report.check(
            makespan.is_finite() && makespan > 0.0 && energy.is_finite() && energy > 0.0,
            || format!("plan {:?} simulates to {makespan} s, {energy} J", k.key),
        );
        quality.push((makespan, energy));
    }
    Ok(Sweep {
        miss_s,
        cold_s,
        probe_s,
        quality,
        cache: cache.stats(),
    })
}

/// The timed planner must return exactly what the bare strategy returns.
fn check_planner(state: &State, planner: &TimedPlanner, report: &mut Report) {
    for k in state.keys.iter().step_by(97) {
        let graph = &state.graphs[k.graph];
        let cluster = &state.clusters[k.cluster];
        let a = planner.plan(graph, cluster, k.leader);
        let b = planner.inner.plan(graph, cluster, k.leader);
        report.ops(2);
        report.check(a == b, || {
            format!("the timed planner diverges on {:?}", k.key)
        });
    }
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let tracer = &config.tracer;
    let planner = TimedPlanner::new(tracer);

    let (state, setup_s, _) = config.setup(|| {
        let (variants, gen_s) = tracer.span("workloads.gen", clusters);
        let variants = variants?;
        let (graphs, graph_us) = time_graphs(tracer, &WorkloadModel::ALL, MAX_BATCH);
        let mut keys = Vec::with_capacity(variants.len() * graphs.len());
        let mut clusters = Vec::with_capacity(variants.len());
        for (c, (leader, cluster)) in variants.into_iter().enumerate() {
            for (g, graph) in graphs.iter().enumerate() {
                keys.push(Key {
                    index: keys.len(),
                    key: PlanKey::new(&planner.inner, graph, &cluster, leader),
                    graph: g,
                    cluster: c,
                    leader,
                });
            }
            clusters.push(cluster);
        }
        shuffle(&mut keys, config.seed);
        let mut state = State {
            graphs,
            clusters,
            keys,
            reference: Vec::new(),
            gen_s,
            graph_us,
        };
        state.reference = sweep(&state, planner.for_pass(config.traced()), tracer, report)?.quality;
        Ok(state)
    })?;
    report.set("setup_s", setup_s);

    let (mut plain, mut traced_cold, mut traced_probe) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99, mut overhead_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_calls = 0u64;
    let mut busy_s = 0.0;
    let mut cache = PlanCacheStats::default();
    let passes = config.timed_passes(|_, traced| {
        let before = planner.totals();
        let pass = sweep(&state, planner.for_pass(traced), tracer, report)?;
        report.check(pass.quality == state.reference, || {
            "a timed sweep simulates differently from the cold sweep".to_string()
        });
        if traced {
            let spent = planner.totals().since(&before);
            timed_calls = spent.calls;
            cache = pass.cache;
            busy_s = spent.busy_s();
            traced_cold.push(pass.cold_s);
            traced_probe.push(pass.probe_s);
            let misses: f64 = pass.miss_s.iter().sum();
            overhead_us.push((misses - spent.busy_s()) * 1e6 / spent.calls.max(1) as f64);
        } else {
            plain.push(pass.cold_s);
            p50.push(quantile(&pass.miss_s, 0.5) * 1e6);
            p99.push(quantile(&pass.miss_s, 0.99) * 1e6);
        }
        Ok(())
    })?;
    report.ops(passes as u64);
    let keys = state.keys.len() as f64;
    report.set("rps", keys / median(&plain));

    // Simulated outputs in the unshuffled key order, so they read the same
    // at every seed.
    let mut canonical = vec![(0.0, 0.0); state.keys.len()];
    for (k, &q) in state.keys.iter().zip(&state.reference) {
        canonical[k.index] = q;
    }
    let makespans: Vec<f64> = canonical.iter().map(|q| q.0).collect();
    let energies: Vec<f64> = canonical.iter().map(|q| q.1).collect();
    let (latency_ms, energy_j) = (geomean(&makespans) * 1e3, geomean(&energies));
    report.note(format!(
        "digest: plan seed={} {:016x}",
        config.seed,
        digest(&canonical)
    ));
    report.note(format!(
        "sim: keys={} plan_latency_ms={latency_ms} plan_energy_j={energy_j} plan_us_p50={} plan_us_p99={}",
        state.keys.len(),
        median(&p50),
        median(&p99)
    ));

    if config.traced() {
        check_planner(&state, &planner, report);
        let totals = planner.totals();
        report.set("workloads.gen_s", state.gen_s);
        report.set("workloads.requests", keys);
        report.set("dnn.graph_us", state.graph_us);
        report.set("dnn.graphs", state.graphs.len() as f64);
        report.set("planner.calls", timed_calls as f64);
        report.set("planner.busy_s", busy_s);
        report.set("planner.search_us", totals.search_us());
        report.set("planner.lower_us", totals.lower_us());
        report.set("plan_us_p50", median(&p50));
        report.set("plan_us_p99", median(&p99));
        report.set("plan_latency_ms", latency_ms);
        report.set("plan_energy_j", energy_j);
        report.set("plan_cache.hits", cache.hits as f64);
        report.set("plan_cache.misses", cache.misses as f64);
        report.set("plan_cache.hit_ratio", cache.hit_rate());
        report.set("plan_cache.probe_ns", median(&traced_probe) * 1e9 / keys);
        report.set("plan_cache.miss_overhead_us", median(&overhead_us));
        report.set(
            "trace.overhead_pct",
            (median(&traced_cold) / median(&plain) - 1.0) * 100.0,
        );
    }
    Ok(())
}

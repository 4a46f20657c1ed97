//! Outside-in instrumentation: spans recorded around calls into the
//! workspace's public functions, a planner wrapper that splits planning
//! into search and lowering, and the small statistics the report needs.
//!
//! Everything here runs in the benchmark's own code; nothing is threaded
//! into the crates under test.

use hidp_bench::alloc_count::allocations_on_this_thread;
use hidp_core::{CoreError, DistributedStrategy, HidpStrategy, PlanCache, PlanKey};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex};
use hidp_sim::ExecutionPlan;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call: `parent` is the enclosing pass span, and every span
/// of one pass carries that pass's number.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub pass: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. When disabled it records nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    traced: bool,
    recording: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    /// The open pass span, read by spans recorded on sweep worker threads.
    current: AtomicU32,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Spans not kept because [`MAX_SPANS`] were already recorded.
    dropped: AtomicU64,
}

const NO_SPAN: u32 = u32::MAX;

/// Spans kept per run: enough for every pass of the serving workloads and
/// the first traced passes of `plan`, which records three spans per key.
const MAX_SPANS: usize = 1 << 17;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            traced: enabled,
            recording: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            current: AtomicU32::new(NO_SPAN),
            pass: AtomicU32::new(0),
            // Reserved up front so recording a span on the measured path
            // does not grow the vector in the common case.
            spans: Mutex::new(Vec::with_capacity(if enabled { MAX_SPANS } else { 0 })),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Pauses or resumes recording in a traced run (an untraced run never
    /// records), so one run can time the same pass with and without spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(self.traced && on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) {
        let span = Span {
            id,
            parent: (parent != NO_SPAN).then_some(parent),
            pass: self.pass.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
        };
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `f` as pass number `pass`: spans recorded inside it (on any
    /// thread) take this pass span as parent. Returns `f`'s value and its
    /// wall time in seconds, which is measured whether or not tracing is on.
    pub fn pass<T>(&self, name: &'static str, pass: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.pass.store(pass, Ordering::Relaxed);
        self.current.store(id, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        self.current.store(NO_SPAN, Ordering::Relaxed);
        if self.recording() {
            self.push(name, id, NO_SPAN, start_ns, self.now_ns());
        }
        (value, seconds)
    }

    /// Runs `f` as a child span of the open pass and returns its value and
    /// wall time in seconds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        if self.recording() {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = self.current.load(Ordering::Relaxed);
            self.push(name, id, parent, start_ns, self.now_ns());
        }
        (value, seconds)
    }

    /// Spans not kept because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The recorded spans as a JSON array, one object per span.
    pub fn spans_json(&self) -> String {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"pass\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                parent,
                s.pass,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Runs `f` and returns its value with the heap allocations it made on the
/// calling thread (the definition `tests/zero_alloc_warm_path.rs` enforces).
pub fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations_on_this_thread();
    let value = f();
    (value, allocations_on_this_thread() - before)
}

/// Planner counters, shared by every thread that plans.
#[derive(Default)]
struct PlannerStats {
    calls: AtomicU64,
    search_ns: AtomicU64,
    lower_ns: AtomicU64,
}

/// A snapshot of the planner counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlannerTotals {
    pub calls: u64,
    pub search_s: f64,
    pub lower_s: f64,
}

impl PlannerTotals {
    pub fn busy_s(&self) -> f64 {
        self.search_s + self.lower_s
    }

    pub fn since(&self, earlier: &PlannerTotals) -> PlannerTotals {
        PlannerTotals {
            calls: self.calls - earlier.calls,
            search_s: self.search_s - earlier.search_s,
            lower_s: self.lower_s - earlier.lower_s,
        }
    }

    /// Mean search time per call, microseconds.
    pub fn search_us(&self) -> f64 {
        ratio(self.search_s * 1e6, self.calls as f64)
    }

    /// Mean lowering time per call, microseconds.
    pub fn lower_us(&self) -> f64 {
        ratio(self.lower_s * 1e6, self.calls as f64)
    }
}

/// The HiDP planner with its two phases timed: `HidpStrategy::hierarchical_plan`
/// (the DP/DSE search) and `HidpStrategy::lower`. `name`, `cache_config` and
/// `write_cache_config` delegate, so plan-cache keys are those of the bare
/// strategy.
pub struct TimedPlanner<'a> {
    pub inner: HidpStrategy,
    stats: PlannerStats,
    tracer: &'a Tracer,
}

impl<'a> TimedPlanner<'a> {
    pub fn new(tracer: &'a Tracer) -> Self {
        Self {
            inner: HidpStrategy::new(),
            stats: PlannerStats::default(),
            tracer,
        }
    }

    /// The strategy a pass plans with: this wrapper when the pass is
    /// traced, the bare HiDP strategy otherwise. Both make the same plans
    /// under the same cache keys.
    pub fn for_pass(&self, traced: bool) -> &dyn DistributedStrategy {
        if traced {
            self
        } else {
            &self.inner
        }
    }

    pub fn totals(&self) -> PlannerTotals {
        PlannerTotals {
            calls: self.stats.calls.load(Ordering::Relaxed),
            search_s: self.stats.search_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            lower_s: self.stats.lower_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl DistributedStrategy for TimedPlanner<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cache_config(&self) -> String {
        self.inner.cache_config()
    }

    fn write_cache_config(&self, out: &mut String) {
        self.inner.write_cache_config(out);
    }

    fn plan(
        &self,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<ExecutionPlan, CoreError> {
        // The same three steps as `HidpStrategy::plan`; `plan::check_planner`
        // pins the result to the bare strategy's.
        let (hierarchical, search_s) = self.tracer.span("planner.search", || {
            self.inner.hierarchical_plan(graph, cluster, leader)
        });
        let hierarchical = hierarchical?;
        let (exec, lower_s) = self.tracer.span("planner.lower", || {
            self.inner
                .lower(&hierarchical, cluster, leader, graph.gpu_affinity())
        });
        exec.validate()?;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .search_ns
            .fetch_add((search_s * 1e9) as u64, Ordering::Relaxed);
        self.stats
            .lower_ns
            .fetch_add((lower_s * 1e9) as u64, Ordering::Relaxed);
        Ok(exec)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by nearest rank on a sorted copy (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of positive `values` (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over the `Debug` rendering of simulated outputs. `f64`'s `Debug`
/// form round-trips exactly, so equal digests mean bit-identical values.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Builds the graph of every `(model, batch)` pair through
/// `WorkloadModel::graph`, one span each, and returns the graphs with the
/// mean build time in microseconds.
pub fn time_graphs(
    tracer: &Tracer,
    models: &[WorkloadModel],
    max_batch: usize,
) -> (Vec<DnnGraph>, f64) {
    let mut graphs = Vec::with_capacity(models.len() * max_batch);
    let mut total = 0.0;
    for &model in models {
        for batch in 1..=max_batch {
            let (graph, seconds) = tracer.span("dnn.graph", || model.graph(batch));
            graphs.push(graph);
            total += seconds;
        }
    }
    let mean_us = ratio(total * 1e6, graphs.len() as f64);
    (graphs, mean_us)
}

/// Mean host time of a warm `PlanCache::plan_keyed` hit, in nanoseconds,
/// over the `graphs` whose keys `cache` already holds (one warm-up probe
/// per graph decides which; a probe that misses plans and is left out).
pub fn warm_probe_ns(
    tracer: &Tracer,
    cache: &PlanCache,
    strategy: &dyn DistributedStrategy,
    cluster: &Cluster,
    leader: NodeIndex,
    graphs: &[DnnGraph],
) -> Result<f64, CoreError> {
    let mut key = PlanKey::for_run(strategy, cluster, leader);
    let mut held = Vec::new();
    for graph in graphs {
        key.graph_fingerprint = graph.fingerprint();
        key.batch = graph.input_shape().batch();
        if cache.plan_keyed(&key, strategy, graph, cluster, leader)?.1 {
            held.push((graph, graph.fingerprint(), key.batch));
        }
    }
    if held.is_empty() {
        return Ok(0.0);
    }
    const PROBES: usize = 100_000;
    let rounds = PROBES.div_ceil(held.len());
    let (result, seconds) = tracer.span("plan_cache.probe", || {
        for _ in 0..rounds {
            for &(graph, fingerprint, batch) in &held {
                key.graph_fingerprint = fingerprint;
                key.batch = batch;
                std::hint::black_box(cache.plan_keyed(&key, strategy, graph, cluster, leader)?);
            }
        }
        Ok::<(), CoreError>(())
    });
    result?;
    Ok(seconds * 1e9 / (rounds * held.len()) as f64)
}

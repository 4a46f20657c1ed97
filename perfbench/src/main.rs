//! The HiDP repository benchmark: four deterministic trace replays through
//! the public entry points of `hidp_core` and `hidp_sim`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <soak|fleet|exact|plan|all> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics and writes its spans under
//! `perfbench/out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod exact;
mod fleet;
mod plan;
mod probe;
mod soak;

use hidp_bench::alloc_count::CountingAllocator;
use probe::{median, Tracer};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Workloads, with the reason each one exists.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "soak",
        "1M-request diurnal trace on the paper cluster: the streaming serving loop does the work, the plan cache serves warm hits only",
    ),
    (
        "fleet",
        "1M-request regional trace on 64 clusters with seeded faults and drift: routing, rounds, recovery and re-planning do the work",
    ),
    (
        "exact",
        "below-capacity trace in records mode: the event engine does the work, and the streaming estimator's error is measured",
    ),
    (
        "plan",
        "cold planning of every model, batch, leader and availability key: the DP planner and the plan cache's miss path do the work",
    ),
];

/// End-to-end metrics: name, unit, better, bound (share of the parent's
/// median by which the metric may worsen).
const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("setup_s", "s", "lower", 0.25),
    ("rps", "req/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Per-layer metrics of the traced run: name, unit, better. Layers a
/// workload bypasses report 0.
const PER_LAYER: [(&str, &str, &str); 48] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.requests", "count", "higher"),
    ("dnn.graph_us", "us", "lower"),
    ("dnn.graphs", "count", "higher"),
    ("planner.calls", "count", "lower"),
    ("planner.busy_s", "s", "lower"),
    ("planner.search_us", "us", "lower"),
    ("planner.lower_us", "us", "lower"),
    ("plan_us_p50", "us", "lower"),
    ("plan_us_p99", "us", "lower"),
    ("plan_latency_ms", "ms", "lower"),
    ("plan_energy_j", "J", "lower"),
    ("plan_cache.hits", "count", "higher"),
    ("plan_cache.misses", "count", "lower"),
    ("plan_cache.hit_ratio", "ratio", "higher"),
    ("plan_cache.probe_ns", "ns", "lower"),
    ("plan_cache.miss_overhead_us", "us", "lower"),
    ("serving.calls", "count", "lower"),
    ("serving.pass_s", "s", "lower"),
    ("serving.batches", "count", "lower"),
    ("serving.requests_per_batch", "req/batch", "higher"),
    ("serving.allocs", "count", "lower"),
    ("serving.sim_p50_ms", "ms", "lower"),
    ("serving.sim_p99_ms", "ms", "lower"),
    ("serving.sim_queue_ms", "ms", "lower"),
    ("serving.miss_rate", "ratio", "lower"),
    ("stream_p50_err", "ratio", "lower"),
    ("stream_p99_err", "ratio", "lower"),
    ("admission.s", "s", "lower"),
    ("engine.calls", "count", "lower"),
    ("engine.replay_s", "s", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.ns_per_task", "ns", "lower"),
    ("engine.allocs", "count", "lower"),
    ("fleet.pass_s", "s", "lower"),
    ("fleet.thread_speedup", "ratio", "higher"),
    ("fleet.busiest_share", "ratio", "lower"),
    ("fleet.sim_wan_ms", "ms", "lower"),
    ("fleet.sim_queue_ms", "ms", "lower"),
    ("recovery.killed", "count", "lower"),
    ("recovery.retried", "count", "lower"),
    ("recovery.aborted", "count", "lower"),
    ("recovery.lost", "count", "lower"),
    ("recovery.completed_ratio", "ratio", "higher"),
    ("adaptive.observations", "count", "lower"),
    ("adaptive.replans", "count", "lower"),
    ("adaptive.cold_planner_calls", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Set-ups per run, at least; `setup_s` is their median. Short set-ups
/// repeat until [`SETUP_SECONDS`] are spent, up to [`MAX_SETUPS`].
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 15;

/// Timed passes per run, at least, however long they take.
const MIN_PASSES: usize = 3;

/// What one workload run is asked to do.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Sweep threads for the fleet (`available_parallelism`).
    pub threads: usize,
}

impl Config {
    pub fn traced(&self) -> bool {
        self.tracer.traced()
    }

    /// Builds the workload at least [`SETUPS`] times, dropping each build
    /// before the next, and returns the last one with the median set-up
    /// time and the number of set-ups. A traced run records the set-ups as
    /// the first passes.
    pub fn setup<T>(
        &self,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64, usize), String> {
        let start = Instant::now();
        let mut times = Vec::with_capacity(MAX_SETUPS);
        let mut state = None;
        while times.len() < SETUPS
            || (times.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            drop(state.take());
            let (built, seconds) = self.tracer.pass("setup", times.len() as u32, &mut build);
            state = Some(built?);
            times.push(seconds);
        }
        let n = times.len();
        Ok((state.expect("SETUPS > 0"), median(&times), n))
    }

    /// Runs `pass(i, traced)` until the run's seconds are spent, and at
    /// least [`MIN_PASSES`] times. In a traced run odd passes record spans
    /// and even ones do not, so the run measures its own tracing overhead;
    /// an untraced run never records.
    pub fn timed_passes(
        &self,
        mut pass: impl FnMut(usize, bool) -> Result<(), String>,
    ) -> Result<usize, String> {
        let start = Instant::now();
        let mut n = 0;
        while n < MIN_PASSES.max(2 * usize::from(self.traced()))
            || start.elapsed().as_secs_f64() < self.seconds
        {
            let traced = self.traced() && n % 2 == 1;
            self.tracer.set_recording(traced);
            let (result, seconds) = self
                .tracer
                .pass("pass", (MAX_SETUPS + n) as u32, || pass(n, traced));
            result?;
            eprintln!(
                "pass {n}{}: {seconds:.4} s",
                if traced { " (traced)" } else { "" }
            );
            n += 1;
        }
        self.tracer.set_recording(true);
        Ok(n)
    }
}

/// Metrics and operation accounting of one run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts `n` operations that succeeded (simulator calls, passes).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one correctness check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// A line printed before the metrics (digests, simulated outputs).
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// The host record: numbers from different hosts are never compared.
fn host_record() -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let output = |cmd: &mut Command| {
        cmd.stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let rustc = output(Command::new("rustc").arg("--version"));
    let commit =
        output(Command::new("git").args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"]));
    format!(
        "{{\"available_parallelism\": {threads}, \"cpu_model\": \"{cpu}\", \"rustc\": \"{rustc}\", \"commit\": \"{commit}\"}}"
    )
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seed a workload uses when `--seed` is absent: 42 for traces (the
/// fleet derives its fault and drift seeds from it), as the recorded
/// `BENCH_*.json` experiments do.
const DEFAULT_SEED: u64 = 42;

fn run_workload(name: &str, config: &Config, report: &mut Report) -> Result<(), String> {
    match name {
        "soak" => soak::run(config, report),
        "fleet" => fleet::run(config, report),
        "exact" => exact::run(config, report),
        "plan" => plan::run(config, report),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Prints the run's notes, metrics and final JSON line; returns whether the
/// run was correct.
fn print_result(report: &mut Report, trace: bool) -> bool {
    for line in &report.lines {
        println!("{line}");
    }
    let wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            report.check(false, || format!("metric {name} is not finite ({value})"));
        }
        println!("metric {name} {} {unit}", json_number(value));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    correct
}

/// `BENCHMARK.json`, generated from the tables above.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": 20,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Runs every workload as its own process (so each reports its own peak
/// memory) and prints their metrics under `<workload>/<metric>`.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut fields = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("run_all is only called for --workload all");
        child_args[at] = workload.to_string();
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{workload}: cannot run: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in &lines {
            println!("{line}");
            if let Some(rest) = line.strip_prefix("metric ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if let [name, value, unit] = parts[..] {
                    fields.push(format!(
                        "\"{workload}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    ));
                }
            }
        }
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        correct &= output.status.success() && last.starts_with("{\"correct\": true");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("{error}");
    eprintln!(
        "usage: perfbench --workload <soak|fleet|exact|plan|all> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --manifest"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&args);
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return usage(&format!("unknown workload {workload}"));
    }

    println!("host: {}", host_record());
    println!(
        "workload: {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    let config = Config {
        seed,
        seconds,
        tracer: Tracer::new(trace),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut report = Report::default();
    if let Err(e) = run_workload(&workload, &config, &mut report) {
        report.check(false, || format!("{workload}: {e}"));
    }
    report.set("peak_rss_mb", peak_rss_mb());
    if trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{workload}-seed{seed}.spans.json");
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(
                &path,
                format!(
                    "{{\"host\": {}, \"workload\": \"{workload}\", \"seed\": {seed}, \"dropped_spans\": {}, \"spans\": {}}}\n",
                    host_record(),
                    config.tracer.dropped(),
                    config.tracer.spans_json()
                ),
            )
        });
        if report.check(written.is_ok(), || {
            format!("cannot write {path}: {written:?}")
        }) {
            report.note(format!("spans: {path}"));
        }
    }
    if print_result(&mut report, trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Metric digests and the result line.

use std::collections::BTreeMap;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started (closed loop) or due (open loop).
    pub attempted: u64,
    /// Ops that errored, went unanswered or failed a correctness check,
    /// plus one per failed workload-level check.
    pub failed: u64,
    /// Latency of every op that completed correctly, in ms.
    pub latencies_ms: Vec<f64>,
    /// Closed-loop workloads repeat a fixed set of deterministic ops:
    /// the fastest correct latency of each op of the set, in ms, indexed
    /// by the op's place in the set. Empty for open-loop workloads.
    pub best_ms: Vec<f64>,
    /// Wall time of the timed phase, in s.
    pub elapsed_s: f64,
    /// The workload's latency limit, in ms.
    pub slo_ms: f64,
    /// Per-layer values; filled by traced phases only.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a correct op of a closed-loop workload: `index` is the
    /// op's place in the repeated set.
    pub fn record(&mut self, index: usize, ms: f64) {
        self.latencies_ms.push(ms);
        self.keep_best(index, ms);
    }

    fn keep_best(&mut self, index: usize, ms: f64) {
        if self.best_ms.len() <= index {
            self.best_ms.resize(index + 1, f64::INFINITY);
        }
        self.best_ms[index] = self.best_ms[index].min(ms);
    }

    /// Adds the ops of a later timed phase of the same workload.
    pub fn absorb(&mut self, later: Outcome) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.latencies_ms.extend(&later.latencies_ms);
        for (index, &ms) in later.best_ms.iter().enumerate() {
            self.keep_best(index, ms);
        }
        self.elapsed_s += later.elapsed_s;
        self.slo_ms = later.slo_ms;
    }

    /// Closed loop: one pass over the op set at each op's fastest
    /// latency, as ops per second. Open loop: correct replies per second
    /// of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        if self.best_ms.is_empty() {
            return self.wall_ops_per_s();
        }
        self.best_ms.len() as f64 / (self.best_ms.iter().sum::<f64>() / 1e3)
    }

    /// Closed loop: the median over the op set of each op's fastest
    /// latency. Open loop: the median latency of every reply.
    pub fn latency_p50_ms(&self) -> f64 {
        if self.best_ms.is_empty() {
            return median(&self.latencies_ms);
        }
        median(&self.best_ms)
    }

    /// Ops completed correctly per second of the timed phase, as a
    /// caller saw it.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed_s
    }

    /// Ops finished correctly within the limit over ops attempted: a
    /// failed op counts as a miss.
    pub fn slo_met_share(&self) -> f64 {
        let met = self
            .latencies_ms
            .iter()
            .filter(|&&l| l <= self.slo_ms)
            .count();
        met as f64 / self.attempted.max(1) as f64
    }
}

/// `q`-quantile by linear interpolation between closest ranks (0 for
/// an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A per-layer metric: name and unit.
pub type Layer = (&'static str, &'static str);

/// Every per-layer metric of the gated workloads, in `BENCHMARK.json`
/// order. A workload that does not exercise a layer reports 0 for its
/// metrics.
pub const LAYERS: &[Layer] = &[
    ("dse.search.worker_busy_share", "share"),
    ("dse.search.straggler_s", "s"),
    ("dse.search.finish_s", "s"),
    ("metrics.pareto_s", "s"),
    ("dse.cache.builds", "count"),
    ("dse.cache.hits", "count"),
    ("dse.cache.misses", "count"),
    ("dse.cache.disk_hits", "count"),
    ("dse.cache.dup_builds", "count"),
    ("dse.cache.useful_share", "share"),
    ("fabric.error_s", "s"),
    ("fabric.energy_s", "s"),
    ("fabric.sta_s", "s"),
    ("dse.assemble_s", "s"),
    ("sat.encode_ms", "ms"),
    ("sat.seed_eval_ms", "ms"),
    ("sat.search_ms", "ms"),
    ("sat.propagations_per_s", "1/s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.solves", "count"),
    ("sat.ascent_steps", "count"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.spans", "count"),
];

/// Per-layer metrics of `dse-8x8-warm` and `serve-mixed`, which are not
/// in `BENCHMARK.json` (see README.md); each is printed after [`LAYERS`]
/// when its workload measured it.
pub const UNGATED_LAYERS: &[Layer] = &[
    ("dse.store.load_s", "s"),
    ("dse.store.disk_reads", "count"),
    ("dse.store.hot_hits", "count"),
    ("netio.fingerprint_s", "s"),
    ("dse.cache.restore_other_s", "s"),
    ("serve.rtt_characterize_p50_us", "us"),
    ("serve.rtt_dse_query_p50_us", "us"),
    ("serve.rtt_lint_p50_us", "us"),
    ("serve.rtt_nn_classify_p50_us", "us"),
    ("serve.rtt_stats_p50_us", "us"),
    ("serve.rtt_p99_ms", "ms"),
    ("serve.rtt_p99_samples", "count"),
    ("serve.service.characterize_p50_us", "us"),
    ("serve.service.dse_query_p50_us", "us"),
    ("serve.service.lint_p50_us", "us"),
    ("serve.service.nn_classify_p50_us", "us"),
    ("serve.service.stats_p50_us", "us"),
    ("serve.transport_queue_p50_us", "us"),
    ("serve.service.lint_share", "share"),
    ("serve.proto.parse_us", "us"),
    ("serve.proto.render_us", "us"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.errors", "count"),
    ("serve.cache.builds", "count"),
];

/// The result line and the human-readable lines before it.
pub struct Result {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

/// End-to-end metrics of an untraced phase.
pub fn end_to_end(o: &Outcome, setup_s: &[f64]) -> Result {
    Result {
        attempted: o.attempted,
        failed: o.failed,
        metrics: vec![
            ("setup_s", median(setup_s), "s"),
            ("ops_per_s", o.ops_per_s(), "1/s"),
            ("latency_p50_ms", o.latency_p50_ms(), "ms"),
            ("slo_met_share", o.slo_met_share(), "share"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
        notes: vec![
            format!("setup runs (s): {setup_s:.4?}"),
            format!(
                "{} correct ops over {} distinct ops; latency limit {} ms; timed phase {:.3} s",
                o.latencies_ms.len(),
                o.best_ms.len(),
                o.slo_ms,
                o.elapsed_s
            ),
            format!(
                "wall clock: {:.4} ops/s, median latency {:.4} ms over {} samples",
                o.wall_ops_per_s(),
                median(&o.latencies_ms),
                o.latencies_ms.len()
            ),
        ],
    }
}

/// Per-layer metrics of a traced phase, plus tracing overhead against
/// the untraced phase that ran just before it.
pub fn per_layer(untraced: &Outcome, traced: &Outcome, spans: usize) -> Result {
    let mut layers = traced.layers.clone();
    layers.insert(
        "trace.overhead.ops_per_s",
        traced.ops_per_s() - untraced.ops_per_s(),
    );
    layers.insert(
        "trace.overhead.latency_p50_ms",
        traced.latency_p50_ms() - untraced.latency_p50_ms(),
    );
    layers.insert("trace.spans", spans as f64);
    let ungated = UNGATED_LAYERS
        .iter()
        .filter(|(n, _)| layers.contains_key(n));
    let names: Vec<Layer> = LAYERS.iter().chain(ungated).copied().collect();
    let unknown: Vec<_> = layers
        .keys()
        .filter(|k| !names.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(
        unknown.is_empty(),
        "layer metrics missing from LAYERS: {unknown:?}"
    );
    Result {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: names
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        notes: vec![format!(
            "untraced: {:.4} ops/s, p50 {:.4} ms; traced: {:.4} ops/s, p50 {:.4} ms",
            untraced.ops_per_s(),
            untraced.latency_p50_ms(),
            traced.ops_per_s(),
            traced.latency_p50_ms()
        )],
    }
}

impl Result {
    /// Prints one `name value unit` line per metric, then the JSON
    /// result as the last line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `nproc`, build profile, git revision and `rustc` version, as JSON.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"nproc\": {nproc}, \"profile\": \"{profile}\", \"git\": \"{git}\", \"rustc\": \"{}\"}}",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

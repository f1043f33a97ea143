//! Benchmark runner for the axmul workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse-8x8-cold|dse-8x8-warm|sat-wce|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, then sets up and
//! measures for `--seconds`, checking every operation's output.
//! `--trace 0` sets up five times, each followed by a fifth of the timed
//! phase, and prints the end-to-end metrics (`setup_s` is the median
//! set-up). `--trace 1` sets up once, spends half of `--seconds`
//! untraced and half traced, and prints the per-layer metrics plus the
//! tracing overhead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workload rationale and the layer → metric →
//! workload map.

mod dse;
mod report;
mod sat;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

/// Every workload the benchmark runs; `BENCHMARK.json` lists the gated
/// ones.
const WORKLOADS: [&str; 4] = ["dse-8x8-cold", "dse-8x8-warm", "sat-wce", "serve-mixed"];

/// How many times an untraced run sets up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Scratch directory for stores and trace files, inside the directory
/// the benchmark runs from.
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// The set-up state of one workload.
enum Workload {
    Dse(dse::DseBench),
    Sat(sat::SatBench),
    Serve(serve::ServeBench),
}

impl Workload {
    fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Self, String> {
        Ok(match name {
            "dse-8x8-cold" => Workload::Dse(dse::DseBench::setup(seed, false, scratch)?),
            "dse-8x8-warm" => Workload::Dse(dse::DseBench::setup(seed, true, scratch)?),
            "sat-wce" => Workload::Sat(sat::SatBench::setup(seed)?),
            "serve-mixed" => Workload::Serve(serve::ServeBench::setup(seed, scratch)?),
            _ => unreachable!("workload names are validated by parse_args"),
        })
    }

    /// Runs one timed phase, traced or not.
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        match self {
            Workload::Dse(w) => w.measure(seconds, tracer),
            Workload::Sat(w) => w.measure(seconds, tracer),
            Workload::Serve(w) => w.measure(seconds, tracer),
        }
    }
}

fn run(args: &Args) -> Result<report::Result, String> {
    let scratch = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = (|| {
        let setup = |rep: usize| {
            let rep_dir = scratch.join(format!("setup-{rep}"));
            let t0 = std::time::Instant::now();
            let state = Workload::setup(&args.workload, args.seed, &rep_dir)?;
            Ok::<_, String>((state, t0.elapsed().as_secs_f64()))
        };
        if !args.trace {
            // Set up SETUP_REPS times from scratch, each followed by an
            // equal share of the timed phase. Spreading the set-ups over
            // the run samples the host's fast and slow spells alike.
            let mut setup_s = Vec::with_capacity(SETUP_REPS);
            let mut untraced = Outcome::default();
            for rep in 0..SETUP_REPS {
                let (mut state, s) = setup(rep)?;
                setup_s.push(s);
                untraced.absorb(state.measure(args.seconds / SETUP_REPS as f64, None)?);
            }
            return Ok(report::end_to_end(&untraced, &setup_s));
        }
        // A traced run sets up once and splits its time between an
        // untraced and a traced phase, so it lasts as long as an
        // untraced run.
        let (mut state, _) = setup(0)?;
        let untraced = state.measure(args.seconds / 2.0, None)?;
        let tracer = Tracer::new();
        let traced = state.measure(args.seconds / 2.0, Some(&tracer))?;
        let trace_path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.len(),
            trace_path.display()
        );
        Ok(report::per_layer(&untraced, &traced, tracer.len()))
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    // Commit the removals now, so their journal writes do not land in
    // the next run's timed phase.
    if let Ok(dir) = std::fs::File::open(out_dir()) {
        let _ = dir.sync_all();
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("env: {}", report::environment());
            result.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

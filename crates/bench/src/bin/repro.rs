//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment>... [--quick]
//! repro sim-bench [--quick] [--json]
//! repro serve-bench [--quick] [--json]
//! repro absint [--quick] [--json]
//! repro netio [--quick] [--json]
//! repro sat [--quick] [--json]
//! repro ext-dse [--json]
//! repro ext-dse --cache-dir DIR
//! repro all
//! repro list
//! ```
//!
//! `--quick` switches experiments that have a smoke variant (currently
//! `nn`, `sim-bench`, `serve-bench`, `absint`, `netio` and `sat`) to
//! their reduced CI-friendly form. With `--json`, an experiment that
//! keeps a bench record prints the record instead of its report and
//! writes it to its file in the working directory: `sim-bench` to
//! `BENCH_sim.json`, `serve-bench` to `BENCH_serve.json`, `absint` to
//! `BENCH_absint.json`, `netio` to `BENCH_netio.json`, `sat` to
//! `BENCH_sat.json` and `ext-dse` (with the error/energy/STA
//! wall-clock split) to `BENCH_extdse.json`. `--cache-dir DIR` routes
//! `ext-dse` through the persistent characterization store rooted at
//! `DIR`, so a second run warm-starts with zero recharacterizations.

use std::process::ExitCode;

use axmul_bench::experiments::{self, *};
use Run::{Quick, Record, Text};

/// How an experiment runs.
enum Run {
    /// One report.
    Text(fn() -> String),
    /// A report with a reduced `--quick` form.
    Quick(fn(bool) -> String),
    /// A report and a bench record (taking `--quick`); `--json` prints
    /// the record and writes it to the named file.
    Record(fn(bool) -> (String, String), &'static str),
}

type Experiment = (&'static str, Run, &'static str);

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", Text(table1), "RS/JPEG encoders, DSP vs LUT"),
    ("fig1", Text(fig1), "ASIC vs FPGA gains of W and K"),
    ("table2", Text(table2), "error cases of the proposed 4x4"),
    ("table3", Text(table3), "published INIT values, verified"),
    ("table4", Text(table4), "area & latency of Ca/Cc"),
    ("table5", Text(table5), "8x8 error analysis"),
    ("fig7", Text(fig7), "area/latency/EDP gains"),
    ("fig8", Text(fig8), "bit accuracy + error PMFs"),
    ("fig9", Text(fig9), "Pareto: error vs area"),
    ("fig10", Text(fig10), "Pareto: error vs latency"),
    ("table6", Text(table6), "SUSAN PSNR (incl. swapped)"),
    ("fig12", Text(fig12), "SUSAN operand histogram"),
    ("susan-area", Text(susan_area), "accelerator-level area gain"),
    ("ablate-cc-depth", Text(ablate_cc_depth), "carry-free depth"),
    ("ablate-4x2-trunc", Text(ablate_4x2_trunc), "truncated bit choice"),
    ("ablate-elem", Text(ablate_elem), "elementary block choice"),
    ("ablate-swap", Text(ablate_swap), "operand orientation"),
    ("ablate-cfree-op", Text(ablate_cfree_op), "XOR vs OR columns"),
    ("ext-correction", Text(ext_correction), "switchable error correction"),
    ("ext-adders", Text(ext_adders), "approximate adder substrate"),
    ("ext-signed", Text(ext_signed), "signed operation"),
    ("ext-dse", Record(|_| ext_dse(), "BENCH_extdse.json"), "8x8 design-space exploration"),
    ("dse-scaling", Text(dse_scaling), "DSE worker-pool speedup"),
    ("nn", Quick(nn), "int8 NN accuracy on approx MACs"),
    ("lint", Text(lint_roster), "static-analysis gate over the roster"),
    ("sim-bench", Record(sim_bench, "BENCH_sim.json"), "compiled-simulator throughput vs the scalar oracle"),
    ("serve-bench", Record(serve_bench, "BENCH_serve.json"), "daemon load test, cold vs warm store"),
    ("serve-smoke", Text(serve_smoke), "daemon round-trip on a Unix socket"),
    ("absint", Record(absint, "BENCH_absint.json"), "sound static bounds vs exhaustive truth"),
    ("netio", Record(netio, "BENCH_netio.json"), "interchange byte fixpoint + import throughput"),
    ("sat", Record(sat, "BENCH_sat.json"), "SAT-proven exact wce + equivalence gate"),
];

fn usage() {
    eprintln!("usage: repro <experiment>... [--quick] [--json] [--cache-dir DIR] | all | list");
    eprintln!("experiments:");
    for (name, _, what) in EXPERIMENTS {
        eprintln!("  {name:<18} {what}");
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--quick" && a != "--json");
    let cache_dir = match args.iter().position(|a| a == "--cache-dir") {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("--cache-dir needs a directory argument");
                return ExitCode::FAILURE;
            }
            let dir = std::path::PathBuf::from(args.remove(i + 1));
            args.remove(i);
            Some(dir)
        }
        None => None,
    };
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    for arg in &args {
        match arg.as_str() {
            "all" => print!("{}", experiments::all()),
            "list" => usage(),
            "ext-dse" if cache_dir.is_some() && !json => {
                let dir = cache_dir.as_deref().expect("checked above");
                print!("{}", experiments::ext_dse_cached(dir));
            }
            name => match EXPERIMENTS.iter().find(|(n, _, _)| *n == name) {
                Some((_, Run::Text(run), _)) => print!("{}", run()),
                Some((_, Run::Quick(run), _)) => print!("{}", run(quick)),
                Some((_, Run::Record(run, file), _)) => {
                    let (text, record) = run(quick);
                    if !json {
                        print!("{text}");
                    } else if let Err(e) = std::fs::write(file, &record) {
                        eprintln!("cannot write {file}: {e}");
                        return ExitCode::FAILURE;
                    } else {
                        print!("{record}");
                        eprintln!("wrote {file}");
                    }
                }
                None => {
                    eprintln!("unknown experiment `{name}`");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
        }
        println!();
    }
    ExitCode::SUCCESS
}

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
//! their reduced CI-friendly form. `--json` additionally writes
//! `sim-bench` results to `BENCH_sim.json`, `serve-bench` results to
//! `BENCH_serve.json`, `absint` results to `BENCH_absint.json`,
//! `netio` results to `BENCH_netio.json`, `sat` results to
//! `BENCH_sat.json` and `ext-dse` results (with
//! the error/energy/STA wall-clock split) to `BENCH_extdse.json` in
//! the working directory. `--cache-dir DIR` routes `ext-dse` through
//! the persistent characterization store rooted at `DIR`, so a second
//! run warm-starts with zero recharacterizations.

use std::process::ExitCode;

use axmul_bench::experiments;

type Experiment = (&'static str, fn() -> String, &'static str);

const EXPERIMENTS: &[Experiment] = &[
    (
        "table1",
        experiments::table1,
        "RS/JPEG encoders, DSP vs LUT",
    ),
    ("fig1", experiments::fig1, "ASIC vs FPGA gains of W and K"),
    (
        "table2",
        experiments::table2,
        "error cases of the proposed 4x4",
    ),
    (
        "table3",
        experiments::table3,
        "published INIT values, verified",
    ),
    ("table4", experiments::table4, "area & latency of Ca/Cc"),
    ("table5", experiments::table5, "8x8 error analysis"),
    ("fig7", experiments::fig7, "area/latency/EDP gains"),
    ("fig8", experiments::fig8, "bit accuracy + error PMFs"),
    ("fig9", experiments::fig9, "Pareto: error vs area"),
    ("fig10", experiments::fig10, "Pareto: error vs latency"),
    ("table6", experiments::table6, "SUSAN PSNR (incl. swapped)"),
    ("fig12", experiments::fig12, "SUSAN operand histogram"),
    (
        "susan-area",
        experiments::susan_area,
        "accelerator-level area gain",
    ),
    (
        "ablate-cc-depth",
        experiments::ablate_cc_depth,
        "carry-free depth",
    ),
    (
        "ablate-4x2-trunc",
        experiments::ablate_4x2_trunc,
        "truncated bit choice",
    ),
    (
        "ablate-elem",
        experiments::ablate_elem,
        "elementary block choice",
    ),
    (
        "ablate-swap",
        experiments::ablate_swap,
        "operand orientation",
    ),
    (
        "ablate-cfree-op",
        experiments::ablate_cfree_op,
        "XOR vs OR columns",
    ),
    (
        "ext-correction",
        experiments::ext_correction,
        "switchable error correction",
    ),
    (
        "ext-adders",
        experiments::ext_adders,
        "approximate adder substrate",
    ),
    ("ext-signed", experiments::ext_signed, "signed operation"),
    (
        "ext-dse",
        experiments::ext_dse,
        "8x8 design-space exploration",
    ),
    (
        "dse-scaling",
        experiments::dse_scaling,
        "DSE worker-pool speedup",
    ),
    (
        "nn",
        experiments::nn_full,
        "int8 NN accuracy on approx MACs",
    ),
    (
        "lint",
        experiments::lint_roster,
        "static-analysis gate over the roster",
    ),
    (
        "sim-bench",
        experiments::sim_bench,
        "compiled-simulator throughput vs the scalar oracle",
    ),
    (
        "serve-bench",
        experiments::serve_bench,
        "daemon load test, cold vs warm store",
    ),
    (
        "serve-smoke",
        experiments::serve_smoke,
        "daemon round-trip on a Unix socket",
    ),
    (
        "absint",
        experiments::absint_report,
        "sound static bounds vs exhaustive truth",
    ),
    (
        "netio",
        experiments::netio_report,
        "interchange byte fixpoint + import throughput",
    ),
    (
        "sat",
        experiments::sat_report,
        "SAT-proven exact wce + equivalence gate",
    ),
];

/// Smoke variants selected by `--quick`.
type Smoke = (&'static str, fn() -> String);
const QUICK: &[Smoke] = &[
    ("nn", experiments::nn_quick),
    ("sim-bench", experiments::sim_bench_quick),
    ("serve-bench", experiments::serve_bench_quick),
    ("absint", experiments::absint_quick),
    ("netio", experiments::netio_quick),
    ("sat", experiments::sat_quick),
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
            "sim-bench" if json => {
                let payload = experiments::sim_bench_json(quick);
                if let Err(e) = std::fs::write("BENCH_sim.json", &payload) {
                    eprintln!("cannot write BENCH_sim.json: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{payload}");
                eprintln!("wrote BENCH_sim.json");
            }
            "serve-bench" if json => {
                let payload = experiments::serve_bench_json(quick);
                if let Err(e) = std::fs::write("BENCH_serve.json", &payload) {
                    eprintln!("cannot write BENCH_serve.json: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{payload}");
                eprintln!("wrote BENCH_serve.json");
            }
            "absint" if json => {
                let payload = experiments::absint_json(quick);
                if let Err(e) = std::fs::write("BENCH_absint.json", &payload) {
                    eprintln!("cannot write BENCH_absint.json: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{payload}");
                eprintln!("wrote BENCH_absint.json");
            }
            "netio" if json => {
                let payload = experiments::netio_json(quick);
                if let Err(e) = std::fs::write("BENCH_netio.json", &payload) {
                    eprintln!("cannot write BENCH_netio.json: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{payload}");
                eprintln!("wrote BENCH_netio.json");
            }
            "sat" if json => {
                let payload = experiments::sat_json(quick);
                if let Err(e) = std::fs::write("BENCH_sat.json", &payload) {
                    eprintln!("cannot write BENCH_sat.json: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{payload}");
                eprintln!("wrote BENCH_sat.json");
            }
            "ext-dse" if json => {
                let payload = experiments::ext_dse_json();
                if let Err(e) = std::fs::write("BENCH_extdse.json", &payload) {
                    eprintln!("cannot write BENCH_extdse.json: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{payload}");
                eprintln!("wrote BENCH_extdse.json");
            }
            "ext-dse" if cache_dir.is_some() => {
                let dir = cache_dir.as_deref().expect("checked above");
                print!("{}", experiments::ext_dse_cached(dir));
            }
            name => {
                let smoke = quick
                    .then(|| QUICK.iter().find(|(n, _)| *n == name))
                    .flatten();
                match smoke {
                    Some((_, run)) => print!("{}", run()),
                    None => match EXPERIMENTS.iter().find(|(n, _, _)| *n == name) {
                        Some((_, run, _)) => print!("{}", run()),
                        None => {
                            eprintln!("unknown experiment `{name}`");
                            usage();
                            return ExitCode::FAILURE;
                        }
                    },
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

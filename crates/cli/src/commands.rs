//! Command implementations. Everything returns strings/artifacts so the
//! logic is testable; `main` only does process plumbing.

use std::collections::HashMap;
use std::fmt;

use axmul_core::Multiplier;
use axmul_fabric::area::AreaReport;
use axmul_fabric::export::{to_verilog, to_vhdl};
use axmul_fabric::power::{measure, uniform_stimulus, EnergyModel};
use axmul_fabric::timing::{analyze, DelayModel};
use axmul_metrics::ErrorStats;
use axmul_susan::{susan_smooth, synthetic_test_image, Image, SusanParams};

use crate::arch::{Arch, ALL};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad command line (message explains).
    Usage(String),
    /// A file could not be read or written.
    Io(std::io::Error),
    /// Width unsupported by the chosen architecture.
    Width(axmul_core::WidthError),
    /// Unknown architecture name.
    Arch(crate::arch::ParseArchError),
    /// A PGM file failed to parse.
    Image(axmul_susan::ParseImageError),
    /// Netlist simulation failed during DSE characterization.
    Fabric(axmul_fabric::FabricError),
    /// NN inference or accuracy search failed.
    Nn(axmul_nn::NnError),
    /// The lint gate failed; the payload is the full rendered report.
    Lint(String),
    /// A netlist interchange document failed to import.
    Netio(axmul_netio::NetioError),
    /// A SAT proof could not be completed (interface mismatch, budget
    /// exhaustion, or an encode failure on a hostile netlist).
    Sat(axmul_sat::SatError),
    /// A SAT verification ran to completion and *refuted* the claim;
    /// the payload is the rendered verdict with its counterexample.
    Verify(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Width(e) => write!(f, "{e}"),
            CliError::Arch(e) => write!(f, "{e}"),
            CliError::Image(e) => write!(f, "{e}"),
            CliError::Fabric(e) => write!(f, "{e}"),
            CliError::Nn(e) => write!(f, "{e}"),
            CliError::Lint(report) => write!(f, "lint gate failed\n{report}"),
            CliError::Netio(e) => write!(f, "import failed [{}]: {e}", e.code()),
            CliError::Sat(e) => write!(f, "sat proof failed: {e}"),
            CliError::Verify(report) => write!(f, "verification refuted\n{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<axmul_core::WidthError> for CliError {
    fn from(e: axmul_core::WidthError) -> Self {
        CliError::Width(e)
    }
}
impl From<crate::arch::ParseArchError> for CliError {
    fn from(e: crate::arch::ParseArchError) -> Self {
        CliError::Arch(e)
    }
}
impl From<axmul_susan::ParseImageError> for CliError {
    fn from(e: axmul_susan::ParseImageError) -> Self {
        CliError::Image(e)
    }
}
impl From<axmul_fabric::FabricError> for CliError {
    fn from(e: axmul_fabric::FabricError) -> Self {
        CliError::Fabric(e)
    }
}
impl From<axmul_nn::NnError> for CliError {
    fn from(e: axmul_nn::NnError) -> Self {
        CliError::Nn(e)
    }
}
impl From<axmul_netio::NetioError> for CliError {
    fn from(e: axmul_netio::NetioError) -> Self {
        CliError::Netio(e)
    }
}
impl From<axmul_sat::SatError> for CliError {
    fn from(e: axmul_sat::SatError) -> Self {
        CliError::Sat(e)
    }
}

/// Parsed `--key value` options.
struct Opts(HashMap<String, String>);

/// Options that are bare flags (no value follows them).
const FLAGS: &[&str] = &[
    "all",
    "json",
    "quick",
    "dse",
    "lint",
    "absint",
    "characterize",
    "verify",
];

impl Opts {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--").or_else(|| key.strip_prefix('-')) else {
                return Err(CliError::Usage(format!("unexpected argument `{key}`")));
            };
            if FLAGS.contains(&name) {
                map.insert(name.to_string(), String::new());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("`{key}` needs a value")))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn arch(&self) -> Result<Arch, CliError> {
        Ok(self
            .get("arch")
            .ok_or_else(|| CliError::Usage("missing --arch".to_string()))?
            .parse::<Arch>()?)
    }

    fn bits(&self) -> Result<u32, CliError> {
        self.get("bits").map_or(Ok(8), |v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --bits `{v}`")))
        })
    }
}

/// Runs one CLI invocation. `args` excludes the program name. Returns
/// the text to print on stdout; file outputs (`-o`) are written as a
/// side effect.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage, unsupported widths, or I/O
/// failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(usage());
    };
    // `import` takes a positional FILE argument, which the `--key
    // value` option parser would reject; peel it off first.
    if cmd == "import" {
        let Some((file, rest)) = rest.split_first() else {
            return Err(CliError::Usage("import needs a FILE argument".into()));
        };
        if file.starts_with('-') {
            return Err(CliError::Usage(
                "import needs the FILE before any options".into(),
            ));
        }
        return import(file, &Opts::parse(rest)?);
    }
    // `verify` also accepts a positional FILE (imported netlist).
    if cmd == "verify" {
        if let Some((file, rest)) = rest.split_first() {
            if !file.starts_with('-') {
                return verify_file(file, &Opts::parse(rest)?);
            }
        }
        return verify(&Opts::parse(rest)?);
    }
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "list" => Ok(list()),
        "generate" => generate(&opts),
        "characterize" => characterize(&opts),
        "stats" => stats(&opts),
        "smooth" => smooth(&opts),
        "dse" => dse(&opts),
        "absint" => absint(&opts),
        "nn" => nn(&opts),
        "lint" => lint(&opts),
        "serve" => serve(&opts),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn usage() -> String {
    "axmul — FPGA-optimized approximate multiplier library (DAC'18 reproduction)\n\
     \n\
     commands:\n\
     \x20 list                                         available architectures\n\
     \x20 generate    --arch A --bits N [--format verilog|vhdl] [-o FILE]\n\
     \x20 characterize --arch A --bits N               area / timing / energy\n\
     \x20 stats       --arch A --bits N [--samples M]  error statistics\n\
     \x20 smooth      --arch A [--width W --height H] [--input in.pgm] [-o out.pgm]\n\
     \x20 dse         --width N [--strategy exhaustive|random|hill] [--workers W]\n\
     \x20             [--budget B] [--restarts R] [--seed S] [--out-dir DIR]\n\
     \x20                                          design-space exploration\n\
     \x20 absint      --config KEY | --arch A [--bits N]\n\
     \x20             [--json]                     sound static error/range bounds\n\
     \x20 nn          [--arch A | --all] [--workers W] [--quick]\n\
     \x20             [--dse [--floor F]]          int8 inference accuracy\n\
     \x20 lint        --arch A [--bits N] | --all [--bits N]\n\
     \x20             [--json] [--deny warnings]   static netlist analysis\n\
     \x20 serve       [--port N | --socket PATH] [--cache-dir DIR]\n\
     \x20             [--workers W] [--duration-s S]\n\
     \x20                                          characterization daemon\n\
     \x20 import      FILE [--format verilog|axnl] [--lint] [--absint]\n\
     \x20             [--characterize] [--verify --config KEY] [--json] [-o FILE]\n\
     \x20                                          read a netlist back in\n\
     \x20 verify      --config KEY | --arch A [--bits N] [--json]\n\
     \x20                                          SAT-prove the exact worst-case\n\
     \x20                                          error vs the absint bracket\n\
     \x20 verify      FILE [--against FILE2]       SAT equivalence of imported\n\
     \x20                                          netlists (alone: vs exact)\n"
        .to_string()
}

fn list() -> String {
    let mut out = String::from("architectures:\n");
    for (_, name, what) in ALL {
        out.push_str(&format!("  {name:<10} {what}\n"));
    }
    out
}

fn generate(opts: &Opts) -> Result<String, CliError> {
    let arch = opts.arch()?;
    let bits = opts.bits()?;
    let nl = arch.netlist(bits)?;
    let rtl = match opts.get("format").unwrap_or("verilog") {
        "verilog" | "v" => to_verilog(&nl),
        "vhdl" | "vhd" => to_vhdl(&nl),
        other => {
            return Err(CliError::Usage(format!(
                "unknown format `{other}` (verilog|vhdl)"
            )))
        }
    };
    if let Some(path) = opts.get("o") {
        std::fs::write(path, &rtl)?;
        Ok(format!(
            "wrote {path}: {} ({} LUTs, {} CARRY4s)\n",
            nl.name(),
            nl.lut_count(),
            nl.carry4_count()
        ))
    } else {
        Ok(rtl)
    }
}

fn characterize(opts: &Opts) -> Result<String, CliError> {
    let arch = opts.arch()?;
    let bits = opts.bits()?;
    let nl = arch.netlist(bits)?;
    let area = AreaReport::of(&nl);
    let delay = DelayModel::virtex7();
    let timing = analyze(&nl, &delay);
    let stim = uniform_stimulus(&nl, 2000, 0xDAC18);
    let energy =
        measure(&nl, &EnergyModel::virtex7(), &delay, &stim).expect("generated netlists simulate");
    Ok(format!(
        "{} at {bits}x{bits}\n  area:   {area}\n  timing: {timing}\n  \
         energy: {:.3} units/op, EDP {:.3}\n",
        arch, energy.energy_per_op, energy.edp
    ))
}

fn stats(opts: &Opts) -> Result<String, CliError> {
    let arch = opts.arch()?;
    let bits = opts.bits()?;
    let m = arch.behavioral(bits)?;
    let s = if m.a_bits() + m.b_bits() <= 24 {
        ErrorStats::exhaustive(&m)
    } else {
        let samples = opts.get("samples").map_or(Ok(1_000_000u64), |v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --samples `{v}`")))
        })?;
        ErrorStats::sampled(&m, samples, 7)
    };
    Ok(format!(
        "{s}\n  error probability {:.6}, NMED {:.3e}\n",
        s.error_probability, s.normalized_mean_error_distance
    ))
}

fn smooth(opts: &Opts) -> Result<String, CliError> {
    let arch = opts.arch()?;
    let m = arch.behavioral(8)?;
    let img: Image = match opts.get("input") {
        Some(path) => std::fs::read_to_string(path)?.parse()?,
        None => {
            let w = opts.get("width").map_or(Ok(128), |v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("bad --width `{v}`")))
            })?;
            let h = opts.get("height").map_or(Ok(128), |v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("bad --height `{v}`")))
            })?;
            synthetic_test_image(w, h, 11)
        }
    };
    let params = SusanParams::default();
    let out = susan_smooth(&img, &params, &m);
    let golden = susan_smooth(&img, &params, &axmul_core::Exact::new(8, 8));
    let psnr = golden.psnr(&out);
    let mut msg = format!(
        "smoothed {}x{} with {}: PSNR vs exact datapath = {psnr:.2} dB\n",
        img.width(),
        img.height(),
        m.name()
    );
    if let Some(path) = opts.get("o") {
        std::fs::write(path, out.to_pgm())?;
        msg.push_str(&format!("wrote {path}\n"));
    }
    Ok(msg)
}

fn parse_num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, CliError> {
    opts.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| CliError::Usage(format!("bad --{key} `{v}`")))
    })
}

fn dse(opts: &Opts) -> Result<String, CliError> {
    use axmul_dse::{run, text_report, to_csv, DseOptions, Strategy};

    let bits: u32 = parse_num(opts, "width", 8)?;
    if !matches!(bits, 4 | 8 | 16) {
        return Err(CliError::Usage(format!(
            "--width must be 4, 8 or 16 (got {bits})"
        )));
    }
    let mut dse_opts = DseOptions::exhaustive_8x8();
    dse_opts.bits = bits;
    dse_opts.workers = parse_num(opts, "workers", dse_opts.workers)?;
    if dse_opts.workers == 0 {
        return Err(CliError::Usage("--workers must be > 0".to_string()));
    }
    let seed: u64 = parse_num(opts, "seed", 0xDAC18)?;
    let budget: usize = parse_num(opts, "budget", 200)?;
    let restarts: usize = parse_num(opts, "restarts", 8)?;
    let default_strategy = if bits <= 8 { "exhaustive" } else { "hill" };
    dse_opts.strategy = match opts.get("strategy").unwrap_or(default_strategy) {
        "exhaustive" => {
            if bits > 8 {
                return Err(CliError::Usage(format!(
                    "exhaustive enumeration is infeasible at {bits} bits; \
                     use --strategy random or hill"
                )));
            }
            Strategy::Exhaustive
        }
        "random" => Strategy::Random { budget, seed },
        "hill" => Strategy::HillClimb {
            budget,
            restarts,
            seed,
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown strategy `{other}` (exhaustive|random|hill)"
            )))
        }
    };

    let result = run(&dse_opts)?;
    let mut out = text_report(&result);
    if let Some(dir) = opts.get("out-dir") {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/dse_{bits}x{bits}.csv");
        std::fs::write(&path, to_csv(&result))?;
        out.push_str(&format!("wrote {path} ({} rows)\n", result.reports.len()));
    }
    Ok(out)
}

/// Static error/range analysis — no simulation anywhere in this path.
/// With `--config KEY` the abstract interpreter walks the
/// configuration tree and reports sound worst-case-error brackets plus
/// a verified certificate; with `--arch A` it propagates known bits
/// through the elaborated netlist and reports proven output ranges.
fn absint(opts: &Opts) -> Result<String, CliError> {
    use axmul_dse::{static_bounds, Config};

    if let Some(key) = opts.get("config") {
        let cfg: Config = key
            .parse()
            .map_err(|e: axmul_dse::ParseConfigError| CliError::Usage(e.to_string()))?;
        let a = static_bounds(&cfg).map_err(|e| CliError::Usage(e.to_string()))?;
        if opts.flag("json") {
            return Ok(format!("{}\n", a.to_json()));
        }
        let b = &a.bound;
        let verdict = match a.certificate.verify() {
            Ok(()) => "VERIFIED".to_string(),
            Err(e) => format!("FAILED ({e})"),
        };
        let mut out = format!(
            "static analysis of {} at {}x{}\n  \
             worst-case error: in [{}, {}] (deviation interval [{}, {}])\n  \
             max relative error: <= {:.6}\n  \
             output value: in [{}, {}]\n",
            a.key,
            a.bits,
            a.bits,
            b.wce_lb,
            b.wce_ub(),
            b.err_lo,
            b.err_hi,
            b.mre,
            b.value.lo,
            b.value.hi
        );
        if let Some((wa, wb)) = b.witness {
            out.push_str(&format!(
                "  witness: {wa} x {wb} deviates by at least {}\n",
                b.wce_lb
            ));
        }
        out.push_str(&format!(
            "  certificate: {} steps, {verdict}\n",
            a.certificate.steps().len()
        ));
        return Ok(out);
    }

    let arch = opts.arch()?;
    let bits = opts.bits()?;
    let nl = arch.netlist(bits)?;
    let a = axmul_absint::analyze_netlist(&nl);
    if opts.flag("json") {
        return Ok(format!("{}\n", a.to_json()));
    }
    let mut out = format!("static analysis of {} ({})\n", arch, a.name);
    for o in &a.outputs {
        out.push_str(&format!(
            "  output {}: in [{}, {}]\n",
            o.bus, o.interval.lo, o.interval.hi
        ));
    }
    out.push_str(&format!(
        "  derived constant nets: {}\n",
        a.derived_constants.len()
    ));
    if let Some(e) = &a.error {
        out.push_str(&format!(
            "  worst-case deviation: <= {} (interval [{}, {}])\n",
            e.wce_ub(),
            e.err_lo,
            e.err_hi
        ));
    }
    Ok(out)
}

fn nn(opts: &Opts) -> Result<String, CliError> {
    use axmul_nn::{
        accuracy_search, evaluate, quick_candidates, reference_model, test_set, ProductTable,
    };

    let workers: usize = parse_num(opts, "workers", 2)?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be > 0".to_string()));
    }
    let quick = opts.flag("quick");
    let mut dataset = test_set();
    if quick {
        dataset.images.truncate(64);
        dataset.labels.truncate(64);
    }
    let model = reference_model();
    let mut out = format!(
        "int8 inference: {} test samples, {} MACs/inference, {} classes\n",
        dataset.len(),
        model.macs_per_inference(),
        model.classes()
    );

    if opts.flag("dse") {
        let floor: f64 = parse_num(opts, "floor", 0.95)?;
        if !(0.0..=1.0).contains(&floor) {
            return Err(CliError::Usage(format!(
                "--floor must be in [0, 1] (got {floor})"
            )));
        }
        let configs = quick.then(quick_candidates);
        let search = accuracy_search(model, &dataset, floor, workers, configs)?;
        out.push_str(&format!(
            "accuracy-floor search: {} configs, floor {:.1}% of baseline\n\
             baseline {:>12}  {:>4} LUTs  accuracy {:.2}%\n",
            search.points.len(),
            floor * 100.0,
            search.baseline.key,
            search.baseline.luts,
            search.baseline.accuracy * 100.0
        ));
        match &search.best {
            Some(best) => out.push_str(&format!(
                "best     {:>12}  {:>4} LUTs  accuracy {:.2}%  (rmse {:.1})\n",
                best.key,
                best.luts,
                best.accuracy * 100.0,
                best.rmse
            )),
            None => out.push_str("no configuration met the floor below baseline LUTs\n"),
        }
        return Ok(out);
    }

    let archs: Vec<(&str, Arch)> = if opts.flag("all") {
        ALL.iter()
            .filter(|(a, _, _)| a.behavioral(8).is_ok())
            .map(|(a, name, _)| (*name, *a))
            .collect()
    } else {
        let arch = opts.arch()?;
        let name = ALL
            .iter()
            .find(|(a, _, _)| *a == arch)
            .map_or("?", |(_, n, _)| n);
        vec![(name, arch)]
    };
    let exact = evaluate(model, &ProductTable::exact(), &dataset, workers)?;
    out.push_str(&format!(
        "{:<10} {:<14} accuracy {:6.2}%  ({}/{})\n",
        "exact",
        "reference",
        exact.accuracy() * 100.0,
        exact.correct,
        exact.total
    ));
    for (name, arch) in archs {
        let mult = arch.behavioral(8)?;
        let table = ProductTable::new(mult.as_ref())?;
        let eval = evaluate(model, &table, &dataset, workers)?;
        out.push_str(&format!(
            "{:<10} {:<14} accuracy {:6.2}%  ({}/{})\n",
            name,
            mult.name(),
            eval.accuracy() * 100.0,
            eval.correct,
            eval.total
        ));
    }
    Ok(out)
}

/// Starts the characterization-and-inference daemon. Blocks until
/// killed, or for `--duration-s` seconds when given (used by smoke
/// tests and CI). With no endpoint flag it listens on TCP port 7878.
fn serve(opts: &Opts) -> Result<String, CliError> {
    use axmul_serve::server::{serve, Endpoints, ServerOptions};
    use axmul_serve::{open_store, Service};

    let tcp_port: Option<u16> = opts
        .get("port")
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --port `{v}`")))
        })
        .transpose()?;
    let unix_path = opts.get("socket").map(std::path::PathBuf::from);
    let endpoints = Endpoints {
        // Default endpoint when neither flag is given.
        tcp_port: if tcp_port.is_none() && unix_path.is_none() {
            Some(7878)
        } else {
            tcp_port
        },
        unix_path,
    };
    let workers: usize = parse_num(opts, "workers", 4)?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be > 0".to_string()));
    }
    let duration_s: Option<f64> = opts
        .get("duration-s")
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --duration-s `{v}`")))
        })
        .transpose()?;

    let cache_dir = opts.get("cache-dir").map(std::path::PathBuf::from);
    let store = open_store(cache_dir.as_deref())
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    let cache_desc = axmul_serve::storage::describe(&store);
    let service = Service::new(Some(store));
    let handle = serve(
        service,
        &endpoints,
        &ServerOptions {
            workers,
            ..ServerOptions::default()
        },
    )?;

    let mut banner = String::from("axmul serve: listening on");
    if let Some(addr) = handle.tcp_addr() {
        banner.push_str(&format!(" tcp://{addr}"));
    }
    if let Some(path) = handle.unix_path() {
        banner.push_str(&format!(" unix://{}", path.display()));
    }
    banner.push_str(&format!("\n  cache: {cache_desc}\n  workers: {workers}\n"));

    match duration_s {
        Some(secs) => {
            eprint!("{banner}");
            std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.0)));
            let served = handle.connections();
            handle.shutdown();
            Ok(format!(
                "{banner}stopped after {secs}s: {served} connection(s) served\n"
            ))
        }
        None => {
            // Daemon mode: print the banner immediately and block for
            // the life of the process.
            eprint!("{banner}");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// Reads a netlist interchange document (structural Verilog or
/// `axnl-v1` JSON) back into a validated netlist and reports on it.
/// `--lint`, `--absint` and `--characterize` chain the imported design
/// straight into the respective analyses; `--json` re-emits it as an
/// `axnl-v1` document (`-o` writes it to a file instead of stdout).
fn import(file: &str, opts: &Opts) -> Result<String, CliError> {
    let text = std::fs::read_to_string(file)?;
    let netlist = match opts.get("format") {
        None => axmul_netio::import(&text)?,
        Some(f) => match f.parse::<axmul_netio::Format>() {
            Ok(axmul_netio::Format::Verilog) => axmul_netio::from_verilog(&text)?,
            Ok(axmul_netio::Format::Axnl) => axmul_netio::from_axnl(&text)?,
            Err(()) => {
                return Err(CliError::Usage(format!(
                    "unknown format `{f}` (verilog|axnl)"
                )))
            }
        },
    };

    if opts.flag("json") {
        let doc = axmul_netio::to_axnl(&netlist);
        return if let Some(path) = opts.get("o") {
            std::fs::write(path, &doc)?;
            Ok(format!("wrote {path}: {} as axnl-v1\n", netlist.name()))
        } else {
            Ok(doc)
        };
    }

    let mut out = format!(
        "imported {} from {file} ({})\n  {} LUTs, {} CARRY4s, {} nets, fingerprint {:016x}\n",
        netlist.name(),
        axmul_netio::detect_format(&text).name(),
        netlist.lut_count(),
        netlist.carry4_count(),
        netlist.drivers().len(),
        axmul_netio::fingerprint(&netlist),
    );
    for (name, bits) in netlist.input_buses() {
        out.push_str(&format!("  input  {name}[{}:0]\n", bits.len() - 1));
    }
    for (name, bits) in netlist.output_buses() {
        out.push_str(&format!("  output {name}[{}:0]\n", bits.len() - 1));
    }

    if opts.flag("verify") {
        out.push_str(&verify_imported(&netlist, opts)?);
    }
    if opts.flag("lint") {
        let report = axmul_lint::Linter::new().lint(&netlist);
        out.push_str(&report.to_string());
    }
    if opts.flag("absint") {
        let a = axmul_absint::analyze_netlist(&netlist);
        for o in &a.outputs {
            out.push_str(&format!(
                "  absint output {}: in [{}, {}]\n",
                o.bus, o.interval.lo, o.interval.hi
            ));
        }
    }
    if opts.flag("characterize") {
        let area = AreaReport::of(&netlist);
        let delay = DelayModel::virtex7();
        let timing = analyze(&netlist, &delay);
        let stim = uniform_stimulus(&netlist, 2000, 0xDAC18);
        let energy = measure(&netlist, &EnergyModel::virtex7(), &delay, &stim)?;
        out.push_str(&format!(
            "  area:   {area}\n  timing: {timing}\n  energy: {:.3} units/op, EDP {:.3}\n",
            energy.energy_per_op, energy.edp
        ));
    }
    if let Some(path) = opts.get("o") {
        std::fs::write(path, &out)?;
        return Ok(format!("wrote {path}\n"));
    }
    Ok(out)
}

fn parse_config(key: &str) -> Result<axmul_dse::Config, CliError> {
    key.parse()
        .map_err(|e: axmul_dse::ParseConfigError| CliError::Usage(e.to_string()))
}

/// `import FILE --verify --config KEY`: SAT-proves the imported
/// netlist semantically equal to the configuration's own elaboration.
/// Unlike the content fingerprint, this accepts structural variants —
/// a fingerprint mismatch between semantically-equal netlists is
/// reported as a note, not a rejection.
fn verify_imported(netlist: &axmul_fabric::Netlist, opts: &Opts) -> Result<String, CliError> {
    use axmul_sat::{check_equiv, EquivOutcome, ProofOptions};

    let Some(key) = opts.get("config") else {
        return Err(CliError::Usage(
            "--verify needs a --config KEY to verify against".into(),
        ));
    };
    let golden = parse_config(key)?.assemble();
    let report = check_equiv(netlist, &golden, &ProofOptions::default())?;
    match report.outcome {
        EquivOutcome::Equivalent => {
            let mut out = format!(
                "  verify: EQUIVALENT to `{key}` for all inputs ({})\n",
                if report.structural {
                    "structurally identical".to_string()
                } else {
                    format!("UNSAT miter, {} conflicts", report.stats.conflicts)
                }
            );
            if axmul_netio::fingerprint(netlist) != axmul_netio::fingerprint(&golden) {
                out.push_str(
                    "  verify: note: content fingerprints differ — structural variants \
                     of the same function\n",
                );
            }
            Ok(out)
        }
        EquivOutcome::NotEquivalent(cex) => {
            let inputs: Vec<String> = cex.inputs.iter().map(|(n, v)| format!("{n}={v}")).collect();
            Err(CliError::Verify(format!(
                "imported netlist differs from `{key}`: at {} it yields {:?} vs {:?} \
                 (counterexample confirmed by replay)\n",
                inputs.join(" "),
                cex.lhs_outputs,
                cex.rhs_outputs
            )))
        }
    }
}

/// `verify --config KEY | --arch A [--bits N]`: SAT-proves the design's
/// *exact* worst-case error and checks the proven value against the
/// absint bracket — certifying the static analysis (or refuting it,
/// which would be a soundness bug worth a hard failure).
fn verify(opts: &Opts) -> Result<String, CliError> {
    use axmul_sat::{prove_wce, WceOptions};

    let (netlist, name, bracket) = if let Some(key) = opts.get("config") {
        let cfg = parse_config(key)?;
        let analysis =
            axmul_dse::static_bounds(&cfg).map_err(|e| CliError::Usage(e.to_string()))?;
        let b = &analysis.bound;
        (
            cfg.assemble(),
            analysis.key.clone(),
            Some((b.wce_lb, b.wce_ub(), b.witness)),
        )
    } else {
        let arch = opts.arch()?;
        let bits = opts.bits()?;
        let nl = arch.netlist(bits)?;
        let a = axmul_absint::analyze_netlist(&nl);
        let bracket = a.error.as_ref().map(|e| (e.wce_lb, e.wce_ub(), e.witness));
        (nl, format!("{arch} {bits}x{bits}"), bracket)
    };
    let wce_opts = WceOptions {
        hint: bracket.and_then(|(_, _, w)| w),
        ..WceOptions::default()
    };
    let proof = prove_wce(&netlist, &wce_opts)?;
    let contained = bracket.is_none_or(|(lb, ub, _)| lb <= proof.wce && proof.wce <= ub);
    if opts.flag("json") {
        let (lb, ub) = bracket.map_or((0, u128::MAX), |(lb, ub, _)| (lb, ub));
        return Ok(format!(
            "{{\"name\":\"{}\",\"a_bits\":{},\"b_bits\":{},\"wce\":{},\
             \"witness\":[{},{}],\"absint_lb\":{lb},\"absint_ub\":{ub},\
             \"contained\":{contained},\"engine\":\"{}\",\"ascent_steps\":{},\
             \"solves\":{},\"conflicts\":{},\"elapsed_ms\":{:.3}}}\n",
            name,
            proof.a_bits,
            proof.b_bits,
            proof.wce,
            proof.witness.0,
            proof.witness.1,
            proof.engine,
            proof.ascent_steps,
            proof.stats.solves,
            proof.stats.conflicts,
            proof.stats.elapsed_ms,
        ));
    }
    let mut out = format!(
        "SAT worst-case-error proof for {name} at {}x{}\n  \
         exact wce: {} (witness {} x {}, confirmed by replay)\n  \
         proof: {} engine, {} solve(s), {} conflicts, {} ascent step(s), {:.1} ms\n",
        proof.a_bits,
        proof.b_bits,
        proof.wce,
        proof.witness.0,
        proof.witness.1,
        proof.engine,
        proof.stats.solves,
        proof.stats.conflicts,
        proof.ascent_steps,
        proof.stats.elapsed_ms,
    );
    match bracket {
        Some((lb, ub, _)) => {
            out.push_str(&format!(
                "  absint bracket: [{lb}, {ub}] — {}\n",
                if contained {
                    "CERTIFIED (proven value inside the sound bracket)"
                } else {
                    "REFUTED (static analysis is unsound!)"
                }
            ));
        }
        None => out.push_str("  absint bracket: unavailable for this shape\n"),
    }
    if !contained {
        return Err(CliError::Verify(out));
    }
    Ok(out)
}

/// `verify FILE [--against FILE2 | --config KEY]`: SAT equivalence of
/// an imported netlist against a second file, a configuration twin, or
/// — with no reference — the exact product contract.
fn verify_file(file: &str, opts: &Opts) -> Result<String, CliError> {
    use axmul_sat::{check_against_exact, check_equiv, EquivOutcome, ProofOptions};

    let lhs = axmul_netio::import(&std::fs::read_to_string(file)?)?;
    let popts = ProofOptions::default();
    let (report, reference) = match (opts.get("against"), opts.get("config")) {
        (Some(file2), _) => {
            let rhs = axmul_netio::import(&std::fs::read_to_string(file2)?)?;
            (
                check_equiv(&lhs, &rhs, &popts)?,
                format!("`{}` ({file2})", rhs.name()),
            )
        }
        (None, Some(key)) => {
            let rhs = parse_config(key)?.assemble();
            (check_equiv(&lhs, &rhs, &popts)?, format!("`{key}`"))
        }
        (None, None) => (
            check_against_exact(&lhs, &popts)?,
            "the exact product".to_string(),
        ),
    };
    match report.outcome {
        EquivOutcome::Equivalent => Ok(format!(
            "EQUIVALENT: `{}` matches {reference} for all inputs ({})\n",
            lhs.name(),
            if report.structural {
                "structurally identical — discharged without solving".to_string()
            } else {
                format!(
                    "UNSAT miter, {} conflicts in {:.1} ms",
                    report.stats.conflicts, report.stats.elapsed_ms
                )
            }
        )),
        EquivOutcome::NotEquivalent(cex) => {
            let inputs: Vec<String> = cex.inputs.iter().map(|(n, v)| format!("{n}={v}")).collect();
            Err(CliError::Verify(format!(
                "NOT EQUIVALENT: `{}` differs from {reference} at {}: {:?} vs {:?} \
                 (counterexample confirmed by replay)\n",
                lhs.name(),
                inputs.join(" "),
                cex.lhs_outputs,
                cex.rhs_outputs
            )))
        }
    }
}

/// Warnings a design is *expected* to carry: the K baseline's deleted
/// kernel bit leaves a provably-constant summation LUT, and the
/// VivadoIP emulations reproduce the IP's wasteful mapping on purpose
/// (the paper's motivation). Mirrors the allowance of the bench crate's
/// `repro lint` experiment; everything else must be warning-free under
/// `--deny warnings`.
fn allowed_waste(arch: Arch, code: &str) -> bool {
    match arch {
        Arch::Kulkarni => code == "const-lut",
        Arch::IpArea | Arch::IpSpeed => {
            matches!(code, "const-lut" | "stuck-carry" | "unreachable-cell")
        }
        _ => false,
    }
}

fn lint(opts: &Opts) -> Result<String, CliError> {
    use axmul_lint::{Linter, Severity};

    let deny_warnings = match opts.get("deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "bad --deny `{other}` (only `warnings`)"
            )))
        }
    };
    let targets: Vec<Arch> = if opts.flag("all") {
        ALL.iter().map(|(a, _, _)| *a).collect()
    } else {
        vec![opts.arch()?]
    };
    let linter = Linter::new();
    let mut text = String::new();
    let mut jsons = Vec::new();
    let (mut errors, mut denied) = (0usize, 0usize);
    for arch in targets {
        let bits = match arch {
            Arch::Approx4x4 | Arch::Approx4x2 => 4,
            _ => opts.bits()?,
        };
        let nl = arch.netlist(bits)?;
        // `truncated` pairs the paper's product-zeroing behavioral model
        // with the PP-dropping hardware idiom, so only the structural
        // passes apply there (see docs/modeling-notes.md).
        let mut report = if arch == Arch::Truncated {
            linter.lint(&nl)
        } else {
            linter.lint_against(&nl, arch.behavioral(bits)?.as_ref())
        };
        report.netlist = format!("{arch} ({})", nl.name());
        errors += report.errors();
        if deny_warnings {
            denied += report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning && !allowed_waste(arch, d.code))
                .count();
        }
        if opts.flag("json") {
            jsons.push(report.to_json());
        } else {
            text.push_str(&report.to_string());
        }
    }
    let out = if opts.flag("json") {
        format!("[{}]\n", jsons.join(","))
    } else {
        text.push_str(&format!(
            "lint verdict: {} ({errors} error(s), {denied} denied warning(s))\n",
            if errors == 0 && denied == 0 {
                "PASS"
            } else {
                "FAIL"
            }
        ));
        text
    };
    if errors > 0 || denied > 0 {
        return Err(CliError::Lint(out));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        run(&v)
    }

    #[test]
    fn list_shows_every_arch() {
        let out = run_str(&["list"]).unwrap();
        for (_, name, _) in ALL {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
    }

    #[test]
    fn generate_verilog_to_stdout() {
        let out = run_str(&["generate", "--arch", "ca", "--bits", "8"]).unwrap();
        assert!(out.contains("module"));
        assert!(out.contains("LUT6_2"));
        assert_eq!(out.matches("LUT6_2 #").count(), 57);
    }

    #[test]
    fn generate_vhdl() {
        let out = run_str(&[
            "generate",
            "--arch",
            "approx4x4",
            "--bits",
            "4",
            "--format",
            "vhdl",
        ])
        .unwrap();
        assert!(out.contains("entity"));
        assert!(out.contains("UNISIM"));
    }

    #[test]
    fn characterize_reports_area_and_timing() {
        let out = run_str(&["characterize", "--arch", "cc", "--bits", "8"]).unwrap();
        assert!(out.contains("56 LUTs"));
        assert!(out.contains("critical path"));
        assert!(out.contains("EDP"));
    }

    #[test]
    fn stats_exhaustive_for_8_bits() {
        let out = run_str(&["stats", "--arch", "k", "--bits", "8"]).unwrap();
        assert!(out.contains("14450"), "{out}");
        assert!(out.contains("30625"), "{out}");
    }

    #[test]
    fn smooth_synthetic() {
        let out = run_str(&["smooth", "--arch", "ca", "--width", "32", "--height", "24"]).unwrap();
        assert!(out.contains("PSNR"));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(matches!(run_str(&["generate"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_str(&["generate", "--arch", "nope"]),
            Err(CliError::Arch(_))
        ));
        assert!(matches!(
            run_str(&["generate", "--arch", "ca", "--bits", "9"]),
            Err(CliError::Width(_))
        ));
        assert!(matches!(run_str(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn dse_4x4_exhaustive_reports_fronts() {
        // The 4x4 space is just the five leaves — fast enough for a
        // real end-to-end run in a unit test.
        let out = run_str(&["dse", "--width", "4", "--workers", "2"]).unwrap();
        assert!(out.contains("5 candidates at 4x4"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("cand/s"), "{out}");
        assert!(out.contains("error/LUT Pareto front"), "{out}");
    }

    #[test]
    fn dse_random_writes_csv() {
        let dir = std::env::temp_dir().join("axmul_dse_cli_test");
        let dir_s = dir.to_str().unwrap();
        let out = run_str(&[
            "dse",
            "--width",
            "8",
            "--strategy",
            "random",
            "--budget",
            "6",
            "--seed",
            "3",
            "--out-dir",
            dir_s,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let csv = std::fs::read_to_string(dir.join("dse_8x8.csv")).unwrap();
        assert!(csv.starts_with("key,bits,luts"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dse_usage_errors() {
        assert!(matches!(
            run_str(&["dse", "--width", "12"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["dse", "--width", "16", "--strategy", "exhaustive"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["dse", "--strategy", "simulated-annealing"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["dse", "--workers", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn absint_config_reports_exact_bracket_for_paper_ca() {
        let out = run_str(&["absint", "--config", "(a A A A A)"]).unwrap();
        assert!(out.contains("8x8"), "{out}");
        assert!(out.contains("worst-case error: in [2312, 2312]"), "{out}");
        assert!(out.contains("witness: 119 x 102"), "{out}");
        assert!(out.contains("VERIFIED"), "{out}");
    }

    #[test]
    fn absint_config_json_is_sound_at_16_bits() {
        let key = "(c (a A A A A) (a A A A A) (a A A A A) (a A A A A))";
        let out = run_str(&["absint", "--config", key, "--json"]).unwrap();
        assert!(out.contains("\"bits\":16"), "{out}");
        assert!(out.contains("\"sound\":true"), "{out}");
    }

    #[test]
    fn absint_arch_reports_output_range() {
        let out = run_str(&["absint", "--arch", "truncated", "--bits", "8"]).unwrap();
        assert!(out.contains("output"), "{out}");
        assert!(out.contains("worst-case deviation"), "{out}");
    }

    #[test]
    fn absint_usage_errors() {
        assert!(matches!(run_str(&["absint"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_str(&["absint", "--config", "(q A A A A)"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lint_single_arch_passes() {
        let out = run_str(&["lint", "--arch", "ca", "--bits", "8"]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("equiv-verified"), "{out}");
        assert!(out.contains("lint verdict: PASS"), "{out}");
    }

    #[test]
    fn lint_all_deny_warnings_is_the_ci_gate() {
        let out = run_str(&["lint", "--all", "--deny", "warnings"]).unwrap();
        assert!(
            out.contains("lint verdict: PASS (0 error(s), 0 denied warning(s))"),
            "{out}"
        );
        for (_, name, _) in ALL {
            assert!(
                out.contains(&format!("lint `{name} (")),
                "{name} missing:\n{out}"
            );
        }
    }

    #[test]
    fn lint_json_emits_report_array() {
        let out = run_str(&["lint", "--arch", "approx4x4", "--json"]).unwrap();
        assert!(out.starts_with('['), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        assert!(out.contains("\"code\":\"equiv-verified\""), "{out}");
    }

    #[test]
    fn lint_usage_errors() {
        assert!(matches!(run_str(&["lint"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_str(&["lint", "--arch", "ca", "--deny", "infos"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn default_bits_is_8() {
        let out = run_str(&["characterize", "--arch", "ca"]).unwrap();
        assert!(out.contains("8x8"));
        assert!(out.contains("57 LUTs"));
    }

    #[test]
    fn nn_quick_reports_exact_and_requested_arch() {
        let out = run_str(&["nn", "--arch", "ca", "--quick"]).unwrap();
        assert!(out.contains("64 test samples"), "{out}");
        assert!(out.contains("2096 MACs/inference"), "{out}");
        assert!(out.contains("exact"), "{out}");
        assert!(out.contains("Ca 8x8"), "{out}");
    }

    #[test]
    fn nn_dse_quick_finds_a_sub_baseline_config() {
        let out = run_str(&["nn", "--dse", "--quick"]).unwrap();
        assert!(out.contains("baseline"), "{out}");
        assert!(out.contains("(a X X X X)"), "{out}");
        assert!(out.contains("best"), "{out}");
    }

    #[test]
    fn serve_duration_mode_starts_and_stops() {
        let dir = std::env::temp_dir().join("axmul_cli_serve_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_str(&[
            "serve",
            "--port",
            "0",
            "--duration-s",
            "0.2",
            "--cache-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("listening on tcp://127.0.0.1:"), "{out}");
        assert!(out.contains("connection(s) served"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_usage_errors() {
        assert!(matches!(
            run_str(&["serve", "--port", "notaport"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["serve", "--workers", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["serve", "--duration-s", "soon"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn nn_usage_errors() {
        assert!(matches!(
            run_str(&["nn", "--workers", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["nn", "--dse", "--floor", "1.5"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn import_round_trips_generated_verilog() {
        let dir = std::env::temp_dir().join("axmul_cli_import_test");
        std::fs::create_dir_all(&dir).unwrap();
        let vfile = dir.join("ca8.v");
        run_str(&[
            "generate",
            "--arch",
            "ca",
            "--bits",
            "8",
            "-o",
            vfile.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&["import", vfile.to_str().unwrap()]).unwrap();
        assert!(out.contains("(verilog)"), "{out}");
        assert!(out.contains("57 LUTs"), "{out}");
        assert!(out.contains("fingerprint"), "{out}");
        assert!(out.contains("input  a[7:0]"), "{out}");
        assert!(out.contains("output p[15:0]"), "{out}");

        // Re-emit as axnl-v1, import that back, and check it lints clean.
        let jfile = dir.join("ca8.axnl");
        let wrote = run_str(&[
            "import",
            vfile.to_str().unwrap(),
            "--json",
            "-o",
            jfile.to_str().unwrap(),
        ])
        .unwrap();
        assert!(wrote.contains("axnl-v1"), "{wrote}");
        let out2 = run_str(&["import", jfile.to_str().unwrap(), "--lint"]).unwrap();
        assert!(out2.contains("(axnl)"), "{out2}");
        assert!(out2.contains("0 error(s)"), "{out2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_chains_absint_and_characterize() {
        let dir = std::env::temp_dir().join("axmul_cli_import_chain_test");
        std::fs::create_dir_all(&dir).unwrap();
        let vfile = dir.join("trunc8.v");
        run_str(&[
            "generate",
            "--arch",
            "truncated",
            "--bits",
            "8",
            "-o",
            vfile.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&[
            "import",
            vfile.to_str().unwrap(),
            "--absint",
            "--characterize",
        ])
        .unwrap();
        assert!(out.contains("absint output"), "{out}");
        assert!(out.contains("critical path"), "{out}");
        assert!(out.contains("EDP"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_config_certifies_paper_ca_bracket() {
        // absint pins (a A A A A) to exactly [2312, 2312]; the SAT
        // proof must land on the same number and certify it.
        let out = run_str(&["verify", "--config", "(a A A A A)"]).unwrap();
        assert!(out.contains("exact wce: 2312"), "{out}");
        assert!(out.contains("CERTIFIED"), "{out}");
    }

    #[test]
    fn verify_arch_json_has_machine_fields() {
        let out = run_str(&["verify", "--arch", "k", "--bits", "4", "--json"]).unwrap();
        assert!(out.contains("\"wce\":"), "{out}");
        assert!(out.contains("\"contained\":true"), "{out}");
        assert!(out.contains("\"witness\":"), "{out}");
    }

    #[test]
    fn verify_file_equivalence_and_refutation() {
        let dir = std::env::temp_dir().join("axmul_cli_verify_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ca = dir.join("ca8.v");
        let k = dir.join("k8.v");
        run_str(&[
            "generate",
            "--arch",
            "ca",
            "--bits",
            "8",
            "-o",
            ca.to_str().unwrap(),
        ])
        .unwrap();
        run_str(&[
            "generate",
            "--arch",
            "k",
            "--bits",
            "8",
            "-o",
            k.to_str().unwrap(),
        ])
        .unwrap();

        // A file against itself: equivalent, discharged structurally.
        let out = run_str(&[
            "verify",
            ca.to_str().unwrap(),
            "--against",
            ca.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("EQUIVALENT"), "{out}");
        assert!(out.contains("structurally identical"), "{out}");

        // Ca vs K differ; the refutation carries a counterexample.
        let err = run_str(&[
            "verify",
            ca.to_str().unwrap(),
            "--against",
            k.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Verify(_)), "{err}");
        assert!(err.to_string().contains("NOT EQUIVALENT"), "{err}");

        // An approximate multiplier is not the exact product.
        let err = run_str(&["verify", ca.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Verify(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_verify_proves_config_twin() {
        let dir = std::env::temp_dir().join("axmul_cli_import_verify_test");
        std::fs::create_dir_all(&dir).unwrap();
        let vfile = dir.join("ca8.v");
        run_str(&[
            "generate",
            "--arch",
            "ca",
            "--bits",
            "8",
            "-o",
            vfile.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&[
            "import",
            vfile.to_str().unwrap(),
            "--verify",
            "--config",
            "(a A A A A)",
        ])
        .unwrap();
        assert!(out.contains("verify: EQUIVALENT"), "{out}");

        // The wrong twin is refuted, not fingerprint-rejected.
        let err = run_str(&[
            "import",
            vfile.to_str().unwrap(),
            "--verify",
            "--config",
            "(a X X X X)",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Verify(_)), "{err}");

        // --verify without a --config twin is a usage error.
        assert!(matches!(
            run_str(&["import", vfile.to_str().unwrap(), "--verify"]),
            Err(CliError::Usage(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_reports_typed_errors() {
        let dir = std::env::temp_dir().join("axmul_cli_import_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.v");
        std::fs::write(&bad, "module broken (").unwrap();
        let err = run_str(&["import", bad.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Netio(_)), "{err}");
        assert!(err.to_string().contains("[syntax]"), "{err}");

        assert!(matches!(
            run_str(&["import", bad.to_str().unwrap(), "--format", "edif"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run_str(&["import"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_str(&["import", "--lint"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["import", dir.join("nope.v").to_str().unwrap()]),
            Err(CliError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

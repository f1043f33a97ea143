//! Golden transcript of the CLI's netlist operations: `import` (the
//! summary, `--lint`, `--absint`, both `--verify --config` verdicts and
//! the error paths), `verify FILE` (against a configuration, a second
//! file, the exact product, and a refutation), `absint --config`,
//! `verify --config --json` and `verify --arch` (text and `--json`),
//! plus `characterize` and `import --characterize`. Each command's stdout, or its rendered error, must
//! equal `tests/golden/ops_cli.txt`. The fixture directory is written
//! as `$DIR` and solve times as `<ms>`.
//!
//! A second test holds the front ends to one EDP per design: the CLI's
//! `characterize`, `import --characterize`, the `axmul dse` golden and
//! the daemon's `characterize-config` report the same energy and EDP
//! for the paper's Ca and Cc 8×8 designs. A third holds them to one
//! absint document: `absint --config KEY --json` prints the bytes of
//! the daemon's `absint-query` result.

use std::path::{Path, PathBuf};

use axmul_cli::run;
use axmul_serve::json;
use axmul_serve::loadgen::roster;
use axmul_serve::proto::render_request;
use axmul_serve::{Op, Request, Service};

/// Writes the netlist files the transcript imports into a fresh
/// directory: three generated designs, two exact 4×4 multipliers (one
/// structurally equal to the `X` leaf, one not), the netlist
/// the `(a A A A A)` configuration assembles, and a truncated file.
fn fixtures(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axmul_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (arch, bits, file) in [
        ("ca", "8", "ca8.v"),
        ("cc", "8", "cc8.v"),
        ("k", "8", "k8.v"),
        ("array", "4", "arr4.v"),
        ("ip-speed", "4", "ips4.v"),
    ] {
        let path = dir.join(file);
        axmul(
            &dir,
            &[
                "generate",
                "--arch",
                arch,
                "--bits",
                bits,
                "-o",
                path.to_str().unwrap(),
            ],
        );
    }
    let twin: axmul_dse::Config = "(a A A A A)".parse().unwrap();
    std::fs::write(
        dir.join("twin8.v"),
        axmul_fabric::export::to_verilog(&twin.assemble()),
    )
    .unwrap();
    std::fs::write(dir.join("bad.v"), "module broken (").unwrap();
    dir
}

/// Runs one command with `$DIR/` expanded, and returns its stdout or
/// `error: <rendered error>`, with the directory masked again.
fn axmul(dir: &Path, args: &[&str]) -> String {
    let prefix = format!("{}/", dir.display());
    let args: Vec<String> = args.iter().map(|a| a.replace("$DIR/", &prefix)).collect();
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => format!("error: {e}\n"),
    };
    out.replace(&prefix, "$DIR/")
}

/// Replaces every number followed by ` ms`, or following
/// `"elapsed_ms":`, with `<ms>`.
fn mask_ms(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        let len = rest[start..]
            .find(|c: char| c != '.' && !c.is_ascii_digit())
            .unwrap_or(rest.len() - start);
        let (head, num, tail) = (
            &rest[..start],
            &rest[start..start + len],
            &rest[start + len..],
        );
        out.push_str(head);
        let timed = tail.starts_with(" ms") || head.ends_with("\"elapsed_ms\":");
        out.push_str(if timed { "<ms>" } else { num });
        rest = tail;
    }
    out.push_str(rest);
    out
}

const COMMANDS: &[&[&str]] = &[
    &["import", "$DIR/ca8.v"],
    &["import", "$DIR/ca8.v", "--lint"],
    &["import", "$DIR/ca8.v", "--absint"],
    &[
        "import",
        "$DIR/ca8.v",
        "--verify",
        "--config",
        "(a A A A A)",
    ],
    &[
        "import",
        "$DIR/twin8.v",
        "--verify",
        "--config",
        "(a A A A A)",
    ],
    &["import", "$DIR/arr4.v", "--verify", "--config", "X"],
    &["import", "$DIR/ips4.v", "--verify", "--config", "X"],
    &[
        "import",
        "$DIR/ca8.v",
        "--verify",
        "--config",
        "(a X X X X)",
    ],
    &["import", "$DIR/ca8.v", "--verify"],
    &["import", "$DIR/ca8.v", "--format", "edif"],
    &["import", "$DIR/ca8.v", "--format", "verilog"],
    &["import", "$DIR/bad.v"],
    &["verify", "$DIR/ca8.v", "--config", "(a A A A A)"],
    &["verify", "$DIR/arr4.v", "--config", "X"],
    &["verify", "$DIR/ips4.v", "--config", "X"],
    &["verify", "$DIR/ca8.v", "--against", "$DIR/ca8.v"],
    &["verify", "$DIR/ca8.v", "--against", "$DIR/k8.v"],
    &["verify", "$DIR/arr4.v"],
    &["verify", "$DIR/ca8.v"],
    &["verify", "$DIR/ca8.v", "--config", "(a A A"],
    &["absint", "--config", "(a A A A A)"],
    &["absint", "--config", "(a A A A A)", "--json"],
    &["absint", "--config", "(q A A A A)"],
    &["verify", "--config", "(a A A A A)", "--json"],
    &["verify", "--arch", "ca", "--bits", "8"],
    &["verify", "--arch", "k", "--bits", "8", "--json"],
    &["characterize", "--arch", "ca", "--bits", "8"],
    &["characterize", "--arch", "cc", "--bits", "8"],
    &["import", "$DIR/ca8.v", "--characterize"],
    &["import", "$DIR/cc8.v", "--characterize"],
];

#[test]
fn netlist_operations_match_golden_transcript() {
    let dir = fixtures("ops_golden");
    let mut transcript = String::new();
    for args in COMMANDS {
        transcript.push_str(&format!("$ axmul {}\n", args.join(" ")));
        transcript.push_str(&mask_ms(&axmul(&dir, args)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(transcript, include_str!("golden/ops_cli.txt"));
}

/// The `(energy, EDP)` pair of a report's `energy: E units/op, EDP D`
/// line, as printed.
fn energy_line(report: &str) -> (String, String) {
    let line = report
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("energy: "))
        .unwrap_or_else(|| panic!("no energy line in:\n{report}"));
    let (energy, edp) = line.split_once(" units/op, EDP ").expect("energy layout");
    (energy.to_string(), edp.to_string())
}

/// The EDP the `axmul dse --width 8` golden prints on the error/EDP
/// front row of `key`.
fn dse_golden_edp(key: &str) -> String {
    include_str!("golden/dse_8x8.txt")
        .lines()
        .find_map(|l| {
            l.trim_start()
                .strip_prefix(key)?
                .trim_start()
                .strip_prefix("EDP ")
        })
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no EDP row for {key}"))
        .to_string()
}

/// The daemon's `characterize-config` energy and EDP for `key`, at the
/// CLI's printed precision.
fn daemon_energy(svc: &Service, key: &str) -> (String, String) {
    let op = Op::Characterize { config: key.into() };
    let reply = svc.handle_payload(&render_request(&Request { id: 1, op }));
    let reply = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    let cost = reply
        .get("result")
        .and_then(|r| r.get("cost"))
        .unwrap_or_else(|| panic!("no cost in reply: {reply}"));
    let num = |field: &str| cost.get(field).and_then(json::Value::as_f64).unwrap();
    (
        format!("{:.3}", num("energy_per_op")),
        format!("{:.3}", num("edp")),
    )
}

#[test]
fn front_ends_report_one_edp_per_design() {
    let dir = fixtures("one_edp");
    let svc = Service::new(None);
    for (arch, file, key) in [
        ("ca", "ca8.v", "(a A A A A)"),
        ("cc", "cc8.v", "(c A A A A)"),
    ] {
        let cli = energy_line(&axmul(
            &dir,
            &["characterize", "--arch", arch, "--bits", "8"],
        ));
        let import = energy_line(&axmul(
            &dir,
            &["import", &format!("$DIR/{file}"), "--characterize"],
        ));
        assert_eq!(import, cli, "{arch}: import --characterize vs characterize");
        assert_eq!(
            daemon_energy(&svc, key),
            cli,
            "{arch}: daemon {key} vs characterize"
        );
        assert_eq!(
            dse_golden_edp(key),
            cli.1,
            "{arch}: dse golden {key} vs characterize"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The key of the `bits`-wide configuration that nests `(s A A A A)`
/// with summation `s` at every level.
fn uniform_key(summation: char, bits: u32) -> String {
    let mut key = "A".to_string();
    let mut width = 4;
    while width < bits {
        key = format!("({summation} {key} {key} {key} {key})");
        width *= 2;
    }
    key
}

#[test]
fn front_ends_render_one_absint_document() {
    let svc = Service::new(None);
    let mut keys: Vec<String> = ['a', 'c']
        .iter()
        .flat_map(|&s| [uniform_key(s, 8), uniform_key(s, 16)])
        .collect();
    keys.extend(roster(9, 29).iter().map(axmul_dse::Config::key));
    for key in keys {
        let cli = run(&[
            "absint".into(),
            "--config".into(),
            key.clone(),
            "--json".into(),
        ]);
        let op = Op::AbsintQuery {
            config: key.clone(),
        };
        let reply = svc.handle_payload(&render_request(&Request { id: 1, op }));
        let reply = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        let result = reply
            .get("result")
            .unwrap_or_else(|| panic!("no result for {key}: {reply}"));
        assert_eq!(cli.unwrap(), format!("{result}\n"), "{key}");
    }
}

#[test]
fn absint_json_prints_a_32_bit_wce_exactly() {
    let key = uniform_key('a', 32);
    let cfg: axmul_dse::Config = key.parse().unwrap();
    let ub = axmul_dse::static_bounds(&cfg).unwrap().bound.wce_ub();
    assert!(
        ub > 1 << 53,
        "{ub} fits f64 exactly; the test shows nothing"
    );
    let out = run(&["absint".into(), "--config".into(), key, "--json".into()]).unwrap();
    assert!(out.contains(&format!("\"wce_ub\":{ub},")), "{out}");
    let doc = json::parse(&out).unwrap();
    assert_eq!(doc.get("wce_ub"), Some(&json::Value::int(ub)));
}

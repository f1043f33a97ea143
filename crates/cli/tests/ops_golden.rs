//! Golden transcript of the CLI's netlist operations: `import` (the
//! summary, `--lint`, `--absint`, both `--verify --config` verdicts and
//! the error paths), `verify FILE` (against a configuration, a second
//! file, the exact product, and a refutation), `absint --config` and
//! `verify --config --json`. Each command's stdout, or its rendered
//! error, must equal `tests/golden/ops_cli.txt`. The fixture directory
//! is written as `$DIR` and solve times as `<ms>`.

use std::path::{Path, PathBuf};

use axmul_cli::run;

/// Writes the netlist files the transcript imports into a fresh
/// directory: two generated designs, two exact 4×4 multipliers (one
/// structurally equal to the `X` leaf, one not), the netlist
/// the `(a A A A A)` configuration assembles, and a truncated file.
fn fixtures() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axmul_ops_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (arch, bits, file) in [
        ("ca", "8", "ca8.v"),
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
];

#[test]
fn netlist_operations_match_golden_transcript() {
    let dir = fixtures();
    let mut transcript = String::new();
    for args in COMMANDS {
        transcript.push_str(&format!("$ axmul {}\n", args.join(" ")));
        transcript.push_str(&mask_ms(&axmul(&dir, args)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(transcript, include_str!("golden/ops_cli.txt"));
}

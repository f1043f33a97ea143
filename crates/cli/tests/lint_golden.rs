//! Golden reports of `axmul lint` on the 16×16 Ca and Cc designs: the
//! sampled equivalence check, its SAT escalation (wce, witness, ascent
//! steps and conflicts) and every other pass must print exactly the
//! diagnostics recorded in `tests/golden/`. The reports hold no timing,
//! so the whole output is compared.

use axmul_cli::run;

fn lint_report(arch: &str) -> String {
    let args: Vec<String> = ["lint", "--arch", arch, "--bits", "16"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    run(&args).unwrap()
}

#[test]
fn lint_ca_16x16_report_matches_golden() {
    assert_eq!(lint_report("ca"), include_str!("golden/lint_ca_16x16.txt"));
}

#[test]
fn lint_cc_16x16_report_matches_golden() {
    assert_eq!(lint_report("cc"), include_str!("golden/lint_cc_16x16.txt"));
}

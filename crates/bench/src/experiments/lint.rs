//! Roster-wide static analysis: the `repro lint` experiment.
//!
//! Runs the full `axmul-lint` pipeline over every netlist in the Fig. 7
//! rosters at 4/8/16 bits (with behavioral equivalence wherever a
//! model exists), the paper-claim checks (Tables 2/3, slice fit), and a
//! deterministic sample of DSE-generated 8×8 configurations. At 16×16
//! the equivalence claims escalate to SAT — the approximate designs get
//! their exact worst-case error certified in-line (`equiv-wce-certified`
//! in the codes column), the functionally exact VivadoIP emulations a
//! bounded refutation probe — which adds roughly half a minute of
//! solver time to the release-build run.
//!
//! The gate: **zero errors everywhere**, and zero warnings outside the
//! documented waste allowance of [`expected_waste`] (keyed by each
//! netlist's own name, as in `axmul lint --deny warnings`) — the proposed
//! designs (Ca/Cc/Trunc, the elementary blocks, every DSE sample) and
//! the W baseline must be completely warning-free. The closing
//! `lint verdict:` line is what the CI gate greps for.

use axmul_baselines::{Kulkarni, RehmanW};
use axmul_core::behavioral::{Ca, Cc};
use axmul_core::{Exact, Multiplier};
use axmul_dse::Config;
use axmul_lint::{check_paper_claims, expected_waste, LintOptions, LintReport, Linter, Severity};

use crate::report::Table;
use crate::roster::fig7_roster;

/// The behavioral model paired with a Fig. 7 roster entry, by name.
///
/// `Trunc(...)` returns `None`: the paper's product-zeroing behavioral
/// model and the PP-dropping hardware idiom differ by design (see
/// `docs/modeling-notes.md`), so only structural passes apply.
fn model_for(name: &str, bits: u32) -> Option<Box<dyn Multiplier>> {
    if name.starts_with("K ") {
        Some(Box::new(Kulkarni::new(bits).expect("roster width")))
    } else if name.starts_with("W ") {
        Some(Box::new(RehmanW::new(bits).expect("roster width")))
    } else if name.starts_with("Ca ") {
        Some(Box::new(Ca::new(bits).expect("roster width")))
    } else if name.starts_with("Cc ") {
        Some(Box::new(Cc::new(bits).expect("roster width")))
    } else if name.starts_with("VivadoIP") {
        Some(Box::new(Exact::new(bits, bits)))
    } else {
        None
    }
}

/// Lints every roster/claim/DSE netlist with `opts`; returns each
/// netlist's own name (the key of [`expected_waste`]) with its report,
/// in a stable order. Shared by the experiment and the tests.
#[must_use]
pub fn lint_all_reports(opts: LintOptions) -> Vec<(String, LintReport)> {
    let linter = Linter::with_options(opts);
    let mut reports = Vec::new();
    for bits in [4u32, 8, 16] {
        for entry in fig7_roster(bits) {
            let mut report = match model_for(&entry.name, bits) {
                Some(model) => linter.lint_against(&entry.netlist, model.as_ref()),
                None => linter.lint(&entry.netlist),
            };
            report.netlist = entry.name;
            reports.push((entry.netlist.name().to_string(), report));
        }
    }
    reports.extend(
        check_paper_claims(opts)
            .into_iter()
            .map(|r| (r.netlist.clone(), r)),
    );
    // Every 100th enumerated 8x8 DSE configuration (deterministic, 13
    // of 1250): generated netlists must satisfy the same rules as the
    // hand-built ones.
    for cfg in Config::enumerate(8).into_iter().step_by(100) {
        let netlist = cfg.assemble();
        let mut report = linter.lint(&netlist);
        report.netlist = format!("dse {}", cfg.key());
        reports.push((netlist.name().to_string(), report));
    }
    reports
}

/// **Static analysis gate.** Lints the full roster and prints one row
/// per netlist. Any netlist with an error or an *unexpected* warning
/// (outside the `expected_waste` allowance) gets its full report
/// appended. Ends with a `lint verdict:` line — `CLEAN` only if there
/// are zero errors and zero unexpected warnings.
#[must_use]
pub fn lint_roster() -> String {
    let reports = lint_all_reports(LintOptions::default());
    let mut t = Table::new(
        "Static analysis: axmul-lint over the Fig. 7 rosters, paper claims and DSE samples",
        &[
            "netlist",
            "LUTs",
            "CARRY4s",
            "err",
            "warn",
            "info",
            "notable codes",
        ],
    );
    let mut problems = String::new();
    let (mut errors, mut warnings, mut unexpected) = (0usize, 0usize, 0usize);
    for (name, r) in &reports {
        errors += r.errors();
        warnings += r.warnings();
        let stray = r
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning && !expected_waste(name, d.code))
            .count();
        unexpected += stray;
        let codes: Vec<String> = r
            .by_code()
            .into_iter()
            .filter(|(code, _)| !code.ends_with("-verified") && *code != "equiv-sampled")
            .map(|(code, n)| {
                if n > 1 {
                    format!("{code}x{n}")
                } else {
                    code.to_string()
                }
            })
            .collect();
        t.row_owned(vec![
            r.netlist.clone(),
            r.luts.to_string(),
            r.carry4s.to_string(),
            r.errors().to_string(),
            r.warnings().to_string(),
            r.infos().to_string(),
            codes.join(" "),
        ]);
        if r.errors() > 0 || stray > 0 {
            problems.push_str(&r.to_string());
        }
    }
    let mut s = t.render();
    s.push_str(&problems);
    s.push_str(&format!(
        "lint verdict: {} ({} netlists, {errors} error(s), {warnings} warning(s), \
         {unexpected} outside the documented waste allowance)\n",
        if errors == 0 && unexpected == 0 {
            "CLEAN"
        } else {
            "DIRTY"
        },
        reports.len(),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reduced sampling and a zero SAT budget (bounded verdicts instead
    // of full wce certificates) keep the 16-bit equivalence checks
    // fast in debug builds; exhaustive widths are unaffected. The
    // certified path is exercised by the lint crate's own tests.
    fn fast_opts() -> LintOptions {
        LintOptions {
            samples: 512,
            sat_conflicts: 0,
            ..LintOptions::default()
        }
    }

    #[test]
    fn every_roster_netlist_is_error_free() {
        for (_, r) in lint_all_reports(fast_opts()) {
            assert!(r.is_clean(false), "{r}");
        }
    }

    #[test]
    fn warnings_confined_to_documented_waste() {
        // Proposed designs, W, Trunc, the claim fixtures and every DSE
        // sample must be completely warning-free; K and the VivadoIP
        // emulations may only carry their documented waste codes.
        for (name, r) in lint_all_reports(fast_opts()) {
            for d in &r.diagnostics {
                if d.severity == Severity::Warning {
                    assert!(
                        expected_waste(&name, d.code),
                        "unexpected warning in `{}`: {d}",
                        r.netlist
                    );
                }
            }
        }
    }

    #[test]
    fn kulkarni_fold_opportunity_is_detected() {
        // The finding behind the K allowance: the kernel's deleted P3
        // bit leaves a provably-constant summation LUT.
        let reports = lint_all_reports(fast_opts());
        let (name, k4) = reports
            .iter()
            .find(|(_, r)| r.netlist == "K 4x4")
            .expect("roster contains K 4x4");
        assert!(name.starts_with("kulkarni2x2"), "{name}");
        assert_eq!(k4.by_code().get("const-lut"), Some(&1), "{k4}");
        assert!(!k4.by_code().contains_key("ignored-pin"), "{k4}");
    }

    #[test]
    fn equivalence_runs_for_modeled_entries() {
        let reports = lint_all_reports(fast_opts());
        let (_, ca8) = reports
            .iter()
            .find(|(_, r)| r.netlist == "Ca 8x8")
            .expect("roster contains Ca 8x8");
        assert!(ca8.by_code().contains_key("equiv-verified"), "{ca8}");
        let (_, ca16) = reports
            .iter()
            .find(|(_, r)| r.netlist == "Ca 16x16")
            .expect("roster contains Ca 16x16");
        assert!(ca16.by_code().contains_key("equiv-sampled"), "{ca16}");
    }
}

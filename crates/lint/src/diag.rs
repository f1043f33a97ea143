//! The diagnostic model shared by every lint pass: a [`Diagnostic`] is
//! one finding with a pass, a severity, a stable code, and a locus
//! (cell, net, or the whole netlist). A [`LintReport`] aggregates the
//! findings of one netlist and renders them for humans (via
//! [`std::fmt::Display`]); its JSON view for machines is
//! `axmul_serve::ops::lint_report_value`, shared by the CLI and the
//! daemon.

use std::collections::BTreeMap;
use std::fmt;

/// How bad a finding is.
///
/// The ordering is `Info < Warning < Error`, so `max()` over a report
/// gives its worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An observation: idiomatic but worth surfacing (e.g. an unused
    /// fracturable `O5` output).
    Info,
    /// Suspicious structure that wastes area or suggests a bug but does
    /// not falsify the netlist (e.g. a LUT whose output drives nothing).
    Warning,
    /// The netlist is ill-formed, illegal to pack, or fails a checked
    /// claim.
    Error,
}

impl Severity {
    /// Lower-case name, as used in reports and JSON.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which analysis pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Structural sanity: driver-table consistency, topological order,
    /// combinational loops, dangling and multiply-driven nets,
    /// unreachable cells.
    Structure,
    /// Dead logic: unused outputs, ignored pins, constant-foldable
    /// LUTs, stuck carry stages.
    DeadLogic,
    /// Packing legality: `LUT6_2` dual-output rules, `CARRY4` cascade
    /// continuity, stranded-site cross-check against the area model.
    Packing,
    /// Claim checking: structural-vs-behavioral equivalence and the
    /// paper's Table 2/3 properties.
    Claims,
    /// Static bounds: known-bits output ranges, constant output bits
    /// and sound error intervals from the abstract-interpretation
    /// engine (`axmul-absint`), at any width.
    Bounds,
}

impl Pass {
    /// Lower-case name, as used in reports and JSON.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Pass::Structure => "structure",
            Pass::DeadLogic => "dead-logic",
            Pass::Packing => "packing",
            Pass::Claims => "claims",
            Pass::Bounds => "bounds",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a finding points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locus {
    /// The netlist as a whole.
    Global,
    /// A cell, by index into [`axmul_fabric::Netlist::cells`].
    Cell(usize),
    /// A net, by [`axmul_fabric::NetId::index`].
    Net(usize),
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Global => f.write_str("netlist"),
            Locus::Cell(i) => write!(f, "cell c{i}"),
            Locus::Net(i) => write!(f, "net n{i}"),
        }
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that produced the finding.
    pub pass: Pass,
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `comb-loop`, `dead-o5`),
    /// suitable for filtering and for asserting in tests.
    pub code: &'static str,
    /// Which decision engine produced the verdict: `"static"` for
    /// purely structural reasoning, `"table"` for the exhaustive
    /// truth-table engine, `"known-bits"`/`"absint"` for the abstract
    /// interpretation, `"sim"` for simulation-backed checks, and
    /// `"sat"` for a CDCL (un)satisfiability proof. Reports record the
    /// engine per finding so a wide netlist shows *how* each verdict
    /// was reached instead of a blanket "skipped" note.
    pub engine: &'static str,
    /// What the finding points at.
    pub locus: Locus,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}/{} {}: {} <{}>",
            self.severity, self.pass, self.code, self.locus, self.message, self.engine
        )
    }
}

/// All findings for one netlist, plus what was skipped and why.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the linted netlist.
    pub netlist: String,
    /// LUT count of the linted netlist (context for report readers).
    pub luts: usize,
    /// `CARRY4` count of the linted netlist.
    pub carry4s: usize,
    /// Every finding, sorted worst-first.
    pub diagnostics: Vec<Diagnostic>,
    /// Analyses that could not run (e.g. the truth-table engine beyond
    /// its input-width cap), with the reason. An entry here means the
    /// report is sound but not complete.
    pub skipped: Vec<String>,
}

impl LintReport {
    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of errors.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warnings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of infos.
    #[must_use]
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// `true` if the netlist passed: no errors, and no warnings either
    /// when `deny_warnings` is set.
    #[must_use]
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Findings grouped by code, with counts — the shape the roster
    /// summary tables want.
    #[must_use]
    pub fn by_code(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for d in &self.diagnostics {
            *map.entry(d.code).or_insert(0) += 1;
        }
        map
    }

    /// Sorts findings worst-first, then by pass, locus, and code, so
    /// reports are deterministic.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.pass.cmp(&b.pass))
                .then(a.locus.cmp(&b.locus))
                .then(a.code.cmp(b.code))
        });
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint `{}` ({} LUTs, {} CARRY4s): {} error(s), {} warning(s), {} info(s)",
            self.netlist,
            self.luts,
            self.carry4s,
            self.errors(),
            self.warnings(),
            self.infos()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        for s in &self.skipped {
            writeln!(f, "  [skipped] {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            netlist: "m".into(),
            luts: 2,
            carry4s: 1,
            diagnostics: vec![
                Diagnostic {
                    pass: Pass::DeadLogic,
                    severity: Severity::Info,
                    code: "dead-o5",
                    engine: "static",
                    locus: Locus::Cell(0),
                    message: "O5 unused".into(),
                },
                Diagnostic {
                    pass: Pass::Structure,
                    severity: Severity::Error,
                    code: "comb-loop",
                    engine: "sat",
                    locus: Locus::Net(3),
                    message: "cycle \"here\"".into(),
                },
            ],
            skipped: vec![],
        }
    }

    #[test]
    fn severity_orders_and_names() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.infos(), 1);
        assert!(!r.is_clean(false));
        let clean = LintReport::default();
        assert!(clean.is_clean(true));
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = sample();
        r.sort();
        assert_eq!(r.diagnostics[0].code, "comb-loop");
    }

    #[test]
    fn display_mentions_every_diag() {
        let text = sample().to_string();
        assert!(text.contains("comb-loop"));
        assert!(text.contains("dead-o5"));
        assert!(text.contains("cell c0"));
    }

    #[test]
    fn by_code_groups() {
        let r = sample();
        let m = r.by_code();
        assert_eq!(m["comb-loop"], 1);
        assert_eq!(m["dead-o5"], 1);
    }
}

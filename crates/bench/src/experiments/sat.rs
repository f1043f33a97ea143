//! The `repro sat` experiment: SAT-proven ground truth past the sweep
//! horizon.
//!
//! Two parts:
//!
//! 1. **Exact worst-case error** — [`axmul_sat::prove_wce`] pins the
//!    true `wce` of every roster design: at 8×8 in `--quick` mode
//!    (where the proof must *equal* the exhaustive sweep, bit for
//!    bit), at 16×16 and 32×32 in full mode (where no sweep exists and
//!    the proof *is* the truth). Every proven value must sit inside
//!    the abstract interpreter's `[wce_lb, wce_ub]` bracket — the
//!    `bounds_certified` gate certifies absint's soundness at widths
//!    `repro absint` can only sample.
//! 2. **Equivalence** — export → import round trips must miter to
//!    UNSAT (the interchange loop preserves *semantics*, not just
//!    bytes), a renamed structural variant must be discharged by
//!    structural hashing alone, and a deliberately distinct pair must
//!    come back `NotEquivalent` with a counterexample that replays on
//!    the real evaluator. Together these feed the `all_equiv` gate.
//!
//! The 16×16 roster holds 14 designs: the four named architectures and
//! ten mixed configuration trees with approximate leaves throughout.
//! Fully-exact subblocks are deliberately absent — proving `wce = 0`
//! of a structurally alien exact multiplier is the classically hard
//! case of multiplier equivalence checking and exhausts any reasonable
//! conflict budget (the table in `EXPERIMENTS.md` records which Fig. 7
//! entries that excludes), while every approximate design here closes
//! in seconds.
//!
//! `sat_json` renders the same measurements as the `BENCH_sat.json`
//! artifact the CI gate greps for `"all_equiv": true` and
//! `"bounds_certified": true`.

use axmul_absint::analyze_netlist;
use axmul_baselines::{kulkarni_netlist, pp_truncated_netlist, rehman_netlist};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_dse::{static_bounds, Config};
use axmul_fabric::export::to_verilog;
use axmul_fabric::Netlist;
use axmul_metrics::ErrorStats;
use axmul_sat::{check_equiv, prove_wce, EquivOutcome, ProofOptions, WceEngine, WceOptions};

use crate::report::Table;

/// The ten 16×16 mixed configuration trees of the full-mode roster.
/// All leaves are approximate (`A` or partial-product truncation) —
/// see the module docs for why exact subblocks are excluded.
const MIX16: &[(&str, &str)] = &[
    (
        "Mix1 16x16",
        "(c (a A A A A) (a A A A A) (a A A A A) (a A A A A))",
    ),
    (
        "Mix2 16x16",
        "(a (c A A A A) (c A A A A) (c A A A A) (c A A A A))",
    ),
    (
        "Mix3 16x16",
        "(c (a T3 T3 T3 T3) (a A A A A) (a A A A A) (a A A A A))",
    ),
    (
        "Mix4 16x16",
        "(a (a T2 T2 T2 T2) (a A A A A) (c A A A A) (a A A A A))",
    ),
    (
        "Mix5 16x16",
        "(c (c A A A A) (a A A A A) (a A A A A) (a A A A A))",
    ),
    (
        "Mix6 16x16",
        "(a (a A A A A) (c A A A A) (c A A A A) (a A A A A))",
    ),
    (
        "Mix7 16x16",
        "(a (a T3 A A A) (a A T3 A A) (a A A T3 A) (a A A A T3))",
    ),
    (
        "Mix8 16x16",
        "(c (a A A A A) (c A A A A) (a T2 A A T2) (a A A A A))",
    ),
    (
        "Mix9 16x16",
        "(c (a A A A A) (a T3 A A T3) (c A A A A) (a T2 A A A))",
    ),
    (
        "Mix10 16x16",
        "(a (c T2 A A A) (a A A A A) (a A A A A) (c A A T3 A))",
    ),
];

/// One design queued for a wce proof: its absint bracket and witness
/// hint ride along.
struct WceCase {
    name: String,
    key: Option<String>,
    netlist: Netlist,
    lb: u128,
    ub: u128,
    hint: Option<(u64, u64)>,
}

/// One proven design.
struct WceRow {
    name: String,
    key: Option<String>,
    bits: u32,
    wce: u128,
    lb: u128,
    ub: u128,
    /// `lb ≤ wce ≤ ub`: the SAT proof certifies absint's bracket.
    certified: bool,
    /// At sweepable widths: the proof equals the exhaustive truth.
    exact_match: Option<bool>,
    witness: (u64, u64),
    ascent_steps: u32,
    conflicts: u64,
    elapsed_ms: f64,
    /// Which CNF the proof searched.
    engine: WceEngine,
}

/// A structural roster design with its bracket from the generic
/// netlist analyzer.
fn structural_case(name: &str, netlist: Netlist) -> WceCase {
    let analysis = analyze_netlist(&netlist);
    let bound = analysis
        .error
        .expect("roster multipliers carry a deviation bound");
    WceCase {
        name: name.to_string(),
        key: None,
        netlist,
        lb: bound.wce_lb,
        ub: bound.wce_ub(),
        hint: bound.witness,
    }
}

/// A configuration-tree roster design with its bracket from the tree
/// analyzer (the same bracket the DSE pruning screen consults).
fn config_case(name: &str, key: &str) -> WceCase {
    let cfg: Config = key.parse().expect("roster keys parse");
    let analysis = static_bounds(&cfg).expect("roster configs analyze");
    WceCase {
        name: name.to_string(),
        key: Some(analysis.key),
        netlist: cfg.assemble(),
        lb: analysis.bound.wce_lb,
        ub: analysis.bound.wce_ub(),
        hint: analysis.bound.witness,
    }
}

/// The sweepable quick-mode roster: the named architectures at 8×8.
fn roster8() -> Vec<WceCase> {
    vec![
        structural_case("K 8x8", kulkarni_netlist(8).expect("valid width")),
        structural_case("W 8x8", rehman_netlist(8).expect("valid width")),
        structural_case("Ca 8x8", ca_netlist(8).expect("valid width")),
        structural_case("Cc 8x8", cc_netlist(8).expect("valid width")),
        structural_case("Trunc(8,5)", pp_truncated_netlist(8, 8, 5)),
    ]
}

/// The 14-design 16×16 roster of the full mode.
fn roster16() -> Vec<WceCase> {
    let mut v = vec![
        structural_case("K 16x16", kulkarni_netlist(16).expect("valid width")),
        structural_case("W 16x16", rehman_netlist(16).expect("valid width")),
        structural_case("Ca 16x16", ca_netlist(16).expect("valid width")),
        structural_case("Cc 16x16", cc_netlist(16).expect("valid width")),
    ];
    v.extend(MIX16.iter().map(|(name, key)| config_case(name, key)));
    v
}

/// The 32×32 extension: the two named architectures whose proofs stay
/// tractable at full width, plus two all-approximate depth-3 trees.
fn roster32() -> Vec<WceCase> {
    let q1 = "(c (a A A A A) (a A A A A) (a A A A A) (a A A A A))";
    let q2 = "(a (c A A A A) (c A A A A) (c A A A A) (c A A A A))";
    let q3 = "(c (a T3 T3 T3 T3) (a A A A A) (a A A A A) (a A A A A))";
    let q4 = "(c (c A A A A) (c A A A A) (c A A A A) (c A A A A))";
    vec![
        structural_case("K 32x32", kulkarni_netlist(32).expect("valid width")),
        structural_case("Cc 32x32", cc_netlist(32).expect("valid width")),
        config_case("Mix11 32x32", &format!("(c {q1} {q2} {q3} {q4})")),
        config_case("Mix12 32x32", &format!("(c {q4} {q4} {q1} {q1})")),
    ]
}

/// Proves one case, comparing against exhaustive truth at ≤ 8 bits.
fn prove_case(case: WceCase) -> WceRow {
    let bits = case
        .netlist
        .input_buses()
        .first()
        .map_or(0, |(_, nets)| u32::try_from(nets.len()).expect("bus width"));
    let opts = WceOptions {
        hint: case.hint,
        ..WceOptions::default()
    };
    let proof = prove_wce(&case.netlist, &opts).expect("roster proofs fit the conflict budget");
    let exact_match = (bits <= 8).then(|| {
        let stats = ErrorStats::exhaustive_wide(&case.netlist).expect("two-bus roster netlist");
        u128::from(stats.max_error.unsigned_abs()) == proof.wce
    });
    WceRow {
        name: case.name,
        key: case.key,
        bits,
        wce: proof.wce,
        lb: case.lb,
        ub: case.ub,
        certified: case.lb <= proof.wce && proof.wce <= case.ub,
        exact_match,
        witness: proof.witness,
        ascent_steps: proof.ascent_steps,
        conflicts: proof.stats.conflicts,
        elapsed_ms: proof.stats.elapsed_ms,
        engine: proof.engine,
    }
}

/// One equivalence check.
struct EquivRow {
    name: String,
    expect_equiv: bool,
    ok: bool,
    structural: bool,
    conflicts: u64,
    elapsed_ms: f64,
}

/// Export → import → miter: the round trip must preserve semantics.
fn roundtrip_check(name: &str, netlist: &Netlist) -> EquivRow {
    let imported = axmul_netio::import(&to_verilog(netlist)).expect("exported dialect re-imports");
    let report = check_equiv(netlist, &imported, &ProofOptions::default()).expect("same interface");
    EquivRow {
        name: name.to_string(),
        expect_equiv: true,
        ok: report.is_equivalent(),
        structural: report.structural,
        conflicts: report.stats.conflicts,
        elapsed_ms: report.stats.elapsed_ms,
    }
}

/// The equivalence suite: round trips, a renamed structural variant,
/// and a distinct pair whose counterexample must replay.
fn equiv_checks(full: bool) -> Vec<EquivRow> {
    let ca8 = ca_netlist(8).expect("valid width");
    let cc8 = cc_netlist(8).expect("valid width");
    let mut rows = vec![roundtrip_check("roundtrip Ca 8x8", &ca8)];
    if full {
        rows.push(roundtrip_check(
            "roundtrip K 16x16",
            &kulkarni_netlist(16).expect("valid width"),
        ));
        rows.push(roundtrip_check(
            "roundtrip Cc 16x16",
            &cc_netlist(16).expect("valid width"),
        ));
        // A renamed twin exports different bytes (the fingerprint
        // covers the module name) yet must be discharged structurally.
        let w16 = rehman_netlist(16).expect("valid width");
        let twin = Netlist::from_parts(
            "renamed_twin".to_string(),
            w16.drivers().to_vec(),
            w16.cells().to_vec(),
            w16.input_buses().to_vec(),
            w16.output_buses().to_vec(),
        );
        let report = check_equiv(&w16, &twin, &ProofOptions::default()).expect("same interface");
        rows.push(EquivRow {
            name: "renamed W 16x16 twin".to_string(),
            expect_equiv: true,
            ok: report.is_equivalent() && report.structural,
            structural: report.structural,
            conflicts: report.stats.conflicts,
            elapsed_ms: report.stats.elapsed_ms,
        });
    }
    // Negative control: two different designs must be refuted with a
    // counterexample that replays to a real mismatch.
    let report = check_equiv(&ca8, &cc8, &ProofOptions::default()).expect("same interface");
    let ok = match &report.outcome {
        EquivOutcome::Equivalent => false,
        EquivOutcome::NotEquivalent(cex) => {
            let vals: Vec<u64> = cex.inputs.iter().map(|(_, v)| *v).collect();
            ca8.eval(&vals).expect("replay") == cex.lhs_outputs
                && cc8.eval(&vals).expect("replay") == cex.rhs_outputs
                && cex.lhs_outputs != cex.rhs_outputs
        }
    };
    rows.push(EquivRow {
        name: "Ca 8x8 vs Cc 8x8 (distinct)".to_string(),
        expect_equiv: false,
        ok,
        structural: report.structural,
        conflicts: report.stats.conflicts,
        elapsed_ms: report.stats.elapsed_ms,
    });
    rows
}

struct Measurements {
    proofs: Vec<WceRow>,
    equiv: Vec<EquivRow>,
}

impl Measurements {
    /// Every equivalence check came back as expected.
    fn all_equiv(&self) -> bool {
        self.equiv.iter().all(|r| r.ok)
    }

    /// Every proven wce sits inside its absint bracket, and matches
    /// the exhaustive truth wherever one exists.
    fn bounds_certified(&self) -> bool {
        self.proofs
            .iter()
            .all(|r| r.certified && r.exact_match.unwrap_or(true))
    }

    fn total_conflicts(&self) -> u64 {
        self.proofs.iter().map(|r| r.conflicts).sum()
    }

    fn max_conflicts(&self) -> u64 {
        self.proofs.iter().map(|r| r.conflicts).max().unwrap_or(0)
    }

    fn total_solve_ms(&self) -> f64 {
        self.proofs.iter().map(|r| r.elapsed_ms).sum()
    }
}

fn measure(quick: bool) -> Measurements {
    let cases = if quick {
        roster8()
    } else {
        let mut v = roster16();
        v.extend(roster32());
        v
    };
    Measurements {
        proofs: cases.into_iter().map(prove_case).collect(),
        equiv: equiv_checks(!quick),
    }
}

fn render(m: &Measurements) -> String {
    let mut t = Table::new(
        "SAT-proven exact worst-case error vs absint brackets",
        &[
            "design",
            "bits",
            "proven wce",
            "absint [lb, ub]",
            "witness",
            "engine",
            "conflicts",
            "time ms",
            "verdict",
        ],
    );
    for r in &m.proofs {
        let verdict = match (r.certified, r.exact_match) {
            (true, Some(true)) => "certified+exact".to_string(),
            (true, None) => "certified".to_string(),
            _ => "REFUTED".to_string(),
        };
        t.row_owned(vec![
            r.name.clone(),
            r.bits.to_string(),
            r.wce.to_string(),
            format!("[{}, {}]", r.lb, r.ub),
            format!("({:#x}, {:#x})", r.witness.0, r.witness.1),
            r.engine.to_string(),
            r.conflicts.to_string(),
            format!("{:.1}", r.elapsed_ms),
            verdict,
        ]);
    }
    let mut out = format!(
        "== SAT proofs: exact error bounds and equivalence ==\n{}",
        t.render()
    );

    let mut e = Table::new(
        "Equivalence checks",
        &["check", "expected", "result", "conflicts", "time ms"],
    );
    for r in &m.equiv {
        e.row_owned(vec![
            r.name.clone(),
            if r.expect_equiv {
                "equivalent".to_string()
            } else {
                "not-equivalent".to_string()
            },
            match (r.ok, r.structural) {
                (true, true) => "ok (structural)".to_string(),
                (true, false) => "ok".to_string(),
                (false, _) => "FAILED".to_string(),
            },
            r.conflicts.to_string(),
            format!("{:.1}", r.elapsed_ms),
        ]);
    }
    out.push('\n');
    out.push_str(&e.render());

    out.push_str(&format!(
        "\n{} wce proofs: {} conflicts total (max {} on one design), {:.1} s solving\n\
         sat verdict: {}\n",
        m.proofs.len(),
        m.total_conflicts(),
        m.max_conflicts(),
        m.total_solve_ms() / 1000.0,
        if m.all_equiv() && m.bounds_certified() {
            "CERTIFIED"
        } else {
            "REFUTED"
        }
    ));
    out
}

fn render_json(m: &Measurements, quick: bool) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"sat\",\n  \"mode\": \"{}\",\n  \"wce_proofs\": [\n",
        if quick { "quick" } else { "full" }
    );
    for (i, r) in m.proofs.iter().enumerate() {
        let key = r
            .key
            .as_ref()
            .map_or("null".to_string(), |k| format!("\"{k}\""));
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"key\": {}, \"bits\": {}, \"wce\": {}, \
             \"wce_lb\": {}, \"wce_ub\": {}, \"certified\": {}, \
             \"witness\": [{}, {}], \"engine\": \"{}\", \"ascent_steps\": {}, \
             \"conflicts\": {}, \"elapsed_ms\": {:.1}}}{}\n",
            r.name,
            key,
            r.bits,
            r.wce,
            r.lb,
            r.ub,
            r.certified,
            r.witness.0,
            r.witness.1,
            r.engine,
            r.ascent_steps,
            r.conflicts,
            r.elapsed_ms,
            if i + 1 < m.proofs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"equiv_checks\": [\n");
    for (i, r) in m.equiv.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"check\": \"{}\", \"expect_equiv\": {}, \"ok\": {}, \
             \"structural\": {}, \"conflicts\": {}, \"elapsed_ms\": {:.1}}}{}\n",
            r.name,
            r.expect_equiv,
            r.ok,
            r.structural,
            r.conflicts,
            r.elapsed_ms,
            if i + 1 < m.equiv.len() { "," } else { "" },
        ));
    }
    let designs_16 = m.proofs.iter().filter(|r| r.bits == 16).count();
    let designs_32 = m.proofs.iter().filter(|r| r.bits == 32).count();
    out.push_str(&format!(
        "  ],\n  \"designs_16x16\": {},\n  \"designs_32x32\": {},\n\
         \x20 \"total_conflicts\": {},\n  \"max_conflicts\": {},\n\
         \x20 \"total_solve_ms\": {:.1},\n\
         \x20 \"all_equiv\": {},\n  \"bounds_certified\": {}\n}}\n",
        designs_16,
        designs_32,
        m.total_conflicts(),
        m.max_conflicts(),
        m.total_solve_ms(),
        m.all_equiv(),
        m.bounds_certified(),
    ));
    out
}

/// Full report: the 14-design 16×16 roster plus four 32×32 designs,
/// and the five-check equivalence suite.
#[must_use]
pub fn sat_report() -> String {
    render(&measure(false))
}

/// CI smoke variant: the 8×8 roster (proofs checked against the
/// exhaustive truth) and two equivalence checks.
#[must_use]
pub fn sat_quick() -> String {
    render(&measure(true))
}

/// The same measurements as a `BENCH_sat.json` payload.
#[must_use]
pub fn sat_json(quick: bool) -> String {
    render_json(&measure(quick), quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_proofs_match_exhaustive_truth() {
        let m = measure(true);
        assert!(m.all_equiv(), "equivalence suite failed");
        assert!(m.bounds_certified(), "a proof escaped its bracket");
        for r in &m.proofs {
            assert_eq!(r.exact_match, Some(true), "{} proof != sweep", r.name);
        }
        let ca8 = m.proofs.iter().find(|r| r.name == "Ca 8x8").unwrap();
        assert_eq!(ca8.wce, 2312, "the paper's approx-Ca worst case");
        let report = render(&m);
        assert!(report.contains("sat verdict: CERTIFIED"));
        assert!(!report.contains("REFUTED"));
        assert!(!report.contains("FAILED"));
    }

    #[test]
    fn json_payload_carries_the_gate_fields() {
        let json = sat_json(true);
        assert!(json.contains("\"bench\": \"sat\""));
        assert!(json.contains("\"all_equiv\": true"));
        assert!(json.contains("\"bounds_certified\": true"));
        assert!(json.contains("\"wce\": 2312"));
    }

    #[test]
    fn full_rosters_have_the_required_sizes() {
        let r16 = roster16();
        assert_eq!(r16.len(), 14);
        let r32 = roster32();
        assert!(r32.len() >= 3);
        // Roster keys are distinct designs (no duplicated mixes).
        let keys: Vec<&String> = r16.iter().filter_map(|c| c.key.as_ref()).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(keys.len(), deduped.len());
    }
}

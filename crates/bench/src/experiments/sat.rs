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
//! [`sat`] returns the same measurements as the `BENCH_sat.json`
//! record the CI gate greps for `"all_equiv": true` and
//! `"bounds_certified": true`.

use axmul_baselines::{kulkarni_netlist, pp_truncated_netlist, rehman_netlist};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_fabric::export::to_verilog;
use axmul_fabric::Netlist;
use axmul_metrics::ErrorStats;
use axmul_sat::{check_equiv, EquivOutcome, ProofOptions, WceEngine};
use axmul_serve::ops::{certify_wce, CertifiedWce, WceDesign};

use crate::report::{mode, BenchRecord, Field, Table};

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

/// One roster design queued for a wce proof.
struct WceCase {
    name: String,
    design: WceDesign,
}

impl WceCase {
    /// The canonical key of a configuration-tree case.
    fn key(&self) -> Option<String> {
        match &self.design {
            WceDesign::Config(cfg) => Some(cfg.key()),
            WceDesign::Netlist(_) => None,
        }
    }
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

/// A structural roster design, bracketed by the generic netlist
/// analyzer.
fn structural_case(name: &str, netlist: Netlist) -> WceCase {
    WceCase {
        name: name.to_string(),
        design: WceDesign::Netlist(netlist),
    }
}

/// A configuration-tree roster design, bracketed by the tree analyzer
/// (the same bracket the DSE pruning screen consults).
fn config_case(name: &str, key: &str) -> WceCase {
    WceCase {
        name: name.to_string(),
        design: WceDesign::Config(key.parse().expect("roster keys parse")),
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

/// Proves one case ([`certify_wce`]), comparing against exhaustive
/// truth at ≤ 8 bits.
fn prove_case(case: WceCase) -> WceRow {
    let CertifiedWce {
        proof,
        bracket,
        contained,
    } = certify_wce(&case.design).expect("roster proofs fit the conflict budget");
    let bound = bracket.expect("roster multipliers carry a deviation bound");
    let key = case.key();
    let exact_match = (proof.a_bits <= 8).then(|| {
        let netlist = match case.design {
            WceDesign::Netlist(netlist) => netlist,
            WceDesign::Config(cfg) => cfg.assemble(),
        };
        let stats = ErrorStats::exhaustive_wide(&netlist).expect("two-bus roster netlist");
        u128::from(stats.max_error.unsigned_abs()) == proof.wce
    });
    WceRow {
        name: case.name,
        key,
        bits: proof.a_bits,
        wce: proof.wce,
        lb: bound.wce_lb,
        ub: bound.wce_ub(),
        certified: contained,
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

fn record(m: &Measurements, quick: bool) -> BenchRecord {
    let proofs = m
        .proofs
        .iter()
        .map(|r| {
            vec![
                ("design", r.name.clone().into()),
                ("key", r.key.clone().into()),
                ("bits", r.bits.into()),
                ("wce", r.wce.into()),
                ("wce_lb", r.lb.into()),
                ("wce_ub", r.ub.into()),
                ("certified", r.certified.into()),
                (
                    "witness",
                    Field::List(vec![r.witness.0.into(), r.witness.1.into()]),
                ),
                ("engine", r.engine.to_string().into()),
                ("ascent_steps", r.ascent_steps.into()),
                ("conflicts", r.conflicts.into()),
                ("elapsed_ms", Field::Fixed(r.elapsed_ms, 1)),
            ]
        })
        .collect();
    let equiv = m
        .equiv
        .iter()
        .map(|r| {
            vec![
                ("check", r.name.clone().into()),
                ("expect_equiv", r.expect_equiv.into()),
                ("ok", r.ok.into()),
                ("structural", r.structural.into()),
                ("conflicts", r.conflicts.into()),
                ("elapsed_ms", Field::Fixed(r.elapsed_ms, 1)),
            ]
        })
        .collect();
    let designs = |bits| m.proofs.iter().filter(|r| r.bits == bits).count();
    BenchRecord::new("sat")
        .field("mode", mode(quick))
        .field("wce_proofs", Field::Rows(proofs))
        .field("equiv_checks", Field::Rows(equiv))
        .field("designs_16x16", designs(16))
        .field("designs_32x32", designs(32))
        .field("total_conflicts", m.total_conflicts())
        .field("max_conflicts", m.max_conflicts())
        .field("total_solve_ms", Field::Fixed(m.total_solve_ms(), 1))
        .field("all_equiv", m.all_equiv())
        .field("bounds_certified", m.bounds_certified())
}

/// Runs the experiment and returns its report with its
/// `BENCH_sat.json` record. The full form proves the 14-design 16×16
/// roster plus four 32×32 designs and runs the five-check equivalence
/// suite; `quick` (the CI smoke) proves the 8×8 roster against the
/// exhaustive truth and runs two equivalence checks.
#[must_use]
pub fn sat(quick: bool) -> (String, String) {
    let m = measure(quick);
    (render(&m), record(&m, quick).render())
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

        let json = record(&m, true).render();
        assert!(json.contains("\"bench\": \"sat\""));
        assert!(json.contains("\"all_equiv\": true"));
        assert!(json.contains("\"bounds_certified\": true"));
        assert!(json.contains("\"wce\": 2312"));
        let parsed = axmul_netio::json::parse(&json).expect("the record is JSON");
        let rows = parsed.get("wce_proofs").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), m.proofs.len());
        // The wce text of every row is the proof's exact u128, which
        // the f64 numbers of a JSON parser cannot check past 2^53.
        let wces: Vec<&str> = json
            .lines()
            .filter_map(|line| line.split("\"wce\": ").nth(1))
            .map(|rest| rest.split(',').next().unwrap())
            .collect();
        let proven: Vec<String> = m.proofs.iter().map(|r| r.wce.to_string()).collect();
        assert_eq!(wces, proven);
    }

    #[test]
    fn records_keep_wce_above_2_pow_53_exact() {
        // K 32x32's proven wce, from `BENCH_sat.json`.
        let wce: u128 = 4_099_276_458_915_470_450;
        assert!(wce > 1 << 53);
        let m = Measurements {
            proofs: vec![WceRow {
                name: "K 32x32".into(),
                key: None,
                bits: 32,
                wce,
                lb: 0,
                ub: u128::from(u64::MAX),
                certified: true,
                exact_match: None,
                witness: (u64::from(u32::MAX), 1),
                ascent_steps: 0,
                conflicts: 0,
                elapsed_ms: 0.0,
                engine: WceEngine::Compositional,
            }],
            equiv: Vec::new(),
        };
        let json = record(&m, false).render();
        assert!(json.contains("\"wce\": 4099276458915470450,"), "{json}");
        assert!(axmul_netio::json::parse(&json).is_ok());
    }

    #[test]
    fn full_rosters_have_the_required_sizes() {
        let r16 = roster16();
        assert_eq!(r16.len(), 14);
        let r32 = roster32();
        assert!(r32.len() >= 3);
        // Roster keys are distinct designs (no duplicated mixes).
        let keys: Vec<String> = r16.iter().filter_map(WceCase::key).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(keys.len(), deduped.len());
    }
}

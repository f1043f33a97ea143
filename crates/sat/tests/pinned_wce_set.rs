//! Pins the twelve proofs of the benchmark's `sat-wce` workload, one by
//! one. `prove_wce` is deterministic, so each design must return the
//! same wce and witness after the same ascent, solves, conflicts,
//! decisions and propagations on every build. A change to the solver's
//! data layout or to how a proof is set up must keep every number; a
//! change that alters the search on purpose updates them in the same
//! commit and says why.
//!
//! All twelve designs carry product-block provenance, so every proof is
//! compositional. The pass totals are what the benchmark's `--trace 1`
//! run reports as `sat.conflicts`, `sat.decisions`, `sat.propagations`,
//! `sat.solves` and `sat.ascent_steps`.

use axmul_dse::Config;
use axmul_sat::{prove_wce, WceEngine, WceOptions};

/// One pinned proof: the design, then what proving it must yield.
struct Pinned {
    key: &'static str,
    wce: u128,
    witness: (u64, u64),
    ascent_steps: u32,
    solves: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

const fn pin(
    key: &'static str,
    wce: u128,
    witness: (u64, u64),
    [ascent_steps, solves, conflicts, decisions, propagations]: [u64; 5],
) -> Pinned {
    Pinned {
        key,
        wce,
        witness,
        ascent_steps: ascent_steps as u32,
        solves,
        conflicts,
        decisions,
        propagations,
    }
}

/// Per design: wce, witness, then ascent steps, solves, conflicts,
/// decisions and propagations.
const SAT_WCE_SET: [Pinned; 12] = [
    pin("(a T2 A T3 T3)", 4757, (255, 119), [0, 2, 10, 34, 265]),
    pin("(a T2 T2 T3 A)", 2405, (255, 127), [0, 2, 7, 22, 126]),
    pin("(a T3 T2 T3 T3)", 4721, (255, 255), [0, 2, 9, 42, 223]),
    pin("(c T3 T1 T3 A)", 8273, (191, 215), [5, 7, 543, 897, 31_693]),
    pin("(c T3 T3 T2 A)", 8282, (222, 223), [2, 4, 575, 802, 35_142]),
    pin("(c T2 A T1 T3)", 11829, (255, 127), [0, 2, 105, 206, 3532]),
    pin("(c T1 T2 A A)", 8305, (223, 223), [1, 3, 170, 269, 7826]),
    pin("(c T2 A A A)", 8293, (223, 223), [1, 3, 75, 141, 3905]),
    pin("(a T2 A A A)", 2309, (255, 119), [0, 2, 5, 12, 120]),
    pin("(c A T2 T3 A)", 8272, (223, 222), [2, 4, 399, 573, 17_961]),
    pin("(a T3 T2 A A)", 2273, (255, 127), [0, 2, 5, 20, 98]),
    pin("(c T3 T1 T1 T3)", 11825, (255, 127), [0, 2, 128, 196, 5269]),
];

/// Conflicts, decisions, propagations, solves and ascent steps of one
/// pass over [`SAT_WCE_SET`].
const PASS_TOTALS: [u64; 5] = [2031, 3214, 106_160, 35, 11];

#[test]
fn sat_wce_proofs_repeat_their_pinned_search() {
    let mut totals = [0u64; 5];
    for pin in &SAT_WCE_SET {
        let netlist = pin.key.parse::<Config>().expect("config key").assemble();
        let proof = prove_wce(&netlist, &WceOptions::default()).expect("provable");
        assert_eq!(proof.engine, WceEngine::Compositional, "{}", pin.key);
        let got = (
            proof.wce,
            proof.witness,
            proof.ascent_steps,
            proof.stats.solves,
            proof.stats.conflicts,
            proof.stats.decisions,
            proof.stats.propagations,
        );
        let want = (
            pin.wce,
            pin.witness,
            pin.ascent_steps,
            pin.solves,
            pin.conflicts,
            pin.decisions,
            pin.propagations,
        );
        assert_eq!(
            got, want,
            "{}: (wce, witness, ascent_steps, solves, conflicts, decisions, propagations)",
            pin.key
        );
        totals[0] += proof.stats.conflicts;
        totals[1] += proof.stats.decisions;
        totals[2] += proof.stats.propagations;
        totals[3] += proof.stats.solves;
        totals[4] += u64::from(proof.ascent_steps);
    }
    assert_eq!(
        totals, PASS_TOTALS,
        "pass totals: conflicts, decisions, propagations, solves, ascent steps"
    );
}

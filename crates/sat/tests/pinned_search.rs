//! Pins the solver's search. `prove_wce` is deterministic, so the same
//! netlist must cost exactly the same conflicts, decisions and
//! propagations and must return the same wce and witness on every
//! build. A refactor of the solver's data layout (clause storage,
//! watch lists) has to keep every number here; a change that alters
//! the search on purpose updates them in the same commit and says why.

use axmul_baselines::kulkarni_netlist;
use axmul_dse::Config;
use axmul_fabric::Netlist;
use axmul_sat::{prove_wce, WceOptions};

/// One pinned proof: the design, then what proving it must yield.
struct Pinned {
    name: &'static str,
    wce: u128,
    witness: (u64, u64),
    ascent_steps: u32,
    solves: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

fn netlist(name: &str) -> Netlist {
    if name == "kulkarni8" {
        kulkarni_netlist(8).expect("width")
    } else {
        name.parse::<Config>().expect("config key").assemble()
    }
}

const PINNED: [Pinned; 3] = [
    Pinned {
        name: "kulkarni8",
        wce: 14450,
        witness: (255, 255),
        ascent_steps: 0,
        solves: 1,
        conflicts: 1281,
        decisions: 1770,
        propagations: 95_690,
    },
    Pinned {
        name: "(c A T2 T1 T1)",
        wce: 8400,
        witness: (188, 219),
        ascent_steps: 6,
        solves: 7,
        conflicts: 2020,
        decisions: 3114,
        propagations: 184_906,
    },
    Pinned {
        name: "(c T3 A T3 T1)",
        wce: 8413,
        witness: (191, 219),
        ascent_steps: 3,
        solves: 4,
        conflicts: 1221,
        decisions: 1809,
        propagations: 96_121,
    },
];

#[test]
fn wce_proofs_repeat_their_pinned_search() {
    for pin in &PINNED {
        let proof = prove_wce(&netlist(pin.name), &WceOptions::default()).expect("provable");
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
            pin.name
        );
    }
}

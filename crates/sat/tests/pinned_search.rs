//! Pins the solver's search. `prove_wce` is deterministic, so the same
//! netlist must cost exactly the same conflicts, decisions and
//! propagations and must return the same wce and witness on every
//! build. A refactor of the solver's data layout (clause storage,
//! watch lists) has to keep every number here; a change that alters
//! the search on purpose updates them in the same commit and says why.
//!
//! Each design is pinned twice. The assembled netlists carry
//! product-block provenance, so they are proven compositionally; a
//! provenance-free copy of the same parts (`Netlist::from_parts`) is
//! proven by the netlist CEGAR. Both CNFs share the LUT encoder, so a
//! change to how a LUT table is encoded moves both sets of pins.
//!
//! Both engines ask the two signs of `P − A·B` separately (`D > m`, then
//! `D < −m` once that side is refuted), never `|D| > m`, so every pin
//! ends in one UNSAT answer per side: `solves` is `ascent_steps + 2`.
//!
//! The seeded pins run `prove_wce` with 1000 samples and a hint whose
//! error ties the best seed's. Seeds are folded in a fixed order
//! (corners × corners, the hint, the samples) with a strict `>`, so the
//! first maximal seed wins. On the Ca design a corner already reaches
//! the wce, so the tying hint must lose to it and the witness shows the
//! order. On the Cc design the hint ties a later sample below the wce,
//! so the pins cover the ascent from that seed bound.

use axmul_baselines::kulkarni_netlist;
use axmul_dse::Config;
use axmul_fabric::Netlist;
use axmul_sat::{prove_wce, WceEngine, WceOptions};

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

/// The same cells and buses with no product-block claims.
fn provenance_free(nl: &Netlist) -> Netlist {
    Netlist::from_parts(
        nl.name(),
        nl.drivers().to_vec(),
        nl.cells().to_vec(),
        nl.input_buses().to_vec(),
        nl.output_buses().to_vec(),
    )
}

const NETLIST_PINS: [Pinned; 3] = [
    Pinned {
        name: "kulkarni8",
        wce: 14450,
        witness: (255, 255),
        ascent_steps: 0,
        solves: 2,
        conflicts: 1289,
        decisions: 1883,
        propagations: 76743,
    },
    Pinned {
        name: "(c A T2 T1 T1)",
        wce: 8400,
        witness: (188, 219),
        ascent_steps: 3,
        solves: 5,
        conflicts: 1070,
        decisions: 1665,
        propagations: 77483,
    },
    Pinned {
        name: "(c T3 A T3 T1)",
        wce: 8413,
        witness: (191, 219),
        ascent_steps: 3,
        solves: 5,
        conflicts: 1411,
        decisions: 2013,
        propagations: 101_585,
    },
];

const COMPOSITIONAL_PINS: [Pinned; 3] = [
    Pinned {
        name: "kulkarni8",
        wce: 14450,
        witness: (255, 255),
        ascent_steps: 0,
        solves: 2,
        conflicts: 20,
        decisions: 60,
        propagations: 480,
    },
    Pinned {
        name: "(c A T2 T1 T1)",
        wce: 8400,
        witness: (188, 219),
        ascent_steps: 3,
        solves: 5,
        conflicts: 263,
        decisions: 380,
        propagations: 12777,
    },
    Pinned {
        name: "(c T3 A T3 T1)",
        wce: 8413,
        witness: (191, 219),
        ascent_steps: 2,
        solves: 4,
        conflicts: 456,
        decisions: 694,
        propagations: 27190,
    },
];

/// Pinned proofs under `WceOptions { samples: 1000, hint }`: each pin
/// with its hint.
const SEEDED_PINS: [(Pinned, (u64, u64)); 2] = [
    (
        Pinned {
            name: "(a A A A A)",
            wce: 2312,
            witness: (255, 85),
            ascent_steps: 0,
            solves: 2,
            conflicts: 2,
            decisions: 5,
            propagations: 25,
        },
        (221, 221),
    ),
    (
        Pinned {
            name: "(c A A A A)",
            wce: 8288,
            witness: (223, 223),
            ascent_steps: 1,
            solves: 3,
            conflicts: 77,
            decisions: 143,
            propagations: 3437,
        },
        (188, 217),
    ),
];

/// [`SEEDED_PINS`]' designs and hints through their provenance-free
/// copies.
const SEEDED_NETLIST_PINS: [(Pinned, (u64, u64)); 2] = [
    (
        Pinned {
            name: "(a A A A A)",
            wce: 2312,
            witness: (255, 85),
            ascent_steps: 0,
            solves: 2,
            conflicts: 13265,
            decisions: 15725,
            propagations: 1_130_306,
        },
        (221, 221),
    ),
    (
        Pinned {
            name: "(c A A A A)",
            wce: 8288,
            witness: (223, 223),
            ascent_steps: 5,
            solves: 7,
            conflicts: 2338,
            decisions: 3036,
            propagations: 188_388,
        },
        (188, 217),
    ),
];

fn check(pins: &[Pinned], engine: WceEngine, prepare: impl Fn(Netlist) -> Netlist) {
    check_with(
        pins.iter().map(|pin| (pin, WceOptions::default())),
        engine,
        prepare,
    );
}

fn check_seeded(
    pins: &[(Pinned, (u64, u64))],
    engine: WceEngine,
    prepare: impl Fn(Netlist) -> Netlist,
) {
    let opts = |hint| WceOptions {
        samples: 1000,
        hint: Some(hint),
        ..WceOptions::default()
    };
    check_with(
        pins.iter().map(|(pin, hint)| (pin, opts(*hint))),
        engine,
        prepare,
    );
}

fn check_with<'p>(
    pins: impl IntoIterator<Item = (&'p Pinned, WceOptions)>,
    engine: WceEngine,
    prepare: impl Fn(Netlist) -> Netlist,
) {
    for (pin, opts) in pins {
        let proof = prove_wce(&prepare(netlist(pin.name)), &opts).expect("provable");
        assert_eq!(proof.engine, engine, "{}", pin.name);
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
            "{} ({engine}): (wce, witness, ascent_steps, solves, conflicts, decisions, propagations)",
            pin.name
        );
    }
}

#[test]
fn wce_proofs_repeat_their_pinned_search() {
    check(&NETLIST_PINS, WceEngine::Netlist, |nl| provenance_free(&nl));
}

#[test]
fn compositional_proofs_repeat_their_pinned_search() {
    check(&COMPOSITIONAL_PINS, WceEngine::Compositional, |nl| nl);
}

#[test]
fn seeded_compositional_proofs_repeat_their_pinned_search() {
    check_seeded(&SEEDED_PINS, WceEngine::Compositional, |nl| nl);
}

#[test]
fn seeded_netlist_proofs_repeat_their_pinned_search() {
    check_seeded(&SEEDED_NETLIST_PINS, WceEngine::Netlist, |nl| {
        provenance_free(&nl)
    });
}

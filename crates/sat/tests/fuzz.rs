//! Property-based fuzzing (satellite of the SAT subsystem): at widths
//! where exhaustive truth exists, every SAT equivalence verdict must
//! *coincide* with a bit-identical sweep — an UNSAT miter exactly when
//! the designs agree on all inputs, and every SAT counterexample
//! replaying to a real mismatch through `Netlist::eval`.

use axmul_baselines::{array_mult_netlist, kulkarni_netlist, pp_truncated_netlist, rehman_netlist};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_fabric::{Cell, Init, Netlist};
use axmul_sat::{check_equiv, EquivOutcome, ProofOptions};
use proptest::prelude::*;

/// The structural designs available at a given width, by index.
fn design(bits: u32, idx: usize) -> Netlist {
    match idx % 6 {
        0 => kulkarni_netlist(bits).expect("width"),
        1 => rehman_netlist(bits).expect("width"),
        2 => ca_netlist(bits).expect("width"),
        3 => cc_netlist(bits).expect("width"),
        4 => pp_truncated_netlist(bits, bits, bits / 2 + 1),
        _ => array_mult_netlist(bits, bits),
    }
}

/// Exhaustive bit-identical comparison over all operand pairs.
fn sweep_equal(lhs: &Netlist, rhs: &Netlist, bits: u32) -> bool {
    let n = 1u64 << bits;
    for a in 0..n {
        for b in 0..n {
            if lhs.eval(&[a, b]).expect("eval") != rhs.eval(&[a, b]).expect("eval") {
                return false;
            }
        }
    }
    true
}

/// Checks one (lhs, rhs) pair: the SAT verdict must match the sweep,
/// and a counterexample must replay to a real mismatch.
fn check_pair_against_sweep(lhs: &Netlist, rhs: &Netlist, bits: u32) {
    let report = check_equiv(lhs, rhs, &ProofOptions::default()).expect("checkable pair");
    let truly_equal = sweep_equal(lhs, rhs, bits);
    match &report.outcome {
        EquivOutcome::Equivalent => {
            assert!(
                truly_equal,
                "SAT proved {} ≡ {} but the sweep found a mismatch",
                lhs.name(),
                rhs.name()
            );
        }
        EquivOutcome::NotEquivalent(cex) => {
            assert!(
                !truly_equal,
                "SAT refuted {} ≡ {} but the sweep found no mismatch",
                lhs.name(),
                rhs.name()
            );
            let vals: Vec<u64> = cex.inputs.iter().map(|(_, v)| *v).collect();
            assert_eq!(lhs.eval(&vals).expect("replay"), cex.lhs_outputs);
            assert_eq!(rhs.eval(&vals).expect("replay"), cex.rhs_outputs);
            assert_ne!(cex.lhs_outputs, cex.rhs_outputs);
        }
    }
}

/// Flips one INIT bit of the `pick`-th LUT cell, returning the mutant
/// and whether anything was actually flipped.
fn flip_init_bit(nl: &Netlist, pick: usize, bit: u32) -> Option<Netlist> {
    let mut cells = nl.cells().to_vec();
    let luts: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter_map(|(k, c)| matches!(c, Cell::Lut { .. }).then_some(k))
        .collect();
    let k = *luts.get(pick % luts.len())?;
    if let Cell::Lut { init, .. } = &mut cells[k] {
        *init = Init::from_raw(init.raw() ^ (1u64 << (bit % 64)));
    }
    Some(Netlist::from_parts(
        format!("{}-fuzz-mut", nl.name()),
        nl.drivers().to_vec(),
        cells,
        nl.input_buses().to_vec(),
        nl.output_buses().to_vec(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random design pairs at 4×4: SAT verdict ⇔ exhaustive sweep.
    #[test]
    fn pair_verdicts_match_the_sweep_at_4x4(i in 0..6usize, j in 0..6usize) {
        let lhs = design(4, i);
        let rhs = design(4, j);
        check_pair_against_sweep(&lhs, &rhs, 4);
    }

    /// Single-gate INIT mutations at 4×4: the flip may land on a dead
    /// or redundant table row (Equivalent) or change the function
    /// (NotEquivalent with a replaying counterexample) — either way
    /// the verdict must coincide with the sweep.
    #[test]
    fn init_mutation_verdicts_match_the_sweep_at_4x4(
        d in 0..6usize,
        pick in 0..64usize,
        bit in 0..64u32,
    ) {
        let nl = design(4, d);
        let mutant = flip_init_bit(&nl, pick, bit).expect("every design has LUTs");
        check_pair_against_sweep(&nl, &mutant, 4);
    }
}

proptest! {
    // 8×8 sweeps cost 2×65536 evals per case; fewer cases keep the
    // suite inside the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single-gate INIT mutations at 8×8, where the miter is past the
    /// lint truth-table cap's half-width: same coincidence property.
    #[test]
    fn init_mutation_verdicts_match_the_sweep_at_8x8(
        d in 0..6usize,
        pick in 0..256usize,
        bit in 0..64u32,
    ) {
        let nl = design(8, d);
        let mutant = flip_init_bit(&nl, pick, bit).expect("every design has LUTs");
        check_pair_against_sweep(&nl, &mutant, 8);
    }
}

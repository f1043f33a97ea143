//! Property-based bit-identity tests of the packed wide-lane energy
//! path against the scalar reference.
//!
//! The wide path packs the stimulus into lane words, counts toggles as
//! integer popcounts per pass, and applies the float weights once at
//! the end — so its [`EnergyReport`] must be *bit-identical* to
//! [`measure_reference`]'s step-at-a-time count for any stimulus length
//! (straddling the 64-step word and 256-step pass boundaries) and any
//! netlist shape. Each side draws its own stimulus from the same seed
//! ([`PackedStimulus::uniform`] and [`uniform_stimulus`]), so the two
//! generators are held to one stream as well.

use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::power::{
    measure_packed, measure_reference, uniform_stimulus, EnergyModel, EnergyReport, PackedStimulus,
};
use axmul_fabric::timing::{analyze, DelayModel};
use axmul_fabric::{Init, NetId, NetlistBuilder};
use proptest::prelude::*;

/// Builds a random DAG of LUTs over `n_inputs` primary inputs, driven
/// by a seed list of (init, pin choices) — the same generator shape as
/// the fabric's core property tests.
fn random_netlist(n_inputs: usize, luts: &[(u64, [u8; 6])]) -> axmul_fabric::Netlist {
    let mut b = NetlistBuilder::new("random");
    let inputs = b.inputs("x", n_inputs);
    let mut pool: Vec<NetId> = inputs;
    for (raw, pins) in luts {
        let ins: [NetId; 6] = std::array::from_fn(|k| pool[pins[k] as usize % pool.len()]);
        let o6 = b.lut6(Init::from_raw(*raw), ins);
        pool.push(o6);
    }
    let last = *pool.last().expect("non-empty");
    b.output("y", last);
    b.finish().expect("well-formed")
}

/// A 6-bit adder with a real carry chain, so carry-weighted nets are
/// exercised too.
fn adder_netlist() -> axmul_fabric::Netlist {
    let width = 6;
    let mut b = NetlistBuilder::new("add6");
    let x = b.inputs("a", width);
    let y = b.inputs("b", width);
    let mut props = Vec::new();
    for i in 0..width {
        let (o6, _) = b.lut2(Init::XOR2, x[i], y[i]);
        props.push(o6);
    }
    let zero = b.constant(false);
    let (sums, cout) = b.carry_chain(zero, &props, &x);
    b.output_bus("s", &sums);
    b.output("cout", cout);
    b.finish().expect("well-formed")
}

fn assert_reports_identical(left: &EnergyReport, right: &EnergyReport) {
    assert_eq!(left.energy_per_op.to_bits(), right.energy_per_op.to_bits());
    assert_eq!(left.edp.to_bits(), right.edp.to_bits());
    assert_eq!(left.transitions, right.transitions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide-lane measurement over random LUT networks equals the scalar
    /// reference bitwise for any stimulus length.
    #[test]
    fn packed_measure_equals_scalar_reference(
        luts in prop::collection::vec((any::<u64>(), any::<[u8; 6]>()), 1..16),
        steps in prop::sample::select(
            [1usize, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 511, 512, 513].to_vec(),
        ),
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(8, &luts);
        let prog = CompiledNetlist::compile(&nl);
        let energy = EnergyModel::virtex7();
        let delay = DelayModel::virtex7();
        let stimulus = uniform_stimulus(&nl, steps, seed);
        let reference = measure_reference(&nl, &energy, &delay, &stimulus).unwrap();
        let packed = PackedStimulus::uniform(&nl, steps, seed);
        let critical_path_ns = analyze(&nl, &delay).critical_path_ns;
        let wide = measure_packed(&nl, &prog, &energy, critical_path_ns, &packed).unwrap();
        assert_reports_identical(&wide, &reference);
    }

    /// Multi-bus carry-chain netlists: wide counts equal the scalar
    /// reference bitwise across the 64/256-step boundaries.
    #[test]
    fn adder_measure_equals_scalar_reference(
        steps in 1usize..700,
        seed in any::<u64>(),
    ) {
        let nl = adder_netlist();
        let prog = CompiledNetlist::compile(&nl);
        let energy = EnergyModel::virtex7();
        let delay = DelayModel::virtex7();
        let stimulus = uniform_stimulus(&nl, steps, seed);
        let reference = measure_reference(&nl, &energy, &delay, &stimulus).unwrap();
        let packed = PackedStimulus::uniform(&nl, steps, seed);
        let critical_path_ns = analyze(&nl, &delay).critical_path_ns;
        let wide = measure_packed(&nl, &prog, &energy, critical_path_ns, &packed).unwrap();
        assert_reports_identical(&wide, &reference);
    }
}

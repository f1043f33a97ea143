//! Property-based tests of the fabric model's core invariants.

use axmul_fabric::compile::{CompiledNetlist, CompiledSim};
use axmul_fabric::timing::{analyze, DelayModel};
use axmul_fabric::{Init, NetId, NetlistBuilder};
use proptest::prelude::*;

/// Builds a random DAG of LUTs over `n_inputs` primary inputs, driven
/// by a seed list of (init, pin choices).
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
    // Also expose a mid net to exercise multi-output evaluation.
    b.output("mid", pool[pool.len() / 2]);
    b.finish().expect("well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled 64-lane simulator agrees with the scalar oracle on
    /// arbitrary LUT networks and inputs, on every output and every net.
    #[test]
    fn compiled_sim_equals_scalar(
        luts in prop::collection::vec((any::<u64>(), any::<[u8; 6]>()), 1..20),
        stim in prop::collection::vec(0u64..256, 1..64),
    ) {
        let nl = random_netlist(8, &luts);
        let prog = CompiledNetlist::compile(&nl);
        let mut sim: CompiledSim<'_, 1> = prog.simulator();
        let wide = sim.eval(&[&stim]).unwrap();
        for (lane, &value) in stim.iter().enumerate() {
            let scalar = nl.eval(&[value]).unwrap();
            prop_assert_eq!(wide[0][lane], scalar[0], "lane {}", lane);
            prop_assert_eq!(wide[1][lane], scalar[1], "lane {}", lane);
            let nets = nl.eval_nets(&[value]).unwrap();
            for (net, &want) in nets.iter().enumerate() {
                let word = sim.net_word(NetId::new(net as u32))[0];
                prop_assert_eq!(word >> lane & 1 == 1, want, "net {} lane {}", net, lane);
            }
        }
    }

    /// The generic carry chain computes addition for any width and any
    /// operand values.
    #[test]
    fn carry_chain_adds(width in 1usize..24, a in any::<u64>(), c in any::<u64>()) {
        let mask = if width >= 64 { u64::MAX } else { (1 << width) - 1 };
        let (a, c) = (a & mask, c & mask);
        let mut b = NetlistBuilder::new("add");
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
        let nl = b.finish().unwrap();
        let out = nl.eval(&[a, c]).unwrap();
        prop_assert_eq!(out[0] | (out[1] << width), a + c);
    }

    /// Flattening a sub-netlist with `instantiate` preserves function.
    #[test]
    fn instantiate_preserves_function(
        luts in prop::collection::vec((any::<u64>(), any::<[u8; 6]>()), 1..10),
        value in 0u64..256,
    ) {
        let sub = random_netlist(8, &luts);
        let mut b = NetlistBuilder::new("outer");
        let x = b.inputs("x", 8);
        let outs = b.instantiate(&sub, &[&x]);
        b.output("y", outs[0][0]);
        b.output("mid", outs[1][0]);
        let outer = b.finish().unwrap();
        prop_assert_eq!(outer.eval(&[value]).unwrap(), sub.eval(&[value]).unwrap());
    }

    /// Adding a LUT level to the critical output never reduces the
    /// critical path.
    #[test]
    fn sta_monotone_in_depth(levels in 1usize..12) {
        let build = |n: usize| {
            let mut b = NetlistBuilder::new("chain");
            let x = b.inputs("x", 1);
            let mut cur = x[0];
            for _ in 0..n {
                cur = b.lut1(Init::BUF, cur);
            }
            b.output("y", cur);
            b.finish().unwrap()
        };
        let model = DelayModel::virtex7();
        let shallow = analyze(&build(levels), &model).critical_path_ns;
        let deep = analyze(&build(levels + 1), &model).critical_path_ns;
        prop_assert!(deep > shallow);
    }

    /// INIT display/parse round-trips for arbitrary truth tables.
    #[test]
    fn init_roundtrip(raw in any::<u64>()) {
        let init = Init::from_raw(raw);
        let parsed: Init = init.to_string().parse().unwrap();
        prop_assert_eq!(parsed, init);
        // O6 agrees with the table everywhere; O5 with the lower half.
        for idx in 0..64u8 {
            prop_assert_eq!(init.o6(idx), raw >> idx & 1 == 1);
        }
        for idx in 0..32u8 {
            prop_assert_eq!(init.o5(idx), raw >> idx & 1 == 1);
            prop_assert_eq!(init.o5(idx | 0x20), init.o5(idx));
        }
    }

    /// `depends_on` is sound: if an input is reported as ignored,
    /// flipping it never changes the output.
    #[test]
    fn depends_on_sound(raw in any::<u64>(), idx in 0u8..64) {
        let init = Init::from_raw(raw);
        for pin in 0..6u8 {
            if !init.depends_on(pin) {
                prop_assert_eq!(init.o6(idx), init.o6(idx ^ (1 << pin)));
            }
        }
    }
}

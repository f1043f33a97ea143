//! `CompiledNetlist::for_each_listed_pair` evaluates an arbitrary list
//! of operand pairs bit-parallel. Every visit must carry the pair as
//! listed, in list order, with the outputs the scalar oracle
//! `Netlist::eval` gives it — on random LUT networks and on the paper's
//! assembled Ca/Cc multipliers, for empty, single, block-straddling and
//! proof-seed-sized lists — and a netlist the helper cannot evaluate is
//! a typed error, as in `CompiledSim::eval`.

use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_fabric::compile::{CompiledNetlist, SWEEP_WORDS};
use axmul_fabric::{FabricError, Init, NetId, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// Pairs per compiled pass.
const BLOCK: usize = 64 * SWEEP_WORDS;

/// Deterministic SplitMix64 pairs; the words keep their high bits, which
/// both engines must ignore past the bus widths.
fn pairs(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n).map(|_| (next(), next())).collect()
}

/// Visits `list` and checks each visit against `Netlist::eval`, in
/// order; returns the visit count.
fn check_against_eval(nl: &Netlist, list: &[(u64, u64)]) -> usize {
    let mut visits = 0;
    CompiledNetlist::compile(nl)
        .for_each_listed_pair(list.iter().copied(), |a, b, out| {
            assert_eq!((a, b), list[visits], "visit {visits} out of list order");
            let want = nl.eval(&[a, b]).expect("scalar eval");
            assert_eq!(out, want.as_slice(), "{} at a={a} b={b}", nl.name());
            visits += 1;
        })
        .expect("two-bus netlist");
    visits
}

/// A random LUT DAG over two input buses of `wa` and `wb` bits, with
/// two output buses drawn from its nets.
fn random_two_bus(wa: usize, wb: usize, luts: &[(u64, [u8; 6])]) -> Netlist {
    let mut b = NetlistBuilder::new("random2");
    let mut pool: Vec<NetId> = b.inputs("a", wa);
    pool.extend(b.inputs("b", wb));
    for (raw, pins) in luts {
        let ins: [NetId; 6] = std::array::from_fn(|k| pool[pins[k] as usize % pool.len()]);
        pool.push(b.lut6(Init::from_raw(*raw), ins));
    }
    let tail: Vec<NetId> = pool.iter().rev().take(5).copied().collect();
    b.output_bus("y", &tail);
    b.output("mid", pool[pool.len() / 2]);
    b.finish().expect("well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_networks_match_scalar_eval(
        luts in prop::collection::vec((any::<u64>(), any::<[u8; 6]>()), 1..24),
        wa in 1usize..9,
        wb in 1usize..9,
        seed in any::<u64>(),
        len in 0usize..700,
    ) {
        let nl = random_two_bus(wa, wb, &luts);
        prop_assert_eq!(check_against_eval(&nl, &pairs(seed, len)), len);
    }
}

#[test]
fn assembled_multipliers_match_scalar_eval_at_every_list_length() {
    for nl in [
        ca_netlist(8).unwrap(),
        cc_netlist(8).unwrap(),
        ca_netlist(16).unwrap(),
        cc_netlist(16).unwrap(),
    ] {
        // Empty, single, one lane past a block, a ragged tail, and the
        // 4 196 seeds of an 8×8 worst-case-error proof.
        for len in [0, 1, BLOCK + 1, 3 * BLOCK + 37, 4196] {
            assert_eq!(check_against_eval(&nl, &pairs(len as u64, len)), len);
        }
    }
}

#[test]
fn thirty_two_bit_operands_match_scalar_eval() {
    for nl in [ca_netlist(32).unwrap(), cc_netlist(32).unwrap()] {
        assert_eq!(check_against_eval(&nl, &pairs(32, 700)), 700);
    }
}

#[test]
fn visits_follow_list_order_not_operand_order() {
    // Descending, repeated and interleaved pairs come back exactly as
    // listed, each with its own product.
    let nl = ca_netlist(8).unwrap();
    let list: Vec<(u64, u64)> = (0..600u64)
        .rev()
        .map(|i| ((i * 37) % 256, (i * 11) % 256))
        .chain([(3, 5), (3, 5), (255, 255)])
        .collect();
    assert_eq!(check_against_eval(&nl, &list), list.len());
}

#[test]
fn an_empty_list_visits_nothing() {
    let nl = ca_netlist(8).unwrap();
    let mut visits = 0;
    CompiledNetlist::compile(&nl)
        .for_each_listed_pair(std::iter::empty(), |_, _, _| visits += 1)
        .expect("valid netlist");
    assert_eq!(visits, 0);
}

/// `inputs` buses of the given widths, all fanned into one XOR output.
fn xor_of_buses(widths: &[usize], out_width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("buses");
    let mut first = Vec::new();
    for (k, &w) in widths.iter().enumerate() {
        first.push(b.inputs(format!("x{k}"), w)[0]);
    }
    let y = first
        .iter()
        .skip(1)
        .fold(first[0], |acc, &n| b.lut2(Init::XOR2, acc, n).0);
    b.output_bus("y", &vec![y; out_width]);
    b.finish().expect("valid netlist")
}

#[test]
fn unusable_netlists_are_typed_errors_even_for_an_empty_list() {
    let run = |nl: &Netlist, list: &[(u64, u64)]| {
        CompiledNetlist::compile(nl).for_each_listed_pair(list.iter().copied(), |_, _, _| {
            panic!("no pair may be visited")
        })
    };
    for list in [&[][..], &[(1, 0)][..]] {
        for widths in [&[4][..], &[4, 4, 4][..]] {
            assert_eq!(
                run(&xor_of_buses(widths, 1), list),
                Err(FabricError::InputArity {
                    expected: 2,
                    got: widths.len()
                })
            );
        }
        assert_eq!(
            run(&xor_of_buses(&[65, 1], 1), list),
            Err(FabricError::BusTooWide {
                output: false,
                bus: 0,
                width: 65
            })
        );
        assert_eq!(
            run(&xor_of_buses(&[1, 1], 65), list),
            Err(FabricError::BusTooWide {
                output: true,
                bus: 0,
                width: 65
            })
        );
    }
}

#[test]
fn a_netlist_without_outputs_visits_every_pair_with_no_words() {
    let mut b = NetlistBuilder::new("sink");
    b.inputs("a", 2);
    b.inputs("b", 2);
    let nl = b.finish().expect("valid netlist");
    let prog = CompiledNetlist::compile(&nl);
    let mut listed = Vec::new();
    prog.for_each_listed_pair([(1, 2), (3, 0)], |a, b, out| {
        assert!(out.is_empty());
        listed.push((a, b));
    })
    .expect("two-bus netlist");
    assert_eq!(listed, [(1, 2), (3, 0)]);
    let mut swept = 0;
    prog.for_each_operand_pair_in(0..16, |_, _, out| {
        assert!(out.is_empty());
        swept += 1;
    })
    .expect("two-bus netlist");
    assert_eq!(swept, 16);
}

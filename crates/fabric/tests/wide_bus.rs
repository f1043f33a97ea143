//! Buses wider than 64 bits cannot travel in the one `u64` word per bus
//! that word-valued simulation loads and returns. `Netlist::eval`,
//! `CompiledSim::{load, eval}`, the operand sweep and `WideSim` must
//! reject them with a typed error instead of overflowing a shift (a
//! panic in debug builds) or aliasing bit 64 onto bit 0 (a wrong answer
//! in release builds).

use axmul_fabric::compile::{CompiledNetlist, CompiledSim};
use axmul_fabric::sim::WideSim;
use axmul_fabric::{FabricError, Init, Netlist, NetlistBuilder};

/// A `width`-bit XOR ring: `y[i] = a[i] ^ a[(i + 1) % width]`.
fn xor_ring(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("xor_ring");
    let a = b.inputs("a", width);
    let y: Vec<_> = (0..width)
        .map(|i| b.lut2(Init::XOR2, a[i], a[(i + 1) % width]).0)
        .collect();
    b.output_bus("y", &y);
    b.finish().expect("valid netlist")
}

/// Two one-bit operands; `a` fanned out to a `width`-bit output bus.
fn fan_out(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("fan_out");
    let a = b.inputs("a", 1);
    b.inputs("b", 1);
    b.output_bus("y", &vec![a[0]; width]);
    b.finish().expect("valid netlist")
}

fn too_wide(output: bool, width: usize) -> FabricError {
    FabricError::BusTooWide {
        output,
        bus: 0,
        width,
    }
}

#[test]
fn a_65_bit_input_bus_is_a_typed_error() {
    let nl = xor_ring(65);
    assert_eq!(nl.eval(&[1]), Err(too_wide(false, 65)));
    let prog = CompiledNetlist::compile(&nl);
    let mut sim: CompiledSim<'_, 1> = prog.simulator();
    assert_eq!(sim.load(&[&[1]]), Err(too_wide(false, 65)));
    // The output bus is checked first: it is 65 bits wide too.
    assert_eq!(sim.eval(&[&[1]]), Err(too_wide(true, 65)));
    assert_eq!(
        WideSim::new(&nl).eval_nets(&[&[1]]).err(),
        Some(too_wide(false, 65))
    );
}

#[test]
fn a_65_bit_output_bus_is_a_typed_error() {
    let nl = fan_out(65);
    assert_eq!(nl.eval(&[1, 0]), Err(too_wide(true, 65)));
    let prog = CompiledNetlist::compile(&nl);
    let mut sim: CompiledSim<'_, 1> = prog.simulator();
    // Loading only touches the one-bit input buses.
    assert_eq!(sim.load(&[&[1], &[0]]), Ok(1));
    assert_eq!(sim.eval(&[&[1], &[0]]), Err(too_wide(true, 65)));
    assert_eq!(
        prog.for_each_operand_pair_in(0..4, |_, _, _| {}),
        Err(too_wide(true, 65))
    );
    assert_eq!(
        WideSim::new(&nl).eval(&[&[1], &[0]]),
        Err(too_wide(true, 65))
    );
}

#[test]
fn a_64_bit_bus_still_evaluates() {
    let nl = xor_ring(64);
    let a = 0x8000_0000_0000_0001u64;
    let want = a ^ a.rotate_right(1);
    assert_eq!(nl.eval(&[a]), Ok(vec![want]));
    let prog = CompiledNetlist::compile(&nl);
    let mut sim: CompiledSim<'_, 1> = prog.simulator();
    assert_eq!(sim.eval(&[&[a]]), Ok(vec![vec![want]]));
    assert_eq!(WideSim::new(&nl).eval(&[&[a]]), Ok(vec![vec![want]]));

    let nl = fan_out(64);
    assert_eq!(nl.eval(&[1, 0]), Ok(vec![u64::MAX]));
    let mut rows = Vec::new();
    CompiledNetlist::compile(&nl)
        .for_each_operand_pair_in(0..4, |a, _, out| rows.push((a, out[0])))
        .expect("64 bits fit");
    assert_eq!(rows, [(0, 0), (1, u64::MAX), (0, 0), (1, u64::MAX)]);
}

#[test]
fn the_error_names_the_bus() {
    let msg = too_wide(false, 65).to_string();
    assert!(
        msg.contains("input bus 0") && msg.contains("65 bits"),
        "{msg}"
    );
}

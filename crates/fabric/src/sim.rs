//! Exhaustive operand sweeps.
//!
//! [`for_each_operand_pair`] visits every operand pair of a two-bus
//! netlist through the compiled bit-sliced simulator
//! ([`crate::compile`]). The scalar reference every engine is checked
//! against is [`Netlist::eval`] (and [`Netlist::eval_nets`] for
//! per-net values).

use crate::{FabricError, Netlist};

/// Exhaustively evaluates a two-input-bus netlist over all operand
/// combinations, invoking `visit(a, b, outputs)` for each, in ascending
/// combined-index order with `a` (bus 0) as the fast axis.
///
/// The netlist must have exactly two input buses (`a` first). Since the
/// compiled-simulator rework this compiles the netlist once
/// ([`crate::compile::CompiledNetlist`]) and streams 256-lane blocks
/// through the bit-sliced instruction stream; callers that sweep the
/// same netlist repeatedly (or in parallel shards) should compile it
/// themselves and use
/// [`crate::compile::CompiledNetlist::for_each_operand_pair_in`].
///
/// # Errors
///
/// Propagates simulation errors; also returns [`FabricError::InputArity`]
/// if the netlist does not have exactly two input buses.
///
/// # Panics
///
/// Panics if the operand space exceeds 2³² pairs.
pub fn for_each_operand_pair(
    netlist: &Netlist,
    visit: impl FnMut(u64, u64, &[u64]),
) -> Result<(), FabricError> {
    let prog = crate::compile::CompiledNetlist::compile(netlist);
    let (a_bits, b_bits) = prog.operand_widths()?;
    assert!(
        a_bits + b_bits <= 32,
        "exhaustive sweep over {a_bits}x{b_bits} operands is infeasible"
    );
    let total: u64 = 1 << (a_bits + b_bits);
    prog.for_each_operand_pair_in(0..total, visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Init, NetlistBuilder};

    fn adder2() -> Netlist {
        let mut b = NetlistBuilder::new("add2");
        let a = b.inputs("a", 2);
        let c = b.inputs("b", 2);
        let mut props = Vec::new();
        for i in 0..2 {
            let (o6, _) = b.lut2(Init::XOR2, a[i], c[i]);
            props.push(o6);
        }
        let zero = b.constant(false);
        let (sums, cout) = b.carry_chain(zero, &props, &[a[0], a[1]]);
        b.output_bus("s", &sums);
        b.output("cout", cout);
        b.finish().unwrap()
    }

    #[test]
    fn exhaustive_visits_every_pair_once() {
        let nl = adder2();
        let mut seen = [false; 16];
        for_each_operand_pair(&nl, |a, b, out| {
            let k = (a | (b << 2)) as usize;
            assert!(!seen[k], "pair ({a},{b}) visited twice");
            seen[k] = true;
            assert_eq!(out[0] | (out[1] << 2), a + b);
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
    }
}

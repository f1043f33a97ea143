//! Bit-parallel netlist simulation.
//!
//! [`WideSim`] evaluates up to 64 independent input vectors ("lanes")
//! per pass by storing one `u64` per net, with lane `l` in bit `l`.
//! This is what makes exhaustive 8×8 characterization (65 536 vectors)
//! essentially free: 1 024 passes over the cell list.

use crate::error::check_word_buses;
use crate::netlist::{Cell, Driver};
use crate::{FabricError, Netlist};

/// A reusable 64-lane bit-parallel simulator over a borrowed [`Netlist`].
///
/// # Examples
///
/// ```
/// use axmul_fabric::{Init, NetlistBuilder, sim::WideSim};
///
/// let mut b = NetlistBuilder::new("xor");
/// let a = b.inputs("a", 1);
/// let c = b.inputs("b", 1);
/// let (o6, _) = b.lut2(Init::XOR2, a[0], c[0]);
/// b.output("y", o6);
/// let nl = b.finish()?;
///
/// let mut sim = WideSim::new(&nl);
/// // Four lanes at once: (0,0) (0,1) (1,0) (1,1)
/// let out = sim.eval(&[&[0, 0, 1, 1], &[0, 1, 0, 1]])?;
/// assert_eq!(out[0], vec![0, 1, 1, 0]);
/// # Ok::<(), axmul_fabric::FabricError>(())
/// ```
#[derive(Debug)]
pub struct WideSim<'a> {
    netlist: &'a Netlist,
    values: Vec<u64>,
}

impl<'a> WideSim<'a> {
    /// Creates a simulator for `netlist`.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut values = vec![0; netlist.net_count()];
        // Constants broadcast once: every other net is rewritten by
        // `load` (inputs) or `propagate` (cell outputs) on each pass,
        // so no per-pass clearing or re-broadcast is needed.
        for (net, driver) in netlist.drivers().iter().enumerate() {
            if let Driver::Const(c) = driver {
                values[net] = if *c { u64::MAX } else { 0 };
            }
        }
        WideSim { netlist, values }
    }

    /// Evaluates up to 64 lanes.
    ///
    /// `inputs[bus]` holds one word per lane for that input bus; all
    /// buses must supply the same number of lanes (1..=64). Returns
    /// `outputs[bus][lane]`.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] if the bus count or lane counts are
    /// inconsistent with the netlist; [`FabricError::BusTooWide`] if an
    /// input or output bus is wider than 64 bits.
    pub fn eval(&mut self, inputs: &[&[u64]]) -> Result<Vec<Vec<u64>>, FabricError> {
        let outputs = self.netlist.output_buses().iter().map(|(_, b)| b.len());
        check_word_buses(outputs, true)?;
        let lanes = self.load(inputs)?;
        self.propagate();
        Ok(self.read_outputs(lanes))
    }

    /// Evaluates lanes and returns the value of *every net*, for
    /// analyses that need internal visibility (e.g. toggle counting).
    ///
    /// The returned slice is indexed by [`crate::NetId::index`]; bit `l`
    /// of each word is lane `l`.
    ///
    /// # Errors
    ///
    /// Same as [`WideSim::eval`].
    pub fn eval_nets(&mut self, inputs: &[&[u64]]) -> Result<&[u64], FabricError> {
        self.load(inputs)?;
        self.propagate();
        Ok(&self.values)
    }

    fn load(&mut self, inputs: &[&[u64]]) -> Result<usize, FabricError> {
        let buses = self.netlist.input_buses();
        if inputs.len() != buses.len() {
            return Err(FabricError::InputArity {
                expected: buses.len(),
                got: inputs.len(),
            });
        }
        check_word_buses(buses.iter().map(|(_, b)| b.len()), false)?;
        let lanes = inputs.first().map_or(1, |b| b.len());
        if lanes == 0 || lanes > 64 || inputs.iter().any(|b| b.len() != lanes) {
            return Err(FabricError::InputArity {
                expected: lanes.clamp(1, 64),
                got: inputs.iter().map(|b| b.len()).max().unwrap_or(0),
            });
        }
        // Transpose: lane-major input words -> bit-sliced net values.
        // Input words are fully overwritten (unused high lanes read 0),
        // so no clearing of the previous pass is needed.
        for (bus_idx, (_, bits)) in buses.iter().enumerate() {
            for (bit_idx, net) in bits.iter().enumerate() {
                let mut word = 0u64;
                for (lane, &val) in inputs[bus_idx].iter().enumerate() {
                    word |= ((val >> bit_idx) & 1) << lane;
                }
                self.values[net.index()] = word;
            }
        }
        Ok(lanes)
    }

    fn propagate(&mut self) {
        for cell in self.netlist.cells() {
            match cell {
                Cell::Lut {
                    init,
                    inputs,
                    o6,
                    o5,
                } => {
                    let iv = inputs.map(|n| self.values[n.index()]);
                    let mut w6 = 0u64;
                    let mut w5 = 0u64;
                    for lane in 0..64 {
                        let idx = ((iv[0] >> lane) & 1)
                            | ((iv[1] >> lane) & 1) << 1
                            | ((iv[2] >> lane) & 1) << 2
                            | ((iv[3] >> lane) & 1) << 3
                            | ((iv[4] >> lane) & 1) << 4
                            | ((iv[5] >> lane) & 1) << 5;
                        w6 |= ((init.raw() >> idx) & 1) << lane;
                        w5 |= ((init.raw() >> (idx & 0x1F)) & 1) << lane;
                    }
                    self.values[o6.index()] = w6;
                    if let Some(o5) = o5 {
                        self.values[o5.index()] = w5;
                    }
                }
                Cell::Carry4 { cin, s, di, o, co } => {
                    let mut carry = self.values[cin.index()];
                    for stage in 0..4 {
                        let sv = self.values[s[stage].index()];
                        let dv = self.values[di[stage].index()];
                        let sum = sv ^ carry;
                        let next = (sv & carry) | (!sv & dv);
                        if let Some(n) = o[stage] {
                            self.values[n.index()] = sum;
                        }
                        if let Some(n) = co[stage] {
                            self.values[n.index()] = next;
                        }
                        carry = next;
                    }
                }
            }
        }
    }

    fn read_outputs(&self, lanes: usize) -> Vec<Vec<u64>> {
        self.netlist
            .output_buses()
            .iter()
            .map(|(_, bits)| {
                (0..lanes)
                    .map(|lane| {
                        let mut val = 0u64;
                        for (bit_idx, net) in bits.iter().enumerate() {
                            val |= ((self.values[net.index()] >> lane) & 1) << bit_idx;
                        }
                        val
                    })
                    .collect()
            })
            .collect()
    }
}

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
    fn wide_matches_scalar() {
        let nl = adder2();
        let mut sim = WideSim::new(&nl);
        let a_vals: Vec<u64> = (0..16).map(|i| i & 3).collect();
        let b_vals: Vec<u64> = (0..16).map(|i| i >> 2).collect();
        let wide = sim.eval(&[&a_vals, &b_vals]).unwrap();
        for i in 0..16 {
            let scalar = nl.eval(&[a_vals[i], b_vals[i]]).unwrap();
            assert_eq!(wide[0][i], scalar[0]);
            assert_eq!(wide[1][i], scalar[1]);
        }
    }

    #[test]
    fn full_64_lanes() {
        let nl = adder2();
        let mut sim = WideSim::new(&nl);
        let a_vals: Vec<u64> = (0..64).map(|i| i % 4).collect();
        let b_vals: Vec<u64> = (0..64).map(|i| (i / 4) % 4).collect();
        let out = sim.eval(&[&a_vals, &b_vals]).unwrap();
        for i in 0..64 {
            let sum = a_vals[i] + b_vals[i];
            assert_eq!(out[0][i], sum & 3, "lane {i}");
            assert_eq!(out[1][i], sum >> 2, "lane {i}");
        }
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

    #[test]
    fn lane_count_validation() {
        let nl = adder2();
        let mut sim = WideSim::new(&nl);
        assert!(sim.eval(&[&[1], &[1, 2]]).is_err(), "ragged lanes");
        assert!(sim.eval(&[&[1]]).is_err(), "missing bus");
        let empty: &[u64] = &[];
        assert!(sim.eval(&[empty, empty]).is_err(), "zero lanes");
    }

    #[test]
    fn eval_nets_exposes_internals() {
        let nl = adder2();
        let mut sim = WideSim::new(&nl);
        let nets = sim.eval_nets(&[&[3], &[1]]).unwrap();
        assert_eq!(nets.len(), nl.net_count());
    }
}

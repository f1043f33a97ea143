//! Stuck-at fault injection and testability analysis.
//!
//! A production netlist library needs to answer two questions its
//! behavioral models cannot: *does any single hardware fault go
//! unnoticed* (redundant logic), and *which test vectors expose which
//! faults* (manufacturing test). This module simulates the classic
//! single-stuck-at fault model over any [`Netlist`]:
//!
//! * [`Fault`] — a net forced to a constant.
//! * [`eval_with_faults`] — functional simulation under injected
//!   faults.
//! * [`fault_coverage`] — runs a vector set against every single
//!   stuck-at fault and reports which are detected.

use crate::compile::{CompiledNetlist, CompiledSim};
use crate::netlist::Driver;
use crate::{FabricError, NetId, Netlist};

/// A single stuck-at fault: `net` permanently reads `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulty net.
    pub net: NetId,
    /// The stuck value.
    pub stuck_at: bool,
}

impl Fault {
    /// Stuck-at-0 on `net`.
    #[must_use]
    pub fn sa0(net: NetId) -> Self {
        Fault {
            net,
            stuck_at: false,
        }
    }

    /// Stuck-at-1 on `net`.
    #[must_use]
    pub fn sa1(net: NetId) -> Self {
        Fault {
            net,
            stuck_at: true,
        }
    }
}

/// Evaluates `netlist` on one input vector with the given faults
/// injected (each faulty net reads its stuck value everywhere it is
/// consumed).
///
/// # Errors
///
/// Same as [`Netlist::eval`].
pub fn eval_with_faults(
    netlist: &Netlist,
    inputs: &[u64],
    faults: &[Fault],
) -> Result<Vec<u64>, FabricError> {
    netlist.eval_forced(inputs, faults)
}

/// Result of a stuck-at fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCoverage {
    /// Total injected faults (two polarities per candidate net).
    pub total: usize,
    /// Faults whose effect reached an output for at least one vector.
    pub detected: usize,
    /// The undetected faults (redundant logic or insufficient vectors).
    pub undetected: Vec<Fault>,
}

impl FaultCoverage {
    /// Detection ratio in `[0, 1]`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// Lane-block width used by the fault campaign (256 vectors per pass).
const FAULT_WORDS: usize = 4;

/// Runs every single stuck-at fault (both polarities, on every
/// observable cell-driven net and primary input) against the given
/// test vectors, comparing faulty outputs to the fault-free reference.
///
/// Each fault is compiled into its own bit-sliced program
/// ([`CompiledNetlist::compile_with_faults`]) and the vector set is
/// streamed through it in 256-lane blocks; detection compares the
/// bit-sliced output words directly against the fault-free reference
/// words — no per-lane gather — and stops at the first differing
/// block. Detection semantics are identical to the scalar
/// [`eval_with_faults`] loop this replaces.
///
/// # Errors
///
/// Propagates simulation errors from malformed vectors.
pub fn fault_coverage(
    netlist: &Netlist,
    vectors: &[Vec<u64>],
) -> Result<FaultCoverage, FabricError> {
    // Fault sites: everything except constant nets and nets nothing
    // observes (dangling O5 outputs, pins the truth tables ignore) —
    // faults there are unobservable by construction, not by escape.
    let fanouts = netlist.fanouts();
    let sites: Vec<NetId> = netlist
        .drivers()
        .iter()
        .enumerate()
        .filter(|&(i, d)| !matches!(d, Driver::Const(_)) && fanouts[i] > 0)
        .map(|(i, _)| NetId(i as u32))
        .collect();
    let n_buses = netlist.input_buses().len();
    for v in vectors {
        if v.len() != n_buses {
            return Err(FabricError::InputArity {
                expected: n_buses,
                got: v.len(),
            });
        }
    }
    // Transpose the vector set once into lane-major per-block bus
    // arrays shared by the golden run and every fault run.
    let blocks: Vec<Vec<Vec<u64>>> = vectors
        .chunks(64 * FAULT_WORDS)
        .map(|chunk| {
            (0..n_buses)
                .map(|bus| chunk.iter().map(|v| v[bus]).collect())
                .collect()
        })
        .collect();
    let out_bits: usize = netlist.output_buses().iter().map(|(_, b)| b.len()).sum();
    // Masked output words of one program over all blocks, flattened as
    // `[block][output bit][word]`.
    let run_all = |prog: &CompiledNetlist| -> Result<Vec<[u64; FAULT_WORDS]>, FabricError> {
        let mut sim: CompiledSim<'_, FAULT_WORDS> = prog.simulator();
        let mut words = Vec::with_capacity(blocks.len() * out_bits);
        for block in &blocks {
            let refs: Vec<&[u64]> = block.iter().map(Vec::as_slice).collect();
            let lanes = sim.load(&refs)?;
            sim.run();
            for bus in 0..netlist.output_buses().len() {
                for bit in 0..netlist.output_buses()[bus].1.len() {
                    let mut w = sim.output_word(bus, bit);
                    for (wi, word) in w.iter_mut().enumerate() {
                        let used = lanes.saturating_sub(64 * wi).min(64);
                        *word &= match used {
                            64 => u64::MAX,
                            0 => 0,
                            n => (1u64 << n) - 1,
                        };
                    }
                    words.push(w);
                }
            }
        }
        Ok(words)
    };
    let golden = run_all(&CompiledNetlist::compile(netlist))?;
    let mut detected = 0;
    let mut undetected = Vec::new();
    for &site in &sites {
        for stuck in [false, true] {
            let fault = Fault {
                net: site,
                stuck_at: stuck,
            };
            let prog = CompiledNetlist::compile_with_faults(netlist, &[fault]);
            let mut sim: CompiledSim<'_, FAULT_WORDS> = prog.simulator();
            let mut seen = false;
            'blocks: for (bi, block) in blocks.iter().enumerate() {
                let refs: Vec<&[u64]> = block.iter().map(Vec::as_slice).collect();
                let lanes = sim.load(&refs)?;
                sim.run();
                let mut flat = 0;
                for bus in 0..netlist.output_buses().len() {
                    for bit in 0..netlist.output_buses()[bus].1.len() {
                        let mut w = sim.output_word(bus, bit);
                        for (wi, word) in w.iter_mut().enumerate() {
                            let used = lanes.saturating_sub(64 * wi).min(64);
                            *word &= match used {
                                64 => u64::MAX,
                                0 => 0,
                                n => (1u64 << n) - 1,
                            };
                        }
                        if w != golden[bi * out_bits + flat] {
                            seen = true;
                            break 'blocks;
                        }
                        flat += 1;
                    }
                }
            }
            if seen {
                detected += 1;
            } else {
                undetected.push(fault);
            }
        }
    }
    Ok(FaultCoverage {
        total: 2 * sites.len(),
        detected,
        undetected,
    })
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

    fn all_vectors(bits: u32) -> Vec<Vec<u64>> {
        (0..1u64 << (2 * bits))
            .map(|v| vec![v & ((1 << bits) - 1), v >> bits])
            .collect()
    }

    #[test]
    fn fault_free_matches_plain_eval() {
        let nl = adder2();
        for v in all_vectors(2) {
            assert_eq!(
                eval_with_faults(&nl, &v, &[]).unwrap(),
                nl.eval(&v).unwrap()
            );
        }
    }

    #[test]
    fn injected_fault_changes_behavior() {
        let nl = adder2();
        let a0 = nl.input_buses()[0].1[0];
        let out = eval_with_faults(&nl, &[1, 0], &[Fault::sa0(a0)]).unwrap();
        assert_eq!(out[0], 0, "a stuck low turns 1+0 into 0+0");
    }

    #[test]
    fn exhaustive_vectors_detect_every_fault_in_the_adder() {
        let nl = adder2();
        let cov = fault_coverage(&nl, &all_vectors(2)).unwrap();
        assert_eq!(cov.detected, cov.total, "undetected: {:?}", cov.undetected);
        assert_eq!(cov.ratio(), 1.0);
    }

    #[test]
    fn too_few_vectors_miss_faults() {
        let nl = adder2();
        let cov = fault_coverage(&nl, &[vec![0, 0]]).unwrap();
        assert!(cov.ratio() < 1.0, "the all-zero vector cannot excite sa0");
        assert_eq!(cov.detected + cov.undetected.len(), cov.total);
    }

    #[test]
    fn multiplier_has_high_stuck_at_coverage() {
        // An exact 4x4 array multiplier under the exhaustive
        // 256-vector set: every stuck-at fault on every net is
        // observable (no redundant logic in the array).
        let nl = array_4x4();
        let vectors: Vec<Vec<u64>> = (0..256u64).map(|v| vec![v & 15, v >> 4]).collect();
        let cov = fault_coverage(&nl, &vectors).unwrap();
        assert!(
            cov.ratio() > 0.95,
            "coverage {} ({:?})",
            cov.ratio(),
            cov.undetected
        );
    }

    // A simple exact 4x4 array multiplier built locally so this
    // crate's tests stay independent of axmul-core (which depends on
    // this crate): AND-gate partial products + three carry-chain adds.
    fn array_4x4() -> Netlist {
        let mut bld = NetlistBuilder::new("array4x4");
        let a = bld.inputs("a", 4);
        let b = bld.inputs("b", 4);
        let zero = bld.constant(false);
        // Partial product rows: row j = (a & {4 bits}) * b_j.
        let mut rows: Vec<Vec<crate::NetId>> = Vec::new();
        for &bj in &b {
            let mut row = Vec::new();
            for &ai in &a {
                let (o6, _) = bld.lut2(Init::AND2, ai, bj);
                row.push(o6);
            }
            rows.push(row);
        }
        // acc = row0, then acc += row_j << j via 2-operand chains.
        let mut acc: Vec<crate::NetId> = rows[0].clone();
        for (j, row) in rows.iter().enumerate().skip(1) {
            // Add rows[j] into acc at offset j.
            let width = (acc.len()).max(j + 4) - j;
            let mut props = Vec::new();
            let mut gens = Vec::new();
            for k in 0..width {
                let x = acc.get(j + k).copied();
                let y = row.get(k).copied();
                match (x, y) {
                    (Some(x), Some(y)) => {
                        let (o6, _) = bld.lut2(Init::XOR2, x, y);
                        props.push(o6);
                        gens.push(x);
                    }
                    (Some(v), None) | (None, Some(v)) => {
                        props.push(v);
                        gens.push(zero);
                    }
                    (None, None) => unreachable!("width bound"),
                }
            }
            let (sums, cout) = bld.carry_chain(zero, &props, &gens);
            acc.truncate(j);
            acc.extend(sums);
            acc.push(cout);
        }
        acc.truncate(8);
        bld.output_bus("p", &acc);
        bld.finish().expect("array4x4 is well-formed")
    }

    #[test]
    fn local_array_multiplier_is_exact() {
        let nl = array_4x4();
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(nl.eval(&[a, b]).unwrap()[0], a * b, "a={a} b={b}");
            }
        }
    }
}

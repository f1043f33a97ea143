//! Netlist-level analysis: known-bits plus weighted-group intervals,
//! with a generic error bound for two-operand multiplier netlists.
//!
//! Unlike the tree analysis (which exploits the configuration
//! grammar), this path works on *any* elaborated netlist — including
//! the roster baselines and fault-injected circuits — by combining
//! the per-net [`KnownBits`] verdicts into value intervals on the
//! weighted output buses. The error bound it derives is coarse
//! (`approx − exact ∈ [out_lo − max_product, out_hi]`) but sound at
//! any width the interval arithmetic supports, with no simulation.

use axmul_fabric::fault::Fault;
use axmul_fabric::{NetId, Netlist};

use crate::domain::{ErrorBound, Interval};
use crate::knownbits::KnownBits;

/// Value interval of one primary-output bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRange {
    /// Bus name.
    pub bus: String,
    /// Interval containing the bus value under every input.
    pub interval: Interval,
}

/// Everything the netlist-level analysis derives.
#[derive(Debug, Clone)]
pub struct NetlistAnalysis {
    /// Name of the analyzed netlist.
    pub name: String,
    /// Per-net known-bits state.
    pub known: KnownBits,
    /// Value interval of each primary-output bus.
    pub outputs: Vec<OutputRange>,
    /// Cell-driven nets proven constant (net, value) — candidates for
    /// dead-logic elimination at any width.
    pub derived_constants: Vec<(NetId, bool)>,
    /// Generic error bound, present when the netlist looks like a
    /// two-operand multiplier (two input buses, at least one output
    /// bus) with operands at most 32 bits each.
    pub error: Option<ErrorBound>,
}

/// Analyzes a fault-free netlist.
#[must_use]
pub fn analyze_netlist(netlist: &Netlist) -> NetlistAnalysis {
    analyze_netlist_with_faults(netlist, &[])
}

/// Analyzes a netlist with stuck-at faults injected (the abstract
/// counterpart of [`axmul_fabric::fault::eval_with_faults`]).
#[must_use]
pub fn analyze_netlist_with_faults(netlist: &Netlist, faults: &[Fault]) -> NetlistAnalysis {
    let known = KnownBits::analyze_with_faults(netlist, faults);
    let outputs: Vec<OutputRange> = netlist
        .output_buses()
        .iter()
        .map(|(name, bits)| OutputRange {
            bus: name.clone(),
            interval: known.group_interval(bits),
        })
        .collect();
    let derived_constants = known.derived_constants(netlist);
    let error = multiplier_error_bound(netlist, &outputs);
    NetlistAnalysis {
        name: netlist.name().to_string(),
        known,
        outputs,
        derived_constants,
        error,
    }
}

/// The coarse-but-sound multiplier deviation bound: with the product
/// output confined to `[lo, hi]` and the exact product to
/// `[0, (2^wa − 1)(2^wb − 1)]`, every deviation lies in
/// `[lo − max_product, hi]`.
fn multiplier_error_bound(netlist: &Netlist, outputs: &[OutputRange]) -> Option<ErrorBound> {
    let ins = netlist.input_buses();
    if ins.len() != 2 || outputs.is_empty() {
        return None;
    }
    let wa = ins[0].1.len() as u32;
    let wb = ins[1].1.len() as u32;
    if wa == 0 || wb == 0 || wa > 32 || wb > 32 {
        return None;
    }
    let pmax = ((1u128 << wa) - 1) * ((1u128 << wb) - 1);
    let out = &outputs[0].interval;
    let bound = ErrorBound {
        err_lo: out.lo as i128 - pmax as i128,
        err_hi: out.hi as i128,
        wce_lb: 0,
        witness: None,
        // |e| ≤ wce_ub ≤ wce_ub · exact pointwise for exact ≥ 1.
        mre: 0.0,
        value: *out,
        no_error_at_zero: false,
    };
    Some(ErrorBound {
        mre: bound.wce_ub() as f64,
        ..bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul_fabric::{Init, NetlistBuilder};

    /// A 2×2 exact multiplier: p = a·b via four AND gates and the
    /// identity p = a0b0 + 2(a0b1 + a1b0) + 4a1b1, assembled with LUTs.
    fn mult2x2() -> Netlist {
        let mut b = NetlistBuilder::new("mult2x2");
        let a = b.inputs("a", 2);
        let c = b.inputs("b", 2);
        let (p0, _) = b.lut2(Init::AND2, a[0], c[0]);
        // p1 = a0b1 XOR a1b0, carry into p2.
        let cross = Init::from_fn(|i| {
            let (a0, b1, a1, b0) = (i & 1 != 0, i & 2 != 0, i & 4 != 0, i & 8 != 0);
            (a0 && b1) ^ (a1 && b0)
        });
        let carry = Init::from_fn(|i| {
            let (a0, b1, a1, b0) = (i & 1 != 0, i & 2 != 0, i & 4 != 0, i & 8 != 0);
            a0 && b1 && a1 && b0
        });
        let z = b.constant(false);
        let p1 = b.lut6(cross, [a[0], c[1], a[1], c[0], z, z]);
        let mid = b.lut6(carry, [a[0], c[1], a[1], c[0], z, z]);
        let hi = Init::from_fn(|i| {
            let (a1, b1, carry) = (i & 1 != 0, i & 2 != 0, i & 4 != 0);
            (a1 && b1) ^ carry
        });
        let ovf = Init::from_fn(|i| {
            let (a1, b1, carry) = (i & 1 != 0, i & 2 != 0, i & 4 != 0);
            a1 && b1 && carry
        });
        let p2 = b.lut3(hi, a[1], c[1], mid);
        let p3 = b.lut3(ovf, a[1], c[1], mid);
        b.output("p", p0);
        b.output("p1", p1);
        b.output("p2", p2);
        b.output("p3", p3);
        b.finish().unwrap()
    }

    #[test]
    fn multiplier_bound_contains_every_deviation() {
        let n = mult2x2();
        let a = analyze_netlist(&n);
        let e = a.error.expect("two-operand multiplier shape");
        // Exact multiplier: the generic bound is loose but must
        // contain 0 deviation and bracket the output range.
        assert!(e.err_lo <= 0 && e.err_hi >= 0);
        assert!(e.value.hi <= 15);
    }

    #[test]
    fn faulted_outputs_tighten_the_range() {
        let n = mult2x2();
        let outs: Vec<NetId> = n.output_buses().iter().map(|(_, b)| b[0]).collect();
        // Stick every output at 0: all buses collapse to [0, 0] and
        // the deviation bound pins to [-pmax, 0].
        let faults: Vec<Fault> = outs.iter().map(|&o| Fault::sa0(o)).collect();
        let a = analyze_netlist_with_faults(&n, &faults);
        for o in &a.outputs {
            assert_eq!(o.interval, Interval::exact(0), "{}", o.bus);
        }
        let e = a.error.unwrap();
        assert_eq!(e.err_lo, -9);
        assert_eq!(e.err_hi, 0);
        assert_eq!(e.wce_ub(), 9);
    }

    #[test]
    fn non_multiplier_shapes_get_no_error_bound() {
        let mut b = NetlistBuilder::new("one-bus");
        let a = b.inputs("a", 3);
        b.output("y", a[0]);
        let n = b.finish().unwrap();
        assert!(analyze_netlist(&n).error.is_none());
    }
}

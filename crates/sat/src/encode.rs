//! Tseitin encoding of `fabric::Netlist` into CNF.
//!
//! Per-primitive rules:
//!
//! * **LUT6_2** — the 64-bit `INIT` is first *reduced* over the pins
//!   that are actually distinct variables: constant pins and repeated
//!   pins (the same net wired to several inputs, including through
//!   opposite polarities after folding) are substituted into the truth
//!   table at encode time. If the reduced table is constant or a copy
//!   (or inversion) of a single pin, no clauses are emitted at all.
//!   Otherwise the output variable is defined by cofactor clauses from
//!   a Minato–Morreale irredundant sum-of-products of the reduced
//!   on-set and off-set, which is both compact and
//!   propagation-complete in each direction. `O5` is encoded the same
//!   way from the lower 32 INIT bits as a 5-input function.
//! * **CARRY4** — per stage `i`: `O[i] = S[i] ⊕ C[i]` and
//!   `C[i+1] = S[i] ? C[i] : DI[i]`, built from the [`crate::gates`]
//!   xor/mux builders. The mux's redundant consensus clauses make the
//!   chain's unit propagation exactly as strong as the three-valued
//!   (`KnownBit`) simulation in `axmul-absint`.
//! * **Constants** propagate through everything: a net the encoder can
//!   prove constant never becomes a variable, so downstream gates keep
//!   folding.

use axmul_fabric::{Cell, Driver, Netlist};

use crate::gates::{self, Sig};
use crate::solver::{GateKey, Lit, Solver};
use crate::SatError;

/// An encoded netlist: the signal for every net, plus the bus views.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Input buses (name, little-endian signals).
    pub inputs: Vec<(String, Vec<Sig>)>,
    /// Output buses (name, little-endian signals).
    pub outputs: Vec<(String, Vec<Sig>)>,
    /// Per-net signals, indexed by `NetId::index()`.
    pub nets: Vec<Sig>,
}

/// Encodes `netlist` into `solver`.
///
/// With `bound_inputs`, the primary inputs are tied to the given
/// signals (one `Vec<Sig>` per input bus, in bus order) — this is how
/// a miter shares its inputs between two netlists. With `None`, fresh
/// variables are created.
///
/// # Errors
///
/// [`SatError::Interface`] if `bound_inputs` does not match the
/// netlist's bus shape; [`SatError::Encode`] if the netlist references
/// a net before defining it (impossible for builder-validated
/// netlists, but imported ones are checked rather than trusted).
pub fn encode_netlist(
    solver: &mut Solver,
    netlist: &Netlist,
    bound_inputs: Option<&[Vec<Sig>]>,
) -> Result<Encoded, SatError> {
    const UNDEF: Sig = Sig::Const(false);
    let n = netlist.net_count();
    let mut nets: Vec<Sig> = vec![UNDEF; n];
    let mut defined: Vec<bool> = vec![false; n];

    if let Some(bound) = bound_inputs {
        if bound.len() != netlist.input_buses().len() {
            return Err(SatError::Interface(format!(
                "bound inputs carry {} buses, netlist `{}` has {}",
                bound.len(),
                netlist.name(),
                netlist.input_buses().len()
            )));
        }
        for (i, (name, bits)) in netlist.input_buses().iter().enumerate() {
            if bound[i].len() != bits.len() {
                return Err(SatError::Interface(format!(
                    "bound bus {i} has {} bits, netlist bus `{name}` has {}",
                    bound[i].len(),
                    bits.len()
                )));
            }
        }
    }

    let mut inputs: Vec<(String, Vec<Sig>)> = Vec::new();
    for (b, (name, bits)) in netlist.input_buses().iter().enumerate() {
        let mut sigs = Vec::with_capacity(bits.len());
        for (i, &net) in bits.iter().enumerate() {
            let sig = match bound_inputs {
                Some(bound) => bound[b][i],
                None => Sig::Lit(solver.new_var()),
            };
            nets[net.index()] = sig;
            defined[net.index()] = true;
            sigs.push(sig);
        }
        inputs.push((name.clone(), sigs));
    }
    for (i, d) in netlist.drivers().iter().enumerate() {
        if let Driver::Const(v) = d {
            nets[i] = Sig::Const(*v);
            defined[i] = true;
        }
    }

    encode_cells(solver, netlist, &mut nets, &mut defined, Cone::default())?;

    let mut outputs: Vec<(String, Vec<Sig>)> = Vec::new();
    for (name, bits) in netlist.output_buses() {
        let mut sigs = Vec::with_capacity(bits.len());
        for &net in bits {
            sigs.push(fetch(netlist, &nets, &defined, net)?);
        }
        outputs.push((name.clone(), sigs));
    }
    Ok(Encoded {
        inputs,
        outputs,
        nets,
    })
}

fn fetch(
    netlist: &Netlist,
    nets: &[Sig],
    defined: &[bool],
    id: axmul_fabric::NetId,
) -> Result<Sig, SatError> {
    if defined.get(id.index()).copied().unwrap_or(false) {
        Ok(nets[id.index()])
    } else {
        Err(SatError::Encode(format!(
            "net {id} used before it is driven (netlist `{}` is not topologically ordered)",
            netlist.name()
        )))
    }
}

/// Which cells to encode, and which nets keep the signal the caller
/// gave them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cone<'a> {
    /// Per cell: encode it (`None` = every cell).
    pub(crate) keep: Option<&'a [bool]>,
    /// Per net: a cut point pinned by the caller, never overwritten by
    /// its driving cell (`None` = no cuts).
    pub(crate) cut: Option<&'a [bool]>,
}

/// Encodes `netlist`'s cells in order into per-net signals, restricted
/// to `cone`.
pub(crate) fn encode_cells(
    solver: &mut Solver,
    netlist: &Netlist,
    nets: &mut [Sig],
    defined: &mut [bool],
    cone: Cone<'_>,
) -> Result<(), SatError> {
    let set = |nets: &mut [Sig], defined: &mut [bool], id: axmul_fabric::NetId, sig: Sig| {
        if !cone.cut.is_some_and(|cut| cut[id.index()]) {
            nets[id.index()] = sig;
            defined[id.index()] = true;
        }
    };
    for (index, cell) in netlist.cells().iter().enumerate() {
        if cone.keep.is_some_and(|keep| !keep[index]) {
            continue;
        }
        match cell {
            Cell::Lut {
                init,
                inputs: pins,
                o6,
                o5,
            } => {
                let mut pin_sigs = [Sig::FALSE; 6];
                for (k, p) in pins.iter().enumerate() {
                    pin_sigs[k] = fetch(netlist, nets, defined, *p)?;
                }
                let o6_sig = lut_output(solver, init.raw(), &pin_sigs);
                set(nets, defined, *o6, o6_sig);
                if let Some(o5_net) = o5 {
                    // O5 is the lower 32 INIT bits as a 5-input
                    // function; lift it to a 6-pin table that ignores
                    // I5 so the same reduction path applies.
                    let raw = init.raw();
                    let mut t5 = 0u64;
                    for m in 0u64..64 {
                        if (raw >> (m & 0x1F)) & 1 == 1 {
                            t5 |= 1 << m;
                        }
                    }
                    let o5_sig = lut_output(solver, t5, &pin_sigs);
                    set(nets, defined, *o5_net, o5_sig);
                }
            }
            Cell::Carry4 { cin, s, di, o, co } => {
                let mut carry = fetch(netlist, nets, defined, *cin)?;
                for i in 0..4 {
                    let s_sig = fetch(netlist, nets, defined, s[i])?;
                    let di_sig = fetch(netlist, nets, defined, di[i])?;
                    if let Some(o_net) = o[i] {
                        let sum = gates::xor(solver, s_sig, carry);
                        set(nets, defined, o_net, sum);
                    }
                    carry = gates::mux(solver, s_sig, carry, di_sig);
                    if let Some(co_net) = co[i] {
                        set(nets, defined, co_net, carry);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Encodes one LUT output: reduces the 64-bit table over the distinct
/// variable pins, folds constants/copies, otherwise emits ISOP
/// cofactor clauses for a fresh output variable.
pub(crate) fn lut_output(solver: &mut Solver, table: u64, pins: &[Sig; 6]) -> Sig {
    // Distinct support variables. A pin is either constant, or a
    // literal over some variable (possibly negated, possibly shared
    // with another pin).
    let mut vars: Vec<u32> = Vec::new();
    let mut slot_of = [0usize; 6];
    for (i, pin) in pins.iter().enumerate() {
        if let Sig::Lit(l) = pin {
            if let Some(pos) = vars.iter().position(|&v| v == l.var()) {
                slot_of[i] = pos;
            } else {
                slot_of[i] = vars.len();
                vars.push(l.var());
            }
        }
    }
    let k = vars.len();
    debug_assert!(k <= 6);
    let mask: u64 = if k == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    };

    // Reduced table over the k support variables (by *value* of the
    // variable, with per-pin polarity folded in).
    let mut rtab = 0u64;
    for m in 0u64..(1 << k) {
        let mut idx = 0u64;
        for (i, pin) in pins.iter().enumerate() {
            let bit = match pin {
                Sig::Const(b) => *b,
                Sig::Lit(l) => ((m >> slot_of[i]) & 1 == 1) ^ l.is_neg(),
            };
            idx |= (bit as u64) << i;
        }
        if (table >> idx) & 1 == 1 {
            rtab |= 1 << m;
        }
    }

    if rtab == 0 {
        return Sig::FALSE;
    }
    if rtab == mask {
        return Sig::TRUE;
    }
    // Copy / inversion of a single support variable?
    for (slot, &v) in vars.iter().enumerate() {
        let proj = projection(slot, k);
        if rtab == proj {
            return Sig::Lit(Lit::new(v, false));
        }
        if rtab == !proj & mask {
            return Sig::Lit(Lit::new(v, true));
        }
    }

    // Hash-cons the reduced function over its (positive) support.
    let mut key_lits = [0u32; 6];
    for (slot, &v) in vars.iter().enumerate() {
        key_lits[slot] = Lit::new(v, false).code() as u32;
    }
    let key = GateKey::Lut(rtab, key_lits);
    if let Some(out) = solver.cached_gate(&key) {
        return Sig::Lit(out);
    }

    let out = solver.new_var();
    // On-set cubes imply the output; off-set cubes imply its negation.
    for cube in isop(rtab, rtab, k) {
        let mut clause = vec![out];
        push_cube_negation(&mut clause, cube, &vars);
        solver.add_clause(&clause);
    }
    let offset = !rtab & mask;
    for cube in isop(offset, offset, k) {
        let mut clause = vec![!out];
        push_cube_negation(&mut clause, cube, &vars);
        solver.add_clause(&clause);
    }
    solver.cache_gate(key, out);
    Sig::Lit(out)
}

/// Truth table (over `k` vars) of the projection onto variable `slot`.
fn projection(slot: usize, k: usize) -> u64 {
    let mut t = 0u64;
    for m in 0u64..(1 << k) {
        if (m >> slot) & 1 == 1 {
            t |= 1 << m;
        }
    }
    t
}

/// A product term over ≤6 variables: `pos`/`neg` are slot bitmasks.
#[derive(Debug, Clone, Copy, Default)]
struct Cube {
    pos: u8,
    neg: u8,
}

fn push_cube_negation(clause: &mut Vec<Lit>, cube: Cube, vars: &[u32]) {
    for (slot, &v) in vars.iter().enumerate() {
        if cube.pos >> slot & 1 == 1 {
            clause.push(Lit::new(v, true));
        } else if cube.neg >> slot & 1 == 1 {
            clause.push(Lit::new(v, false));
        }
    }
}

/// Minato–Morreale irredundant SOP of an incompletely specified
/// function: covers at least `l`, at most `u` (`l ⊆ u`), over `k`
/// variables of a ≤64-bit truth table.
fn isop(l: u64, u: u64, k: usize) -> Vec<Cube> {
    debug_assert_eq!(l & !u, 0);
    if l == 0 {
        return Vec::new();
    }
    let full: u64 = if k == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    };
    if u == full {
        return vec![Cube::default()];
    }
    debug_assert!(k > 0, "constant-1 lower bound with u != full");
    let j = k - 1;
    let (l0, l1) = (cofactor(l, k, j, false), cofactor(l, k, j, true));
    let (u0, u1) = (cofactor(u, k, j, false), cofactor(u, k, j, true));

    let c0 = isop(l0 & !u1, u0, j);
    let c1 = isop(l1 & !u0, u1, j);
    let cov0 = cover_table(&c0, j);
    let cov1 = cover_table(&c1, j);
    let l_star = (l0 & !cov0) | (l1 & !cov1);
    let c_star = isop(l_star, u0 & u1, j);

    let mut out = Vec::with_capacity(c0.len() + c1.len() + c_star.len());
    for mut c in c0 {
        c.neg |= 1 << j;
        out.push(c);
    }
    for mut c in c1 {
        c.pos |= 1 << j;
        out.push(c);
    }
    out.extend(c_star);
    out
}

/// Cofactor of a `k`-variable table with respect to variable `j`,
/// compacted to `k-1` variables.
fn cofactor(t: u64, k: usize, j: usize, v: bool) -> u64 {
    let mut out = 0u64;
    for m in 0u64..(1 << (k - 1)) {
        let low = m & ((1 << j) - 1);
        let high = m >> j;
        let idx = low | ((v as u64) << j) | (high << (j + 1));
        if (t >> idx) & 1 == 1 {
            out |= 1 << m;
        }
    }
    out
}

/// Union of the cubes' truth tables over `k` variables.
fn cover_table(cubes: &[Cube], k: usize) -> u64 {
    let mut t = 0u64;
    for m in 0u64..(1 << k) {
        for c in cubes {
            let m8 = m as u8;
            if m8 & c.pos == c.pos && m8 & c.neg == 0 {
                t |= 1 << m;
                break;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;
    use axmul_fabric::{Init, NetlistBuilder};

    fn check_isop(table: u64, k: usize) {
        let cubes = isop(table, table, k);
        let mask: u64 = if k == 6 {
            u64::MAX
        } else {
            (1u64 << (1 << k)) - 1
        };
        assert_eq!(
            cover_table(&cubes, k) & mask,
            table & mask,
            "k={k} t={table:x}"
        );
    }

    #[test]
    fn isop_covers_exactly() {
        // All 3-var functions, plus a spread of wider ones.
        for t in 0u64..256 {
            check_isop(t, 3);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            state = state.wrapping_mul(0xD129_8E93_5770_9FBD).wrapping_add(1);
            check_isop(state, 6);
            check_isop(state & 0xFFFF, 4);
            check_isop(state & 0xFFFF_FFFF, 5);
        }
        check_isop(0, 4);
        check_isop(u64::MAX, 6);
        check_isop(Init::XOR2.raw(), 2);
    }

    /// Exhaustively compares an encoded netlist against `Netlist::eval`.
    fn assert_encoding_matches(netlist: &Netlist) {
        let mut s = Solver::new();
        let enc = encode_netlist(&mut s, netlist, None).expect("encodable");
        let widths: Vec<u32> = netlist
            .input_buses()
            .iter()
            .map(|(_, b)| b.len() as u32)
            .collect();
        let total: u32 = widths.iter().sum();
        assert!(total <= 12, "test netlist too wide for exhaustion");
        for pattern in 0u64..(1 << total) {
            let mut vals = Vec::new();
            let mut shift = 0;
            for w in &widths {
                vals.push((pattern >> shift) & ((1u64 << w) - 1));
                shift += w;
            }
            let mut assumps = Vec::new();
            for (b, (_, sigs)) in enc.inputs.iter().enumerate() {
                for (i, sig) in sigs.iter().enumerate() {
                    let l = sig.lit(&s);
                    assumps.push(if (vals[b] >> i) & 1 == 1 { l } else { !l });
                }
            }
            let m = match s.solve(&assumps, 100_000) {
                SolveResult::Sat(m) => m,
                other => panic!("inputs must be satisfiable, got {other:?}"),
            };
            let expect = netlist.eval(&vals).expect("evaluable");
            for (o, (_, sigs)) in enc.outputs.iter().enumerate() {
                let got = gates::decode(&m, sigs) as u64;
                assert_eq!(got, expect[o], "pattern {pattern:#x}");
            }
        }
    }

    #[test]
    fn full_adder_netlist_encodes_exactly() {
        let mut b = NetlistBuilder::new("fa");
        let a = b.inputs("a", 1);
        let x = b.inputs("b", 1);
        let c = b.inputs("cin", 1);
        let sum = b.lut3(Init::XOR3, a[0], x[0], c[0]);
        let maj_init = Init::from_fn(|i| {
            let bits = (i & 1) + ((i >> 1) & 1) + ((i >> 2) & 1);
            bits >= 2
        });
        let carry = b.lut3(maj_init, a[0], x[0], c[0]);
        b.output("sum", sum);
        b.output("cout", carry);
        assert_encoding_matches(&b.finish().expect("valid"));
    }

    #[test]
    fn repeated_and_constant_pins_reduce() {
        let mut b = NetlistBuilder::new("degenerate");
        let a = b.inputs("a", 2);
        let one = b.constant(true);
        // XOR3(a0, a0, one) == 1 for all a0: constant after reduction.
        let y = b.lut3(Init::XOR3, a[0], a[0], one);
        // XOR2(a0, a1) with a repeated pin in a wider table.
        let (z, _) = b.lut2(Init::XOR2, a[0], a[1]);
        b.output("y", y);
        b.output("z", z);
        let nl = b.finish().expect("valid");
        let mut s = Solver::new();
        let enc = encode_netlist(&mut s, &nl, None).expect("encodable");
        // y must have been folded to a constant — no clauses, no var.
        assert_eq!(enc.outputs[0].1[0], Sig::TRUE);
        assert_encoding_matches(&nl);
    }

    #[test]
    fn carry_chain_encodes_exactly() {
        // 4-bit ripple adder out of the builder's carry_chain helper.
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let zero = b.constant(false);
        let mut s_nets = Vec::new();
        let mut di_nets = Vec::new();
        for i in 0..4 {
            let (o6, _o5) = b.lut2(Init::XOR2, a[i], c[i]);
            s_nets.push(o6);
            di_nets.push(a[i]); // generate = A bypass, the classic P/G pair
        }
        let (sums, cout) = b.carry4(
            zero,
            [s_nets[0], s_nets[1], s_nets[2], s_nets[3]],
            [di_nets[0], di_nets[1], di_nets[2], di_nets[3]],
        );
        let mut bits: Vec<_> = sums.to_vec();
        bits.push(cout);
        b.output_bus("sum", &bits);
        assert_encoding_matches(&b.finish().expect("valid"));
    }

    #[test]
    fn structural_sharing_collapses_identical_netlists() {
        use axmul_baselines::kulkarni_netlist;
        let nl = kulkarni_netlist(4).expect("width");
        let mut s = Solver::new();
        let first = encode_netlist(&mut s, &nl, None).expect("encodable");
        let shared: Vec<Vec<Sig>> = first.inputs.iter().map(|(_, v)| v.clone()).collect();
        let vars_after_first = s.num_vars();
        let second = encode_netlist(&mut s, &nl, Some(&shared)).expect("encodable");
        assert_eq!(
            s.num_vars(),
            vars_after_first,
            "identical structure over identical inputs must not allocate"
        );
        for (a, b) in first.outputs.iter().zip(&second.outputs) {
            assert_eq!(a.1, b.1, "outputs must be the same signals");
        }
    }
}

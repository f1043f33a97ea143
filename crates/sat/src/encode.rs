//! Tseitin encoding of `fabric::Netlist` into CNF.
//!
//! Per-primitive rules:
//!
//! * **LUT6_2** — the 64-bit `INIT` is first *reduced* over the pins
//!   that are actually distinct variables: constant pins and repeated
//!   pins (the same net wired to several inputs, including through
//!   opposite polarities after folding) are substituted into the truth
//!   table at encode time, and variables the reduced table ignores are
//!   dropped. If what is left is constant or a copy (or inversion) of a
//!   single pin, no clauses are emitted at all. A parity (or its
//!   complement), a two-variable AND in any polarity (OR, NAND, NOR)
//!   or a three-variable majority is built through the
//!   [`crate::gates`] builders, so it lands on the same literals as
//!   gate-level logic of the same function. Otherwise the output
//!   variable is defined by cofactor clauses from a Minato–Morreale
//!   irredundant sum-of-products of the reduced on-set and off-set,
//!   which is both compact and propagation-complete in each direction.
//!   `O5` is encoded the same way from the lower 32 INIT bits as a
//!   5-input function.
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
                    let o5_sig = lut_output(solver, o5_table(init.raw()), &pin_sigs);
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

/// `O5` is the lower 32 INIT bits as a 5-input function; lifted to a
/// 6-pin table that ignores I5, it takes the same reduction path as O6.
fn o5_table(raw: u64) -> u64 {
    let low = raw & 0xFFFF_FFFF;
    low | low << 32
}

/// Truth table of variable `j` over six variables: bit `m` is bit `j`
/// of `m`.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A LUT table reduced over its distinct support variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reduced {
    /// Bit `m` is the output when support variable `vars[slot]` takes
    /// bit `slot` of `m`; no bits at or above `2^k`.
    table: u64,
    /// The variables the table depends on, ascending; `vars[..k]`.
    vars: [u32; 6],
    k: usize,
}

/// Substitutes constant, repeated and negated pins into `table` and
/// drops the variables the result ignores. Word-level: the pins become
/// truth tables over the support slots, the table is composed with them
/// by one mux level per pin (63 word muxes), and each slot's dependence
/// is one compare against its [`VAR_MASKS`] cofactor.
fn reduce(table: u64, pins: &[Sig; 6]) -> Reduced {
    let mut vars = [0u32; 6];
    let mut k = 0;
    for pin in pins {
        if let Sig::Lit(l) = pin {
            if !vars[..k].contains(&l.var()) {
                vars[k] = l.var();
                k += 1;
            }
        }
    }
    vars[..k].sort_unstable();
    debug_assert!(k <= 6);

    // Shannon expansion on I0, then I1, …: `words[j]` is the cofactor of
    // the pins consumed so far, as a function of the support slots.
    let mut words = [0u64; 64];
    for (index, word) in words.iter_mut().enumerate() {
        *word = 0u64.wrapping_sub(table >> index & 1);
    }
    for (level, pin) in pins.iter().enumerate() {
        let select = match pin {
            Sig::Const(b) => 0u64.wrapping_sub(u64::from(*b)),
            Sig::Lit(l) => {
                let slot = vars[..k].partition_point(|&v| v < l.var());
                VAR_MASKS[slot] ^ 0u64.wrapping_sub(u64::from(l.is_neg()))
            }
        };
        for j in 0..32 >> level {
            words[j] = (select & words[2 * j + 1]) | (!select & words[2 * j]);
        }
    }
    let mut word = words[0];

    // Drop the variables the table ignores (an O5 half never reads I5,
    // and the ternary adder's O5 never reads I3): each is moved to the
    // top slot by adjacent swaps, where it no longer shows.
    for slot in (0..k).rev() {
        let shift = 1 << slot;
        if (word ^ word >> shift) & !VAR_MASKS[slot] != 0 {
            continue;
        }
        for i in slot..5 {
            let t = (word ^ word >> (1 << i)) & VAR_MASKS[i] & !VAR_MASKS[i + 1];
            word ^= t ^ t << (1 << i);
        }
        vars.copy_within(slot + 1..k, slot);
        k -= 1;
    }
    Reduced {
        table: word & table_mask(k),
        vars,
        k,
    }
}

/// The bits of a `k`-variable truth table.
fn table_mask(k: usize) -> u64 {
    if k == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    }
}

/// Encodes one LUT output. The 64-bit table is reduced over the
/// distinct variable pins (in variable order) and then over the
/// variables it really depends on. Constants and copies fold; a parity,
/// a two-variable AND (any polarity) or a three-variable majority is
/// built through the [`crate::gates`] builders, so it shares literals
/// with gate-level logic of the same function; any other table gets
/// ISOP cofactor clauses for a fresh output variable.
pub(crate) fn lut_output(solver: &mut Solver, table: u64, pins: &[Sig; 6]) -> Sig {
    let Reduced {
        table: rtab,
        vars,
        k,
    } = reduce(table, pins);
    let vars = &vars[..k];
    let lit = |slot: usize, negated: bool| Sig::Lit(Lit::new(vars[slot], negated));

    if k == 0 {
        return Sig::Const(rtab & 1 == 1);
    }
    if k == 1 {
        // Depends on its one variable: a copy (0b10) or an inversion.
        return lit(0, rtab == 0b01);
    }
    let mask = table_mask(k);
    let parity = VAR_MASKS[..k].iter().fold(0, |t, v| t ^ v) & mask;
    if rtab == parity || rtab == !parity & mask {
        let operands: Vec<Sig> = (0..k).map(|slot| lit(slot, false)).collect();
        let out = gates::xor_many(solver, &operands);
        return if rtab == parity { out } else { !out };
    }
    if k == 2 && matches!(rtab.count_ones(), 1 | 3) {
        // One on-minterm is an AND; one off-minterm is its negation.
        let odd_one = if rtab.count_ones() == 1 {
            rtab
        } else {
            !rtab & mask
        };
        let m = odd_one.trailing_zeros();
        let out = gates::and(solver, lit(0, m & 1 == 0), lit(1, m & 2 == 0));
        return if rtab.count_ones() == 1 { out } else { !out };
    }
    if k == 3 {
        // maj(x₀ ⊕ n₀, x₁ ⊕ n₁, x₂ ⊕ n₂) for some polarity mask n; its
        // complement is the majority of the complemented inputs.
        for neg in 0u64..8 {
            let [x, y, z] =
                [0, 1, 2].map(|slot| VAR_MASKS[slot] ^ 0u64.wrapping_sub(neg >> slot & 1));
            if rtab == (x & y | y & z | x & z) & mask {
                let [a, b, c] = [0, 1, 2].map(|slot| lit(slot, neg >> slot & 1 == 1));
                return gates::maj(solver, a, b, c);
            }
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
    let offset = !rtab & mask;
    let mut cubes = Vec::new();
    let mut clause = Vec::with_capacity(k + 1);
    for (head, table) in [(out, rtab), (!out, offset)] {
        cubes.clear();
        isop(table, table, k, &mut cubes);
        for &cube in &cubes {
            clause.clear();
            clause.push(head);
            push_cube_negation(&mut clause, cube, vars);
            solver.add_clause(&clause);
        }
    }
    solver.cache_gate(key, out);
    Sig::Lit(out)
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
/// function: appends to `out` cubes that cover at least `l` and at most
/// `u` (`l ⊆ u`, no bits above the table), over `k` variables of a
/// ≤64-bit truth table, and returns the table they cover. The top
/// variable's cofactors are the table's halves, and each cover comes
/// back from the recursion.
fn isop(l: u64, u: u64, k: usize, out: &mut Vec<Cube>) -> u64 {
    let full = table_mask(k);
    debug_assert_eq!(l & !u, 0);
    debug_assert_eq!(u & !full, 0);
    if l == 0 {
        return 0;
    }
    if u == full {
        out.push(Cube::default());
        return full;
    }
    debug_assert!(k > 0, "constant-1 lower bound with u != full");
    let j = k - 1;
    let half = 1u32 << j;
    let low = (1u64 << half) - 1;
    let (l0, l1) = (l & low, l >> half);
    let (u0, u1) = (u & low, u >> half);

    let start = out.len();
    let cov0 = isop(l0 & !u1, u0, j, out);
    for c in &mut out[start..] {
        c.neg |= 1 << j;
    }
    let start = out.len();
    let cov1 = isop(l1 & !u0, u1, j, out);
    for c in &mut out[start..] {
        c.pos |= 1 << j;
    }
    let l_star = (l0 & !cov0) | (l1 & !cov1);
    let cov_star = isop(l_star, u0 & u1, j, out);
    (cov0 | cov_star) | (cov1 | cov_star) << half
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;
    use axmul_fabric::{Init, NetlistBuilder};

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

    fn check_isop(table: u64, k: usize) {
        let mask: u64 = if k == 6 {
            u64::MAX
        } else {
            (1u64 << (1 << k)) - 1
        };
        let table = table & mask;
        let mut cubes = Vec::new();
        let cover = isop(table, table, k, &mut cubes);
        assert_eq!(cover, table, "k={k} t={table:x}");
        assert_eq!(cover_table(&cubes, k), table, "k={k} t={table:x}");
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

    /// The per-minterm reduction `reduce` replaced, kept as its oracle:
    /// every minterm of the support is mapped through the six pins, then
    /// ignored variables are cofactored out one at a time.
    fn reduce_by_minterms(table: u64, pins: &[Sig; 6]) -> (u64, Vec<u32>) {
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
        let mut vars: Vec<u32> = pins
            .iter()
            .filter_map(|pin| match pin {
                Sig::Lit(l) => Some(l.var()),
                Sig::Const(_) => None,
            })
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let mut k = vars.len();
        let slot_of = pins.map(|pin| match pin {
            Sig::Lit(l) => vars.partition_point(|&v| v < l.var()),
            Sig::Const(_) => 0,
        });
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
        for slot in (0..k).rev() {
            let low = cofactor(rtab, k, slot, false);
            if low == cofactor(rtab, k, slot, true) {
                rtab = low;
                vars.remove(slot);
                k -= 1;
            }
        }
        (rtab, vars)
    }

    #[test]
    fn word_level_reduction_matches_the_minterm_oracle() {
        let mut state = 0x0DD_B1A5_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Pins drawn from two constants and four variables in both
        // polarities, so patterns repeat, negate and fold; tables are
        // random, sparse, dense, or depend on few pins.
        let shapes = [u64::MAX, 0x0101_0101_0101_0101, 0xFFFF_FFFF, 0xF0F0];
        for round in 0..20_000 {
            let raw = next();
            let table = match round % 4 {
                0 => raw,
                1 => raw & next() & next(),
                2 => raw | next() | next(),
                _ => {
                    let t = raw & shapes[(next() % 4) as usize];
                    t | t << 32
                }
            };
            let draw = next();
            let pins: [Sig; 6] = std::array::from_fn(|i| {
                let code = draw >> (8 * i) & 0xFF;
                match code % 10 {
                    0 => Sig::FALSE,
                    1 => Sig::TRUE,
                    c => Sig::Lit(Lit::new(1 + (c as u32 - 2) % 4 * 3, code & 0x80 != 0)),
                }
            });
            let reduced = reduce(table, &pins);
            let (oracle_table, oracle_vars) = reduce_by_minterms(table, &pins);
            assert_eq!(
                (reduced.table, &reduced.vars[..reduced.k]),
                (oracle_table, &oracle_vars[..]),
                "table {table:#x}, pins {pins:?}"
            );
        }
        // Every pin a distinct variable: the table itself, less the
        // variables it ignores.
        let distinct: [Sig; 6] = std::array::from_fn(|i| Sig::Lit(Lit::new(i as u32 + 1, false)));
        for _ in 0..1000 {
            let table = next();
            let reduced = reduce(table, &distinct);
            let (oracle_table, oracle_vars) = reduce_by_minterms(table, &distinct);
            assert_eq!(
                (reduced.table, &reduced.vars[..reduced.k]),
                (oracle_table, &oracle_vars[..])
            );
        }
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

    /// Encodes one LUT over `pins` and checks it against `table` on
    /// every assignment of `vars`: the output takes the table's value
    /// and the opposite value is refuted. Returns the output signal.
    fn check_lut(s: &mut Solver, table: u64, pins: &[Sig; 6], vars: &[Sig]) -> Sig {
        let out = lut_output(s, table, pins);
        for assignment in 0u64..1 << vars.len() {
            let assumps: Vec<Lit> = vars
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let l = v.lit(s);
                    if assignment >> i & 1 == 1 {
                        l
                    } else {
                        !l
                    }
                })
                .collect();
            let m = match s.solve(&assumps, 100_000) {
                SolveResult::Sat(m) => m,
                other => panic!("inputs must be satisfiable, got {other:?}"),
            };
            let index = pins
                .iter()
                .enumerate()
                .fold(0u64, |idx, (i, pin)| idx | u64::from(pin.value(&m)) << i);
            let expect = table >> index & 1 == 1;
            assert_eq!(out.value(&m), expect, "table {table:#x} at {assignment:#b}");
            if let Sig::Lit(l) = out {
                let wrong = if expect { !l } else { l };
                let refuted = [assumps, vec![wrong]].concat();
                assert!(
                    matches!(s.solve(&refuted, 100_000), SolveResult::Unsat),
                    "table {table:#x} at {assignment:#b}: output not functional"
                );
            }
        }
        out
    }

    #[test]
    fn every_two_and_three_variable_table_encodes_exactly() {
        for k in [2usize, 3] {
            for t in 0u64..1 << (1 << k) {
                let table = Init::from_fn(|i| t >> (i & ((1 << k) - 1)) & 1 == 1).raw();
                let mut s = Solver::new();
                let v: Vec<Sig> = (0..k).map(|_| Sig::Lit(s.new_var())).collect();
                // Pins in variable order, then permuted and negated.
                let mut straight = [Sig::FALSE; 6];
                straight[..k].copy_from_slice(&v);
                check_lut(&mut s, table, &straight, &v);
                let mut mixed = [Sig::TRUE; 6];
                for (slot, pin) in mixed.iter_mut().take(k).enumerate() {
                    let var = v[(slot + 1) % k];
                    *pin = if slot == 0 { !var } else { var };
                }
                check_lut(&mut s, table, &mixed, &v);
            }
        }
    }

    #[test]
    fn parity_and_and_majority_luts_build_gates() {
        use axmul_core::structural::TERNARY_INIT;
        let mut s = Solver::new();
        let v: Vec<Sig> = (0..4).map(|_| Sig::Lit(s.new_var())).collect();
        let (x, y, z, w) = (v[0], v[1], v[2], v[3]);
        let (t, f) = (Sig::TRUE, Sig::FALSE);
        let table = |f: fn(u8) -> bool| Init::from_fn(f).raw();
        let parity6 = table(|i| i.count_ones() % 2 == 1);
        let xnor4 = table(|i| (i & 0xF).count_ones() % 2 == 0);
        let nor_0_3 = table(|i| i & 0b1001 == 0);
        let and3 = table(|i| i & 0b111 == 0b111);
        let or3 = table(|i| i & 0b111 != 0);
        let maj_0_2_4 = table(|i| (i & 1) + (i >> 2 & 1) + (i >> 4 & 1) >= 2);
        let minority_0_2_4 = !maj_0_2_4;

        // Parity: negated, repeated and constant pins fold into the
        // xor_many operand list.
        let pins = [x, !y, x, t, z, w];
        let out = check_lut(&mut s, parity6, &pins, &v);
        assert_eq!(out, gates::xor_many(&mut s, &pins));
        // A complemented parity over four pins; I4 and I5 ignored.
        let out = check_lut(&mut s, xnor4, &[x, y, f, z, w, !x], &v);
        assert_eq!(out, !gates::xor_many(&mut s, &[x, y, z]));

        // AND/OR: NOR(¬x, w) = x ∧ ¬w, with ignored pins.
        let out = check_lut(&mut s, nor_0_3, &[!x, y, z, w, x, t], &v);
        assert_eq!(out, gates::and(&mut s, x, !w));
        // A repeated pin: x ∧ x ∧ ¬y.
        let out = check_lut(&mut s, and3, &[x, x, !y, w, f, f], &v);
        assert_eq!(out, gates::and(&mut s, x, !y));
        // A constant pin: x ∨ 0 ∨ y.
        let out = check_lut(&mut s, or3, &[x, f, y, z, w, t], &v);
        assert_eq!(out, gates::or(&mut s, x, y));

        // Majority with a negated input, a constant and ignored pins,
        // and its complement, the majority of the negated inputs.
        let out = check_lut(&mut s, maj_0_2_4, &[x, t, !y, z, w, x], &v);
        assert_eq!(out, gates::maj(&mut s, x, !y, w));
        let out = check_lut(&mut s, minority_0_2_4, &[x, t, !y, z, w, x], &v);
        assert_eq!(out, gates::maj(&mut s, !x, y, !w));

        // Both halves of the ternary adder's LUT (I4 = 0, I5 = 1), with
        // all three operands and with one absent.
        let raw = TERNARY_INIT.raw();
        let pins = [x, y, z, w, f, t];
        let o6 = check_lut(&mut s, raw, &pins, &v);
        assert_eq!(o6, gates::xor_many(&mut s, &[x, y, z, w]));
        let o5 = check_lut(&mut s, o5_table(raw), &pins, &v);
        assert_eq!(o5, gates::maj(&mut s, x, y, z));
        let pins = [x, y, f, w, f, t];
        let o6 = check_lut(&mut s, raw, &pins, &v);
        assert_eq!(o6, gates::xor_many(&mut s, &[x, y, w]));
        let o5 = check_lut(&mut s, o5_table(raw), &pins, &v);
        assert_eq!(o5, gates::and(&mut s, x, y));
    }
}

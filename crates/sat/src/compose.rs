//! Compositional worst-case-error proofs: the error of a quad-composed
//! multiplier, solved over verified leaf error tables instead of a
//! gate-level miter against an exact multiplier.
//!
//! A `2m×2m` node combines four `m×m` quadrant products `q_ll`, `q_hl`,
//! `q_lh`, `q_hh` (operand halves `AL·BL`, `AH·BL`, `AL·BH`, `AH·BH`).
//! With `S = (q_ll >> m) + q_hl + q_lh + ((q_hh mod 2^m) << m)` and `X`
//! the xor of the same four terms, accurate (Ca) summation gives
//! `P = (q_ll mod 2^m) + 2^m·S`, and carry-free (Cc) summation gives
//! `P = (q_ll mod 2^m) + 2^m·X + 2^3m·(q_hh >> m)`; both as integers,
//! provided the Ca sum does not wrap. Since `A·B = Σ 2^s·a_i·b_j`,
//!
//! ```text
//! P − A·B = Σ_k 2^s_k·(q_k − a_i·b_j)  −  [Cc] 2^m·(S − X)
//! ```
//!
//! and each `q_k − a_i·b_j` is the child's own error, so the whole error
//! unrolls into one weighted error table per leaf plus one carry-drop
//! term `S − X ≥ 0` per Cc node. Every column of `S` holds three terms,
//! so `S − X` is twice the word of column majorities.
//!
//! The claims this rests on come from [`Netlist::product_blocks`] and
//! are never trusted. [`decompose`] verifies them:
//!
//! 1. **Tree and cone check.** Starting at the output bus, each node's
//!    children are the unique claimed blocks in its fan-in whose operand
//!    nets are exactly its operand halves; the cell-driven nets of the
//!    children's buses are distinct, and each bus's structural support
//!    (pins the LUT tables ignore excluded) lies inside its operand
//!    nets.
//! 2. **Leaf tables.** A node with no children and at most 8 operand
//!    bits is a leaf: its bus is tabulated by simulating the design's
//!    own cone over every operand pair.
//! 3. **Cut-point equivalence.** Each internal node's bus is encoded
//!    with its children's cell-driven bus nets cut to fresh variables
//!    (constant bits stay constant), and an UNSAT
//!    miter proves it equals the Cc or the Ca combination of those
//!    variables modulo `2^4m`, for every input and every child value.
//! 4. **No wrap.** Child value bounds (leaf table maxima, composed
//!    upward) keep every Ca sum below `2^4m`, so the identity holds over
//!    the integers.
//!
//! Any failed step returns `None`, and [`crate::prove_wce`] runs the
//! netlist CEGAR instead. Every model the table-level search returns is
//! still replayed through `Netlist::eval` on the full design.

use axmul_fabric::{Cell, Driver, NetId, Netlist};

use crate::encode::{encode_cells, lut_output, Cone};
use crate::equiv::{ProofOptions, ProofStats};
use crate::gates::{self, Sig};
use crate::solver::{SolveResult, Solver};
use crate::SatError;

/// Largest leaf the checker tabulates, in operand bits.
const MAX_LEAF_BITS: usize = 8;

/// A verified decomposition of a design's error.
#[derive(Debug, Clone)]
pub(crate) struct Decomposition {
    leaves: Vec<LeafTerm>,
    carry_drops: Vec<CarryDrop>,
    /// What the cut-point proofs cost (no time).
    pub(crate) effort: ProofStats,
}

/// `2^shift · (q − a·b)` of one leaf, tabulated.
#[derive(Debug, Clone)]
struct LeafTerm {
    shift: u32,
    /// Operand nets, `a` then `b`; the table index is their value.
    operands: Vec<NetId>,
    /// `(q − a·b) − low` per operand index.
    biased: Vec<u64>,
    /// The smallest error of the leaf.
    low: i64,
}

/// `2^shift · (S − X)` of one Cc node, over its children's buses.
#[derive(Debug, Clone)]
struct CarryDrop {
    shift: u32,
    m: usize,
    /// `q_ll`, `q_hl`, `q_lh`, `q_hh`.
    quadrants: [Vec<NetId>; 4],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Summation {
    Accurate,
    CarryFree,
}

/// A node of the verified product tree.
struct Node {
    a: Vec<NetId>,
    b: Vec<NetId>,
    p: Vec<NetId>,
    shift: u32,
    /// Indices of `ll`, `hl`, `lh`, `hh`; `None` for a leaf.
    children: Option<[usize; 4]>,
}

/// Verifies `netlist`'s claimed product blocks and decomposes its error
/// (see the module docs). `None` when the design has no claims or any
/// check fails; `Err` only for encoding failures.
pub(crate) fn decompose(
    netlist: &Netlist,
    opts: &ProofOptions,
) -> Result<Option<Decomposition>, SatError> {
    if netlist.product_blocks().is_empty() {
        return Ok(None);
    }
    let (Some(a), Some(b), Some(p)) = (
        netlist.input_buses().first(),
        netlist.input_buses().get(1),
        netlist.output_buses().first(),
    ) else {
        return Ok(None);
    };
    let (a, b, p) = (&a.1, &b.1, &p.1);
    let Some(input_bit) = input_bits(netlist) else {
        return Ok(None);
    };
    if a.len() != b.len() || p.len() != 2 * a.len() {
        return Ok(None);
    }
    let support = supports(netlist, &input_bit);

    // Step 1: the tree, children found by their operand nets.
    let mut nodes = vec![Node {
        a: a.clone(),
        b: b.clone(),
        p: p.clone(),
        shift: 0,
        children: None,
    }];
    let mut next = 0;
    while next < nodes.len() {
        let Some(children) = find_children(netlist, &nodes[next], &support, &input_bit) else {
            return Ok(None);
        };
        if let Some(children) = children {
            let half = nodes[next].a.len() / 2;
            let parent_shift = nodes[next].shift;
            let mut ids = [0usize; 4];
            for (q, child) in children.into_iter().enumerate() {
                ids[q] = nodes.len();
                let (ha, hb) = QUADRANTS[q];
                nodes.push(Node {
                    shift: parent_shift + half as u32 * (ha + hb),
                    ..child
                });
            }
            nodes[next].children = Some(ids);
        } else if nodes[next].a.len() + nodes[next].b.len() > MAX_LEAF_BITS || next == 0 {
            // Too wide to tabulate, or a design with no verified parts.
            return Ok(None);
        }
        next += 1;
    }

    // Step 2: leaf tables; step 4 needs their maxima.
    let mut max_value = vec![0u128; nodes.len()];
    let mut leaves = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        if node.children.is_none() {
            let (term, max) = tabulate(netlist, node);
            max_value[id] = max;
            leaves.push(term);
        }
    }

    // Steps 3 and 4, children before parents.
    let mut effort = ProofStats::default();
    let mut carry_drops = Vec::new();
    for id in (0..nodes.len()).rev() {
        let node = &nodes[id];
        let Some(children) = node.children else {
            continue;
        };
        let m = node.a.len() / 2;
        let quadrants = children.map(|c| nodes[c].p.clone());
        let Some(summation) = prove_cut(netlist, node, &quadrants, opts, &mut effort)? else {
            return Ok(None);
        };
        let bound = max_value[children[0]]
            + ((max_value[children[1]] + max_value[children[2]]) << m)
            + (max_value[children[3]] << (2 * m));
        let limit = 1u128 << (4 * m);
        if summation == Summation::Accurate && bound >= limit {
            return Ok(None);
        }
        // Xor never exceeds the sum, so the Ca bound also bounds Cc.
        max_value[id] = bound.min(limit - 1);
        if summation == Summation::CarryFree {
            carry_drops.push(CarryDrop {
                shift: node.shift + m as u32,
                m,
                quadrants,
            });
        }
    }
    carry_drops.reverse();
    Ok(Some(Decomposition {
        leaves,
        carry_drops,
        effort,
    }))
}

/// Operand-half offsets (in halves) of `ll`, `hl`, `lh`, `hh`.
const QUADRANTS: [(u32, u32); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// Per net, its primary-input bit (bus 0 first), if it is one. `None`
/// unless every input net is a distinct `Input`-driven net and there
/// are at most 64 input bits.
fn input_bits(netlist: &Netlist) -> Option<Vec<Option<u8>>> {
    let mut bit_of = vec![None; netlist.net_count()];
    let mut next = 0u32;
    for (_, bits) in netlist.input_buses() {
        for net in bits {
            let slot = bit_of.get_mut(net.index())?;
            if slot.is_some() || !matches!(netlist.drivers()[net.index()], Driver::Input(..)) {
                return None;
            }
            *slot = Some(u8::try_from(next).ok().filter(|&b| b < 64)?);
            next += 1;
        }
    }
    Some(bit_of)
}

/// Structural support of every net as a mask of input bits, skipping
/// pins a LUT's table ignores.
fn supports(netlist: &Netlist, input_bit: &[Option<u8>]) -> Vec<u64> {
    let mut sup: Vec<u64> = input_bit
        .iter()
        .map(|bit| bit.map_or(0, |b| 1u64 << b))
        .collect();
    for cell in netlist.cells() {
        match cell {
            Cell::Lut {
                init,
                inputs,
                o6,
                o5,
            } => {
                let (mut m6, mut m5) = (0u64, 0u64);
                for (k, pin) in inputs.iter().enumerate() {
                    if init.depends_on(k as u8) {
                        m6 |= sup[pin.index()];
                    }
                    if init.depends_on_o5(k as u8) {
                        m5 |= sup[pin.index()];
                    }
                }
                sup[o6.index()] = m6;
                if let Some(o5) = o5 {
                    sup[o5.index()] = m5;
                }
            }
            Cell::Carry4 { cin, s, di, o, co } => {
                let mut carry = sup[cin.index()];
                for i in 0..4 {
                    if let Some(n) = o[i] {
                        sup[n.index()] = sup[s[i].index()] | carry;
                    }
                    carry |= sup[s[i].index()] | sup[di[i].index()];
                    if let Some(n) = co[i] {
                        sup[n.index()] = carry;
                    }
                }
            }
        }
    }
    sup
}

/// The nets and cells in the transitive fan-in of `roots`, not walking
/// past nets marked in `stop`.
fn fanin(netlist: &Netlist, roots: &[NetId], stop: Option<&[bool]>) -> (Vec<bool>, Vec<bool>) {
    let mut nets = vec![false; netlist.net_count()];
    let mut cells = vec![false; netlist.cells().len()];
    let mut stack: Vec<NetId> = roots.to_vec();
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut nets[net.index()], true) || stop.is_some_and(|s| s[net.index()]) {
            continue;
        }
        let cell = match netlist.drivers()[net.index()] {
            Driver::LutO6(c)
            | Driver::LutO5(c)
            | Driver::CarrySum(c, _)
            | Driver::CarryCout(c, _) => c.index(),
            Driver::Input(..) | Driver::Const(_) => continue,
        };
        if std::mem::replace(&mut cells[cell], true) {
            continue;
        }
        match &netlist.cells()[cell] {
            Cell::Lut { inputs, .. } => stack.extend(inputs),
            Cell::Carry4 { cin, s, di, .. } => {
                stack.push(*cin);
                stack.extend(s);
                stack.extend(di);
            }
        }
    }
    (nets, cells)
}

/// The four claimed children of `node` (`Some(None)` if it has none),
/// or `None` if the claims around it do not check out.
fn find_children(
    netlist: &Netlist,
    node: &Node,
    support: &[u64],
    input_bit: &[Option<u8>],
) -> Option<Option<[Node; 4]>> {
    let half = node.a.len() / 2;
    if node.a.len() % 2 == 1 {
        return Some(None);
    }
    let (in_cone, _) = fanin(netlist, &node.p, None);
    let mut found: Vec<Node> = Vec::with_capacity(4);
    for (ha, hb) in QUADRANTS {
        let a = &node.a[ha as usize * half..][..half];
        let b = &node.b[hb as usize * half..][..half];
        let mut matches = netlist.product_blocks().iter().filter(|blk| {
            blk.a() == a && blk.b() == b && blk.p().iter().all(|n| in_cone[n.index()])
        });
        match (matches.next(), matches.next()) {
            (Some(blk), None) => found.push(Node {
                a: a.to_vec(),
                b: b.to_vec(),
                p: blk.p().to_vec(),
                shift: 0,
                children: None,
            }),
            (None, _) => {}
            (Some(_), Some(_)) => return None,
        }
    }
    if found.is_empty() {
        return Some(None);
    }
    if found.len() != 4 {
        return None;
    }
    let mut all_p: Vec<NetId> = Vec::with_capacity(8 * half);
    for child in &found {
        let operands = child
            .a
            .iter()
            .chain(&child.b)
            .try_fold(0u64, |mask, n| Some(mask | 1u64 << input_bit[n.index()]?))?;
        if child.p.len() != 2 * half || child.p.iter().any(|n| support[n.index()] & !operands != 0)
        {
            return None;
        }
        all_p.extend(child.p.iter().filter(|n| cell_driven(netlist, **n)));
    }
    all_p.sort_unstable();
    if all_p.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    let [ll, hl, lh, hh]: [Node; 4] = found.try_into().ok()?;
    Some(Some([ll, hl, lh, hh]))
}

/// Whether a cell drives `net` (it is not an input or a constant).
fn cell_driven(netlist: &Netlist, net: NetId) -> bool {
    !matches!(
        netlist.drivers()[net.index()],
        Driver::Input(..) | Driver::Const(_)
    )
}

/// Tabulates a leaf's bus by simulating its cone over every operand
/// pair; returns its error term and its largest value.
fn tabulate(netlist: &Netlist, node: &Node) -> (LeafTerm, u128) {
    let operands: Vec<NetId> = node.a.iter().chain(&node.b).copied().collect();
    let (_, cone) = fanin(netlist, &node.p, None);
    let mut values = vec![false; netlist.net_count()];
    for (net, driver) in netlist.drivers().iter().enumerate() {
        if let Driver::Const(c) = driver {
            values[net] = *c;
        }
    }
    let wa = node.a.len();
    let mut errors = Vec::with_capacity(1 << operands.len());
    let mut max = 0u64;
    for index in 0u64..1 << operands.len() {
        for (k, net) in operands.iter().enumerate() {
            values[net.index()] = index >> k & 1 == 1;
        }
        for (cell, _) in cone.iter().enumerate().filter(|(_, keep)| **keep) {
            netlist.cells()[cell].eval(&mut values);
        }
        let q: u64 = node
            .p
            .iter()
            .enumerate()
            .map(|(i, n)| u64::from(values[n.index()]) << i)
            .sum();
        max = max.max(q);
        let (a, b) = (index & ((1 << wa) - 1), index >> wa);
        errors.push(q as i64 - (a * b) as i64);
    }
    let low = errors.iter().copied().min().unwrap_or(0);
    let term = LeafTerm {
        shift: node.shift,
        operands,
        biased: errors.iter().map(|e| (e - low) as u64).collect(),
        low,
    };
    (term, u128::from(max))
}

/// Fresh solver signals for every input bus and constant net.
fn fresh_inputs(solver: &mut Solver, netlist: &Netlist) -> (Vec<Sig>, Vec<bool>) {
    let mut nets = vec![Sig::FALSE; netlist.net_count()];
    let mut defined = vec![false; netlist.net_count()];
    for (_, bits) in netlist.input_buses() {
        for net in bits {
            nets[net.index()] = Sig::Lit(solver.new_var());
            defined[net.index()] = true;
        }
    }
    for (net, driver) in netlist.drivers().iter().enumerate() {
        if let Driver::Const(c) = driver {
            nets[net] = Sig::Const(*c);
            defined[net] = true;
        }
    }
    (nets, defined)
}

/// Step 3: proves `node`'s bus equals the Cc or Ca combination of its
/// children's buses cut to free variables; `None` if neither holds.
fn prove_cut(
    netlist: &Netlist,
    node: &Node,
    quadrants: &[Vec<NetId>; 4],
    opts: &ProofOptions,
    effort: &mut ProofStats,
) -> Result<Option<Summation>, SatError> {
    let mut solver = Solver::new();
    let (mut nets, mut defined) = fresh_inputs(&mut solver, netlist);
    // Cell-driven bus bits become free variables; constant and input
    // bits keep their signals, which is all the values they can take.
    let mut cut = vec![false; netlist.net_count()];
    for &net in quadrants.iter().flatten() {
        if cell_driven(netlist, net) {
            nets[net.index()] = Sig::Lit(solver.new_var());
            defined[net.index()] = true;
            cut[net.index()] = true;
        }
    }
    let (_, keep) = fanin(netlist, &node.p, Some(&cut));
    encode_cells(
        &mut solver,
        netlist,
        &mut nets,
        &mut defined,
        Cone {
            keep: Some(&keep),
            cut: Some(&cut),
        },
    )?;
    if node.p.iter().any(|n| !defined[n.index()]) {
        return Ok(None);
    }
    let p: Vec<Sig> = node.p.iter().map(|n| nets[n.index()]).collect();
    let q = quadrants
        .each_ref()
        .map(|bus| bus.iter().map(|n| nets[n.index()]).collect::<Vec<Sig>>());
    let m = node.a.len() / 2;
    let mut proven = None;
    for summation in [Summation::CarryFree, Summation::Accurate] {
        let combined = combine(&mut solver, &q, m, summation);
        let mut miter = Sig::FALSE;
        for (&x, &y) in p.iter().zip(&combined) {
            let diff = gates::xor(&mut solver, x, y);
            miter = gates::or(&mut solver, miter, diff);
        }
        let equal = match miter {
            Sig::Const(c) => !c,
            Sig::Lit(l) => match solver.solve(&[l], opts.max_conflicts) {
                SolveResult::Unsat => true,
                SolveResult::Sat(_) | SolveResult::Unknown => false,
            },
        };
        if equal {
            proven = Some(summation);
            break;
        }
    }
    let stats = solver.stats();
    effort.solves += stats.solves;
    effort.conflicts += stats.conflicts;
    effort.decisions += stats.decisions;
    effort.propagations += stats.propagations;
    Ok(proven)
}

/// The `4m` bits of the Cc or Ca combination of four `2m`-bit quadrant
/// products (the CNF twin of `combine_products`).
fn combine(solver: &mut Solver, q: &[Vec<Sig>; 4], m: usize, summation: Summation) -> Vec<Sig> {
    let [ll, hl, lh, hh] = q;
    match summation {
        Summation::CarryFree => {
            let mut out = ll[..m].to_vec();
            for r in 0..2 * m {
                let first = if r < m { ll[m + r] } else { hh[r - m] };
                let x = gates::xor(solver, first, hl[r]);
                out.push(gates::xor(solver, x, lh[r]));
            }
            out.extend_from_slice(&hh[m..]);
            out
        }
        Summation::Accurate => {
            // ll + 2^m·(x + hl + lh) with x = (ll >> m) | (hh << m): a
            // carry-save row (xor word plus shifted majority word), then
            // one ripple carry, as a ternary adder computes it.
            let mut out = ll[..m].to_vec();
            let mut carry = Sig::FALSE;
            let mut maj_prev = Sig::FALSE;
            for r in 0..3 * m {
                let x = if r < m { ll[m + r] } else { hh[r - m] };
                let (y, z) = (
                    hl.get(r).copied().unwrap_or(Sig::FALSE),
                    lh.get(r).copied().unwrap_or(Sig::FALSE),
                );
                let xy = gates::xor(solver, x, y);
                let xor = gates::xor(solver, xy, z);
                let propagate = gates::xor(solver, xor, maj_prev);
                out.push(gates::xor(solver, propagate, carry));
                carry = gates::mux(solver, propagate, carry, maj_prev);
                maj_prev = gates::maj(solver, x, y, z);
            }
            out
        }
    }
}

/// `bits << shift` as a little-endian vector.
fn shifted(bits: &[Sig], shift: usize) -> Vec<Sig> {
    let mut out = vec![Sig::FALSE; shift];
    out.extend_from_slice(bits);
    out
}

/// Named input buses, as in [`crate::Encoded::inputs`].
pub(crate) type InputBuses = Vec<(String, Vec<Sig>)>;

/// Encodes `|P − A·B|` of a decomposed design into `solver`: the input
/// buses and the magnitude.
pub(crate) fn encode_error(
    solver: &mut Solver,
    netlist: &Netlist,
    decomposition: &Decomposition,
) -> Result<(InputBuses, Vec<Sig>), SatError> {
    let (mut nets, mut defined) = fresh_inputs(solver, netlist);
    let inputs: InputBuses = netlist
        .input_buses()
        .iter()
        .map(|(name, bits)| (name.clone(), bits.iter().map(|n| nets[n.index()]).collect()))
        .collect();

    // Σ 2^s·(error − low) over the leaves, and Σ 2^s·low.
    let mut errors: Vec<(u32, Vec<Sig>)> = Vec::new();
    let mut low_sum: i128 = 0;
    for leaf in &decomposition.leaves {
        let pins: Vec<Sig> = leaf.operands.iter().map(|n| nets[n.index()]).collect();
        let width = 64 - leaf.biased.iter().max().map_or(0, |m| m.leading_zeros());
        let bits = (0..width)
            .map(|bit| {
                let mut table = [0u64; 4];
                for (index, &value) in leaf.biased.iter().enumerate() {
                    table[index / 64] |= (value >> bit & 1) << (index % 64);
                }
                table_output(solver, &table, &pins)
            })
            .collect();
        errors.push((leaf.shift, bits));
        low_sum += i128::from(leaf.low) << leaf.shift;
    }

    // Σ 2^s·(S − X) over the Cc nodes, from the design's own cones.
    let roots: Vec<NetId> = decomposition
        .carry_drops
        .iter()
        .flat_map(|cd| cd.quadrants.iter().flatten().copied())
        .collect();
    let mut drops: Vec<(u32, Vec<Sig>)> = Vec::new();
    if !roots.is_empty() {
        let (_, keep) = fanin(netlist, &roots, None);
        let cone = Cone {
            keep: Some(&keep),
            cut: None,
        };
        encode_cells(solver, netlist, &mut nets, &mut defined, cone)?;
        for cd in &decomposition.carry_drops {
            let m = cd.m;
            let [ll, hl, lh, hh] = cd
                .quadrants
                .each_ref()
                .map(|bus| bus.iter().map(|n| nets[n.index()]).collect::<Vec<Sig>>());
            // Each column holds three terms, so the carries it drops,
            // (sum − xor) / 2, are its majority.
            let majority: Vec<Sig> = (0..2 * m)
                .map(|r| {
                    let first = if r < m { ll[m + r] } else { hh[r - m] };
                    gates::maj(solver, first, hl[r], lh[r])
                })
                .collect();
            drops.push((cd.shift + 1, majority));
        }
    }

    // |U + L⁺ − (V + L⁻)|, L split by sign into two constants.
    let constant = |v: i128| -> Vec<Sig> {
        let v = v.unsigned_abs();
        (0..128 - v.leading_zeros())
            .map(|i| Sig::Const(v >> i & 1 == 1))
            .collect()
    };
    let (low_pos, low_neg) = if low_sum >= 0 {
        (low_sum, 0)
    } else {
        (0, -low_sum)
    };
    errors.push((0, constant(low_pos)));
    drops.push((0, constant(low_neg)));
    let up = weighted_sum(solver, &errors);
    let down = weighted_sum(solver, &drops);
    Ok((inputs, gates::abs_diff(solver, &up, &down)))
}

/// `Σ 2^shift · bits`, trailing constant zeros trimmed.
fn weighted_sum(solver: &mut Solver, terms: &[(u32, Vec<Sig>)]) -> Vec<Sig> {
    let mut acc: Vec<Sig> = Vec::new();
    for (shift, bits) in terms {
        if bits.iter().all(|b| *b == Sig::FALSE) {
            continue;
        }
        acc = gates::ripple_add(solver, &acc, &shifted(bits, *shift as usize), Sig::FALSE);
        while acc.last() == Some(&Sig::FALSE) {
            acc.pop();
        }
    }
    acc
}

/// An `n ≤ 8`-input function given by its truth table (bit `i` of the
/// 256-bit table is the value at input index `i`): 6-input LUT
/// encodings joined by muxes on inputs 6 and 7.
fn table_output(solver: &mut Solver, table: &[u64; 4], pins: &[Sig]) -> Sig {
    let mut six = [Sig::FALSE; 6];
    for (slot, &pin) in six.iter_mut().zip(pins) {
        *slot = pin;
    }
    let chunks = table.map(|t| lut_output(solver, t, &six));
    let pin = |k: usize| pins.get(k).copied().unwrap_or(Sig::FALSE);
    let low = gates::mux(solver, pin(6), chunks[1], chunks[0]);
    let high = gates::mux(solver, pin(6), chunks[3], chunks[2]);
    gates::mux(solver, pin(7), high, low)
}

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
//!    (constant bits stay constant), and its miter against the Cc and
//!    the Ca combination of those variables modulo `2^4m` must be
//!    unsatisfiable, for every input and every child value. When the
//!    combiner is the paper's ternary adder or XOR3 columns, its LUTs
//!    encode to the same parity and majority gates as the reference
//!    combination, so the miter folds to false by hashing and needs no
//!    solver call; any other cone goes to an UNSAT miter.
//! 4. **No wrap.** Child value bounds (leaf table maxima, composed
//!    upward) keep every Ca sum below `2^4m`, so the identity holds over
//!    the integers.
//!
//! Any failed step returns `None`, and [`crate::prove_wce`] runs the
//! netlist CEGAR instead. [`encode_error`] returns the error as one
//! signed two's-complement vector, the weighted leaf terms less the
//! weighted carry-drop terms, and the ascent asks `> m` and `< −m` of
//! it exactly as it does of the netlist miter's `P − E`. Every model
//! the table-level search returns is still replayed through
//! `Netlist::eval` on the full design.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use axmul_fabric::{Cell, Driver, NetId, Netlist, ProductBlock};

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
    table: Arc<LeafTable>,
}

/// A leaf's error `q − a·b` over every operand index.
#[derive(Debug)]
struct LeafTable {
    /// Bit `i` of the biased error `(q − a·b) − low`, as a 256-bit
    /// truth table over the operand index, per bit up to the largest.
    bits: Vec<[u64; 4]>,
    /// The smallest error of the leaf.
    low: i64,
    /// The leaf's largest product.
    max: u128,
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

/// Most entries a [`ProofMemo`] holds; a full memo is emptied before
/// its next insert.
const MEMO_CAP: usize = 1024;

/// Leaf tables and cut-point verdicts, keyed by their cone's canonical
/// bytes ([`ConeKey`]) and compared by equality, never by hash alone.
/// Equal bytes describe the same cells over the same kinds of nets, so
/// they tabulate to the same table and encode to the same solver calls.
#[derive(Debug, Default)]
pub(crate) struct ProofMemo {
    entries: Mutex<HashMap<Vec<u8>, Memoized>>,
}

#[derive(Debug, Clone)]
enum Memoized {
    Leaf(Arc<LeafTable>),
    Cut(CutProof),
}

/// A cut-point verdict and what proving it cost.
#[derive(Debug, Clone, Copy)]
struct CutProof {
    verdict: Option<Summation>,
    /// The proof's counters (no time); a hit adds them to the effort
    /// again, so no counter depends on what the memo holds.
    stats: ProofStats,
    /// The conflict budget the proof solved under; `None` if it folded
    /// without a solve and holds under any budget.
    budget: Option<u64>,
}

impl ProofMemo {
    /// The process-wide memo that [`decompose`] uses.
    pub(crate) fn global() -> &'static ProofMemo {
        static MEMO: OnceLock<ProofMemo> = OnceLock::new();
        MEMO.get_or_init(ProofMemo::default)
    }

    /// The entries. Each update is one map call, so a guard poisoned by
    /// another thread's panic still holds a valid map.
    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<u8>, Memoized>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &[u8]) -> Option<Memoized> {
        self.entries().get(key).cloned()
    }

    fn insert(&self, key: Vec<u8>, value: Memoized) {
        let mut entries = self.entries();
        if entries.len() >= MEMO_CAP && !entries.contains_key(&key) {
            entries.clear();
        }
        entries.insert(key, value);
    }

    /// How many entries the memo holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries().len()
    }
}

/// What a net is to a cone, written into its key at the net's first
/// reference.
#[derive(Debug, Clone, Copy)]
enum NetClass {
    /// A leaf operand bit, by its position in the operand list.
    Operand(usize),
    /// A primary input bit, by its position over all input buses.
    Input(usize),
    /// A cut child-bus bit, by the order of its free variable.
    Cut(usize),
    Const(bool),
    /// An input net the cone gives no value of its own.
    OtherInput,
    /// Driven by a cell.
    Cell,
}

impl NetClass {
    /// A net's class from its driver alone.
    fn of(netlist: &Netlist, net: NetId) -> NetClass {
        match netlist.drivers()[net.index()] {
            Driver::Const(c) => NetClass::Const(c),
            Driver::Input(..) => NetClass::OtherInput,
            _ => NetClass::Cell,
        }
    }
}

/// The canonical bytes of a cone: a kind byte and the caller's header
/// words, then the cone's cells in netlist order (a LUT's INIT, pins and
/// outputs; a CARRY4's `cin`, `s`, `di` and optional `o`, `co`), then
/// the caller's buses in order. Nets are numbered by first reference,
/// and a first reference also writes the net's [`NetClass`]. Every
/// field has a fixed length per tag, so equal bytes mean equal cones up
/// to a renaming of nets that keeps each net's class.
struct ConeKey<'a, F> {
    netlist: &'a Netlist,
    class: F,
    /// Per net, its number in this key (`u32::MAX` if unreferenced);
    /// reset for the numbered nets by [`ConeKey::finish`].
    code: &'a mut [u32],
    numbered: &'a mut Vec<NetId>,
    bytes: &'a mut Vec<u8>,
}

/// What writing a [`ConeKey`] needs, kept from key to key.
struct KeyBuffers {
    code: Vec<u32>,
    numbered: Vec<NetId>,
    bytes: Vec<u8>,
}

impl KeyBuffers {
    fn new(netlist: &Netlist) -> Self {
        KeyBuffers {
            code: vec![u32::MAX; netlist.net_count()],
            numbered: Vec::new(),
            bytes: Vec::new(),
        }
    }
}

impl<'a, F: Fn(NetId) -> NetClass> ConeKey<'a, F> {
    /// A key of `kind` over `netlist`, written into `buffers`.
    fn new(netlist: &'a Netlist, kind: u8, buffers: &'a mut KeyBuffers, class: F) -> Self {
        let KeyBuffers {
            code,
            numbered,
            bytes,
        } = buffers;
        bytes.clear();
        bytes.push(kind);
        ConeKey {
            netlist,
            class,
            code,
            numbered,
            bytes,
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes.extend_from_slice(&w.to_le_bytes());
    }

    fn net(&mut self, net: NetId) {
        let code = self.code[net.index()];
        if code != u32::MAX {
            self.bytes.push(0);
            self.bytes.extend_from_slice(&code.to_le_bytes());
            return;
        }
        self.code[net.index()] = self.numbered.len() as u32;
        self.numbered.push(net);
        match (self.class)(net) {
            NetClass::Operand(k) => {
                self.bytes.push(1);
                self.word(k as u64);
            }
            NetClass::Input(k) => {
                self.bytes.push(2);
                self.word(k as u64);
            }
            NetClass::Cut(k) => {
                self.bytes.push(3);
                self.word(k as u64);
            }
            NetClass::Const(c) => self.bytes.extend_from_slice(&[4, u8::from(c)]),
            NetClass::OtherInput => self.bytes.push(5),
            NetClass::Cell => self.bytes.push(6),
        }
    }

    fn optional(&mut self, net: Option<NetId>) {
        match net {
            Some(net) => self.net(net),
            None => self.bytes.push(7),
        }
    }

    /// The cells at `cells`, indices in netlist order.
    fn cells(&mut self, cells: &[usize]) {
        let netlist = self.netlist;
        for &index in cells {
            match &netlist.cells()[index] {
                Cell::Lut {
                    init,
                    inputs,
                    o6,
                    o5,
                } => {
                    self.bytes.push(b'L');
                    self.word(init.raw());
                    for &pin in inputs {
                        self.net(pin);
                    }
                    self.net(*o6);
                    self.optional(*o5);
                }
                Cell::Carry4 { cin, s, di, o, co } => {
                    self.bytes.push(b'C');
                    self.net(*cin);
                    for &net in s.iter().chain(di) {
                        self.net(net);
                    }
                    for &net in o.iter().chain(co) {
                        self.optional(net);
                    }
                }
            }
        }
        self.bytes.push(b'E');
    }

    /// A bus: its width, then its nets in order.
    fn bus(&mut self, bus: &[NetId]) {
        self.word(bus.len() as u64);
        for &net in bus {
            self.net(net);
        }
    }

    /// The key's bytes; every net's number is reset.
    fn finish(self) -> &'a [u8] {
        for net in self.numbered.drain(..) {
            self.code[net.index()] = u32::MAX;
        }
        self.bytes
    }
}

/// Verifies `netlist`'s claimed product blocks and decomposes its error
/// (see the module docs), with leaf tables and cut verdicts looked up in
/// and added to `memo`. `None` when the design has no claims or any
/// check fails; `Err` only for encoding failures.
pub(crate) fn decompose(
    netlist: &Netlist,
    opts: &ProofOptions,
    memo: &ProofMemo,
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
    let blocks = BlockIndex::new(netlist.product_blocks());
    let mut scratch = Scratch::new(netlist);

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
        let Some(children) = find_children(
            netlist,
            &nodes[next],
            &blocks,
            &mut scratch.fanin,
            &support,
            &input_bit,
        ) else {
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
            let table = leaf_table(netlist, node, memo, &mut scratch);
            max_value[id] = table.max;
            leaves.push(LeafTerm {
                shift: node.shift,
                operands: node.a.iter().chain(&node.b).copied().collect(),
                table,
            });
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
        let (verdict, stats) = cut_verdict(
            netlist,
            node,
            &quadrants,
            opts,
            memo,
            &input_bit,
            &mut scratch,
        )?;
        effort.solves += stats.solves;
        effort.conflicts += stats.conflicts;
        effort.decisions += stats.decisions;
        effort.propagations += stats.propagations;
        let Some(summation) = verdict else {
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

/// Transitive fan-in walks over one netlist. The marks are reused from
/// walk to walk: each walk clears only what the one before it set.
struct Fanin<'a> {
    netlist: &'a Netlist,
    /// Per net: reached by the last walk.
    net_marks: Vec<bool>,
    /// Per cell: in the last walk's cone.
    cell_marks: Vec<bool>,
    nets: Vec<NetId>,
    /// The last walk's cells, in netlist order.
    cells: Vec<usize>,
    stack: Vec<NetId>,
}

impl<'a> Fanin<'a> {
    fn new(netlist: &'a Netlist) -> Self {
        Fanin {
            netlist,
            net_marks: vec![false; netlist.net_count()],
            cell_marks: vec![false; netlist.cells().len()],
            nets: Vec::new(),
            cells: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Walks the nets and cells in the transitive fan-in of `roots`, not
    /// walking past nets marked in `stop` (those are reached, their
    /// drivers are not).
    fn walk(&mut self, roots: &[NetId], stop: Option<&[bool]>) {
        for net in self.nets.drain(..) {
            self.net_marks[net.index()] = false;
        }
        for cell in self.cells.drain(..) {
            self.cell_marks[cell] = false;
        }
        let netlist = self.netlist;
        self.stack.extend_from_slice(roots);
        while let Some(net) = self.stack.pop() {
            if std::mem::replace(&mut self.net_marks[net.index()], true) {
                continue;
            }
            self.nets.push(net);
            if stop.is_some_and(|s| s[net.index()]) {
                continue;
            }
            let cell = match netlist.drivers()[net.index()] {
                Driver::LutO6(c)
                | Driver::LutO5(c)
                | Driver::CarrySum(c, _)
                | Driver::CarryCout(c, _) => c.index(),
                Driver::Input(..) | Driver::Const(_) => continue,
            };
            if std::mem::replace(&mut self.cell_marks[cell], true) {
                continue;
            }
            self.cells.push(cell);
            match &netlist.cells()[cell] {
                Cell::Lut { inputs, .. } => self.stack.extend(inputs),
                Cell::Carry4 { cin, s, di, .. } => {
                    self.stack.push(*cin);
                    self.stack.extend(s);
                    self.stack.extend(di);
                }
            }
        }
        self.cells.sort_unstable();
    }

    /// Whether the last walk reached `net`.
    fn reached(&self, net: NetId) -> bool {
        self.net_marks[net.index()]
    }

    /// The last walk's cells, as a per-cell mask.
    fn cell_mask(&self) -> &[bool] {
        &self.cell_marks
    }
}

/// A netlist's product blocks, ordered by their operand buses so the
/// claims over one pair of buses are found by binary search.
struct BlockIndex<'a> {
    blocks: &'a [ProductBlock],
    order: Vec<usize>,
}

impl<'a> BlockIndex<'a> {
    fn new(blocks: &'a [ProductBlock]) -> Self {
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_unstable_by_key(|&i| (blocks[i].a(), blocks[i].b()));
        BlockIndex { blocks, order }
    }

    /// The blocks whose operands are exactly `a` and `b`.
    fn over<'s>(
        &'s self,
        a: &'s [NetId],
        b: &'s [NetId],
    ) -> impl Iterator<Item = &'a ProductBlock> + 's {
        let start = self
            .order
            .partition_point(|&i| (self.blocks[i].a(), self.blocks[i].b()) < (a, b));
        self.order[start..]
            .iter()
            .map(|&i| &self.blocks[i])
            .take_while(move |blk| blk.a() == a && blk.b() == b)
    }
}

/// The buffers one [`decompose`] reuses from node to node.
struct Scratch<'a> {
    fanin: Fanin<'a>,
    key: KeyBuffers,
    /// Per net: cut to a free variable in the cut-point proof at hand.
    cut: Vec<bool>,
    /// The cut nets, in bus order; a bit listed twice is here twice.
    cut_vars: Vec<NetId>,
}

impl<'a> Scratch<'a> {
    fn new(netlist: &'a Netlist) -> Self {
        Scratch {
            fanin: Fanin::new(netlist),
            key: KeyBuffers::new(netlist),
            cut: vec![false; netlist.net_count()],
            cut_vars: Vec::new(),
        }
    }
}

/// The four claimed children of `node` (`Some(None)` if it has none),
/// or `None` if the claims around it do not check out.
fn find_children(
    netlist: &Netlist,
    node: &Node,
    blocks: &BlockIndex<'_>,
    fanin: &mut Fanin<'_>,
    support: &[u64],
    input_bit: &[Option<u8>],
) -> Option<Option<[Node; 4]>> {
    let half = node.a.len() / 2;
    if node.a.len() % 2 == 1 {
        return Some(None);
    }
    fanin.walk(&node.p, None);
    let mut found: Vec<Node> = Vec::with_capacity(4);
    for (ha, hb) in QUADRANTS {
        let a = &node.a[ha as usize * half..][..half];
        let b = &node.b[hb as usize * half..][..half];
        let mut matches = blocks
            .over(a, b)
            .filter(|blk| blk.p().iter().all(|&n| fanin.reached(n)));
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

/// Step 2 for one leaf: its table from `memo`, or tabulated and added.
fn leaf_table(
    netlist: &Netlist,
    node: &Node,
    memo: &ProofMemo,
    scratch: &mut Scratch<'_>,
) -> Arc<LeafTable> {
    let Scratch { fanin, key, .. } = scratch;
    let buffers = key;
    fanin.walk(&node.p, None);
    let operands: Vec<NetId> = node.a.iter().chain(&node.b).copied().collect();
    // An operand listed twice takes the value of its last position.
    let mut key = ConeKey::new(netlist, b'T', buffers, |net| {
        match operands.iter().rposition(|&n| n == net) {
            Some(k) => NetClass::Operand(k),
            None => NetClass::of(netlist, net),
        }
    });
    key.word(node.a.len() as u64);
    key.word(node.b.len() as u64);
    key.cells(&fanin.cells);
    key.bus(&node.p);
    let key = key.finish();
    if let Some(Memoized::Leaf(table)) = memo.get(key) {
        return table;
    }
    let table = Arc::new(tabulate(netlist, node, &operands, &fanin.cells));
    memo.insert(key.to_vec(), Memoized::Leaf(Arc::clone(&table)));
    table
}

/// Tabulates a leaf's bus by simulating its cone (`cells`, indices in
/// netlist order) over every operand pair.
fn tabulate(netlist: &Netlist, node: &Node, operands: &[NetId], cells: &[usize]) -> LeafTable {
    let cone: Vec<&Cell> = cells.iter().map(|&c| &netlist.cells()[c]).collect();
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
        for cell in &cone {
            cell.eval(&mut values);
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
    let biased: Vec<u64> = errors.iter().map(|e| (e - low) as u64).collect();
    let width = 64 - biased.iter().max().map_or(0, |m| m.leading_zeros());
    let bits = (0..width)
        .map(|bit| {
            let mut table = [0u64; 4];
            for (index, &value) in biased.iter().enumerate() {
                table[index / 64] |= (value >> bit & 1) << (index % 64);
            }
            table
        })
        .collect();
    LeafTable {
        bits,
        low,
        max: u128::from(max),
    }
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

/// Step 3 for one node: its verdict and what its proof cost, from
/// `memo`, or proven by [`prove_cut`] and added. `input_bit` is each
/// net's primary-input bit.
fn cut_verdict(
    netlist: &Netlist,
    node: &Node,
    quadrants: &[Vec<NetId>; 4],
    opts: &ProofOptions,
    memo: &ProofMemo,
    input_bit: &[Option<u8>],
    scratch: &mut Scratch<'_>,
) -> Result<(Option<Summation>, ProofStats), SatError> {
    let Scratch {
        fanin,
        key: buffers,
        cut,
        cut_vars,
    } = scratch;
    // Cell-driven bus bits become free variables; constant and input
    // bits keep their signals, which is all the values they can take.
    for net in cut_vars.drain(..) {
        cut[net.index()] = false;
    }
    for &net in quadrants.iter().flatten() {
        if cell_driven(netlist, net) {
            cut[net.index()] = true;
            cut_vars.push(net);
        }
    }
    fanin.walk(&node.p, Some(cut));

    // A bus bit listed twice gets two variables, and keeps the last.
    let mut key = ConeKey::new(netlist, b'P', buffers, |net| {
        if let Some(k) = cut_vars.iter().rposition(|&n| n == net) {
            NetClass::Cut(k)
        } else if let Some(k) = input_bit[net.index()] {
            NetClass::Input(usize::from(k))
        } else {
            NetClass::of(netlist, net)
        }
    });
    let input_bits: usize = netlist
        .input_buses()
        .iter()
        .map(|(_, bits)| bits.len())
        .sum();
    key.word(input_bits as u64);
    key.word(cut_vars.len() as u64);
    key.word(node.a.len() as u64);
    key.cells(&fanin.cells);
    key.bus(&node.p);
    for bus in quadrants {
        key.bus(bus);
    }
    let key = key.finish();
    if let Some(Memoized::Cut(proof)) = memo.get(key) {
        if proof.budget.is_none_or(|b| b == opts.max_conflicts) {
            return Ok((proof.verdict, proof.stats));
        }
    }
    let keep = fanin.cell_mask();
    let (verdict, stats, solved) = prove_cut(netlist, node, quadrants, cut_vars, cut, keep, opts)?;
    memo.insert(
        key.to_vec(),
        Memoized::Cut(CutProof {
            verdict,
            stats,
            budget: solved.then_some(opts.max_conflicts),
        }),
    );
    Ok((verdict, stats))
}

/// Proves `node`'s bus equals the Cc or Ca combination of its children's
/// buses, whose cell-driven bits (`cut_vars`, marked in `cut`) are cut to
/// free variables, over the cells marked in `keep`. Returns the verdict
/// (`None` if neither holds), what the proof cost, and whether it
/// needed a solve.
fn prove_cut(
    netlist: &Netlist,
    node: &Node,
    quadrants: &[Vec<NetId>; 4],
    cut_vars: &[NetId],
    cut: &[bool],
    keep: &[bool],
    opts: &ProofOptions,
) -> Result<(Option<Summation>, ProofStats, bool), SatError> {
    let mut solver = Solver::new();
    let (mut nets, mut defined) = fresh_inputs(&mut solver, netlist);
    for &net in cut_vars {
        nets[net.index()] = Sig::Lit(solver.new_var());
        defined[net.index()] = true;
    }
    encode_cells(
        &mut solver,
        netlist,
        &mut nets,
        &mut defined,
        Cone {
            keep: Some(keep),
            cut: Some(cut),
        },
    )?;
    let stats = |solver: &Solver| {
        let s = solver.stats();
        ProofStats {
            solves: s.solves,
            conflicts: s.conflicts,
            decisions: s.decisions,
            propagations: s.propagations,
            elapsed_ms: 0.0,
        }
    };
    if node.p.iter().any(|n| !defined[n.index()]) {
        return Ok((None, stats(&solver), false));
    }
    let p: Vec<Sig> = node.p.iter().map(|n| nets[n.index()]).collect();
    let q = quadrants
        .each_ref()
        .map(|bus| bus.iter().map(|n| nets[n.index()]).collect::<Vec<Sig>>());
    let m = node.a.len() / 2;
    let miters = [Summation::CarryFree, Summation::Accurate].map(|summation| {
        let combined = combine(&mut solver, &q, m, summation);
        let mut miter = Sig::FALSE;
        for (&x, &y) in p.iter().zip(&combined) {
            let diff = gates::xor(&mut solver, x, y);
            miter = gates::or(&mut solver, miter, diff);
        }
        (summation, miter)
    });
    // The paper's combiners hash onto `combine`'s gates, so their miter
    // folds to false; any other cone goes to the solver.
    let folded = miters.iter().find(|(_, miter)| *miter == Sig::FALSE);
    let solved = folded.is_none() && miters.iter().any(|(_, miter)| matches!(miter, Sig::Lit(_)));
    let proven = folded
        .or_else(|| {
            miters.iter().find(|(_, miter)| match *miter {
                Sig::Const(_) => false,
                Sig::Lit(l) => matches!(solver.solve(&[l], opts.max_conflicts), SolveResult::Unsat),
            })
        })
        .map(|&(summation, _)| summation);
    Ok((proven, stats(&solver), solved))
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
                out.push(gates::xor_many(solver, &[first, hl[r], lh[r]]));
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
                let propagate = gates::xor_many(solver, &[x, y, z, maj_prev]);
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

/// Encodes `P − A·B` of a decomposed design into `solver`: the input
/// buses and the signed difference (two's complement, sign bit last,
/// as [`gates::signed_diff`] builds it).
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
        let bits = leaf
            .table
            .bits
            .iter()
            .map(|table| table_output(solver, table, &pins))
            .collect();
        errors.push((leaf.shift, bits));
        low_sum += i128::from(leaf.table.low) << leaf.shift;
    }

    // Σ 2^s·(S − X) over the Cc nodes, from the design's own cones.
    let roots: Vec<NetId> = decomposition
        .carry_drops
        .iter()
        .flat_map(|cd| cd.quadrants.iter().flatten().copied())
        .collect();
    let mut drops: Vec<(u32, Vec<Sig>)> = Vec::new();
    if !roots.is_empty() {
        let mut fanin = Fanin::new(netlist);
        fanin.walk(&roots, None);
        let cone = Cone {
            keep: Some(fanin.cell_mask()),
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

    // U + L⁺ − (V + L⁻), L split by sign into two constants.
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
    Ok((inputs, gates::signed_diff(solver, &up, &down)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wce::{prove_wce_in, WceOptions, WceProof};
    use axmul_baselines::{kulkarni_netlist, rehman_netlist};
    use axmul_core::behavioral::Summation as Combiner;
    use axmul_core::structural::{
        approx_4x4_netlist, ca_netlist, cc_netlist, combine_partial_products,
    };
    use axmul_dse::Config;
    use axmul_fabric::compile::CompiledNetlist;
    use axmul_fabric::{Init, NetlistBuilder};

    /// Decomposes `nl` and checks that every cut point folded.
    fn assert_folds(nl: &Netlist) {
        let decomposition = decompose(nl, &ProofOptions::default(), &ProofMemo::default())
            .expect("encodable")
            .unwrap_or_else(|| panic!("{}: claims must verify", nl.name()));
        assert_eq!(
            decomposition.effort.solves,
            0,
            "{}: a cut point needed the solver",
            nl.name()
        );
    }

    #[test]
    fn cut_points_of_the_paper_combiners_fold_without_a_solve() {
        for bits in [8, 16, 32] {
            assert_folds(&ca_netlist(bits).expect("width"));
            assert_folds(&cc_netlist(bits).expect("width"));
            assert_folds(&kulkarni_netlist(bits).expect("width"));
            assert_folds(&rehman_netlist(bits).expect("width"));
        }
    }

    /// All 1250 8×8 configs (release: a few seconds).
    #[test]
    #[ignore = "full sweep; run in release with --ignored"]
    fn every_8x8_config_folds_its_cut_point() {
        for cfg in Config::enumerate(8) {
            assert_folds(&cfg.assemble());
        }
    }

    /// Everything a proof reports but its time.
    fn outcome(proof: &WceProof) -> (u128, (u64, u64), u32, [u64; 4], bool) {
        let s = proof.stats;
        (
            proof.wce,
            proof.witness,
            proof.ascent_steps,
            [s.solves, s.conflicts, s.decisions, s.propagations],
            proof.engine == crate::WceEngine::Compositional,
        )
    }

    fn prove_in(nl: &Netlist, memo: &ProofMemo) -> WceProof {
        prove_wce_in(nl, &WceOptions::default(), memo).expect("provable")
    }

    /// Exhaustive max |P − A·B| of an 8×8 netlist.
    fn swept_wce(nl: &Netlist) -> u128 {
        let mut worst = 0u128;
        CompiledNetlist::compile(nl)
            .for_each_operand_pair_in(0..1 << 16, |a, b, out| {
                worst = worst.max(u128::from(out[0]).abs_diff(u128::from(a * b)));
            })
            .expect("sweep");
        worst
    }

    /// A Cc 8×8 quad of approximate 4×4 leaves with honest claims, the
    /// `hh` leaf replaced by `top`.
    fn quad_with_top(top: &Netlist) -> Netlist {
        let leaf = approx_4x4_netlist();
        let mut bld = NetlistBuilder::new("quad");
        let a = bld.inputs("a", 8);
        let b = bld.inputs("b", 8);
        let (al, ah) = a.split_at(4);
        let (bl, bh) = b.split_at(4);
        let mut q: Vec<Vec<NetId>> = Vec::new();
        for (i, (x, y)) in [(al, bl), (ah, bl), (al, bh), (ah, bh)]
            .into_iter()
            .enumerate()
        {
            let part = if i == 3 { top } else { &leaf };
            q.push(bld.instantiate(part, &[x, y]).remove(0));
            bld.claim_product(x, y, &q[i]);
        }
        let p = combine_partial_products(&mut bld, &q[0], &q[1], &q[2], &q[3], Combiner::CarryFree);
        bld.output_bus("p", &p);
        bld.finish().expect("well-formed")
    }

    /// The approximate 4×4 leaf with its first LUT changed by `edit`,
    /// checked to compute a different function.
    fn edited_leaf(edit: impl Fn(&mut Cell)) -> Netlist {
        let good = approx_4x4_netlist();
        let mut cells = good.cells().to_vec();
        let first = cells
            .iter()
            .position(|c| matches!(c, Cell::Lut { .. }))
            .expect("a LUT");
        edit(&mut cells[first]);
        let edited = Netlist::from_parts(
            "edited",
            good.drivers().to_vec(),
            cells,
            good.input_buses().to_vec(),
            good.output_buses().to_vec(),
        );
        let differs = (0..256u64).any(|i| {
            let ab = [i & 15, i >> 4];
            edited.eval(&ab).expect("eval") != good.eval(&ab).expect("eval")
        });
        assert!(differs, "the edit must change the leaf's function");
        edited
    }

    #[test]
    fn cones_differing_in_one_init_bit_or_a_pin_order_get_their_own_entries() {
        let memo = ProofMemo::default();
        let good = quad_with_top(&approx_4x4_netlist());
        let proof = prove_in(&good, &memo);
        assert_eq!(proof.wce, swept_wce(&good));
        // Four equal leaves and one cut: two entries.
        assert_eq!(memo.len(), 2);

        let flipped = quad_with_top(&edited_leaf(|cell| {
            if let Cell::Lut { init, .. } = cell {
                // The table bit at the all-ones index of its live pins.
                let live = (0..6u8)
                    .filter(|&k| init.depends_on(k))
                    .fold(0, |m, k| m | 1 << k);
                *init = Init::from_raw(init.raw() ^ 1 << live);
            }
        }));
        let swapped = quad_with_top(&edited_leaf(|cell| {
            if let Cell::Lut { init, inputs, .. } = cell {
                let live: Vec<usize> = (0..6).filter(|&k| init.depends_on(k as u8)).collect();
                inputs.swap(live[0], live[1]);
            }
        }));
        for (variant, entries) in [(&flipped, 3), (&swapped, 4)] {
            let proof = prove_in(variant, &memo);
            assert_eq!(proof.engine, crate::WceEngine::Compositional);
            assert_eq!(
                proof.wce,
                swept_wce(variant),
                "the edited design's own truth"
            );
            // Only the edited leaf is new: the other leaves and the cut hit.
            assert_eq!(memo.len(), entries);
        }
        // The edits change the answer, so a shared entry would show.
        assert_ne!(swept_wce(&flipped), swept_wce(&good));
    }

    #[test]
    fn warm_proofs_repeat_every_counter_of_cold_ones() {
        let designs = [
            ca_netlist(8).expect("width"),
            cc_netlist(16).expect("width"),
            kulkarni_netlist(16).expect("width"),
            "(c T3 T1 T3 A)".parse::<Config>().expect("key").assemble(),
            "(a T2 A A A)".parse::<Config>().expect("key").assemble(),
        ];
        let memo = ProofMemo::default();
        let cold: Vec<_> = designs
            .iter()
            .map(|nl| outcome(&prove_in(nl, &memo)))
            .collect();
        let entries = memo.len();
        assert!(entries > 0);
        let warm: Vec<_> = designs
            .iter()
            .map(|nl| outcome(&prove_in(nl, &memo)))
            .collect();
        assert_eq!(memo.len(), entries, "a warm proof hits every entry");
        assert_eq!(cold, warm);
    }

    /// The twelve 8×8 designs of the benchmark's `sat-wce` workload.
    const SAT_WCE_KEYS: [&str; 12] = [
        "(a T2 A T3 T3)",
        "(a T2 T2 T3 A)",
        "(a T3 T2 T3 T3)",
        "(c T3 T1 T3 A)",
        "(c T3 T3 T2 A)",
        "(c T2 A T1 T3)",
        "(c T1 T2 A A)",
        "(c T2 A A A)",
        "(a T2 A A A)",
        "(c A T2 T3 A)",
        "(a T3 T2 A A)",
        "(c T3 T1 T1 T3)",
    ];

    #[test]
    fn two_threads_on_one_cleared_memo_prove_what_one_thread_proves() {
        let designs: Vec<Netlist> = SAT_WCE_KEYS
            .iter()
            .map(|key| key.parse::<Config>().expect("key").assemble())
            .collect();
        let sequential: Vec<_> = designs
            .iter()
            .map(|nl| outcome(&prove_in(nl, &ProofMemo::default())))
            .collect();
        let shared = ProofMemo::default();
        let barrier = std::sync::Barrier::new(2);
        let runs: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [false, true]
                .map(|reversed| {
                    let (designs, shared, barrier) = (&designs, &shared, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut order: Vec<usize> = (0..designs.len()).collect();
                        if reversed {
                            order.reverse();
                        }
                        let mut out = vec![None; designs.len()];
                        for i in order {
                            out[i] = Some(outcome(&prove_in(&designs[i], shared)));
                        }
                        out.into_iter().map(|o| o.expect("proven")).collect()
                    })
                })
                .into();
            handles
                .into_iter()
                .map(|h| h.join().expect("prover thread"))
                .collect()
        });
        for run in runs {
            assert_eq!(run, sequential);
        }
    }
}

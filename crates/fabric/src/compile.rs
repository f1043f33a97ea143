//! Compiled bit-sliced netlist simulation: the engine behind every
//! sweep, energy measurement and fault campaign in the workspace.
//!
//! A naive simulator interprets the cell list on every pass and
//! evaluates each `LUT6_2` one lane at a time. This module removes both
//! costs with a one-time compilation step:
//!
//! * **Mux-tree LUT kernels** — every LUT's INIT vector is expanded at
//!   compile time through a Shannon decomposition into a handful of
//!   whole-word bitwise operations (`(t1 & s) | (t0 & !s)` folded over
//!   the select inputs, with constant sub-tables pruned and common
//!   subexpressions shared), so one pass evaluates the LUT for *all*
//!   lanes at once instead of 64 iterations of 6 shifts each.
//! * **A dense instruction stream** — [`CompiledNetlist::compile`]
//!   flattens the netlist into a flat vector of `Op`s over
//!   slot-allocated value storage. Constants are broadcast once at
//!   simulator construction, every op overwrites its own slot, and no
//!   per-pass `O(nets)` clear remains.
//! * **Const-generic multi-word lane blocks** — [`CompiledSim<W>`]
//!   stores `[u64; W]` per slot, so a single propagate pass covers up
//!   to `64 * W` vectors (256 at the default sweep width).
//! * **Closed-form exhaustive sweeps** — when enumerating consecutive
//!   operand assignments, each input bit's lane word is either a fixed
//!   alternating pattern or a broadcast constant, computed in O(1) per
//!   word instead of transposing lane-major vectors bit by bit
//!   ([`CompiledSim::load_sweep`]).
//!
//! Per-net visibility is kept: every net maps to a slot (constants and
//! aliases share slots), so toggle counting ([`crate::power`]) and
//! truth-table extraction read, on every lane, the value the scalar
//! oracle [`Netlist::eval_nets`] gives that net — bit-identically,
//! which the crate's tests assert across the whole design roster.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::check_word_buses;
use crate::fault::Fault;
use crate::netlist::{Cell, Driver};
use crate::{FabricError, NetId, Netlist};

/// Bitwise word operation of the compiled instruction stream.
///
/// `AndNot`/`OrNot` absorb the negations produced when a mux collapses
/// against a constant branch (`s ? t1 : 0`, `s ? 1 : t0`, …), keeping
/// the common case at one instruction per surviving mux level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    /// `dst = !a`
    Not,
    /// `dst = a & b`
    And,
    /// `dst = a & !b`
    AndNot,
    /// `dst = a | b`
    Or,
    /// `dst = a | !b`
    OrNot,
    /// `dst = a ^ b`
    Xor,
    /// `dst = c ? b : a` (2:1 mux, select in `c`)
    Mux,
}

/// One compiled instruction: a word-wide bitwise op into its own slot.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// Compile-time symbolic value: a known constant or a computed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    Zero,
    One,
    Slot(u32),
}

/// Slot of the all-zeros constant word.
const ZERO_SLOT: u32 = 0;
/// Slot of the all-ones constant word.
const ONE_SLOT: u32 = 1;

impl Sym {
    fn slot(self) -> u32 {
        match self {
            Sym::Zero => ZERO_SLOT,
            Sym::One => ONE_SLOT,
            Sym::Slot(s) => s,
        }
    }

    fn from_slot(s: u32) -> Self {
        match s {
            ZERO_SLOT => Sym::Zero,
            ONE_SLOT => Sym::One,
            s => Sym::Slot(s),
        }
    }
}

/// A SplitMix64-finalizer hasher for the CSE map. Its keys are
/// compiler-made slot numbers, not outside input, so std's DoS-resistant
/// SipHash buys nothing here and costs more than the lookups it serves.
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = (self.0 ^ n).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// CSE key: `(kind << 32 | c, a << 32 | b)`, two words to hash.
type CseKey = (u64, u64);

/// `neg` entry of a slot with no known complement.
const NO_NEG: u32 = u32::MAX;

/// Expression builder with constant folding and hash-consing CSE.
struct Compiler {
    ops: Vec<Op>,
    next_slot: u32,
    cse: HashMap<CseKey, u32, BuildHasherDefault<SlotHasher>>,
    /// `neg[s] = t` when slot `t` holds the complement of slot `s`
    /// (recorded in both directions), else [`NO_NEG`]; enables
    /// `!!x = x` and the mux-to-XOR rewrite. One entry per slot.
    neg: Vec<u32>,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            ops: Vec::new(),
            next_slot: 2, // slots 0/1 are the constant words
            cse: HashMap::default(),
            neg: vec![NO_NEG; 2],
        }
    }

    fn alloc(&mut self) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.neg.push(NO_NEG);
        s
    }

    /// Whether slot `b` is known to hold the complement of slot `a`.
    fn is_neg(&self, a: u32, b: u32) -> bool {
        self.neg[a as usize] == b
    }

    fn emit(&mut self, kind: OpKind, a: u32, b: u32, c: u32) -> Sym {
        // Canonical operand order for the commutative ops.
        let (a, b) = match kind {
            OpKind::And | OpKind::Or | OpKind::Xor => (a.min(b), a.max(b)),
            _ => (a, b),
        };
        let key = (
            (kind as u64) << 32 | u64::from(c),
            u64::from(a) << 32 | u64::from(b),
        );
        if let Some(&dst) = self.cse.get(&key) {
            return Sym::Slot(dst);
        }
        let dst = self.alloc();
        self.ops.push(Op { kind, dst, a, b, c });
        self.cse.insert(key, dst);
        if kind == OpKind::Not {
            self.neg[a as usize] = dst;
            self.neg[dst as usize] = a;
        }
        Sym::Slot(dst)
    }

    fn not(&mut self, x: Sym) -> Sym {
        match x {
            Sym::Zero => Sym::One,
            Sym::One => Sym::Zero,
            Sym::Slot(s) => match self.neg[s as usize] {
                NO_NEG => self.emit(OpKind::Not, s, 0, 0),
                n => Sym::Slot(n),
            },
        }
    }

    fn and(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::Zero, _) | (_, Sym::Zero) => Sym::Zero,
            (Sym::One, v) | (v, Sym::One) => v,
            (Sym::Slot(a), Sym::Slot(b)) if a == b => x,
            (Sym::Slot(a), Sym::Slot(b)) if self.is_neg(a, b) => Sym::Zero,
            (Sym::Slot(a), Sym::Slot(b)) => self.emit(OpKind::And, a, b, 0),
        }
    }

    fn or(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::One, _) | (_, Sym::One) => Sym::One,
            (Sym::Zero, v) | (v, Sym::Zero) => v,
            (Sym::Slot(a), Sym::Slot(b)) if a == b => x,
            (Sym::Slot(a), Sym::Slot(b)) if self.is_neg(a, b) => Sym::One,
            (Sym::Slot(a), Sym::Slot(b)) => self.emit(OpKind::Or, a, b, 0),
        }
    }

    fn xor(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::Zero, v) | (v, Sym::Zero) => v,
            (Sym::One, v) | (v, Sym::One) => self.not(v),
            (Sym::Slot(a), Sym::Slot(b)) if a == b => Sym::Zero,
            (Sym::Slot(a), Sym::Slot(b)) if self.is_neg(a, b) => Sym::One,
            (Sym::Slot(a), Sym::Slot(b)) => self.emit(OpKind::Xor, a, b, 0),
        }
    }

    /// `x & !y`
    fn and_not(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::Zero, _) | (_, Sym::One) => Sym::Zero,
            (v, Sym::Zero) => v,
            (Sym::One, v) => self.not(v),
            (Sym::Slot(a), Sym::Slot(b)) if a == b => Sym::Zero,
            (Sym::Slot(a), Sym::Slot(b)) if self.is_neg(a, b) => x,
            (Sym::Slot(a), Sym::Slot(b)) => self.emit(OpKind::AndNot, a, b, 0),
        }
    }

    /// `x | !y`
    fn or_not(&mut self, x: Sym, y: Sym) -> Sym {
        match (x, y) {
            (Sym::One, _) | (_, Sym::Zero) => Sym::One,
            (v, Sym::One) => v,
            (Sym::Zero, v) => self.not(v),
            (Sym::Slot(a), Sym::Slot(b)) if a == b => Sym::One,
            (Sym::Slot(a), Sym::Slot(b)) if self.is_neg(a, b) => x,
            (Sym::Slot(a), Sym::Slot(b)) => self.emit(OpKind::OrNot, a, b, 0),
        }
    }

    /// `s ? t1 : t0`, folded against every constant/shared-operand case
    /// so only truly three-way muxes emit a `Mux` instruction.
    fn mux(&mut self, t0: Sym, t1: Sym, s: Sym) -> Sym {
        match s {
            Sym::Zero => return t0,
            Sym::One => return t1,
            Sym::Slot(_) => {}
        }
        if t0 == t1 {
            return t0;
        }
        match (t0, t1) {
            (Sym::Zero, Sym::One) => s,
            (Sym::One, Sym::Zero) => self.not(s),
            (Sym::Zero, t1) => self.and(t1, s),
            (t0, Sym::Zero) => self.and_not(t0, s),
            (Sym::One, t1) => self.or_not(t1, s),
            (t0, Sym::One) => self.or(t0, s),
            (Sym::Slot(a), Sym::Slot(b)) => {
                if a == s.slot() {
                    // s ? t1 : s  ==  s & t1
                    return self.and(t1, s);
                }
                if b == s.slot() {
                    // s ? s : t0  ==  s | t0
                    return self.or(t0, s);
                }
                if self.is_neg(a, b) {
                    // s ? !t0 : t0  ==  t0 ^ s
                    return self.xor(t0, s);
                }
                if self.is_neg(a, s.slot()) {
                    // s ? t1 : !s  ==  t1 | !s
                    return self.or_not(t1, s);
                }
                if self.is_neg(b, s.slot()) {
                    // s ? !s : t0  ==  t0 & !s
                    return self.and_not(t0, s);
                }
                self.emit(OpKind::Mux, a, b, s.slot())
            }
        }
    }

    /// Shannon-expands `level` inputs of a truth table starting at bit
    /// `offset`, with constant sub-tables short-circuited.
    fn lut_tree(&mut self, init: u64, ins: &[Sym; 6], level: u32, offset: u32) -> Sym {
        let width = 1u32 << level;
        let chunk = if width == 64 {
            init
        } else {
            (init >> offset) & ((1u64 << width) - 1)
        };
        if chunk == 0 {
            return Sym::Zero;
        }
        if width == 64 && chunk == u64::MAX || width < 64 && chunk == (1u64 << width) - 1 {
            return Sym::One;
        }
        let half = width / 2;
        let sel = ins[(level - 1) as usize];
        match sel {
            Sym::Zero => self.lut_tree(init, ins, level - 1, offset),
            Sym::One => self.lut_tree(init, ins, level - 1, offset + half),
            Sym::Slot(_) => {
                // Structural shortcuts on the half-tables themselves:
                // equal halves make the select a don't-care, and
                // complementary halves are an XOR with the select —
                // catching both before recursion avoids emitting the
                // inner negation a post-hoc mux rewrite would need.
                let half_mask = (1u64 << half) - 1;
                let lo = chunk & half_mask;
                let hi = (chunk >> half) & half_mask;
                if lo == hi {
                    return self.lut_tree(init, ins, level - 1, offset);
                }
                let t0 = self.lut_tree(init, ins, level - 1, offset);
                if hi == lo ^ half_mask {
                    return self.xor(t0, sel);
                }
                let t1 = self.lut_tree(init, ins, level - 1, offset + half);
                self.mux(t0, t1, sel)
            }
        }
    }
}

/// A netlist compiled to a flat bitwise instruction stream.
///
/// Compile once with [`CompiledNetlist::compile`], then instantiate any
/// number of [`CompiledSim`]s (e.g. one per worker thread) over it.
///
/// # Examples
///
/// ```
/// use axmul_fabric::compile::{CompiledNetlist, CompiledSim};
/// use axmul_fabric::{Init, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("xor");
/// let a = b.inputs("a", 1);
/// let c = b.inputs("b", 1);
/// let (o6, _) = b.lut2(Init::XOR2, a[0], c[0]);
/// b.output("y", o6);
/// let nl = b.finish()?;
///
/// let prog = CompiledNetlist::compile(&nl);
/// let mut sim: CompiledSim<1> = prog.simulator();
/// let out = sim.eval(&[&[0, 0, 1, 1], &[0, 1, 0, 1]])?;
/// assert_eq!(out[0], vec![0, 1, 1, 0]);
/// # Ok::<(), axmul_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    ops: Vec<Op>,
    slot_count: usize,
    /// Slot of every net (constants and aliases share slots; nets an
    /// unvalidated netlist leaves undriven read the zero slot, matching
    /// the interpreter's zero-initialized storage).
    net_src: Vec<u32>,
    /// Per input bus: the slot of each bit.
    inputs: Vec<Vec<u32>>,
    /// Per output bus: the slot of each bit.
    outputs: Vec<Vec<u32>>,
    /// All input-bit slots in combined-assignment order (bus 0 in the
    /// low bits), for [`CompiledSim::load_sweep`].
    sweep_slots: Vec<u32>,
}

impl CompiledNetlist {
    /// Compiles `netlist` into an instruction stream.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> Self {
        Self::compile_with_faults(netlist, &[])
    }

    /// Compiles `netlist` with stuck-at faults baked in: every read of
    /// a faulty net — by a cell or an output — resolves to the stuck
    /// constant, exactly as [`crate::fault::eval_with_faults`] forces
    /// it, but at zero per-pass cost.
    #[must_use]
    pub fn compile_with_faults(netlist: &Netlist, faults: &[Fault]) -> Self {
        // Stuck value per net, dense.
        let mut stuck = vec![None; netlist.net_count()];
        for f in faults {
            stuck[f.net.index()] = Some(f.stuck_at);
        }
        let mut c = Compiler::new();
        let mut net_src = vec![ZERO_SLOT; netlist.net_count()];

        // Primary inputs get one slot per bit; constants bind to the
        // shared constant slots.
        let mut inputs: Vec<Vec<u32>> = Vec::with_capacity(netlist.input_buses().len());
        for (_, bits) in netlist.input_buses() {
            let mut bus = Vec::with_capacity(bits.len());
            for net in bits {
                let slot = c.alloc();
                net_src[net.index()] = slot;
                bus.push(slot);
            }
            inputs.push(bus);
        }
        for (net, d) in netlist.drivers().iter().enumerate() {
            if let Driver::Const(k) = d {
                net_src[net] = if *k { ONE_SLOT } else { ZERO_SLOT };
            }
        }

        let read = |net_src: &[u32], net: NetId| -> Sym {
            match stuck[net.index()] {
                Some(true) => Sym::One,
                Some(false) => Sym::Zero,
                None => Sym::from_slot(net_src[net.index()]),
            }
        };

        for cell in netlist.cells() {
            match cell {
                Cell::Lut {
                    init,
                    inputs: pins,
                    o6,
                    o5,
                } => {
                    let ins: [Sym; 6] = std::array::from_fn(|k| read(&net_src, pins[k]));
                    let v6 = c.lut_tree(init.raw(), &ins, 6, 0);
                    net_src[o6.index()] = v6.slot();
                    if let Some(o5) = o5 {
                        // O5 reads the lower half of the table: I5 tied low.
                        let v5 = c.lut_tree(init.raw(), &ins, 5, 0);
                        net_src[o5.index()] = v5.slot();
                    }
                }
                Cell::Carry4 { cin, s, di, o, co } => {
                    let mut carry = read(&net_src, *cin);
                    for stage in 0..4 {
                        let sv = read(&net_src, s[stage]);
                        let dv = read(&net_src, di[stage]);
                        if let Some(n) = o[stage] {
                            let sum = c.xor(sv, carry);
                            net_src[n.index()] = sum.slot();
                        }
                        // C[i+1] = S ? C[i] : DI
                        carry = c.mux(dv, carry, sv);
                        if let Some(n) = co[stage] {
                            net_src[n.index()] = carry.slot();
                        }
                    }
                }
            }
        }

        // A faulty net reads stuck everywhere, including at outputs and
        // for external per-net observers.
        for f in faults {
            net_src[f.net.index()] = if f.stuck_at { ONE_SLOT } else { ZERO_SLOT };
        }

        let outputs = netlist
            .output_buses()
            .iter()
            .map(|(_, bits)| bits.iter().map(|n| net_src[n.index()]).collect())
            .collect();
        let sweep_slots = inputs.iter().flatten().copied().collect();
        CompiledNetlist {
            ops: c.ops,
            slot_count: c.next_slot as usize,
            net_src,
            inputs,
            outputs,
            sweep_slots,
        }
    }

    /// Number of instructions in the compiled stream.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of value slots (constants + inputs + computed).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The value slot backing `net` — aliased and CSE-merged nets share
    /// a slot, so slot-level readouts (e.g. toggle counting) touch each
    /// distinct value exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the compiled netlist.
    #[must_use]
    pub fn net_slot(&self, net: NetId) -> u32 {
        self.net_src[net.index()]
    }

    /// Total combined input bits (all buses, bus 0 first) — the row
    /// count a packed stimulus must supply to [`CompiledSim::load_packed`].
    #[must_use]
    pub fn input_bit_count(&self) -> usize {
        self.sweep_slots.len()
    }

    /// Creates a fresh simulator over this program with `64 * W` lanes
    /// per pass.
    #[must_use]
    pub fn simulator<const W: usize>(&self) -> CompiledSim<'_, W> {
        CompiledSim::new(self)
    }

    /// Operand widths `(a_bits, b_bits)` of a two-input-bus netlist.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] unless the netlist has exactly two
    /// input buses.
    pub fn operand_widths(&self) -> Result<(u32, u32), FabricError> {
        if self.inputs.len() != 2 {
            return Err(FabricError::InputArity {
                expected: 2,
                got: self.inputs.len(),
            });
        }
        Ok((self.inputs[0].len() as u32, self.inputs[1].len() as u32))
    }

    /// Evaluates the combined-operand range `[start, end)` of a
    /// two-input-bus netlist, invoking `visit(a, b, outputs)` for each
    /// assignment in ascending order (`a` = bus 0 = the fast axis, i.e.
    /// the low bits of the combined index).
    ///
    /// `start` must be a multiple of 64 so sweep blocks stay aligned to
    /// the closed-form lane patterns; `end` is capped by the operand
    /// space. This is the backend of
    /// [`crate::sim::for_each_operand_pair`] and of the sharded
    /// parallel sweeps in `axmul-metrics`.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] unless the netlist has exactly two
    /// input buses; [`FabricError::BusTooWide`] if an output bus is
    /// wider than 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if the operand space exceeds 2³² pairs, if `start` is not
    /// 64-aligned, or if the range is out of bounds.
    pub fn for_each_operand_pair_in(
        &self,
        range: std::ops::Range<u64>,
        mut visit: impl FnMut(u64, u64, &[u64]),
    ) -> Result<(), FabricError> {
        let (a_bits, b_bits) = self.operand_widths()?;
        check_word_buses(self.outputs.iter().map(Vec::len), true)?;
        assert!(
            a_bits + b_bits <= 32,
            "exhaustive sweep over {a_bits}x{b_bits} operands is infeasible"
        );
        let total = 1u64 << (a_bits + b_bits);
        assert!(
            range.start <= range.end && range.end <= total,
            "operand range {range:?} exceeds the {total}-pair space"
        );
        assert!(
            range.start.is_multiple_of(64),
            "sweep ranges must start on a 64-lane boundary"
        );
        let a_mask = (1u64 << a_bits) - 1;
        let n_buses = self.outputs.len();
        let mut sim: CompiledSim<'_, SWEEP_WORDS> = self.simulator();
        let mut rows = vec![0u64; 64 * n_buses];
        let mut idx = range.start;
        while idx < range.end {
            sim.load_sweep(idx);
            sim.run();
            let block_lanes = ((range.end - idx) as usize).min(64 * SWEEP_WORDS);
            for wi in 0..block_lanes.div_ceil(64) {
                let lanes_here = self.gather_rows(&sim, wi, block_lanes, &mut rows);
                let lane0 = idx + (64 * wi) as u64;
                for l in 0..lanes_here {
                    let v = lane0 + l as u64;
                    visit(v & a_mask, v >> a_bits, &rows[l * n_buses..][..n_buses]);
                }
            }
            idx += block_lanes as u64;
        }
        Ok(())
    }

    /// Evaluates a list of operand pairs of a two-input-bus netlist,
    /// invoking `visit(a, b, outputs)` for each pair in list order —
    /// the list-driven twin of
    /// [`CompiledNetlist::for_each_operand_pair_in`] for inputs that are
    /// not a consecutive range (proof seeds, sampled checks).
    ///
    /// Pairs are packed `64 * SWEEP_WORDS` to a [`CompiledSim`] pass, and
    /// each visit sees the outputs [`Netlist::eval`] gives that pair.
    /// Operand bits above a bus's width are ignored, as in
    /// [`Netlist::eval`], and `visit` receives each pair as listed. The
    /// buffers are fixed-size, whatever the list's length; an empty
    /// list visits nothing.
    ///
    /// # Errors
    ///
    /// Checked before any pair is drawn, so even an empty list reports
    /// them: [`FabricError::InputArity`] unless the netlist has exactly
    /// two input buses; [`FabricError::BusTooWide`] if an input or
    /// output bus is wider than 64 bits.
    pub fn for_each_listed_pair(
        &self,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        mut visit: impl FnMut(u64, u64, &[u64]),
    ) -> Result<(), FabricError> {
        const LANES: usize = 64 * SWEEP_WORDS;
        self.operand_widths()?;
        check_word_buses(self.inputs.iter().map(Vec::len), false)?;
        check_word_buses(self.outputs.iter().map(Vec::len), true)?;
        let n_buses = self.outputs.len();
        let mut sim: CompiledSim<'_, SWEEP_WORDS> = self.simulator();
        let mut rows = vec![0u64; 64 * n_buses];
        let (mut a, mut b) = ([0u64; LANES], [0u64; LANES]);
        let mut pairs = pairs.into_iter();
        loop {
            let mut n = 0;
            for (x, y) in pairs.by_ref().take(LANES) {
                (a[n], b[n]) = (x, y);
                n += 1;
            }
            if n == 0 {
                return Ok(());
            }
            sim.load(&[&a[..n], &b[..n]])?;
            sim.run();
            for wi in 0..n.div_ceil(64) {
                self.transpose_rows(&sim, wi, &mut rows);
                for l in 0..(n - 64 * wi).min(64) {
                    let lane = 64 * wi + l;
                    visit(a[lane], b[lane], &rows[l * n_buses..][..n_buses]);
                }
            }
            if n < LANES {
                return Ok(());
            }
        }
    }

    /// Transposes word `wi` of `sim`'s output slots into lane-major
    /// `rows` (`rows[l * buses + j]` = output bus `j` on lane `l` of the
    /// word) for all 64 lanes, by 8×8 bit blocks: a listed pass's
    /// outputs are dense, where [`CompiledNetlist::gather_rows`]'s
    /// scatter pays per set bit.
    fn transpose_rows<const W: usize>(
        &self,
        sim: &CompiledSim<'_, W>,
        wi: usize,
        rows: &mut [u64],
    ) {
        let n_buses = self.outputs.len();
        let mut bits = [0u64; 64];
        for (j, bus) in self.outputs.iter().enumerate() {
            for (word, &slot) in bits.iter_mut().zip(bus) {
                *word = sim.values[slot as usize][wi];
            }
            // Bit rows are lanes of the transposed matrix, and back.
            let lanes = transpose_lanes(&bits[..bus.len()], 64);
            for (l, &value) in lanes.iter().enumerate() {
                rows[l * n_buses + j] = value;
            }
        }
    }

    /// Transposes word `wi` of `sim`'s output slots into lane-major
    /// `rows` (`rows[l * buses + j]` = output bus `j` on lane `l` of the
    /// word), for the lanes among the first `block_lanes` of the pass.
    /// Returns how many lanes of the word that is.
    fn gather_rows<const W: usize>(
        &self,
        sim: &CompiledSim<'_, W>,
        wi: usize,
        block_lanes: usize,
        rows: &mut [u64],
    ) -> usize {
        let lanes_here = (block_lanes - 64 * wi).min(64);
        let lane_mask = if lanes_here == 64 {
            u64::MAX
        } else {
            (1u64 << lanes_here) - 1
        };
        let n_buses = self.outputs.len();
        rows[..64 * n_buses].fill(0);
        // Scatter output bits lane-by-set-lane: for the sparse high
        // product bits this visits only the lanes where the bit is
        // actually 1.
        for (j, bus) in self.outputs.iter().enumerate() {
            for (bit, &slot) in bus.iter().enumerate() {
                let mut word = sim.values[slot as usize][wi] & lane_mask;
                while word != 0 {
                    let l = word.trailing_zeros() as usize;
                    rows[l * n_buses + j] |= 1u64 << bit;
                    word &= word - 1;
                }
            }
        }
        lanes_here
    }
}

/// Lane-block width (in 64-lane words) used by the operand sweeps: 256
/// assignments per propagate pass, keeping slot storage L1-resident for
/// the roster's netlists.
pub const SWEEP_WORDS: usize = 4;

/// `PATTERNS[p]` holds bit `p` of the lane index for lanes `0..64` —
/// the value every 64-aligned sweep word takes for combined-input bit
/// positions below 6.
const PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Transposes up to 64 lane values into bit-major words: bit `l` of
/// word `b` is bit `b` of `lanes[l]`, for `b < width` (words at and above
/// `width` hold bits the caller ignores). Eight lanes by eight bits at a
/// time, each block one 8×8 bit-matrix transpose inside a word.
fn transpose_lanes(lanes: &[u64], width: usize) -> [u64; 64] {
    debug_assert!(lanes.len() <= 64 && width <= 64);
    let mut words = [0u64; 64];
    for (group, eight) in lanes.chunks(8).enumerate() {
        for byte in 0..width.div_ceil(8) {
            // Row `i` (byte `i`) is lane `8 * group + i`'s byte `byte`.
            let mut block = 0u64;
            for (i, &value) in eight.iter().enumerate() {
                block |= (value >> (8 * byte) & 0xFF) << (8 * i);
            }
            let block = transpose8(block);
            for (b, word) in words[8 * byte..][..8].iter_mut().enumerate() {
                *word |= (block >> (8 * b) & 0xFF) << (8 * group);
            }
        }
    }
    words
}

/// Transposes the 8×8 bit matrix whose element `(i, j)` is bit `8i + j`
/// (Hacker's Delight §7-3: three rounds of delta swaps).
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// A reusable multi-word bit-parallel executor over a [`CompiledNetlist`].
///
/// Each value slot holds `[u64; W]`: lane `l` lives in bit `l % 64` of
/// word `l / 64`, giving `64 * W` lanes per [`CompiledSim::run`]. The
/// two constant slots are broadcast once at construction; every
/// instruction overwrites its own slot, so no per-pass clearing is
/// needed.
#[derive(Debug)]
pub struct CompiledSim<'p, const W: usize> {
    prog: &'p CompiledNetlist,
    values: Vec<[u64; W]>,
}

impl<'p, const W: usize> CompiledSim<'p, W> {
    /// Lanes evaluated per pass.
    pub const LANES: usize = 64 * W;

    /// Creates a simulator with zeroed inputs.
    #[must_use]
    pub fn new(prog: &'p CompiledNetlist) -> Self {
        let mut values = vec![[0u64; W]; prog.slot_count];
        values[ONE_SLOT as usize] = [u64::MAX; W];
        CompiledSim { prog, values }
    }

    /// The program this simulator executes.
    #[must_use]
    pub fn program(&self) -> &'p CompiledNetlist {
        self.prog
    }

    /// Loads lane-major input vectors: `inputs[bus][lane]`, all buses
    /// supplying the same `1..=64 * W` lane count. Returns the lane
    /// count.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] if the bus count or lane counts are
    /// inconsistent with the netlist; [`FabricError::BusTooWide`] if an
    /// input bus is wider than the 64-bit lane word.
    pub fn load(&mut self, inputs: &[&[u64]]) -> Result<usize, FabricError> {
        if inputs.len() != self.prog.inputs.len() {
            return Err(FabricError::InputArity {
                expected: self.prog.inputs.len(),
                got: inputs.len(),
            });
        }
        check_word_buses(self.prog.inputs.iter().map(Vec::len), false)?;
        let lanes = inputs.first().map_or(1, |b| b.len());
        if lanes == 0 || lanes > 64 * W || inputs.iter().any(|b| b.len() != lanes) {
            return Err(FabricError::InputArity {
                expected: lanes.clamp(1, 64 * W),
                got: inputs.iter().map(|b| b.len()).max().unwrap_or(0),
            });
        }
        for (bus, slots) in inputs.iter().zip(&self.prog.inputs) {
            for &slot in slots {
                self.values[slot as usize] = [0; W];
            }
            for (wi, chunk) in bus.chunks(64).enumerate() {
                let words = transpose_lanes(chunk, slots.len());
                for (&slot, &word) in slots.iter().zip(&words) {
                    self.values[slot as usize][wi] = word;
                }
            }
        }
        Ok(lanes)
    }

    /// Loads `W` consecutive lane words per combined input bit from a
    /// pre-packed stimulus: `bits[k]` holds the packed words of input
    /// bit `k` (bus 0 in the low positions, step `l` in bit `l % 64` of
    /// word `l / 64`), and the pass covers words
    /// `word_offset..word_offset + W`. Words past the end of a row are
    /// zero-filled, so a trailing partial pass is well-defined — callers
    /// mask out the lanes beyond the stimulus length themselves.
    ///
    /// This is the no-transpose path for consecutive-step workloads
    /// (toggle counting): packing happens once per stimulus, and each
    /// pass is a straight `W`-word copy per input bit.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] unless `bits` supplies exactly
    /// [`CompiledNetlist::input_bit_count`] rows.
    pub fn load_packed(&mut self, bits: &[&[u64]], word_offset: usize) -> Result<(), FabricError> {
        if bits.len() != self.prog.sweep_slots.len() {
            return Err(FabricError::InputArity {
                expected: self.prog.sweep_slots.len(),
                got: bits.len(),
            });
        }
        for (row, &slot) in bits.iter().zip(&self.prog.sweep_slots) {
            let mut word = [0u64; W];
            for (wi, w) in word.iter_mut().enumerate() {
                *w = row.get(word_offset + wi).copied().unwrap_or(0);
            }
            self.values[slot as usize] = word;
        }
        Ok(())
    }

    /// Loads the block of `64 * W` consecutive combined-input
    /// assignments starting at `base` (bus 0 in the low bits of the
    /// assignment index). Each input bit's lane word is a fixed
    /// alternating pattern (positions below 6) or a broadcast constant
    /// — O(1) per word, no per-lane transpose.
    ///
    /// # Panics
    ///
    /// Panics unless `base` is a multiple of 64.
    pub fn load_sweep(&mut self, base: u64) {
        assert!(
            base.is_multiple_of(64),
            "sweep blocks must start on a 64-lane boundary"
        );
        for (p, &slot) in self.prog.sweep_slots.iter().enumerate() {
            let mut word = [0u64; W];
            for (wi, w) in word.iter_mut().enumerate() {
                let lane_base = base + 64 * wi as u64;
                *w = if p < 6 {
                    PATTERNS[p]
                } else if (lane_base >> p) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                };
            }
            self.values[slot as usize] = word;
        }
    }

    /// Executes the instruction stream over the loaded lanes.
    pub fn run(&mut self) {
        let vals = &mut self.values;
        for op in &self.prog.ops {
            // Operand words are copied out (≤ 64 bytes each) so the
            // destination write needs no split borrow.
            let a = vals[op.a as usize];
            let out: [u64; W] = match op.kind {
                OpKind::Not => std::array::from_fn(|i| !a[i]),
                OpKind::And => {
                    let b = vals[op.b as usize];
                    std::array::from_fn(|i| a[i] & b[i])
                }
                OpKind::AndNot => {
                    let b = vals[op.b as usize];
                    std::array::from_fn(|i| a[i] & !b[i])
                }
                OpKind::Or => {
                    let b = vals[op.b as usize];
                    std::array::from_fn(|i| a[i] | b[i])
                }
                OpKind::OrNot => {
                    let b = vals[op.b as usize];
                    std::array::from_fn(|i| a[i] | !b[i])
                }
                OpKind::Xor => {
                    let b = vals[op.b as usize];
                    std::array::from_fn(|i| a[i] ^ b[i])
                }
                OpKind::Mux => {
                    let b = vals[op.b as usize];
                    let c = vals[op.c as usize];
                    std::array::from_fn(|i| (b[i] & c[i]) | (a[i] & !c[i]))
                }
            };
            vals[op.dst as usize] = out;
        }
    }

    /// The lane words of `net` after [`CompiledSim::run`]: lane `l` of
    /// the words holds the value [`Netlist::eval_nets`] gives `net` on
    /// lane `l`'s input vector, read through the net-to-slot map.
    #[must_use]
    pub fn net_word(&self, net: NetId) -> [u64; W] {
        self.values[self.prog.net_src[net.index()] as usize]
    }

    /// The lane words of value slot `slot` after [`CompiledSim::run`].
    /// Combined with [`CompiledNetlist::net_slot`] this reads shared
    /// (aliased/CSE-merged) values once instead of once per net.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the program.
    #[must_use]
    pub fn slot_word(&self, slot: u32) -> [u64; W] {
        self.values[slot as usize]
    }

    /// The lane words of output bus `bus`, bit `bit`.
    #[must_use]
    pub fn output_word(&self, bus: usize, bit: usize) -> [u64; W] {
        self.values[self.prog.outputs[bus][bit] as usize]
    }

    /// Loads, runs, and gathers outputs as `outputs[bus][lane]`: up to
    /// `64 * W` vectors per call, each lane equal to [`Netlist::eval`]
    /// on that lane's inputs.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledSim::load`], and [`FabricError::BusTooWide`] if
    /// an output bus is wider than 64 bits.
    pub fn eval(&mut self, inputs: &[&[u64]]) -> Result<Vec<Vec<u64>>, FabricError> {
        check_word_buses(self.prog.outputs.iter().map(Vec::len), true)?;
        let lanes = self.load(inputs)?;
        self.run();
        Ok(self
            .prog
            .outputs
            .iter()
            .map(|bus| {
                (0..lanes)
                    .map(|lane| {
                        let mut val = 0u64;
                        for (bit, &slot) in bus.iter().enumerate() {
                            let w = self.values[slot as usize][lane / 64];
                            val |= ((w >> (lane % 64)) & 1) << bit;
                        }
                        val
                    })
                    .collect()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::eval_with_faults;
    use crate::{Init, NetlistBuilder};

    fn adder4() -> Netlist {
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let mut props = Vec::new();
        for i in 0..4 {
            let (o6, _) = b.lut2(Init::XOR2, a[i], c[i]);
            props.push(o6);
        }
        let zero = b.constant(false);
        let (sums, cout) = b.carry_chain(zero, &props, &[a[0], a[1], a[2], a[3]]);
        b.output_bus("s", &sums);
        b.output("cout", cout);
        b.finish().unwrap()
    }

    #[test]
    fn compiled_matches_scalar_eval_exhaustively() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        let mut sim: CompiledSim<'_, 2> = prog.simulator();
        for a in 0..16u64 {
            for c in 0..16u64 {
                let out = sim.eval(&[&[a], &[c]]).unwrap();
                let scalar = nl.eval(&[a, c]).unwrap();
                assert_eq!(out[0][0], scalar[0], "{a}+{c}");
                assert_eq!(out[1][0], scalar[1], "{a}+{c}");
            }
        }
    }

    #[test]
    fn multi_word_lanes_cover_full_blocks() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        let mut sim: CompiledSim<'_, 4> = prog.simulator();
        let a: Vec<u64> = (0..256u64).map(|v| v & 15).collect();
        let c: Vec<u64> = (0..256u64).map(|v| v >> 4).collect();
        let out = sim.eval(&[&a, &c]).unwrap();
        for l in 0..256 {
            let sum = a[l] + c[l];
            assert_eq!(out[0][l], sum & 15, "lane {l}");
            assert_eq!(out[1][l], sum >> 4, "lane {l}");
        }
    }

    #[test]
    fn net_words_match_scalar_nets() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        let mut sim: CompiledSim<'_, 1> = prog.simulator();
        let a: Vec<u64> = (0..64u64).map(|v| v % 16).collect();
        let c: Vec<u64> = (0..64u64).map(|v| (v / 16) % 16).collect();
        sim.load(&[&a, &c]).unwrap();
        sim.run();
        for lane in 0..64 {
            let nets = nl.eval_nets(&[a[lane], c[lane]]).unwrap();
            for (net, &want) in nets.iter().enumerate() {
                let word = sim.net_word(NetId::new(net as u32))[0];
                assert_eq!(word >> lane & 1 == 1, want, "net {net} lane {lane}");
            }
        }
    }

    #[test]
    fn load_packed_matches_explicit_transpose() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        assert_eq!(prog.input_bit_count(), 8);
        // 300 consecutive steps: a = step & 15, b = (step >> 4) & 15.
        let a: Vec<u64> = (0..300u64).map(|v| v & 15).collect();
        let c: Vec<u64> = (0..300u64).map(|v| (v >> 4) & 15).collect();
        // Pack: bits[k][w] holds step `64*w + sh` in bit `sh`.
        let words = 300usize.div_ceil(64);
        let mut bits = vec![vec![0u64; words]; 8];
        for step in 0..300usize {
            let (w, sh) = (step / 64, step % 64);
            for bit in 0..4 {
                bits[bit][w] |= ((a[step] >> bit) & 1) << sh;
                bits[4 + bit][w] |= ((c[step] >> bit) & 1) << sh;
            }
        }
        let rows: Vec<&[u64]> = bits.iter().map(Vec::as_slice).collect();
        let mut packed: CompiledSim<'_, 2> = prog.simulator();
        let mut lane: CompiledSim<'_, 2> = prog.simulator();
        for pass in 0..words.div_ceil(2) {
            packed.load_packed(&rows, pass * 2).unwrap();
            packed.run();
            let lo = pass * 128;
            let n = (300 - lo).min(128);
            lane.load(&[&a[lo..lo + n], &c[lo..lo + n]]).unwrap();
            lane.run();
            for net in 0..nl.net_count() {
                let id = NetId::new(net as u32);
                let got = packed.net_word(id);
                let want = lane.net_word(id);
                for (wi, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let lanes_here = n.saturating_sub(wi * 64).min(64);
                    if lanes_here == 0 {
                        continue;
                    }
                    let mask = if lanes_here == 64 {
                        u64::MAX
                    } else {
                        (1u64 << lanes_here) - 1
                    };
                    assert_eq!(g & mask, w & mask, "pass {pass} net {net} word {wi}");
                }
                assert_eq!(
                    prog.net_slot(id) as usize,
                    prog.net_src[id.index()] as usize
                );
            }
        }
        // Wrong row count is rejected.
        assert!(packed.load_packed(&rows[..7], 0).is_err());
    }

    #[test]
    fn sweep_range_visits_in_order() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        let mut seen = Vec::new();
        prog.for_each_operand_pair_in(0..256, |a, b, out| {
            assert_eq!(out[0] | (out[1] << 4), a + b);
            seen.push((a, b));
        })
        .unwrap();
        assert_eq!(seen.len(), 256);
        for (v, &(a, b)) in seen.iter().enumerate() {
            assert_eq!(a, (v as u64) & 15);
            assert_eq!(b, (v as u64) >> 4);
        }
        // A 64-aligned sub-range visits exactly its slice.
        let mut sub = Vec::new();
        prog.for_each_operand_pair_in(64..192, |a, b, _| sub.push((a, b)))
            .unwrap();
        assert_eq!(sub.as_slice(), &seen[64..192]);
    }

    #[test]
    fn lut_kernel_matches_init_semantics_on_random_tables() {
        // Dense random INITs exercise the full mux tree; structured
        // ones exercise the folding rules.
        let tables = [
            0x8000_0000_0000_0001u64,
            0x6666_6666_6666_6666,
            0xFFFF_FFFF_0000_0000,
            0x0000_0000_FFFF_FFFF,
            0xDEAD_BEEF_CAFE_F00D,
            0x0123_4567_89AB_CDEF,
            u64::MAX,
            0,
            1,
        ];
        for raw in tables {
            let mut b = NetlistBuilder::new("lut");
            let x = b.inputs("x", 6);
            let (o6, o5) = b.lut6_2(Init::from_raw(raw), [x[0], x[1], x[2], x[3], x[4], x[5]]);
            b.output("o6", o6);
            b.output("o5", o5);
            let nl = b.finish().unwrap();
            let prog = CompiledNetlist::compile(&nl);
            let mut sim: CompiledSim<'_, 1> = prog.simulator();
            for v in 0..64u64 {
                let out = sim.eval(&[&[v]]).unwrap();
                let idx = v as u8;
                assert_eq!(
                    out[0][0] == 1,
                    Init::from_raw(raw).o6(idx),
                    "raw {raw:#x} v {v}"
                );
                assert_eq!(
                    out[1][0] == 1,
                    Init::from_raw(raw).o5(idx),
                    "raw {raw:#x} v {v}"
                );
            }
        }
    }

    #[test]
    fn constant_luts_compile_to_zero_ops() {
        let mut b = NetlistBuilder::new("k");
        let x = b.inputs("x", 2);
        let (o, _) = b.lut2(Init::from_raw(0), x[0], x[1]);
        b.output("y", o);
        let nl = b.finish().unwrap();
        let prog = CompiledNetlist::compile(&nl);
        assert_eq!(prog.op_count(), 0, "all-zero INIT folds to a constant");
        let mut sim: CompiledSim<'_, 1> = prog.simulator();
        assert_eq!(sim.eval(&[&[3]]).unwrap()[0], vec![0]);
    }

    #[test]
    fn cse_shares_identical_luts() {
        let mut b = NetlistBuilder::new("cse");
        let x = b.inputs("x", 2);
        let (p, _) = b.lut2(Init::XOR2, x[0], x[1]);
        let (q, _) = b.lut2(Init::XOR2, x[0], x[1]);
        b.output("p", p);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let prog = CompiledNetlist::compile(&nl);
        assert_eq!(prog.op_count(), 1, "identical LUTs share one xor op");
    }

    #[test]
    fn compiled_faults_match_eval_with_faults() {
        let nl = adder4();
        let fanouts = nl.fanouts();
        let sites: Vec<NetId> = (0..nl.net_count())
            .filter(|&n| fanouts[n] > 0)
            .map(|n| NetId::new(n as u32))
            .collect();
        for &site in &sites {
            for stuck in [false, true] {
                let fault = Fault {
                    net: site,
                    stuck_at: stuck,
                };
                let prog = CompiledNetlist::compile_with_faults(&nl, &[fault]);
                let mut sim: CompiledSim<'_, 1> = prog.simulator();
                for v in (0..256u64).step_by(7) {
                    let (a, c) = (v & 15, v >> 4);
                    let out = sim.eval(&[&[a], &[c]]).unwrap();
                    let want = eval_with_faults(&nl, &[a, c], &[fault]).unwrap();
                    assert_eq!(out[0][0], want[0], "fault {fault:?} a={a} b={c}");
                    assert_eq!(out[1][0], want[1], "fault {fault:?} a={a} b={c}");
                }
            }
        }
    }

    /// `load`'s word transpose against the per-lane fold it replaced:
    /// random lane values (bits above each bus's width set too) on bus
    /// widths 1–64, at lane counts from 1 to 256 around the 8- and
    /// 64-lane edges, the width itself and a random count.
    #[test]
    fn load_transposes_lanes_like_the_per_lane_fold() {
        let mut state = 0x7A4E_5B0Fu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in 1..=64usize {
            let mut b = NetlistBuilder::new("buses");
            let x = b.inputs("x", width);
            let y = b.inputs("y", 65 - width);
            b.output_bus("px", &x);
            b.output_bus("py", &y);
            let nl = b.finish().unwrap();
            let prog = CompiledNetlist::compile(&nl);
            let mut sim: CompiledSim<'_, 4> = prog.simulator();
            let counts = [
                1,
                7,
                8,
                9,
                63,
                64,
                65,
                255,
                256,
                1 + (next() % 256) as usize,
            ];
            for lanes in counts.into_iter().chain(width..=width) {
                let buses: Vec<Vec<u64>> = (0..2)
                    .map(|_| (0..lanes).map(|_| next()).collect())
                    .collect();
                sim.load(&[&buses[0], &buses[1]]).unwrap();
                for (bus, slots) in buses.iter().zip(&prog.inputs) {
                    for (bit, &slot) in slots.iter().enumerate() {
                        let mut want = [0u64; 4];
                        for (w, chunk) in want.iter_mut().zip(bus.chunks(64)) {
                            *w = chunk
                                .iter()
                                .enumerate()
                                .fold(0, |acc, (l, &val)| acc | ((val >> bit) & 1) << l);
                        }
                        assert_eq!(
                            sim.values[slot as usize], want,
                            "width {width}, {lanes} lanes, bit {bit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn load_validates_arity_and_lane_counts() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        let mut sim: CompiledSim<'_, 1> = prog.simulator();
        assert!(sim.eval(&[&[1], &[1, 2]]).is_err(), "ragged lanes");
        assert!(sim.eval(&[&[1]]).is_err(), "missing bus");
        let empty: &[u64] = &[];
        assert!(sim.eval(&[empty, empty]).is_err(), "zero lanes");
        let too_many = vec![0u64; 65];
        assert!(
            sim.eval(&[&too_many, &too_many]).is_err(),
            "W=1 caps at 64 lanes"
        );
        let mut sim2: CompiledSim<'_, 2> = prog.simulator();
        assert!(sim2.eval(&[&too_many, &too_many]).is_ok(), "W=2 takes 128");
    }

    #[test]
    fn sweep_loader_matches_explicit_transpose() {
        let nl = adder4();
        let prog = CompiledNetlist::compile(&nl);
        let mut swept: CompiledSim<'_, 2> = prog.simulator();
        let mut loaded: CompiledSim<'_, 2> = prog.simulator();
        for base in [0u64, 128] {
            swept.load_sweep(base);
            swept.run();
            let a: Vec<u64> = (0..128).map(|l| (base + l) & 15).collect();
            let c: Vec<u64> = (0..128).map(|l| ((base + l) >> 4) & 15).collect();
            loaded.load(&[&a, &c]).unwrap();
            loaded.run();
            for net in 0..nl.net_count() {
                let id = NetId::new(net as u32);
                assert_eq!(swept.net_word(id), loaded.net_word(id), "net {net}");
            }
        }
    }
}

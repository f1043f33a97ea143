use std::fmt;

use crate::error::check_word_buses;
use crate::fault::Fault;
use crate::{FabricError, Init};

/// Identifier of a single-bit net (wire) inside a [`Netlist`].
///
/// `NetId`s are minted exclusively by [`NetlistBuilder`] methods, which
/// guarantees that every net has exactly one driver and that cells are
/// recorded in topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index of the net, usable as an array index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NetId` from a raw index.
    ///
    /// Only meaningful together with [`Netlist::from_parts`], which is
    /// the one entry point that accepts externally-minted ids; nets for
    /// [`NetlistBuilder`] APIs must come from the builder itself.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        NetId(index)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a cell (LUT or carry chain element) inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Raw index of the cell.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `CellId` from a raw index (see [`NetId::new`]).
    #[must_use]
    pub const fn new(index: u32) -> Self {
        CellId(index)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What drives a net. Exposed for timing/power analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// A primary-input bit (bus index, bit index).
    Input(u16, u16),
    /// A constant.
    Const(bool),
    /// The `O6` output of a LUT cell.
    LutO6(CellId),
    /// The `O5` output of a LUT cell.
    LutO5(CellId),
    /// Sum output `O[i]` of a `CARRY4` cell.
    CarrySum(CellId, u8),
    /// Carry output `CO[i]` of a `CARRY4` cell.
    CarryCout(CellId, u8),
}

/// A fabric primitive instance.
///
/// Only the two primitives the DAC'18 designs use are modeled: the
/// fracturable 6-input LUT (`LUT6_2`) and the 4-bit carry chain
/// (`CARRY4`). Input arrays are ordered `[I0, I1, I2, I3, I4, I5]`
/// (LSB-first), matching the truth-table bit index of [`Init`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// A `LUT6_2`: 6 inputs, `O6` always present, `O5` optional.
    Lut {
        /// Truth table.
        init: Init,
        /// Inputs `[I0..=I5]`.
        inputs: [NetId; 6],
        /// Full 6-input function output.
        o6: NetId,
        /// Lower-half 5-input function output, if used.
        o5: Option<NetId>,
    },
    /// A `CARRY4`: 4-bit carry-lookahead segment.
    ///
    /// Per stage `i`: `O[i] = S[i] XOR C[i]` and
    /// `C[i+1] = S[i] ? C[i] : DI[i]` where `C[0] = CIN`.
    Carry4 {
        /// Carry input.
        cin: NetId,
        /// Carry-propagate ("select") inputs, usually LUT `O6` outputs.
        s: [NetId; 4],
        /// Carry-generate ("data") inputs, usually LUT `O5` or bypass.
        di: [NetId; 4],
        /// Sum outputs (`XORCY`), if used.
        o: [Option<NetId>; 4],
        /// Per-stage carry outputs (`MUXCY`), if used. `co[3]` cascades
        /// into the next `CARRY4`.
        co: [Option<NetId>; 4],
    },
}

impl Cell {
    /// Evaluates the cell on one vector: reads its input nets from
    /// `values` (indexed by [`NetId::index`]) and writes its outputs —
    /// one LUT index, or one `CARRY4` stage at a time. This is the step
    /// of [`Netlist::eval`]'s scalar pass.
    pub fn eval(&self, values: &mut [bool]) {
        match self {
            Cell::Lut {
                init,
                inputs: pins,
                o6,
                o5,
            } => {
                let mut idx = 0u8;
                for (k, net) in pins.iter().enumerate() {
                    if values[net.index()] {
                        idx |= 1 << k;
                    }
                }
                values[o6.index()] = init.o6(idx);
                if let Some(o5) = o5 {
                    values[o5.index()] = init.o5(idx);
                }
            }
            Cell::Carry4 { cin, s, di, o, co } => {
                let mut carry = values[cin.index()];
                for stage in 0..4 {
                    let sv = values[s[stage].index()];
                    let dv = values[di[stage].index()];
                    if let Some(n) = o[stage] {
                        values[n.index()] = sv ^ carry;
                    }
                    carry = if sv { carry } else { dv };
                    if let Some(n) = co[stage] {
                        values[n.index()] = carry;
                    }
                }
            }
        }
    }
}

/// Weighted bit-group metadata: where a net sits inside a named
/// primary bus (see [`Netlist::bit_of`]).
///
/// Buses are little-endian weighted groups: bit `i` of a bus carries
/// weight `2^i` in the bus value, so a `BitRef` pins down both the
/// net's name (`bus[bit]`) and its arithmetic weight — the metadata
/// range analyses and lint messages need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitRef<'a> {
    /// Name of the bus.
    pub bus: &'a str,
    /// Bit index within the bus, LSB-first.
    pub bit: u32,
    /// `true` for an output bus, `false` for an input bus.
    pub is_output: bool,
}

impl BitRef<'_> {
    /// The bit's weight in the bus value (`2^bit`).
    #[must_use]
    pub fn weight(&self) -> u128 {
        1u128 << self.bit
    }
}

/// A claimed product block: "bus `p` is the product of operand nets
/// `a` and `b`", recorded by the code that composed the design (see
/// [`NetlistBuilder::claim_product`]).
///
/// A claim is provenance, not a fact: nothing in this crate checks it,
/// and `axmul-sat` verifies every claim it uses before relying on it.
/// Netlists from [`Netlist::from_parts`] (and so every imported
/// netlist) carry none.
#[derive(Debug, Clone)]
pub struct ProductBlock {
    /// `a`, then `b`, then `p`, back to back.
    nets: Box<[NetId]>,
    a_bits: u16,
    b_bits: u16,
}

impl ProductBlock {
    /// The first operand's nets, LSB-first.
    #[must_use]
    pub fn a(&self) -> &[NetId] {
        &self.nets[..usize::from(self.a_bits)]
    }

    /// The second operand's nets, LSB-first.
    #[must_use]
    pub fn b(&self) -> &[NetId] {
        &self.nets[usize::from(self.a_bits)..self.operand_bits()]
    }

    /// The product bus, LSB-first.
    #[must_use]
    pub fn p(&self) -> &[NetId] {
        &self.nets[self.operand_bits()..]
    }

    fn operand_bits(&self) -> usize {
        usize::from(self.a_bits) + usize::from(self.b_bits)
    }
}

/// An elaborated, validated LUT-level netlist.
///
/// Create one with [`NetlistBuilder`]. The cell list is guaranteed to be
/// in topological order and every net to have exactly one driver, so
/// simulation is a single forward pass.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a full adder example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    net_count: u32,
    drivers: Vec<Driver>,
    cells: Vec<Cell>,
    inputs: Vec<(String, Vec<NetId>)>,
    outputs: Vec<(String, Vec<NetId>)>,
    blocks: Vec<ProductBlock>,
}

impl Netlist {
    /// Netlist name (diagnostic only).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of single-bit nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// All cells in topological order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The driver of each net, indexed by [`NetId::index`].
    #[must_use]
    pub fn drivers(&self) -> &[Driver] {
        &self.drivers
    }

    /// Primary-input buses `(name, bits)`, LSB-first.
    #[must_use]
    pub fn input_buses(&self) -> &[(String, Vec<NetId>)] {
        &self.inputs
    }

    /// Primary-output buses `(name, bits)`, LSB-first.
    #[must_use]
    pub fn output_buses(&self) -> &[(String, Vec<NetId>)] {
        &self.outputs
    }

    /// Total primary-input bits across all buses — the width the
    /// truth-table and known-bits engines reason over.
    #[must_use]
    pub fn input_bits(&self) -> u32 {
        self.inputs.iter().map(|(_, b)| b.len() as u32).sum()
    }

    /// Locates `net` inside the primary buses: the bus name, the bit
    /// index (LSB-first, so the bit carries weight `2^bit` in the bus
    /// value) and whether the bus is an output. Output buses are
    /// searched first, so a net that is both an input and an output
    /// bit reports its output position. Returns `None` for internal
    /// nets.
    #[must_use]
    pub fn bit_of(&self, net: NetId) -> Option<BitRef<'_>> {
        fn find<'a>(
            buses: &'a [(String, Vec<NetId>)],
            net: NetId,
            is_output: bool,
        ) -> Option<BitRef<'a>> {
            buses.iter().find_map(|(name, bits)| {
                bits.iter().position(|&n| n == net).map(|bit| BitRef {
                    bus: name.as_str(),
                    bit: bit as u32,
                    is_output,
                })
            })
        }
        find(&self.outputs, net, true).or_else(|| find(&self.inputs, net, false))
    }

    /// The product blocks claimed while the design was composed, in
    /// the order they were claimed (sub-netlists' claims first). Claims
    /// take no part in simulation, export or fingerprints.
    #[must_use]
    pub fn product_blocks(&self) -> &[ProductBlock] {
        &self.blocks
    }

    /// Number of LUT cells — the paper's area unit.
    #[must_use]
    pub fn lut_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Lut { .. }))
            .count()
    }

    /// Number of `CARRY4` cells.
    #[must_use]
    pub fn carry4_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Carry4 { .. }))
            .count()
    }

    /// Assembles a netlist from raw parts **without validation**.
    ///
    /// Unlike [`NetlistBuilder::finish`], no invariant is checked: the
    /// driver table may disagree with the cell list, cells may be out
    /// of topological order, nets may be dangling or multiply driven,
    /// and combinational cycles are representable. Simulating or
    /// analyzing such a netlist is undefined in the "garbage in,
    /// garbage out" sense (no memory unsafety — the crate forbids
    /// `unsafe`, but indices may panic on out-of-range access).
    ///
    /// This is the escape hatch for code that must *represent* broken
    /// netlists: the `axmul-lint` static analyzer uses it to build
    /// deliberately-ill-formed fixtures, and importers of
    /// externally-generated netlists can construct first and let lint
    /// judge. Everything else should go through [`NetlistBuilder`].
    ///
    /// The result claims no product blocks
    /// ([`Netlist::product_blocks`] is empty).
    #[must_use]
    pub fn from_parts(
        name: impl Into<String>,
        drivers: Vec<Driver>,
        cells: Vec<Cell>,
        inputs: Vec<(String, Vec<NetId>)>,
        outputs: Vec<(String, Vec<NetId>)>,
    ) -> Self {
        Netlist {
            name: name.into(),
            net_count: drivers.len() as u32,
            drivers,
            cells,
            inputs,
            outputs,
            blocks: Vec::new(),
        }
    }

    /// Fanout (number of cell/output sinks) of every net.
    #[must_use]
    pub fn fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.net_count as usize];
        for cell in &self.cells {
            match cell {
                Cell::Lut { inputs, init, .. } => {
                    for (i, n) in inputs.iter().enumerate() {
                        // Don't count inputs the truth table ignores
                        // (constant ties used only for packing).
                        if init.depends_on(i as u8) {
                            fo[n.index()] += 1;
                        }
                    }
                }
                Cell::Carry4 { cin, s, di, .. } => {
                    fo[cin.index()] += 1;
                    for n in s.iter().chain(di.iter()) {
                        fo[n.index()] += 1;
                    }
                }
            }
        }
        for (_, bits) in &self.outputs {
            for n in bits {
                fo[n.index()] += 1;
            }
        }
        fo
    }

    /// Fanout of every net counting **every connected pin**, including
    /// LUT pins the INIT truth table ignores (which [`Netlist::fanouts`]
    /// excludes).
    ///
    /// The difference between the two counts is what the lint
    /// dead-logic pass and [`crate::area::AreaReport`] call *ignored
    /// pins*: wires routed to a LUT input that cannot influence any of
    /// its used outputs.
    #[must_use]
    pub fn connected_fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.net_count as usize];
        for cell in &self.cells {
            match cell {
                Cell::Lut { inputs, .. } => {
                    for n in inputs {
                        fo[n.index()] += 1;
                    }
                }
                Cell::Carry4 { cin, s, di, .. } => {
                    fo[cin.index()] += 1;
                    for n in s.iter().chain(di.iter()) {
                        fo[n.index()] += 1;
                    }
                }
            }
        }
        for (_, bits) in &self.outputs {
            for n in bits {
                fo[n.index()] += 1;
            }
        }
        fo
    }

    /// Evaluates the netlist on one input vector: the scalar reference
    /// oracle that the compiled simulator, the SAT replays and the
    /// tests compare against.
    ///
    /// `inputs` holds one word per input bus, in declaration order, with
    /// bit `j` of the word driving bit `j` of the bus; bits above the
    /// bus width are ignored. Returns one word per output bus.
    ///
    /// The evaluation is deliberately naive — one `bool` per net, one
    /// LUT index and one `CARRY4` stage at a time — so that it shares no
    /// code with the bit-sliced engines it checks. On a netlist from
    /// [`Netlist::from_parts`], a constant driver wins over an input-bus
    /// entry for the same net and undriven nets read 0, as in
    /// [`crate::compile::CompiledSim`].
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] if `inputs.len()` differs from the
    /// number of input buses; [`FabricError::BusTooWide`] if an input
    /// or output bus is wider than 64 bits.
    pub fn eval(&self, inputs: &[u64]) -> Result<Vec<u64>, FabricError> {
        self.eval_forced(inputs, &[])
    }

    /// The scalar walk behind [`Netlist::eval`], returning the value of
    /// *every* net (indexed by [`NetId::index`]) for analyses that need
    /// internal visibility: toggle counting, and the per-net checks of
    /// the compiled simulator.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] if `inputs.len()` differs from the
    /// number of input buses; [`FabricError::BusTooWide`] if an input
    /// bus is wider than 64 bits. Output widths are not checked, since
    /// no output word is assembled.
    pub fn eval_nets(&self, inputs: &[u64]) -> Result<Vec<bool>, FabricError> {
        self.walk(inputs, &[], false)
    }

    /// [`Netlist::eval`] with every net in `faults` pinned to its stuck
    /// value wherever it is read (the backend of
    /// [`crate::fault::eval_with_faults`]).
    pub(crate) fn eval_forced(
        &self,
        inputs: &[u64],
        faults: &[Fault],
    ) -> Result<Vec<u64>, FabricError> {
        let values = self.walk(inputs, faults, true)?;
        Ok(self
            .outputs
            .iter()
            .map(|(_, bits)| {
                bits.iter()
                    .enumerate()
                    .map(|(bit, net)| u64::from(values[net.index()]) << bit)
                    .sum()
            })
            .collect())
    }

    /// One scalar pass: loads `inputs`, then the constants, then
    /// evaluates every cell in order with `faults` re-pinned after each.
    /// `word_outputs` also rejects output buses wider than a word.
    fn walk(
        &self,
        inputs: &[u64],
        faults: &[Fault],
        word_outputs: bool,
    ) -> Result<Vec<bool>, FabricError> {
        if inputs.len() != self.inputs.len() {
            return Err(FabricError::InputArity {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        check_word_buses(self.inputs.iter().map(|(_, bits)| bits.len()), false)?;
        if word_outputs {
            check_word_buses(self.outputs.iter().map(|(_, bits)| bits.len()), true)?;
        }
        let mut values = vec![false; self.net_count()];
        for ((_, bits), &word) in self.inputs.iter().zip(inputs) {
            for (bit, net) in bits.iter().enumerate() {
                values[net.index()] = word >> bit & 1 == 1;
            }
        }
        for (net, driver) in self.drivers.iter().enumerate() {
            if let Driver::Const(c) = driver {
                values[net] = *c;
            }
        }
        let force = |values: &mut [bool]| {
            for f in faults {
                values[f.net.index()] = f.stuck_at;
            }
        };
        force(&mut values);
        for cell in &self.cells {
            cell.eval(&mut values);
            force(&mut values);
        }
        Ok(values)
    }
}

/// Incremental builder for [`Netlist`].
///
/// All `NetId`s handed out by the builder are already driven, so a
/// netlist built through this API is acyclic and single-driver by
/// construction; [`NetlistBuilder::finish`] re-validates anyway.
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    drivers: Vec<Driver>,
    cells: Vec<Cell>,
    inputs: Vec<(String, Vec<NetId>)>,
    outputs: Vec<(String, Vec<NetId>)>,
    blocks: Vec<ProductBlock>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl NetlistBuilder {
    /// Starts a new empty netlist with the given diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            drivers: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            blocks: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    fn fresh(&mut self, driver: Driver) -> NetId {
        let id = NetId(self.drivers.len() as u32);
        self.drivers.push(driver);
        id
    }

    /// Declares a primary-input bus of `width` bits (LSB-first).
    pub fn inputs(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let bus = self.inputs.len() as u16;
        let bits: Vec<NetId> = (0..width)
            .map(|j| self.fresh(Driver::Input(bus, j as u16)))
            .collect();
        self.inputs.push((name.into(), bits.clone()));
        bits
    }

    /// Returns the net driven by the given constant (memoized).
    pub fn constant(&mut self, value: bool) -> NetId {
        let slot = if value {
            &mut self.const1
        } else {
            &mut self.const0
        };
        if let Some(id) = *slot {
            return id;
        }
        let id = NetId(self.drivers.len() as u32);
        self.drivers.push(Driver::Const(value));
        if value {
            self.const1 = Some(id);
        } else {
            self.const0 = Some(id);
        }
        id
    }

    /// Instantiates a full `LUT6_2` with both outputs.
    ///
    /// `inputs` are `[I0..=I5]`. Returns `(o6, o5)`.
    pub fn lut6_2(&mut self, init: Init, inputs: [NetId; 6]) -> (NetId, NetId) {
        let cell = CellId(self.cells.len() as u32);
        let o6 = self.fresh(Driver::LutO6(cell));
        let o5 = self.fresh(Driver::LutO5(cell));
        self.cells.push(Cell::Lut {
            init,
            inputs,
            o6,
            o5: Some(o5),
        });
        (o6, o5)
    }

    /// Instantiates a LUT using only the `O6` output.
    ///
    /// `inputs` are `[I0..=I5]`.
    pub fn lut6(&mut self, init: Init, inputs: [NetId; 6]) -> NetId {
        let cell = CellId(self.cells.len() as u32);
        let o6 = self.fresh(Driver::LutO6(cell));
        self.cells.push(Cell::Lut {
            init,
            inputs,
            o6,
            o5: None,
        });
        o6
    }

    /// 1-input LUT (`O6` only); unused inputs tied low.
    pub fn lut1(&mut self, init: Init, i0: NetId) -> NetId {
        let z = self.constant(false);
        self.lut6(init, [i0, z, z, z, z, z])
    }

    /// 2-input LUT. Returns `(o6, o5)`; `o5` sees the same inputs.
    pub fn lut2(&mut self, init: Init, i0: NetId, i1: NetId) -> (NetId, NetId) {
        let z = self.constant(false);
        self.lut6_2(init, [i0, i1, z, z, z, z])
    }

    /// 3-input LUT (`O6` only); unused inputs tied low.
    pub fn lut3(&mut self, init: Init, i0: NetId, i1: NetId, i2: NetId) -> NetId {
        let z = self.constant(false);
        self.lut6(init, [i0, i1, i2, z, z, z])
    }

    /// Instantiates a `CARRY4` with all four sum outputs and the final
    /// carry-out. Returns `(sums, cout)`.
    pub fn carry4(&mut self, cin: NetId, s: [NetId; 4], di: [NetId; 4]) -> ([NetId; 4], NetId) {
        let cell = CellId(self.cells.len() as u32);
        let sums = [
            self.fresh(Driver::CarrySum(cell, 0)),
            self.fresh(Driver::CarrySum(cell, 1)),
            self.fresh(Driver::CarrySum(cell, 2)),
            self.fresh(Driver::CarrySum(cell, 3)),
        ];
        let cout = self.fresh(Driver::CarryCout(cell, 3));
        self.cells.push(Cell::Carry4 {
            cin,
            s,
            di,
            o: sums.map(Some),
            co: [None, None, None, Some(cout)],
        });
        (sums, cout)
    }

    /// Builds a carry chain of arbitrary length from cascaded `CARRY4`s.
    ///
    /// `prop[i]`/`gen[i]` feed stage `i`; the chain is padded with
    /// constant-zero propagate stages up to a multiple of 4 (the padding
    /// consumes no LUTs, mirroring the device). Returns the per-stage
    /// sums and the final carry out of stage `prop.len() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `prop` and `gen` have different lengths or are empty.
    pub fn carry_chain(
        &mut self,
        cin: NetId,
        prop: &[NetId],
        gen: &[NetId],
    ) -> (Vec<NetId>, NetId) {
        assert_eq!(prop.len(), gen.len(), "prop/gen length mismatch");
        assert!(!prop.is_empty(), "carry chain must have at least 1 stage");
        let zero = self.constant(false);
        let mut sums = Vec::with_capacity(prop.len());
        let mut carry = cin;
        let mut final_cout = cin;
        for chunk_start in (0..prop.len()).step_by(4) {
            let n = (prop.len() - chunk_start).min(4);
            let mut s = [zero; 4];
            let mut d = [zero; 4];
            s[..n].copy_from_slice(&prop[chunk_start..chunk_start + n]);
            d[..n].copy_from_slice(&gen[chunk_start..chunk_start + n]);
            let cell = CellId(self.cells.len() as u32);
            let mut o = [None; 4];
            let mut co = [None; 4];
            for (k, slot) in o.iter_mut().enumerate().take(n) {
                *slot = Some(self.fresh(Driver::CarrySum(cell, k as u8)));
            }
            // Carry out of the last *used* stage.
            co[n - 1] = Some(self.fresh(Driver::CarryCout(cell, (n - 1) as u8)));
            // If the chunk is full and more stages follow, cascade co[3].
            self.cells.push(Cell::Carry4 {
                cin: carry,
                s,
                di: d,
                o,
                co,
            });
            for slot in o.iter().take(n) {
                sums.push(slot.expect("sum allocated above"));
            }
            final_cout = co[n - 1].expect("cout allocated above");
            carry = final_cout;
        }
        (sums, final_cout)
    }

    /// Records the claim that `p` is the product of operands `a` and
    /// `b` (see [`ProductBlock`]). Composition code claims each
    /// sub-multiplier's output bus right after instantiating it, so a
    /// checker can prove the design from its parts.
    ///
    /// # Panics
    ///
    /// Panics if an operand is wider than 65 535 bits.
    pub fn claim_product(&mut self, a: &[NetId], b: &[NetId], p: &[NetId]) {
        let width = |bits: &[NetId]| u16::try_from(bits.len()).expect("operand width fits u16");
        self.blocks.push(ProductBlock {
            nets: a.iter().chain(b).chain(p).copied().collect(),
            a_bits: width(a),
            b_bits: width(b),
        });
    }

    /// Inlines (flattens) a sub-netlist into this builder.
    ///
    /// `inputs[k]` supplies the nets driving the `k`-th input bus of
    /// `sub` (same width). Every cell of `sub` is copied with its nets
    /// remapped; constants are re-memoized. `sub`'s claimed product
    /// blocks are carried across on the remapped nets. Returns the nets
    /// of each output bus of `sub`, in declaration order.
    ///
    /// This is how hierarchical designs (e.g. an 8×8 multiplier built
    /// from four 4×4 blocks plus summation logic) are composed.
    ///
    /// # Panics
    ///
    /// Panics if the number or widths of `inputs` do not match `sub`'s
    /// input buses.
    pub fn instantiate(&mut self, sub: &Netlist, inputs: &[&[NetId]]) -> Vec<Vec<NetId>> {
        let buses = sub.input_buses();
        assert_eq!(
            inputs.len(),
            buses.len(),
            "instantiate: input bus count mismatch for `{}`",
            sub.name()
        );
        let mut map: Vec<Option<NetId>> = vec![None; sub.net_count()];
        for (k, (name, bits)) in buses.iter().enumerate() {
            assert_eq!(
                inputs[k].len(),
                bits.len(),
                "instantiate: width mismatch on bus `{name}` of `{}`",
                sub.name()
            );
            for (bit, net) in bits.iter().enumerate() {
                map[net.index()] = Some(inputs[k][bit]);
            }
        }
        for (net, driver) in sub.drivers.iter().enumerate() {
            if let Driver::Const(c) = driver {
                map[net] = Some(self.constant(*c));
            }
        }
        for cell in &sub.cells {
            match cell {
                Cell::Lut {
                    init,
                    inputs: ins,
                    o6,
                    o5,
                } => {
                    let mapped =
                        ins.map(|n| map[n.index()].expect("sub-netlist is topologically ordered"));
                    if let Some(o5) = o5 {
                        let (n6, n5) = self.lut6_2(*init, mapped);
                        map[o6.index()] = Some(n6);
                        map[o5.index()] = Some(n5);
                    } else {
                        let n6 = self.lut6(*init, mapped);
                        map[o6.index()] = Some(n6);
                    }
                }
                Cell::Carry4 { cin, s, di, o, co } => {
                    let rm = |n: NetId, map: &[Option<NetId>]| {
                        map[n.index()].expect("sub-netlist is topologically ordered")
                    };
                    let cell_id = CellId(self.cells.len() as u32);
                    let mcin = rm(*cin, &map);
                    let ms = s.map(|n| rm(n, &map));
                    let mdi = di.map(|n| rm(n, &map));
                    let mut mo = [None; 4];
                    let mut mco = [None; 4];
                    for stage in 0..4 {
                        if let Some(n) = o[stage] {
                            let fresh = self.fresh(Driver::CarrySum(cell_id, stage as u8));
                            mo[stage] = Some(fresh);
                            map[n.index()] = Some(fresh);
                        }
                        if let Some(n) = co[stage] {
                            let fresh = self.fresh(Driver::CarryCout(cell_id, stage as u8));
                            mco[stage] = Some(fresh);
                            map[n.index()] = Some(fresh);
                        }
                    }
                    self.cells.push(Cell::Carry4 {
                        cin: mcin,
                        s: ms,
                        di: mdi,
                        o: mo,
                        co: mco,
                    });
                }
            }
        }
        for block in &sub.blocks {
            let nets: Option<Box<[NetId]>> = block.nets.iter().map(|n| map[n.index()]).collect();
            if let Some(nets) = nets {
                self.blocks.push(ProductBlock {
                    nets,
                    a_bits: block.a_bits,
                    b_bits: block.b_bits,
                });
            }
        }
        sub.output_buses()
            .iter()
            .map(|(_, bits)| {
                bits.iter()
                    .map(|n| map[n.index()].expect("output driven"))
                    .collect()
            })
            .collect()
    }

    /// Declares a single-bit primary output.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), vec![net]));
    }

    /// Declares a multi-bit primary-output bus (LSB-first).
    pub fn output_bus(&mut self, name: impl Into<String>, bits: &[NetId]) {
        self.outputs.push((name.into(), bits.to_vec()));
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// * [`FabricError::DuplicatePort`] if two buses share a name.
    /// * [`FabricError::UndrivenNet`] if a referenced net is out of range
    ///   (can only happen if a `NetId` from another builder leaked in).
    pub fn finish(self) -> Result<Netlist, FabricError> {
        let n = self.drivers.len() as u32;
        let check = |id: NetId| -> Result<(), FabricError> {
            if id.0 < n {
                Ok(())
            } else {
                Err(FabricError::UndrivenNet {
                    net: id.0,
                    netlist: self.name.clone(),
                })
            }
        };
        for cell in &self.cells {
            match cell {
                Cell::Lut { inputs, .. } => inputs.iter().try_for_each(|&i| check(i))?,
                Cell::Carry4 { cin, s, di, .. } => {
                    check(*cin)?;
                    s.iter().chain(di.iter()).try_for_each(|&i| check(i))?;
                }
            }
        }
        let mut names: Vec<&str> = self
            .inputs
            .iter()
            .map(|(s, _)| s.as_str())
            .chain(self.outputs.iter().map(|(s, _)| s.as_str()))
            .collect();
        names.sort_unstable();
        for w in names.windows(2) {
            if w[0] == w[1] {
                return Err(FabricError::DuplicatePort {
                    name: w[0].to_string(),
                });
            }
        }
        for (_, bits) in self.outputs.iter() {
            bits.iter().try_for_each(|&b| check(b))?;
        }
        for block in &self.blocks {
            block.nets.iter().try_for_each(|&b| check(b))?;
        }
        Ok(Netlist {
            name: self.name,
            net_count: n,
            drivers: self.drivers,
            cells: self.cells,
            inputs: self.inputs,
            outputs: self.outputs,
            blocks: self.blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval_identity() {
        let mut b = NetlistBuilder::new("id");
        let a = b.inputs("a", 2);
        b.output("y0", a[0]);
        b.output("y1", a[1]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.eval(&[0b10]).unwrap(), vec![0, 1]);
        assert_eq!(nl.name(), "id");
    }

    #[test]
    fn lut2_and_gate() {
        let mut b = NetlistBuilder::new("and");
        let a = b.inputs("a", 1);
        let c = b.inputs("b", 1);
        let (o6, _) = b.lut2(Init::AND2, a[0], c[0]);
        b.output("y", o6);
        let nl = b.finish().unwrap();
        for (x, y, want) in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)] {
            assert_eq!(nl.eval(&[x, y]).unwrap()[0], want);
        }
    }

    #[test]
    fn carry4_is_a_4bit_adder() {
        // prop = a XOR b, gen = a (classic carry-chain adder mapping)
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let mut props = [a[0]; 4];
        for i in 0..4 {
            let (o6, _) = b.lut2(Init::XOR2, a[i], c[i]);
            props[i] = o6;
        }
        let zero = b.constant(false);
        let (sums, cout) = b.carry4(zero, props, [a[0], a[1], a[2], a[3]]);
        b.output_bus("s", &sums);
        b.output("cout", cout);
        let nl = b.finish().unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let out = nl.eval(&[x, y]).unwrap();
                let got = out[0] | (out[1] << 4);
                assert_eq!(got, x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn carry_chain_handles_non_multiple_of_four() {
        let mut b = NetlistBuilder::new("add6");
        let a = b.inputs("a", 6);
        let c = b.inputs("b", 6);
        let mut props = Vec::new();
        for i in 0..6 {
            let (o6, _) = b.lut2(Init::XOR2, a[i], c[i]);
            props.push(o6);
        }
        let zero = b.constant(false);
        let gens: Vec<NetId> = a.clone();
        let (sums, cout) = b.carry_chain(zero, &props, &gens);
        assert_eq!(sums.len(), 6);
        b.output_bus("s", &sums);
        b.output("cout", cout);
        let nl = b.finish().unwrap();
        assert_eq!(nl.carry4_count(), 2);
        for x in 0..64u64 {
            for y in 0..64u64 {
                let out = nl.eval(&[x, y]).unwrap();
                assert_eq!(out[0] | (out[1] << 6), x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn constants_are_memoized() {
        let mut b = NetlistBuilder::new("c");
        let z1 = b.constant(false);
        let z2 = b.constant(false);
        let o1 = b.constant(true);
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.inputs("a", 1);
        b.output("a", a[0]);
        assert!(matches!(b.finish(), Err(FabricError::DuplicatePort { .. })));
    }

    #[test]
    fn lut_count_excludes_carries() {
        let mut b = NetlistBuilder::new("n");
        let a = b.inputs("a", 4);
        let z = b.constant(false);
        let (o6, _) = b.lut2(Init::XOR2, a[0], a[1]);
        let _ = b.carry4(z, [o6; 4], [a[0], a[1], a[2], a[3]]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.lut_count(), 1);
        assert_eq!(nl.carry4_count(), 1);
    }

    #[test]
    fn fanouts_ignore_unused_lut_pins() {
        let mut b = NetlistBuilder::new("f");
        let a = b.inputs("a", 2);
        // XOR2 only depends on I0, I1; the zero-constant ties must not
        // count toward the constant net's fanout.
        let (o6, _) = b.lut2(Init::XOR2, a[0], a[1]);
        b.output("y", o6);
        let nl = b.finish().unwrap();
        let fo = nl.fanouts();
        assert_eq!(fo[a[0].index()], 1);
        assert_eq!(fo[o6.index()], 1);
    }

    #[test]
    fn instantiate_flattens_hierarchy() {
        // Build a 2-bit adder as a sub-netlist, instantiate it twice to
        // form (a+b)+c over 2-bit operands (mod 4 on the sum bus).
        let mut sb = NetlistBuilder::new("add2");
        let x = sb.inputs("x", 2);
        let y = sb.inputs("y", 2);
        let mut props = Vec::new();
        for i in 0..2 {
            let (o6, _) = sb.lut2(Init::XOR2, x[i], y[i]);
            props.push(o6);
        }
        let zero = sb.constant(false);
        let (sums, _) = sb.carry_chain(zero, &props, &x);
        sb.output_bus("s", &sums);
        let sub = sb.finish().unwrap();

        let mut b = NetlistBuilder::new("add3ops");
        let a = b.inputs("a", 2);
        let c = b.inputs("b", 2);
        let d = b.inputs("c", 2);
        let first = b.instantiate(&sub, &[&a, &c]);
        let second = b.instantiate(&sub, &[&first[0], &d]);
        b.output_bus("s", &second[0]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.lut_count(), 4);
        assert_eq!(nl.carry4_count(), 2);
        for a_v in 0..4u64 {
            for b_v in 0..4u64 {
                for c_v in 0..4u64 {
                    let out = nl.eval(&[a_v, b_v, c_v]).unwrap();
                    assert_eq!(out[0], (a_v + b_v + c_v) & 3);
                }
            }
        }
    }

    #[test]
    fn eval_wrong_arity_errors() {
        let mut b = NetlistBuilder::new("n");
        let a = b.inputs("a", 1);
        b.output("y", a[0]);
        let nl = b.finish().unwrap();
        assert!(matches!(
            nl.eval(&[]),
            Err(FabricError::InputArity {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            nl.eval_nets(&[0, 1]),
            Err(FabricError::InputArity {
                expected: 1,
                got: 2
            })
        ));
    }
}

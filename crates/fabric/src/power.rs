//! Toggle-count dynamic-energy proxy.
//!
//! Vendor power analyzers estimate dynamic power as
//! `P = α · C · V² · f` summed over nets, where `α` is the switching
//! activity. For *relative* energy-delay-product comparisons between
//! multiplier netlists under identical stimulus — all the paper needs
//! for Fig. 1 and Fig. 7 — the `C·V²·f` factors cancel and the ranking
//! is determined by fanout-weighted toggle counts. This module measures
//! exactly that on the compiled bit-sliced simulator
//! ([`crate::compile`]): the stimulus is packed once into lane words
//! ([`PackedStimulus`], step `l` in bit `l % 64`), each pass evaluates
//! `64 * SWEEP_WORDS` consecutive steps, and toggles are counted as
//! exact integer popcounts of `word ^ (word >> 1)` accumulated per
//! value slot over the whole run. The float [`EnergyModel`] weights are
//! applied exactly once at the end, in ascending-net order — so the
//! resulting [`EnergyReport`] is **bit-identical** for any lane width,
//! batch size, or worker count, the same guarantee the error path's
//! `exhaustive_wide` gives `ErrorStats`. [`measure_reference`] is the
//! scalar single-step ground truth that property tests and the CI
//! bench gate compare against.

use crate::compile::{CompiledNetlist, CompiledSim, SWEEP_WORDS};
use crate::netlist::Driver;
use crate::timing::{analyze, DelayModel};
use crate::{FabricError, Netlist};

/// Relative capacitance weights for the energy proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Weight of a LUT output toggle (logic + local interconnect).
    pub c_lut: f64,
    /// Additional weight per unit of net fanout (global interconnect).
    pub c_fanout: f64,
    /// Weight of a carry-chain node toggle (dedicated, low-capacitance).
    pub c_carry: f64,
}

impl EnergyModel {
    /// Default weights: interconnect dominates, carry wiring is cheap.
    #[must_use]
    pub fn virtex7() -> Self {
        EnergyModel {
            c_lut: 1.0,
            c_fanout: 0.35,
            c_carry: 0.25,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::virtex7()
    }
}

/// Energy/EDP summary of a netlist under a stimulus sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Average weighted toggle energy per input transition
    /// (arbitrary but consistent units).
    pub energy_per_op: f64,
    /// Critical path used for the EDP, in ns.
    pub critical_path_ns: f64,
    /// Energy-delay product: `energy_per_op * critical_path_ns`.
    pub edp: f64,
    /// Number of input transitions measured.
    pub transitions: u64,
}

/// A stimulus sequence packed into lane words, ready for
/// [`CompiledSim::load_packed`]: row `k` is combined input bit `k`
/// (bus 0 in the low positions), and step `l` lives in bit `l % 64` of
/// word `l / 64`. Packing happens once per measurement instead of a
/// `Vec<Vec<u64>>` transpose per 64-step batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStimulus {
    bits: Vec<Vec<u64>>,
    steps: usize,
    bus_widths: Vec<usize>,
}

impl PackedStimulus {
    /// Packs step-major stimulus vectors (one word per input bus per
    /// step, as in [`Netlist::eval`]) into lane words.
    ///
    /// # Errors
    ///
    /// [`FabricError::InputArity`] if any vector has the wrong number
    /// of buses.
    pub fn pack(netlist: &Netlist, stimulus: &[Vec<u64>]) -> Result<Self, FabricError> {
        let bus_widths: Vec<usize> = netlist.input_buses().iter().map(|(_, b)| b.len()).collect();
        for v in stimulus {
            if v.len() != bus_widths.len() {
                return Err(FabricError::InputArity {
                    expected: bus_widths.len(),
                    got: v.len(),
                });
            }
        }
        let total_bits: usize = bus_widths.iter().sum();
        let words = stimulus.len().div_ceil(64);
        let mut bits = vec![vec![0u64; words]; total_bits];
        for (step, v) in stimulus.iter().enumerate() {
            let (w, sh) = (step / 64, step % 64);
            let mut k = 0usize;
            for (bus, &val) in v.iter().enumerate() {
                for bit in 0..bus_widths[bus] {
                    bits[k][w] |= ((val >> bit) & 1) << sh;
                    k += 1;
                }
            }
        }
        Ok(PackedStimulus {
            bits,
            steps: stimulus.len(),
            bus_widths,
        })
    }

    /// `n` uniform-random steps packed directly into lane words —
    /// bit-identical to `pack(netlist, &uniform_stimulus(netlist, n,
    /// seed))` (same SplitMix64 draw sequence) without materializing
    /// the step-major vectors.
    #[must_use]
    pub fn uniform(netlist: &Netlist, n: usize, seed: u64) -> Self {
        let bus_widths: Vec<usize> = netlist.input_buses().iter().map(|(_, b)| b.len()).collect();
        let total_bits: usize = bus_widths.iter().sum();
        let mut bits = vec![vec![0u64; n.div_ceil(64)]; total_bits];
        let mut next = splitmix64(seed);
        for step in 0..n {
            let (w, sh) = (step / 64, step % 64);
            let mut k = 0usize;
            for &width in &bus_widths {
                let mask = if width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                let val = next() & mask;
                for bit in 0..width {
                    bits[k][w] |= ((val >> bit) & 1) << sh;
                    k += 1;
                }
            }
        }
        PackedStimulus {
            bits,
            steps: n,
            bus_widths,
        }
    }

    /// Number of stimulus steps.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// Per-net toggle weight under `energy`: constants burn nothing, carry
/// nodes ride the dedicated low-capacitance chain, everything else is a
/// LUT output plus fanout interconnect.
fn net_weights(netlist: &Netlist, energy: &EnergyModel) -> Vec<f64> {
    let fanouts = netlist.fanouts();
    netlist
        .drivers()
        .iter()
        .enumerate()
        .map(|(net, d)| match d {
            Driver::Const(_) => 0.0,
            Driver::CarrySum(..) | Driver::CarryCout(..) => {
                energy.c_carry + energy.c_fanout * f64::from(fanouts[net])
            }
            _ => energy.c_lut + energy.c_fanout * f64::from(fanouts[net]),
        })
        .collect()
}

/// The distinct value slots behind the weighted nets, ascending, plus
/// each net's index into that list (`usize::MAX` for weight-0 nets).
/// Aliased/CSE-merged nets share a slot, so the simulator readout
/// touches each distinct value exactly once per pass.
fn tracked_slots(prog: &CompiledNetlist, weights: &[f64]) -> (Vec<u32>, Vec<usize>) {
    let mut slots: Vec<u32> = (0..weights.len())
        .filter(|&net| weights[net] != 0.0)
        .map(|net| prog.net_slot(crate::NetId::new(net as u32)))
        .collect();
    slots.sort_unstable();
    slots.dedup();
    let index = (0..weights.len())
        .map(|net| {
            if weights[net] == 0.0 {
                usize::MAX
            } else {
                let slot = prog.net_slot(crate::NetId::new(net as u32));
                slots.binary_search(&slot).expect("slot collected above")
            }
        })
        .collect();
    (slots, index)
}

/// Integer toggle counts for the tracked slots over the pass range
/// `[pass_lo, pass_hi)` of the packed stimulus. A shard starting past
/// pass 0 replays its predecessor pass first to recover the boundary
/// lane, so counts depend only on the stimulus — never on how passes
/// are sharded.
fn count_shard<const W: usize>(
    prog: &CompiledNetlist,
    stim: &PackedStimulus,
    rows: &[&[u64]],
    slots: &[u32],
    pass_lo: usize,
    pass_hi: usize,
) -> Vec<u64> {
    let lanes_per_pass = 64 * W;
    let mut sim: CompiledSim<'_, W> = prog.simulator();
    let mut counts = vec![0u64; slots.len()];
    // Last-lane bit of each tracked slot from the previous pass.
    let mut carry = vec![0u64; slots.len()];
    let mut has_carry = false;
    if pass_lo > 0 {
        sim.load_packed(rows, (pass_lo - 1) * W)
            .expect("rows validated by caller");
        sim.run();
        // A predecessor pass is always full (only the final pass of the
        // whole stimulus can be partial).
        for (c, &slot) in carry.iter_mut().zip(slots) {
            *c = sim.slot_word(slot)[W - 1] >> 63;
        }
        has_carry = true;
    }
    for pass in pass_lo..pass_hi {
        sim.load_packed(rows, pass * W)
            .expect("rows validated by caller");
        sim.run();
        let lanes = (stim.steps - pass * lanes_per_pass).min(lanes_per_pass);
        for (i, &slot) in slots.iter().enumerate() {
            let word = sim.slot_word(slot);
            let mut t = 0u64;
            let mut prev = carry[i];
            let mut have_prev = has_carry;
            let mut remaining = lanes;
            for &w in &word {
                if remaining == 0 {
                    break;
                }
                let here = remaining.min(64);
                if here > 1 {
                    // Adjacent-lane toggles inside the word.
                    t += ((w ^ (w >> 1)) & ((1u64 << (here - 1)) - 1)).count_ones() as u64;
                }
                if have_prev {
                    t += prev ^ (w & 1);
                }
                prev = (w >> (here - 1)) & 1;
                have_prev = true;
                remaining -= here;
            }
            counts[i] += t;
            carry[i] = prev;
        }
        has_carry = true;
    }
    counts
}

/// Integer toggle counts for the whole stimulus, sharded over `workers`
/// scoped threads with a fixed-order merge. Integer sums are exactly
/// associative, so the result is identical for every worker count.
fn count_toggles<const W: usize>(
    prog: &CompiledNetlist,
    stim: &PackedStimulus,
    slots: &[u32],
    workers: usize,
) -> Vec<u64> {
    let rows: Vec<&[u64]> = stim.bits.iter().map(Vec::as_slice).collect();
    let passes = stim.steps.div_ceil(64 * W);
    let workers = workers.max(1).min(passes.max(1));
    if workers <= 1 {
        return count_shard::<W>(prog, stim, &rows, slots, 0, passes);
    }
    let per = passes.div_ceil(workers);
    let shards: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let rows = &rows;
                let lo = w * per;
                let hi = ((w + 1) * per).min(passes);
                scope.spawn(move || count_shard::<W>(prog, stim, rows, slots, lo, hi))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut counts = vec![0u64; slots.len()];
    for shard in shards {
        for (c, s) in counts.iter_mut().zip(shard) {
            *c += s;
        }
    }
    counts
}

/// The single end-of-run float fold shared by every measurement path:
/// ascending-net order, weight-0 nets skipped. Keeping this fold (and
/// only this fold) in floating point is what makes the report
/// bit-identical across lane widths, batch sizes, and worker counts.
fn weighted_total(weights: &[f64], count_of_net: impl Fn(usize) -> u64) -> f64 {
    let mut total = 0.0f64;
    for (net, &weight) in weights.iter().enumerate() {
        if weight != 0.0 {
            total += weight * count_of_net(net) as f64;
        }
    }
    total
}

fn finish_report(total: f64, steps: usize, critical_path_ns: f64) -> EnergyReport {
    let transitions = (steps.saturating_sub(1) as u64).max(1);
    let energy_per_op = total / transitions as f64;
    EnergyReport {
        energy_per_op,
        critical_path_ns,
        edp: energy_per_op * critical_path_ns,
        transitions,
    }
}

/// Measures the average switching energy of `netlist` over a stimulus
/// sequence and combines it with STA delay into an EDP.
///
/// `stimulus` yields one input-vector per step (one word per input bus,
/// as in [`Netlist::eval`]); energy is accumulated over each consecutive
/// pair of vectors.
///
/// # Errors
///
/// Returns [`FabricError::InputArity`] if a stimulus vector has the
/// wrong number of buses, and propagates simulation errors.
///
/// # Examples
///
/// ```
/// use axmul_fabric::{Init, NetlistBuilder};
/// use axmul_fabric::power::{measure, uniform_stimulus, EnergyModel};
/// use axmul_fabric::timing::DelayModel;
///
/// let mut b = NetlistBuilder::new("x");
/// let a = b.inputs("a", 4);
/// let c = b.inputs("b", 4);
/// let (o6, _) = b.lut2(Init::XOR2, a[0], c[0]);
/// b.output("y", o6);
/// let nl = b.finish()?;
/// let stim = uniform_stimulus(&nl, 1000, 7);
/// let report = measure(&nl, &EnergyModel::virtex7(), &DelayModel::virtex7(), &stim)?;
/// assert!(report.energy_per_op > 0.0);
/// assert!(report.edp > 0.0);
/// # Ok::<(), axmul_fabric::FabricError>(())
/// ```
pub fn measure(
    netlist: &Netlist,
    energy: &EnergyModel,
    delay: &DelayModel,
    stimulus: &[Vec<u64>],
) -> Result<EnergyReport, FabricError> {
    let stim = PackedStimulus::pack(netlist, stimulus)?;
    let critical_path_ns = analyze(netlist, delay).critical_path_ns;
    let prog = CompiledNetlist::compile(netlist);
    measure_packed(netlist, &prog, energy, critical_path_ns, &stim, 1)
}

/// The wide-lane measurement core: evaluates the packed stimulus
/// `64 * SWEEP_WORDS` consecutive steps per pass, accumulates exact
/// integer toggle counts per distinct value slot (sharded over
/// `workers` scoped threads when > 1), and applies the float
/// [`EnergyModel`] weights exactly once at the end. The report is
/// bit-identical to [`measure_reference`] on the same step-major
/// stimulus, for any `workers`.
///
/// `prog` must be the compilation of `netlist` (without faults);
/// `critical_path_ns` is the caller's STA result — hoisted out so
/// characterization runs `analyze` once, not twice.
///
/// # Errors
///
/// [`FabricError::InputArity`] if `stim` was packed for a different
/// input-bus shape than `netlist`.
pub fn measure_packed(
    netlist: &Netlist,
    prog: &CompiledNetlist,
    energy: &EnergyModel,
    critical_path_ns: f64,
    stim: &PackedStimulus,
    workers: usize,
) -> Result<EnergyReport, FabricError> {
    let widths: Vec<usize> = netlist.input_buses().iter().map(|(_, b)| b.len()).collect();
    if widths != stim.bus_widths {
        return Err(FabricError::InputArity {
            expected: widths.iter().sum(),
            got: stim.bus_widths.iter().sum(),
        });
    }
    let weights = net_weights(netlist, energy);
    let (slots, index) = tracked_slots(prog, &weights);
    let counts = if stim.steps < 2 || slots.is_empty() {
        vec![0u64; slots.len()]
    } else {
        count_toggles::<SWEEP_WORDS>(prog, stim, &slots, workers)
    };
    let total = weighted_total(&weights, |net| counts[index[net]]);
    Ok(finish_report(total, stim.steps, critical_path_ns))
}

/// Scalar single-step reference measurement: [`Netlist::eval_nets`]
/// evaluates one stimulus step per call, toggles are counted as
/// integers per net, and the same end-of-run weighted fold as
/// [`measure_packed`] produces the report. This is the ground truth the
/// wide-lane path is gated bit-identical against (tests and the
/// `sim-bench` CI gate) — it shares no lane-word machinery with it.
///
/// # Errors
///
/// Same as [`measure`].
pub fn measure_reference(
    netlist: &Netlist,
    energy: &EnergyModel,
    delay: &DelayModel,
    stimulus: &[Vec<u64>],
) -> Result<EnergyReport, FabricError> {
    let weights = net_weights(netlist, energy);
    let mut counts = vec![0u64; netlist.net_count()];
    let mut prev: Option<Vec<bool>> = None;
    for v in stimulus {
        let nets = netlist.eval_nets(v)?;
        if let Some(prev) = &prev {
            for (count, (&now, &was)) in counts.iter_mut().zip(nets.iter().zip(prev)) {
                *count += u64::from(now != was);
            }
        }
        prev = Some(nets);
    }
    let total = weighted_total(&weights, |net| counts[net]);
    let critical_path_ns = analyze(netlist, delay).critical_path_ns;
    Ok(finish_report(total, stimulus.len(), critical_path_ns))
}

fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        // SplitMix64 (public domain, Steele et al.).
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Generates `n` uniform-random stimulus vectors for `netlist` using a
/// deterministic SplitMix64 stream seeded with `seed` (no external RNG
/// dependency; reproducible across runs and platforms).
#[must_use]
pub fn uniform_stimulus(netlist: &Netlist, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let widths: Vec<usize> = netlist.input_buses().iter().map(|(_, b)| b.len()).collect();
    let mut next = splitmix64(seed);
    (0..n)
        .map(|_| {
            widths
                .iter()
                .map(|&w| {
                    let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                    next() & mask
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Init, NetlistBuilder};

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("x");
        let a = b.inputs("a", 1);
        let c = b.inputs("b", 1);
        let (o6, _) = b.lut2(Init::XOR2, a[0], c[0]);
        b.output("y", o6);
        b.finish().unwrap()
    }

    /// A netlist with some depth, a carry chain, and shared nets so the
    /// slot-level readout differs from a naive per-net walk.
    fn adder_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("add");
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
    fn constant_stimulus_burns_nothing() {
        let nl = xor_netlist();
        let stim = vec![vec![1, 0]; 100];
        let r = measure(&nl, &EnergyModel::virtex7(), &DelayModel::virtex7(), &stim).unwrap();
        assert_eq!(r.energy_per_op, 0.0);
    }

    #[test]
    fn toggling_stimulus_burns_energy() {
        let nl = xor_netlist();
        let stim: Vec<Vec<u64>> = (0..100).map(|i| vec![i & 1, 0]).collect();
        let r = measure(&nl, &EnergyModel::virtex7(), &DelayModel::virtex7(), &stim).unwrap();
        assert!(r.energy_per_op > 0.0);
        assert!((r.edp - r.energy_per_op * r.critical_path_ns).abs() < 1e-12);
    }

    #[test]
    fn batch_boundary_toggles_are_counted() {
        // 65 steps crosses the first 64-lane word; alternate every step
        // so the boundary transition (step 63 -> 64) matters.
        let nl = xor_netlist();
        let stim: Vec<Vec<u64>> = (0..65).map(|i| vec![i & 1, 0]).collect();
        let r = measure(&nl, &EnergyModel::virtex7(), &DelayModel::virtex7(), &stim).unwrap();
        assert_eq!(r.transitions, 64);
        // Every transition toggles input + output: energy identical each
        // step, so per-op energy equals the single-step energy exactly.
        let two = measure(
            &nl,
            &EnergyModel::virtex7(),
            &DelayModel::virtex7(),
            &stim[..2],
        )
        .unwrap();
        assert!((r.energy_per_op - two.energy_per_op).abs() < 1e-9);
    }

    #[test]
    fn wide_path_matches_scalar_reference_bitwise() {
        let energy = EnergyModel::virtex7();
        let delay = DelayModel::virtex7();
        for nl in [xor_netlist(), adder_netlist()] {
            // Lengths straddle word (64) and pass (256) boundaries.
            for n in [1usize, 2, 63, 64, 65, 255, 256, 257, 1000] {
                let stim = uniform_stimulus(&nl, n, 0xF00D + n as u64);
                let fast = measure(&nl, &energy, &delay, &stim).unwrap();
                let slow = measure_reference(&nl, &energy, &delay, &stim).unwrap();
                assert_eq!(
                    fast.energy_per_op.to_bits(),
                    slow.energy_per_op.to_bits(),
                    "{} n={n}",
                    nl.name()
                );
                assert_eq!(
                    fast.edp.to_bits(),
                    slow.edp.to_bits(),
                    "{} n={n}",
                    nl.name()
                );
                assert_eq!(fast.transitions, slow.transitions);
            }
        }
    }

    #[test]
    fn worker_count_and_lane_width_do_not_change_counts() {
        let nl = adder_netlist();
        let prog = CompiledNetlist::compile(&nl);
        let weights = net_weights(&nl, &EnergyModel::virtex7());
        let (slots, _) = tracked_slots(&prog, &weights);
        // 1000 steps = 16 single-word passes, enough for real sharding.
        let stim = PackedStimulus::uniform(&nl, 1000, 99);
        let base = count_toggles::<1>(&prog, &stim, &slots, 1);
        for workers in 2..=5 {
            assert_eq!(count_toggles::<1>(&prog, &stim, &slots, workers), base);
        }
        for workers in 1..=3 {
            assert_eq!(count_toggles::<2>(&prog, &stim, &slots, workers), base);
            assert_eq!(count_toggles::<4>(&prog, &stim, &slots, workers), base);
        }
    }

    #[test]
    fn packed_uniform_matches_packed_stepwise() {
        for nl in [xor_netlist(), adder_netlist()] {
            for n in [0usize, 1, 64, 65, 300] {
                let direct = PackedStimulus::uniform(&nl, n, 0x5EED);
                let packed = PackedStimulus::pack(&nl, &uniform_stimulus(&nl, n, 0x5EED)).unwrap();
                assert_eq!(direct, packed, "{} n={n}", nl.name());
            }
        }
    }

    #[test]
    fn uniform_stimulus_is_deterministic_and_masked() {
        let nl = xor_netlist();
        let s1 = uniform_stimulus(&nl, 50, 42);
        let s2 = uniform_stimulus(&nl, 50, 42);
        assert_eq!(s1, s2);
        assert!(s1.iter().flatten().all(|&v| v <= 1));
        let s3 = uniform_stimulus(&nl, 50, 43);
        assert_ne!(s1, s3);
    }

    #[test]
    fn wrong_arity_rejected() {
        let nl = xor_netlist();
        let stim = vec![vec![1]];
        assert!(measure(&nl, &EnergyModel::virtex7(), &DelayModel::virtex7(), &stim).is_err());
        // A packed stimulus from a different input shape is rejected too.
        let other = adder_netlist();
        let packed = PackedStimulus::uniform(&other, 16, 1);
        let prog = CompiledNetlist::compile(&nl);
        assert!(measure_packed(&nl, &prog, &EnergyModel::virtex7(), 1.0, &packed, 1).is_err());
    }
}

//! Device-level resource and cost modeling.
//!
//! The paper's Table 1 motivates LUT-based multipliers by implementing
//! a Reed-Solomon encoder and a JPEG encoder with DSP blocks enabled and
//! disabled: the DSP variant of the Reed-Solomon encoder is *slower*
//! (routing to the allocated DSP columns dominates) and the JPEG encoder
//! consumes 56 % of the device's DSP blocks. This module provides the
//! device inventory and the placement/routing penalty model that the
//! `axmul-apps` crate maps those applications through.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::area::AreaReport;
use crate::compile::CompiledNetlist;
use crate::power::{measure_packed, EnergyModel, PackedStimulus};
use crate::timing::{analyze, DelayModel, TimingReport};
use crate::{FabricError, Netlist};

/// Static resource inventory of an FPGA device.
///
/// # Examples
///
/// ```
/// use axmul_fabric::cost::Device;
/// let d = Device::virtex7_7vx330t();
/// assert_eq!(d.dsp_blocks, 1120);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Marketing name.
    pub name: String,
    /// Number of 6-input LUTs.
    pub luts: u32,
    /// Number of DSP48-style blocks.
    pub dsp_blocks: u32,
    /// Number of DSP columns (placement granularity for the routing
    /// penalty model).
    pub dsp_columns: u32,
}

impl Device {
    /// The Virtex-7 7VX330T used throughout the paper:
    /// 204 000 LUTs, 1 120 DSP48E1 slices.
    #[must_use]
    pub fn virtex7_7vx330t() -> Self {
        Device {
            name: "xc7vx330t".to_string(),
            luts: 204_000,
            dsp_blocks: 1_120,
            dsp_columns: 14,
        }
    }

    /// Fraction of DSP blocks consumed by a design using `used` blocks.
    #[must_use]
    pub fn dsp_utilization(&self, used: u32) -> f64 {
        f64::from(used) / f64::from(self.dsp_blocks)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} LUTs, {} DSPs)",
            self.name, self.luts, self.dsp_blocks
        )
    }
}

/// How a multiplication inside an application datapath is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultImpl {
    /// Mapped onto a DSP48-style hard block.
    Dsp,
    /// Mapped onto soft LUT logic.
    Lut,
}

/// Resource/latency summary of one application implementation, i.e. one
/// cell of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppCost {
    /// Critical path delay in nanoseconds.
    pub critical_path_ns: f64,
    /// Occupied LUTs.
    pub luts: u32,
    /// Occupied DSP blocks.
    pub dsp_blocks: u32,
}

impl fmt::Display for AppCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ns, {} LUTs, {} DSPs",
            self.critical_path_ns, self.luts, self.dsp_blocks
        )
    }
}

/// Placement/routing cost model for mapping datapaths onto a [`Device`].
///
/// The key effect modeled (observed in Table 1 and in Kuon & Rose's
/// FPGA/ASIC gap study) is that hard blocks live in fixed columns:
/// reaching them costs general routing that grows with how many columns
/// the design must spread across, while LUT logic packs next to its
/// consumers.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Target device.
    pub device: Device,
    /// Combinational delay through a DSP48 multiplier (ns).
    pub t_dsp_mult: f64,
    /// Base routing delay to reach the nearest DSP column (ns).
    pub t_dsp_route_base: f64,
    /// Extra routing delay per additional DSP column spanned (ns).
    pub t_dsp_route_per_column: f64,
    /// DSP blocks per column before spilling to the next column.
    pub dsps_per_column: u32,
}

impl CostModel {
    /// Cost model for the paper's 7VX330T device.
    #[must_use]
    pub fn virtex7() -> Self {
        let device = Device::virtex7_7vx330t();
        let dsps_per_column = device.dsp_blocks / device.dsp_columns;
        CostModel {
            device,
            t_dsp_mult: 2.7,
            t_dsp_route_base: 0.9,
            t_dsp_route_per_column: 0.25,
            dsps_per_column,
        }
    }

    /// Delay of a DSP-mapped multiplier when the design uses
    /// `used_dsps` blocks in total: the more columns the design spans,
    /// the worse the worst-case route to a DSP becomes.
    #[must_use]
    pub fn dsp_mult_delay(&self, used_dsps: u32) -> f64 {
        let columns = used_dsps.div_ceil(self.dsps_per_column.max(1));
        self.t_dsp_mult
            + self.t_dsp_route_base
            + self.t_dsp_route_per_column * f64::from(columns.saturating_sub(1))
    }

    /// Whether a request for `needed` DSP blocks fits the device.
    #[must_use]
    pub fn dsps_fit(&self, needed: u32) -> bool {
        needed <= self.device.dsp_blocks
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::virtex7()
    }
}

/// One-stop hardware-cost summary of a netlist: area, static timing and
/// switching energy/EDP in a single record. This is the unit of
/// characterization the `axmul-dse` explorer memoizes per sub-block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistCost {
    /// LUT/CARRY4/slice accounting ([`AreaReport::of`]).
    pub area: AreaReport,
    /// Worst-case input-to-output delay in ns ([`crate::timing::analyze`]).
    pub critical_path_ns: f64,
    /// Average weighted toggle energy per operation under the
    /// characterizer's stimulus.
    pub energy_per_op: f64,
    /// Energy-delay product: `energy_per_op * critical_path_ns`.
    pub edp: f64,
}

impl fmt::Display for NetlistCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUTs, {:.3} ns, EDP {:.3}",
            self.area.luts, self.critical_path_ns, self.edp
        )
    }
}

/// The one producer of area, STA and energy/EDP numbers: bundled
/// delay/energy models plus a fixed stimulus
/// ([`Characterizer::STIMULUS_LEN`] vectors drawn from
/// [`Characterizer::STIMULUS_SEED`]), so every netlist — whichever
/// front end asks — is characterized under identical conditions. The
/// stimulus depends only on the input-bus widths, so it is drawn once
/// per input shape per process and shared by every characterization.
///
/// # Examples
///
/// ```
/// use axmul_fabric::cost::Characterizer;
/// use axmul_fabric::{Init, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("x");
/// let a = b.inputs("a", 4);
/// let c = b.inputs("b", 4);
/// let (o6, _) = b.lut2(Init::XOR2, a[0], c[0]);
/// b.output("y", o6);
/// let nl = b.finish()?;
/// let cost = Characterizer::virtex7().characterize(&nl)?;
/// assert_eq!(cost.area.luts, 1);
/// assert!(cost.edp > 0.0);
/// # Ok::<(), axmul_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Characterizer {
    /// Delay constants for STA.
    pub delay: DelayModel,
    /// Toggle-energy constants.
    pub energy: EnergyModel,
}

impl Characterizer {
    /// Number of uniform-random stimulus vectors in the energy
    /// measurement.
    pub const STIMULUS_LEN: usize = 1024;
    /// Seed of the deterministic stimulus stream.
    pub const STIMULUS_SEED: u64 = 0xDAC18 ^ 0x5EED;

    /// Virtex-7 calibrated delay and energy models.
    #[must_use]
    pub fn virtex7() -> Self {
        Characterizer {
            delay: DelayModel::virtex7(),
            energy: EnergyModel::virtex7(),
        }
    }

    /// Characterizes `netlist`: area + STA + energy/EDP in one record.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the energy measurement.
    pub fn characterize(&self, netlist: &Netlist) -> Result<NetlistCost, FabricError> {
        self.characterize_timed(netlist, &CompiledNetlist::compile(netlist))
            .map(|(cost, _)| cost)
    }

    /// [`Characterizer::characterize`] plus the full STA report (the
    /// worst output and its arrival times), for reports that name the
    /// critical path. STA still runs once.
    ///
    /// # Errors
    ///
    /// Same as [`Characterizer::characterize`].
    pub fn characterize_with_timing(
        &self,
        netlist: &Netlist,
    ) -> Result<(NetlistCost, TimingReport), FabricError> {
        let (cost, timing, _) = self.run(netlist, &CompiledNetlist::compile(netlist))?;
        Ok((cost, timing))
    }

    /// [`Characterizer::characterize`] over an already-compiled
    /// program, for callers that also sweep the same netlist (e.g. the
    /// DSE characterization cache) and want to compile it exactly once.
    /// It also reports where the time went (area vs STA vs energy
    /// sweep), so callers can expose a wall-clock split without
    /// re-profiling.
    ///
    /// `prog` must be the fault-free compilation of `netlist`.
    ///
    /// STA runs exactly once: its `critical_path_ns` feeds both the
    /// cost record and the EDP inside the energy measurement.
    ///
    /// # Errors
    ///
    /// Same as [`Characterizer::characterize`].
    pub fn characterize_timed(
        &self,
        netlist: &Netlist,
        prog: &CompiledNetlist,
    ) -> Result<(NetlistCost, CharTimings), FabricError> {
        let (cost, _, timings) = self.run(netlist, prog)?;
        Ok((cost, timings))
    }

    fn run(
        &self,
        netlist: &Netlist,
        prog: &CompiledNetlist,
    ) -> Result<(NetlistCost, TimingReport, CharTimings), FabricError> {
        let t0 = Instant::now();
        let area = AreaReport::of(netlist);
        let t1 = Instant::now();
        let timing = analyze(netlist, &self.delay);
        let t2 = Instant::now();
        let stim = stimulus(netlist);
        let power = measure_packed(netlist, prog, &self.energy, timing.critical_path_ns, &stim)?;
        let t3 = Instant::now();
        let cost = NetlistCost {
            area,
            critical_path_ns: timing.critical_path_ns,
            energy_per_op: power.energy_per_op,
            edp: power.edp,
        };
        let timings = CharTimings {
            area: t1 - t0,
            sta: t2 - t1,
            energy: t3 - t2,
        };
        Ok((cost, timing, timings))
    }
}

/// The characterizer's stimulus for `netlist`'s input-bus shape. The
/// length and seed are fixed, so the draw depends only on the bus
/// widths: each shape is drawn once per process and shared (128 bytes
/// per input bit, ≈2 KiB for an 8×8 multiplier).
fn stimulus(netlist: &Netlist) -> Arc<PackedStimulus> {
    static MEMO: OnceLock<Mutex<HashMap<Vec<usize>, Arc<PackedStimulus>>>> = OnceLock::new();
    let widths: Vec<usize> = netlist.input_buses().iter().map(|(_, b)| b.len()).collect();
    let mut memo = MEMO
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let stim = memo.entry(widths).or_insert_with(|| {
        Arc::new(PackedStimulus::uniform(
            netlist,
            Characterizer::STIMULUS_LEN,
            Characterizer::STIMULUS_SEED,
        ))
    });
    Arc::clone(stim)
}

/// Wall-clock split of one characterization (see
/// [`Characterizer::characterize_timed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharTimings {
    /// Time in the area report ([`AreaReport::of`]).
    pub area: Duration,
    /// Time in static timing analysis.
    pub sta: Duration,
    /// Time in the packed-stimulus energy sweep.
    pub energy: Duration,
}

impl Default for Characterizer {
    fn default() -> Self {
        Characterizer::virtex7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_inventory_matches_datasheet() {
        let d = Device::virtex7_7vx330t();
        assert_eq!(d.luts, 204_000);
        assert_eq!(d.dsp_blocks, 1_120);
        // Table 1: JPEG uses 631 DSPs = 56% of the device.
        let util = d.dsp_utilization(631);
        assert!((util - 0.5634).abs() < 0.001);
    }

    #[test]
    fn dsp_delay_grows_with_usage() {
        let m = CostModel::virtex7();
        let few = m.dsp_mult_delay(10);
        let many = m.dsp_mult_delay(631);
        assert!(many > few, "spanning more columns must cost routing");
        assert!(m.dsp_mult_delay(1) >= m.t_dsp_mult);
    }

    #[test]
    fn fit_check() {
        let m = CostModel::virtex7();
        assert!(m.dsps_fit(1120));
        assert!(!m.dsps_fit(1121));
    }

    #[test]
    fn characterizer_is_deterministic_and_consistent() {
        use crate::{Init, NetlistBuilder};
        let mut b = NetlistBuilder::new("pair");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let (x, _) = b.lut2(Init::XOR2, a[0], c[0]);
        let (y, _) = b.lut2(Init::AND2, a[1], c[1]);
        let (z, _) = b.lut2(Init::XOR2, x, y);
        b.output("y", z);
        let nl = b.finish().unwrap();

        let ch = Characterizer::virtex7();
        let one = ch.characterize(&nl).unwrap();
        let two = ch.characterize(&nl).unwrap();
        assert_eq!(one, two, "same models + seed must reproduce exactly");
        assert_eq!(one.area.luts, 3);
        assert!(one.critical_path_ns > 0.0);
        assert!(
            (one.edp - one.energy_per_op * one.critical_path_ns).abs() < 1e-12,
            "EDP must be the product of its factors"
        );
        assert!(one.to_string().contains("3 LUTs"));
    }

    #[test]
    fn characterizer_matches_piecewise_queries() {
        use crate::area::AreaReport;
        use crate::timing::{analyze, DelayModel};
        use crate::{Init, NetlistBuilder};
        let mut b = NetlistBuilder::new("w");
        let a = b.inputs("a", 2);
        let (o6, _) = b.lut2(Init::AND2, a[0], a[1]);
        b.output("y", o6);
        let nl = b.finish().unwrap();
        let ch = Characterizer::virtex7();
        let cost = ch.characterize(&nl).unwrap();
        assert_eq!(cost.area, AreaReport::of(&nl));
        let timing = analyze(&nl, &DelayModel::virtex7());
        assert_eq!(cost.critical_path_ns, timing.critical_path_ns);
        let (with_timing, report) = ch.characterize_with_timing(&nl).unwrap();
        assert_eq!(with_timing, cost);
        assert_eq!(report.to_string(), timing.to_string());
    }

    #[test]
    fn stimulus_is_drawn_once_per_input_shape() {
        use crate::{Init, NetlistBuilder};
        let pair = |name: &str, init: Init| {
            let mut b = NetlistBuilder::new(name);
            let a = b.inputs("a", 3);
            let c = b.inputs("b", 5);
            let (o6, _) = b.lut2(init, a[2], c[4]);
            b.output("y", o6);
            b.finish().unwrap()
        };
        let (x, y) = (pair("x", Init::XOR2), pair("y", Init::AND2));
        let first = stimulus(&x);
        assert_eq!(
            *first,
            PackedStimulus::uniform(
                &x,
                Characterizer::STIMULUS_LEN,
                Characterizer::STIMULUS_SEED
            )
        );
        assert!(Arc::ptr_eq(&first, &stimulus(&y)), "same shape, one draw");
        assert_eq!(first.steps(), Characterizer::STIMULUS_LEN);
    }

    #[test]
    fn display_formats() {
        let d = Device::virtex7_7vx330t();
        assert!(d.to_string().contains("xc7vx330t"));
        let c = AppCost {
            critical_path_ns: 5.115,
            luts: 2826,
            dsp_blocks: 22,
        };
        assert_eq!(c.to_string(), "5.115 ns, 2826 LUTs, 22 DSPs");
    }
}

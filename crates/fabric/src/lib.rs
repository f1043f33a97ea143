//! # axmul-fabric
//!
//! A bit-accurate model of the Xilinx 7-series-style FPGA fabric used by
//! the DAC'18 paper *"Area-Optimized Low-Latency Approximate Multipliers
//! for FPGA-based Hardware Accelerators"* (Ullah et al.).
//!
//! The crate provides everything needed to *build*, *simulate*, and
//! *characterize* LUT-level arithmetic circuits without an HDL toolchain:
//!
//! * [`Init`] — 64-bit LUT truth tables ("INIT values") with the exact
//!   `LUT6_2` dual-output semantics of the 7-series CLB (`O6`/`O5`).
//! * [`Netlist`] / [`NetlistBuilder`] — a cell/net graph of `LUT6_2` and
//!   `CARRY4` primitives with primary inputs/outputs and constants;
//!   [`Netlist::eval`] and [`Netlist::eval_nets`] are the scalar
//!   one-vector reference every engine is checked against.
//! * [`sim`] — exhaustive operand sweeps over the compiled simulator.
//! * [`compile`] — the compiled bit-sliced simulator: mux-tree LUT
//!   kernels over const-generic multi-word lane blocks, the backend of
//!   every exhaustive sweep in the workspace.
//! * [`timing`] — static timing analysis with a calibrated Virtex-7-like
//!   delay model ([`timing::DelayModel`]).
//! * [`area`] — LUT/carry/slice area accounting.
//! * [`power`] — a toggle-count dynamic-energy proxy for EDP comparisons.
//! * [`cost`] — a device-level resource/cost model (LUT budget, DSP
//!   blocks, routing-pressure penalties) used by the Table 1 case study.
//!
//! ## Quick example: a full adder packed into one `LUT6_2` plus `CARRY4`
//!
//! ```
//! use axmul_fabric::{Init, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("adder4");
//! let a = b.inputs("a", 4);
//! let c = b.inputs("b", 4);
//! // Per bit: O6 = a XOR b (carry propagate), route `a` to DI (generate).
//! let mut props = Vec::new();
//! for i in 0..4 {
//!     let (o6, _) = b.lut2(Init::XOR2, a[i], c[i]);
//!     props.push(o6);
//! }
//! let zero = b.constant(false);
//! let (sums, cout) = b.carry4(zero, props.clone().try_into().unwrap(),
//!                             [a[0], a[1], a[2], a[3]]);
//! for (i, s) in sums.iter().enumerate() {
//!     b.output(&format!("s{i}"), *s);
//! }
//! b.output("cout", cout);
//! let netlist = b.finish()?;
//! // 4-bit ripple add: s = a + b
//! let out = netlist.eval(&[0b0011, 0b0101])?; // a=3, b=5
//! assert_eq!(out[..4], [0, 0, 0, 1]); // 8 = 0b1000
//! # Ok::<(), axmul_fabric::FabricError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod compile;
pub mod cost;
mod error;
pub mod export;
pub mod fault;
mod init;
mod netlist;
pub mod power;
pub mod sim;
pub mod timing;

pub use error::FabricError;
pub use init::Init;
pub use netlist::{BitRef, Cell, CellId, Driver, NetId, Netlist, NetlistBuilder, ProductBlock};

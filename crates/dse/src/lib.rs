//! # axmul-dse
//!
//! Design-space exploration over the recursive approximate-multiplier
//! configurations of the DAC'18 paper.
//!
//! The paper evaluates two *homogeneous* designs per width — all
//! quadrants approximate, summed accurately (`Ca`) or carry-free
//! (`Cc`). But the recursive construction admits a much larger space:
//! each 4×4 sub-block can independently be exact, the paper's
//! approximate kernel, or partial-product-truncated, and every
//! recursion level can pick its own summation. This crate enumerates or
//! searches that space and reports the error-vs-area and error-vs-EDP
//! Pareto fronts.
//!
//! The pipeline:
//!
//! 1. [`Config`] encodes one candidate as a tree with a canonical key.
//! 2. [`CharCache`] memoizes per-sub-block characterization — LUTs,
//!    critical path, energy (via [`axmul_fabric::cost::Characterizer`],
//!    measured on a netlist that is then dropped; the cache holds
//!    numbers, not netlists) and *exact* composed error statistics (value tables combined with
//!    [`axmul_core::behavioral::combine_products`], never independent
//!    PMF convolution — quadrants share operand halves).
//! 3. [`run`] drives a [`Strategy`] over a sharded worker pool and
//!    annotates each evaluated candidate with its Pareto membership.
//! 4. [`to_csv`] / [`text_report`] render the results.
//!
//! ```
//! use axmul_dse::{run, DseOptions, Strategy};
//!
//! let mut opts = DseOptions::exhaustive_8x8();
//! opts.strategy = Strategy::Random { budget: 20, seed: 1 };
//! opts.workers = 2;
//! let result = run(&opts)?;
//! assert!(!result.reports.is_empty());
//! assert!(!result.lut_front().is_empty());
//! # Ok::<(), axmul_fabric::FabricError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod cache;
mod config;
mod report;
mod search;
pub mod store;

pub use bounds::{abs_tree, static_bounds, PruneOptions, StaticPoint};
pub use cache::{BlockChar, CharCache, CharTimeBreakdown, ComposedMultiplier};
pub use config::{Config, Leaf, ParseConfigError, LEAF_BITS};
pub use report::{text_report, to_csv};
pub use search::{
    evaluate, evaluate_on, run, CandidateReport, DseOptions, DseResult, Strategy, WorkerStat,
};
pub use store::{DiskStore, StoreError, StoredChar, STORE_FORMAT_VERSION};

//! # axmul-metrics
//!
//! The error-characterization engine behind the paper's evaluation:
//!
//! * [`ErrorStats`] — the quality metrics of §1.2/Table 5: number of
//!   error occurrences, maximum error magnitude, average (relative)
//!   error, number of maximum-error occurrences — plus the standard
//!   extras (error probability, mean/normalized error distance).
//!   Exhaustive for operand spaces that fit, Monte-Carlo sampled
//!   ([`ErrorStats::sampled`]) for wider ones (16×16 and up).
//! * [`ErrorPmf`] — the distribution of distinct error values
//!   (Fig. 8's "errors in output" histograms).
//! * [`bit_accuracy`] — per-product-bit accuracy probabilities
//!   (Fig. 8's bit-position histograms).
//! * [`pareto`] — non-dominated front extraction for the
//!   error-vs-area and error-vs-latency analyses of Figs. 9–10.
//!
//! ```
//! use axmul_core::behavioral::Ca;
//! use axmul_metrics::ErrorStats;
//!
//! let stats = ErrorStats::exhaustive(&Ca::new(8)?);
//! assert_eq!(stats.max_error, 2312);         // Table 5
//! assert_eq!(stats.max_error_occurrences, 14);
//! assert!((stats.avg_error - 54.1875).abs() < 1e-9);
//! # Ok::<(), axmul_core::WidthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
pub mod pareto;
mod pmf;
mod quality;
mod stats;

pub use bits::{bit_accuracy, bit_accuracy_sampled};
pub use pareto::{pareto_front, DesignPoint};
pub use pmf::ErrorPmf;
pub use quality::{mean_squared_error, psnr};
pub use stats::{ErrorStats, WITNESS_CAP};

//! # axmul-sat — SAT-based formal verification for fabric netlists
//!
//! Every correctness claim in the workspace past 8×8 used to rest on
//! structure or sampling: the lint truth-table engine caps at 16 total
//! input bits, absint's intervals are sound but loose, and netio's
//! import check was a byte fingerprint. This crate supplies *semantic*
//! ground truth at any width:
//!
//! * [`solver`] — a dependency-free, std-only CDCL SAT solver
//!   (two-watched literals, first-UIP learning, VSIDS, phase saving,
//!   Luby restarts, incremental assumptions, conflict budgets). It
//!   never panics on hostile input; budget exhaustion is a typed
//!   `Unknown`, never a wrong answer.
//! * [`encode`] — Tseitin encoding of `fabric::Netlist`: each LUT6_2
//!   table is reduced over its distinct pins and its true support;
//!   parity, two-input AND/OR and majority tables are built through
//!   the [`gates`] builders, and any other table gets cofactor clauses
//!   from a Minato–Morreale ISOP. CARRY4 xor/mux chains have unit
//!   propagation that matches absint's three-valued simulation, and
//!   constants propagate at encode time throughout.
//! * [`gates`] — constant-folding, hash-consed gate builders (and, xor,
//!   an order- and polarity-canonical n-ary xor, mux, a self-dual
//!   majority, adders, a signed difference and its comparators). Because LUT encodings share them, structurally
//!   different logic with the same parity, AND or majority function
//!   collapses onto the same literals.
//! * [`equiv`] — combinational equivalence via miters over shared
//!   input variables, with counterexamples replayed through
//!   `Netlist::eval` for independent confirmation and cube-and-conquer
//!   case-splitting when a budget runs dry.
//! * [`wce`] — exact worst-case-error proofs: side queries
//!   `approx − exact > m` and `approx − exact < −m` on one signed
//!   difference, driven by a CEGAR ascent whose UNSAT answer on each
//!   side *is* the certificate `wce = m`. A quad-composed design
//!   whose product-block provenance verifies is proven over its leaf
//!   error tables instead of a gate-level multiplier miter (the
//!   private `compose` module).
//! * [`oracle`] — an incremental per-netlist constant oracle for
//!   lint's dead-logic pass past the truth-table cap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
pub mod encode;
pub mod equiv;
pub mod gates;
pub mod oracle;
pub mod solver;
pub mod wce;

pub use encode::{encode_netlist, Encoded};
pub use equiv::{
    check_against_exact, check_equiv, Counterexample, EquivOutcome, EquivReport, ProofOptions,
    ProofStats,
};
pub use gates::Sig;
pub use oracle::NetOracle;
pub use solver::{Lit, Model, SolveResult, Solver, SolverStats};
pub use wce::{prove_wce, WceEngine, WceOptions, WceProof};

/// Typed error taxonomy: every failure mode of encoding and proving is
/// a variant, and no public entry point panics on hostile
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatError {
    /// Netlist interfaces don't line up (bus counts/widths).
    Interface(String),
    /// Operand or bus widths outside the supported range.
    Width(String),
    /// The netlist could not be encoded (e.g. a non-topological cell
    /// list from a hand-assembled import).
    Encode(String),
    /// The proof search exhausted its conflict and case-split budgets.
    Budget {
        /// Conflicts spent when the search conceded.
        conflicts: u64,
    },
    /// A counterexample failed to reproduce through `Netlist::eval` —
    /// a soundness self-check that indicates a solver or encoder bug.
    Replay(String),
}

impl std::fmt::Display for SatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatError::Interface(m) => write!(f, "interface mismatch: {m}"),
            SatError::Width(m) => write!(f, "unsupported width: {m}"),
            SatError::Encode(m) => write!(f, "encode error: {m}"),
            SatError::Budget { conflicts } => {
                write!(f, "proof budget exhausted after {conflicts} conflicts")
            }
            SatError::Replay(m) => write!(f, "replay failure: {m}"),
        }
    }
}

impl std::error::Error for SatError {}

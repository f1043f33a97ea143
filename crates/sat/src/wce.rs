//! Exact worst-case-error proofs: `wce = max |approx(a,b) − a·b|`.
//!
//! The netlist and a CNF ripple shift-add exact reference share one
//! set of input variables; `|P − E|` is built as a two's-complement
//! difference plus conditional negation, and a comparator asks
//! `|P − E| > m` for a candidate bound `m`.
//!
//! The search is a CEGAR-style *ascent* rather than a blind binary
//! search: `m` is seeded by simulating deterministic corner/sample
//! inputs (plus any caller hint, e.g. an absint witness) in one
//! bit-parallel pass of the compiled simulator
//! ([`CompiledNetlist::for_each_listed_pair`]), then each SAT answer to
//! `|P − E| > m` is decoded and replayed through the scalar
//! `Netlist::eval` to a concrete error `e > m`, which becomes the new
//! `m` together with its witness. The replay shares no code with the
//! compiled engine, so the soundness self-check stays independent of
//! the seeding. Only the final query — the UNSAT one
//! that *proves* no input errs by more than `m` — pays the full
//! refutation cost, and by then the solver has learned the instance.
//! The result is the exact worst-case error with a witness input that
//! achieves it, both independently confirmed by replay.
//!
//! When the design carries product-block provenance that checks out
//! (see the private `compose` module), the same ascent runs over a CNF
//! with no multiplier in it: per-leaf error tables, weighted by their
//! shifts, plus the carry-drop terms of carry-free levels.
//! [`WceProof::engine`] says which CNF the proof used.

use std::time::Instant;

use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::Netlist;

use crate::compose;
use crate::equiv::{multiplier_interface, solve_with_split, split_order, ProofOptions, ProofStats};
use crate::gates::{self, Sig};
use crate::solver::Solver;
use crate::SatError;

/// Knobs for the worst-case-error proof.
#[derive(Debug, Clone, Copy)]
pub struct WceOptions {
    /// Solver budget/splitting knobs.
    pub proof: ProofOptions,
    /// Random seed-sample count for the initial lower bound. The
    /// samples follow the corner pairs and the hint through the
    /// compiled simulator, 256 pairs to a bit-parallel pass.
    pub samples: u64,
    /// Optional witness hint (e.g. absint's `ErrorBound::witness`):
    /// replayed into the seed bound.
    pub hint: Option<(u64, u64)>,
}

impl Default for WceOptions {
    fn default() -> Self {
        WceOptions {
            proof: ProofOptions::default(),
            samples: 4096,
            hint: None,
        }
    }
}

/// Which CNF a worst-case-error proof searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WceEngine {
    /// The design's product-block claims were verified, and the error
    /// was solved over leaf error tables and carry-drop terms.
    Compositional,
    /// The whole netlist, mitred against a shift-add exact product.
    Netlist,
}

/// Prints `compositional` or `netlist`, as reports show it.
impl std::fmt::Display for WceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WceEngine::Compositional => "compositional",
            WceEngine::Netlist => "netlist",
        })
    }
}

/// A proven exact worst-case error.
#[derive(Debug, Clone)]
pub struct WceProof {
    /// Operand widths.
    pub a_bits: u32,
    /// Operand widths.
    pub b_bits: u32,
    /// The exact worst-case absolute error.
    pub wce: u128,
    /// An input pair achieving it (confirmed by replay).
    pub witness: (u64, u64),
    /// How many SAT models raised the bound past its seed.
    pub ascent_steps: u32,
    /// Search effort (the final UNSAT proof included, and the
    /// cut-point proofs of a compositional proof).
    pub stats: ProofStats,
    /// The CNF the proof searched.
    pub engine: WceEngine,
}

/// Proves the exact worst-case error of a multiplier netlist.
///
/// A design whose product-block provenance verifies is proven
/// compositionally; any other design, or one whose claims fail a
/// check, takes the netlist miter. Both report the same wce.
///
/// # Errors
///
/// [`SatError::Interface`]/[`SatError::Width`] for non-multiplier
/// shapes, [`SatError::Budget`] if the refutation defeats the budget
/// even after case-splitting, [`SatError::Replay`] if a model fails to
/// replay (soundness self-check).
pub fn prove_wce(netlist: &Netlist, opts: &WceOptions) -> Result<WceProof, SatError> {
    let (wa, wb) = multiplier_interface(netlist)?;
    let started = Instant::now();

    let err_at = |a: u64, b: u64| -> Result<u128, SatError> {
        let out = netlist
            .eval(&[a, b])
            .map_err(|e| SatError::Replay(e.to_string()))?;
        let p = out[0] as u128;
        let e = (a as u128) * (b as u128);
        Ok(p.abs_diff(e))
    };

    // Seed the lower bound from deterministic corners, the caller's
    // hint and a splitmix stream, in that order, evaluated bit-parallel
    // by the compiled simulator. The strict `>` keeps the first maximal
    // seed.
    let mask = |w: u32| ((1u128 << w) - 1) as u64;
    let corners = |w: u32| -> Vec<u64> {
        let max = mask(w);
        let mut v = vec![
            0u64,
            1,
            max,
            max >> 1,
            (max >> 1) + 1,
            0x5555_5555_5555_5555u64 & max,
            0xAAAA_AAAA_AAAA_AAAAu64 & max,
            0x3333_3333_3333_3333u64 & max,
            0x7777_7777_7777_7777u64 & max,
            0x6666_6666_6666_6666u64 & max,
        ];
        v.dedup();
        v
    };
    let (corners_a, corners_b) = (corners(wa), corners(wb));
    let corner_pairs = corners_a
        .iter()
        .flat_map(|&a| corners_b.iter().map(move |&b| (a, b)));
    let hint = opts.hint.map(|(a, b)| (a & mask(wa), b & mask(wb)));
    let state = 0x05EE_D5A7_u64 ^ ((wa as u64) << 32) ^ (wb as u64);
    let samples = (0..opts.samples).scan(state, |state, _| {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Some((z & mask(wa), (z >> 32) & mask(wb)))
    });
    let mut m: u128 = 0;
    let mut witness = (0u64, 0u64);
    CompiledNetlist::compile(netlist)
        .for_each_listed_pair(corner_pairs.chain(hint).chain(samples), |a, b, out| {
            let e = u128::from(out[0]).abs_diff(u128::from(a) * u128::from(b));
            if e > m {
                m = e;
                witness = (a, b);
            }
        })
        .map_err(|e| SatError::Replay(e.to_string()))?;

    // Encode |P − E| once; comparators accrete per round.
    let decomposition = compose::decompose(netlist, &opts.proof)?;
    let mut solver = Solver::new();
    let before = solver.stats();
    let (engine, effort, inputs, abs) = match &decomposition {
        Some(d) => {
            let (inputs, abs) = compose::encode_error(&mut solver, netlist, d)?;
            (WceEngine::Compositional, d.effort, inputs, abs)
        }
        None => {
            let enc = crate::encode::encode_netlist(&mut solver, netlist, None)?;
            let exact = gates::exact_product(&mut solver, &enc.inputs[0].1, &enc.inputs[1].1);
            let abs = gates::abs_diff(&mut solver, &enc.outputs[0].1, &exact);
            (WceEngine::Netlist, ProofStats::default(), enc.inputs, abs)
        }
    };
    let splits = split_order(&inputs);

    let mut ascent_steps = 0u32;
    loop {
        let gt = gates::gt_const(&mut solver, &abs, m);
        let model = match gt {
            Sig::Const(false) => None,
            Sig::Const(true) => {
                // |P − E| exceeds m for *every* input — possible only
                // while m is below a structurally-forced error.
                let mut assumps = Vec::new();
                solve_with_split(&mut solver, &mut assumps, &splits, &opts.proof)?
            }
            Sig::Lit(l) => {
                let mut assumps = vec![l];
                solve_with_split(&mut solver, &mut assumps, &splits, &opts.proof)?
            }
        };
        match model {
            None => break,
            Some(model) => {
                let a = gates::decode(&model, &inputs[0].1) as u64;
                let b = gates::decode(&model, &inputs[1].1) as u64;
                let e = err_at(a, b)?;
                if e <= m {
                    return Err(SatError::Replay(format!(
                        "model ({a}, {b}) claims error > {m} but replays to {e}"
                    )));
                }
                m = e;
                witness = (a, b);
                ascent_steps += 1;
            }
        }
    }

    let after = solver.stats();
    Ok(WceProof {
        a_bits: wa,
        b_bits: wb,
        wce: m,
        witness,
        ascent_steps,
        stats: ProofStats {
            solves: after.solves - before.solves + effort.solves,
            conflicts: after.conflicts - before.conflicts + effort.conflicts,
            decisions: after.decisions - before.decisions + effort.decisions,
            propagations: after.propagations - before.propagations + effort.propagations,
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        },
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul_baselines::{
        array_mult_netlist, kulkarni_netlist, pp_truncated_netlist, rehman_netlist,
    };

    /// Exhaustive ground-truth worst-case error.
    fn exhaustive_wce(nl: &Netlist, wa: u32, wb: u32) -> (u128, (u64, u64)) {
        let mut worst = 0u128;
        let mut at = (0, 0);
        for a in 0..(1u64 << wa) {
            for b in 0..(1u64 << wb) {
                let p = nl.eval(&[a, b]).expect("eval")[0] as u128;
                let e = (a as u128 * b as u128).abs_diff(p);
                if e > worst {
                    worst = e;
                    at = (a, b);
                }
            }
        }
        (worst, at)
    }

    #[test]
    fn proven_wce_matches_exhaustive_truth_at_4x4() {
        for nl in [
            kulkarni_netlist(4).expect("width"),
            rehman_netlist(4).expect("width"),
            pp_truncated_netlist(4, 4, 2),
            array_mult_netlist(4, 4),
        ] {
            let (truth, _) = exhaustive_wce(&nl, 4, 4);
            let proof = prove_wce(&nl, &WceOptions::default()).expect("provable");
            assert_eq!(proof.wce, truth, "{}", nl.name());
            // The witness must achieve the proven error.
            let (a, b) = proof.witness;
            let p = nl.eval(&[a, b]).expect("eval")[0] as u128;
            assert_eq!((a as u128 * b as u128).abs_diff(p), proof.wce);
        }
    }

    #[test]
    fn proven_wce_matches_exhaustive_truth_at_8x8() {
        let nl = kulkarni_netlist(8).expect("width");
        let (truth, _) = exhaustive_wce(&nl, 8, 8);
        let proof = prove_wce(&nl, &WceOptions::default()).expect("provable");
        assert_eq!(proof.wce, truth);
        assert!(
            proof.stats.solves >= 1,
            "the UNSAT certificate is mandatory"
        );
    }

    #[test]
    fn exact_multiplier_proves_zero_error() {
        let nl = array_mult_netlist(6, 6);
        let proof = prove_wce(&nl, &WceOptions::default()).expect("provable");
        assert_eq!(proof.wce, 0);
        assert_eq!(proof.ascent_steps, 0);
    }

    #[test]
    fn hint_is_used_and_clamped() {
        let nl = kulkarni_netlist(4).expect("width");
        let (truth, at) = exhaustive_wce(&nl, 4, 4);
        let opts = WceOptions {
            hint: Some((at.0 | 0xF0, at.1)), // out-of-range bits must be masked
            samples: 0,
            ..WceOptions::default()
        };
        let proof = prove_wce(&nl, &opts).expect("provable");
        assert_eq!(proof.wce, truth);
    }
}

//! Combinational equivalence checking via miter construction.
//!
//! Both netlists are encoded into one solver over *shared* input
//! variables; the miter output is the OR of all pairwise output XORs.
//! Structural hashing (see [`crate::gates`]) means two netlists that
//! are gate-for-gate identical collapse to a constant-false miter and
//! are discharged with **zero** solver calls. Otherwise the miter is
//! asserted and solved; a SAT model is decoded back to operand values
//! and *replayed* through `Netlist::eval` — an equivalence verdict of
//! "not equivalent" always carries a concrete, independently confirmed
//! counterexample.
//!
//! When a solve exceeds its conflict budget the checker falls back to
//! recursive case-splitting on primary-input variables (cube-and-
//! conquer under assumptions, MSB-first): learned clauses are shared
//! across all cubes because everything runs in one incremental solver.

use std::time::Instant;

use axmul_fabric::Netlist;

use crate::encode::{encode_netlist, Encoded};
use crate::gates::{self, Sig};
use crate::solver::{Lit, Model, SolveResult, Solver};
use crate::SatError;

/// Knobs for the proof search.
#[derive(Debug, Clone, Copy)]
pub struct ProofOptions {
    /// Conflict budget per solver call; exceeding it triggers
    /// case-splitting rather than giving up.
    pub max_conflicts: u64,
    /// Maximum number of input variables the case-split may fix before
    /// conceding [`SatError::Budget`].
    pub split_depth: u32,
}

impl Default for ProofOptions {
    fn default() -> Self {
        ProofOptions {
            max_conflicts: 4_000_000,
            split_depth: 12,
        }
    }
}

/// Aggregate search effort for one proof.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProofStats {
    /// Solver calls issued (0 for structural discharges).
    pub solves: u64,
    /// Conflicts spent.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Wall-clock milliseconds.
    pub elapsed_ms: f64,
}

/// A concrete distinguishing input, replayed for confirmation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Per input bus: (name, operand value).
    pub inputs: Vec<(String, u64)>,
    /// Left netlist's outputs at those inputs (per bus).
    pub lhs_outputs: Vec<u64>,
    /// Right netlist's outputs at those inputs (per bus).
    pub rhs_outputs: Vec<u64>,
}

/// Verdict of an equivalence check.
#[derive(Debug, Clone)]
pub enum EquivOutcome {
    /// Proven equivalent for every input.
    Equivalent,
    /// Not equivalent; the counterexample replays to a real mismatch.
    NotEquivalent(Counterexample),
}

/// Result of [`check_equiv`] / [`check_against_exact`].
#[derive(Debug, Clone)]
pub struct EquivReport {
    /// The verdict.
    pub outcome: EquivOutcome,
    /// Search effort.
    pub stats: ProofStats,
    /// `true` if the miter folded to a constant and no solving was
    /// needed (structurally identical circuits).
    pub structural: bool,
}

impl EquivReport {
    /// `true` for a proven-equivalent verdict.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        matches!(self.outcome, EquivOutcome::Equivalent)
    }
}

/// Proves or refutes combinational equivalence of two netlists.
///
/// The interfaces must agree: same number of input buses with the same
/// widths (names may differ — imported designs keep their own port
/// names), and same output shape. Buses are matched by position.
///
/// # Errors
///
/// [`SatError::Interface`] on shape mismatch, [`SatError::Budget`] if
/// the search exceeds its budget even after case-splitting,
/// [`SatError::Replay`] if a counterexample fails to reproduce (a
/// soundness self-check that should never fire).
pub fn check_equiv(
    lhs: &Netlist,
    rhs: &Netlist,
    opts: &ProofOptions,
) -> Result<EquivReport, SatError> {
    check_interfaces(lhs, rhs)?;
    let started = Instant::now();
    let mut solver = Solver::new();
    let enc_l = encode_netlist(&mut solver, lhs, None)?;
    let shared: Vec<Vec<Sig>> = enc_l.inputs.iter().map(|(_, v)| v.clone()).collect();
    let enc_r = encode_netlist(&mut solver, rhs, Some(&shared))?;

    let mut miter = Sig::FALSE;
    for (l_bus, r_bus) in enc_l.outputs.iter().zip(&enc_r.outputs) {
        let w = l_bus.1.len().max(r_bus.1.len());
        for i in 0..w {
            let a = l_bus.1.get(i).copied().unwrap_or(Sig::FALSE);
            let b = r_bus.1.get(i).copied().unwrap_or(Sig::FALSE);
            let d = gates::xor(&mut solver, a, b);
            miter = gates::or(&mut solver, miter, d);
        }
    }
    finish_miter(lhs, rhs, &enc_l, miter, solver, opts, started)
}

/// Proves or refutes that a netlist implements the exact unsigned
/// product of its two input buses — the behavioral [`Multiplier`]
/// contract, rendered as a ripple shift-add reference circuit in CNF.
///
/// [`Multiplier`]: https://docs.rs/ (axmul-core trait)
///
/// # Errors
///
/// As [`check_equiv`]; additionally [`SatError::Interface`] if the
/// netlist is not a two-operand single-output multiplier.
pub fn check_against_exact(
    netlist: &Netlist,
    opts: &ProofOptions,
) -> Result<EquivReport, SatError> {
    multiplier_interface(netlist)?;
    let started = Instant::now();
    let mut solver = Solver::new();
    let enc = encode_netlist(&mut solver, netlist, None)?;
    let exact = gates::exact_product(&mut solver, &enc.inputs[0].1, &enc.inputs[1].1);

    let out = &enc.outputs[0].1;
    let w = out.len().max(exact.len());
    let mut miter = Sig::FALSE;
    for i in 0..w {
        let a = out.get(i).copied().unwrap_or(Sig::FALSE);
        let b = exact.get(i).copied().unwrap_or(Sig::FALSE);
        let d = gates::xor(&mut solver, a, b);
        miter = gates::or(&mut solver, miter, d);
    }
    // Replay side: compare against integer multiplication.
    let reference = ExactReference;
    finish_miter_ref(netlist, &reference, &enc, miter, solver, opts, started)
}

fn check_interfaces(lhs: &Netlist, rhs: &Netlist) -> Result<(), SatError> {
    let li = lhs.input_buses();
    let ri = rhs.input_buses();
    if li.len() != ri.len() {
        return Err(SatError::Interface(format!(
            "`{}` has {} input buses, `{}` has {}",
            lhs.name(),
            li.len(),
            rhs.name(),
            ri.len()
        )));
    }
    for (i, ((ln, lb), (rn, rb))) in li.iter().zip(ri).enumerate() {
        if lb.len() != rb.len() {
            return Err(SatError::Interface(format!(
                "input bus {i} width mismatch: `{ln}` is {} bits, `{rn}` is {} bits",
                lb.len(),
                rb.len()
            )));
        }
        if lb.len() > 64 {
            return Err(SatError::Width(format!(
                "input bus `{ln}` is {} bits; buses wider than 64 are unsupported",
                lb.len()
            )));
        }
    }
    if lhs.output_buses().len() != rhs.output_buses().len() {
        return Err(SatError::Interface(format!(
            "`{}` has {} output buses, `{}` has {}",
            lhs.name(),
            lhs.output_buses().len(),
            rhs.name(),
            rhs.output_buses().len()
        )));
    }
    Ok(())
}

pub(crate) fn multiplier_interface(netlist: &Netlist) -> Result<(u32, u32), SatError> {
    let buses = netlist.input_buses();
    if buses.len() != 2 || netlist.output_buses().len() != 1 {
        return Err(SatError::Interface(format!(
            "`{}` is not a two-operand, one-output multiplier ({} in / {} out buses)",
            netlist.name(),
            buses.len(),
            netlist.output_buses().len()
        )));
    }
    let wa = buses[0].1.len() as u32;
    let wb = buses[1].1.len() as u32;
    if wa == 0 || wb == 0 || wa > 32 || wb > 32 {
        return Err(SatError::Width(format!(
            "operand widths {wa}x{wb} outside the supported 1..=32 range"
        )));
    }
    Ok((wa, wb))
}

/// Right-hand side of a miter for replay purposes.
trait ReplayRhs {
    fn eval(&self, inputs: &[u64]) -> Result<Vec<u64>, SatError>;
}

impl ReplayRhs for &Netlist {
    fn eval(&self, inputs: &[u64]) -> Result<Vec<u64>, SatError> {
        Netlist::eval(self, inputs).map_err(|e| SatError::Replay(e.to_string()))
    }
}

struct ExactReference;

impl ReplayRhs for ExactReference {
    fn eval(&self, inputs: &[u64]) -> Result<Vec<u64>, SatError> {
        let p = (inputs[0] as u128) * (inputs[1] as u128);
        Ok(vec![p as u64])
    }
}

fn finish_miter(
    lhs: &Netlist,
    rhs: &Netlist,
    enc_l: &Encoded,
    miter: Sig,
    solver: Solver,
    opts: &ProofOptions,
    started: Instant,
) -> Result<EquivReport, SatError> {
    finish_miter_ref(lhs, &rhs, enc_l, miter, solver, opts, started)
}

fn finish_miter_ref<R: ReplayRhs>(
    lhs: &Netlist,
    rhs: &R,
    enc_l: &Encoded,
    miter: Sig,
    mut solver: Solver,
    opts: &ProofOptions,
    started: Instant,
) -> Result<EquivReport, SatError> {
    let before = solver.stats();
    match miter {
        Sig::Const(false) => {
            return Ok(EquivReport {
                outcome: EquivOutcome::Equivalent,
                stats: ProofStats {
                    elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
                    ..ProofStats::default()
                },
                structural: true,
            });
        }
        Sig::Const(true) => {
            // Outputs differ for every input: any operand pair is a
            // counterexample; use zeros.
            let zeros: Vec<u64> = vec![0; enc_l.inputs.len()];
            let cex = replay(lhs, rhs, enc_l, &zeros)?;
            return Ok(EquivReport {
                outcome: EquivOutcome::NotEquivalent(cex),
                stats: ProofStats {
                    elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
                    ..ProofStats::default()
                },
                structural: true,
            });
        }
        Sig::Lit(l) => {
            solver.add_clause(&[l]);
        }
    }
    let splits = split_order(&enc_l.inputs);
    let mut assumps = Vec::new();
    let outcome = solve_with_split(&mut solver, &mut assumps, &splits, opts)?;
    let after = solver.stats();
    let stats = ProofStats {
        solves: after.solves - before.solves,
        conflicts: after.conflicts - before.conflicts,
        decisions: after.decisions - before.decisions,
        propagations: after.propagations - before.propagations,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    match outcome {
        None => Ok(EquivReport {
            outcome: EquivOutcome::Equivalent,
            stats,
            structural: false,
        }),
        Some(model) => {
            let vals: Vec<u64> = enc_l
                .inputs
                .iter()
                .map(|(_, sigs)| gates::decode(&model, sigs) as u64)
                .collect();
            let cex = replay(lhs, rhs, enc_l, &vals)?;
            Ok(EquivReport {
                outcome: EquivOutcome::NotEquivalent(cex),
                stats,
                structural: false,
            })
        }
    }
}

fn replay<R: ReplayRhs>(
    lhs: &Netlist,
    rhs: &R,
    enc_l: &Encoded,
    vals: &[u64],
) -> Result<Counterexample, SatError> {
    let l_out = lhs
        .eval(vals)
        .map_err(|e| SatError::Replay(e.to_string()))?;
    let r_out = rhs.eval(vals)?;
    let agree = l_out.len() == r_out.len() && l_out == r_out;
    if agree {
        return Err(SatError::Replay(format!(
            "SAT counterexample {vals:?} does not reproduce through Netlist::eval"
        )));
    }
    Ok(Counterexample {
        inputs: enc_l
            .inputs
            .iter()
            .zip(vals)
            .map(|((name, _), &v)| (name.clone(), v))
            .collect(),
        lhs_outputs: l_out,
        rhs_outputs: r_out,
    })
}

/// Input variables in case-split order: MSB-first, alternating buses.
pub(crate) fn split_order(inputs: &[(String, Vec<Sig>)]) -> Vec<Lit> {
    let mut per_bus: Vec<Vec<Lit>> = inputs
        .iter()
        .map(|(_, sigs)| {
            sigs.iter()
                .rev()
                .filter_map(|s| match s {
                    Sig::Lit(l) => Some(*l),
                    Sig::Const(_) => None,
                })
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    let mut any = true;
    while any {
        any = false;
        for bus in &mut per_bus {
            if let Some(l) = bus.first().copied() {
                bus.remove(0);
                out.push(l);
                any = true;
            }
        }
    }
    out
}

/// Budgeted solve with recursive input case-splitting.
///
/// Returns `Some(model)` (SAT), `None` (UNSAT across all cubes), or
/// [`SatError::Budget`] if a cube stayed Unknown with no split budget
/// left. Learned clauses are shared across cubes.
pub(crate) fn solve_with_split(
    solver: &mut Solver,
    assumps: &mut Vec<Lit>,
    splits: &[Lit],
    opts: &ProofOptions,
) -> Result<Option<Model>, SatError> {
    fn rec(
        solver: &mut Solver,
        assumps: &mut Vec<Lit>,
        splits: &[Lit],
        depth_left: u32,
        max_conflicts: u64,
    ) -> Result<Option<Model>, SatError> {
        match solver.solve(assumps, max_conflicts) {
            SolveResult::Sat(m) => Ok(Some(m)),
            SolveResult::Unsat => Ok(None),
            SolveResult::Unknown => {
                let (&x, rest) = splits.split_first().ok_or(SatError::Budget {
                    conflicts: solver.stats().conflicts,
                })?;
                if depth_left == 0 {
                    return Err(SatError::Budget {
                        conflicts: solver.stats().conflicts,
                    });
                }
                for branch in [x, !x] {
                    assumps.push(branch);
                    let r = rec(solver, assumps, rest, depth_left - 1, max_conflicts);
                    assumps.pop();
                    match r {
                        Ok(Some(m)) => return Ok(Some(m)),
                        Ok(None) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(None)
            }
        }
    }
    rec(
        solver,
        assumps,
        splits,
        opts.split_depth,
        opts.max_conflicts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul_baselines::{kulkarni_netlist, rehman_netlist};
    use axmul_fabric::{Init, NetlistBuilder};

    #[test]
    fn identical_netlists_discharge_structurally() {
        let nl = kulkarni_netlist(8).expect("width");
        let report = check_equiv(&nl, &nl, &ProofOptions::default()).expect("checkable");
        assert!(report.is_equivalent());
        assert!(report.structural, "identical netlists need no solving");
        assert_eq!(report.stats.solves, 0);
    }

    #[test]
    fn different_architectures_yield_replayed_counterexample() {
        let k = kulkarni_netlist(4).expect("width");
        let w = rehman_netlist(4).expect("width");
        let report = check_equiv(&k, &w, &ProofOptions::default()).expect("checkable");
        match report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_ne!(cex.lhs_outputs, cex.rhs_outputs);
                // Independently recheck.
                let vals: Vec<u64> = cex.inputs.iter().map(|(_, v)| *v).collect();
                assert_eq!(k.eval(&vals).expect("eval"), cex.lhs_outputs);
                assert_eq!(w.eval(&vals).expect("eval"), cex.rhs_outputs);
            }
            EquivOutcome::Equivalent => panic!("K and W differ at 4x4"),
        }
    }

    #[test]
    fn init_mutation_is_caught_or_proven_dead() {
        // Flip one INIT bit of a 4x4 and expect NotEquivalent with a
        // replaying counterexample (bit 5 of the first LUT is live).
        let nl = kulkarni_netlist(4).expect("width");
        let mut cells = nl.cells().to_vec();
        let mutated = cells.iter_mut().find_map(|c| match c {
            axmul_fabric::Cell::Lut { init, .. } => {
                *init = Init::from_raw(init.raw() ^ (1 << 5));
                Some(())
            }
            axmul_fabric::Cell::Carry4 { .. } => None,
        });
        assert!(mutated.is_some());
        let twisted = Netlist::from_parts(
            format!("{}-mut", nl.name()),
            nl.drivers().to_vec(),
            cells,
            nl.input_buses().to_vec(),
            nl.output_buses().to_vec(),
        );
        let report = check_equiv(&nl, &twisted, &ProofOptions::default()).expect("checkable");
        // Whatever the verdict, it must agree with exhaustive sweep.
        let mut truly_equal = true;
        for a in 0..16u64 {
            for b in 0..16u64 {
                if nl.eval(&[a, b]).expect("eval") != twisted.eval(&[a, b]).expect("eval") {
                    truly_equal = false;
                }
            }
        }
        assert_eq!(report.is_equivalent(), truly_equal);
    }

    #[test]
    fn exact_reference_check_accepts_exact_and_rejects_approx() {
        // A 2x2 exact multiplier out of 4 AND LUTs + adder logic is
        // overkill to build here; use the baselines instead.
        use axmul_baselines::array_mult_netlist;
        let exact = array_mult_netlist(4, 4);
        let r = check_against_exact(&exact, &ProofOptions::default()).expect("checkable");
        assert!(r.is_equivalent(), "array multiplier is exact");

        let approx = kulkarni_netlist(4).expect("width");
        let r = check_against_exact(&approx, &ProofOptions::default()).expect("checkable");
        match r.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                let a = cex.inputs[0].1;
                let b = cex.inputs[1].1;
                assert_ne!(cex.lhs_outputs[0], a * b);
            }
            EquivOutcome::Equivalent => panic!("kulkarni is approximate"),
        }
    }

    #[test]
    fn interface_mismatch_is_a_typed_error() {
        let nl = kulkarni_netlist(4).expect("width");
        let other = kulkarni_netlist(8).expect("width");
        match check_equiv(&nl, &other, &ProofOptions::default()) {
            Err(SatError::Interface(_)) => {}
            other => panic!("expected Interface error, got {other:?}"),
        }
        let mut b = NetlistBuilder::new("three-in");
        let a = b.inputs("a", 1);
        let _ = b.inputs("b", 1);
        let _ = b.inputs("c", 1);
        b.output("y", a[0]);
        let three = b.finish().expect("valid");
        match check_against_exact(&three, &ProofOptions::default()) {
            Err(SatError::Interface(_)) => {}
            other => panic!("expected Interface error, got {other:?}"),
        }
    }
}

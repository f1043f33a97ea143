//! The `repro absint` experiment: the abstract interpreter's headline
//! soundness claim, checked against bit-identical ground truth.
//!
//! Three parts:
//!
//! 1. **8×8 containment** — for every configuration in the (strided in
//!    `--quick` mode) 1250-point design space, the static bracket
//!    `[wce_lb, wce_ub]` must contain the exhaustive worst-case error,
//!    the certificate must replay, and the static witness must achieve
//!    at least `wce_lb` deviation on the real evaluator. The paper's
//!    two named designs must be bounded *exactly*.
//! 2. **Roster containment** — the generic netlist analyzer's output
//!    intervals and deviation bounds must contain observed behavior on
//!    every Fig. 7 roster design (exhaustively at 4/8 bits, on sampled
//!    vectors at 16).
//! 3. **16×16 bound-guided search** — a hill-climb under a worst-case
//!    error budget, reporting how many candidates static pruning
//!    skipped before any exact characterization.
//!
//! `absint_json` renders the same measurements as the
//! `BENCH_absint.json` artifact the CI gate greps for
//! `"sound": true` and a nonzero `"pruned_16x16"`.

use axmul_absint::analyze_netlist;
use axmul_core::Multiplier;
use axmul_dse::{run, static_bounds, CharCache, Config, DseOptions, PruneOptions, Strategy};
use axmul_fabric::cost::Characterizer;
use axmul_metrics::ErrorStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Table;
use crate::roster::fig7_roster;

/// Aggregate verdict of the 8×8 configuration-space sweep.
struct ConfigSweep {
    checked: usize,
    contained: usize,
    certified: usize,
    witness_ok: usize,
    exact_brackets: usize,
    paper_exact: bool,
    max_gap: u128,
}

/// Sweeps the 8×8 configuration space with the given stride (1 = all
/// 1250), comparing static brackets against exhaustive statistics.
fn sweep_configs(stride: usize) -> ConfigSweep {
    let cache = CharCache::new(Characterizer::virtex7());
    let mut configs: Vec<Config> = Config::enumerate(8).into_iter().step_by(stride).collect();
    // The paper's two named designs are always in the sample: they are
    // the points the issue requires the bound to hit exactly.
    for s in [
        axmul_core::behavioral::Summation::Accurate,
        axmul_core::behavioral::Summation::CarryFree,
    ] {
        let p = Config::paper(8, s);
        if !configs.iter().any(|c| c.key() == p.key()) {
            configs.push(p);
        }
    }

    let mut out = ConfigSweep {
        checked: 0,
        contained: 0,
        certified: 0,
        witness_ok: 0,
        exact_brackets: 0,
        paper_exact: true,
        max_gap: 0,
    };
    for cfg in &configs {
        let block = cache.characterize(cfg).expect("8x8 configs simulate");
        let analysis = static_bounds(cfg).expect("8x8 fits the interpreter");
        let wce = block.stats.max_error.unsigned_abs() as u128;
        let (lb, ub) = (analysis.bound.wce_lb, analysis.bound.wce_ub());

        out.checked += 1;
        if lb <= wce && wce <= ub {
            out.contained += 1;
        }
        if analysis.certificate.verify().is_ok() {
            out.certified += 1;
        }
        if lb == ub {
            out.exact_brackets += 1;
        }
        out.max_gap = out.max_gap.max(ub - lb);

        // The static witness must *achieve* the claimed lower bound on
        // the exact evaluator, and the bound must cover every witnessed
        // worst-case pair of the exhaustive sweep.
        let m = block.multiplier();
        let achieves_lb = match analysis.bound.witness {
            Some((wa, wb)) => {
                let dev = (m.multiply(wa, wb) as i128 - (wa as i128) * (wb as i128)).unsigned_abs();
                dev >= lb
            }
            None => lb == 0,
        };
        let covers_exact_witnesses = block.stats.worst_case_inputs.iter().all(|&(wa, wb)| {
            let dev = (m.multiply(wa, wb) as i128 - (wa as i128) * (wb as i128)).unsigned_abs();
            dev == wce && dev <= ub
        });
        if achieves_lb && covers_exact_witnesses {
            out.witness_ok += 1;
        }

        if cfg.key() == Config::paper(8, axmul_core::behavioral::Summation::Accurate).key()
            && !(lb == wce && ub == wce)
        {
            out.paper_exact = false;
        }
    }
    out
}

/// One roster design's generic-netlist containment verdict.
struct RosterRow {
    name: String,
    bits: u32,
    value_hi: u128,
    wce_ub: Option<u128>,
    vectors: u64,
    contained: bool,
}

/// Checks the generic netlist analyzer over the Fig. 7 roster:
/// exhaustive product sweeps at 4 and 8 bits, seeded random vectors at
/// 16 bits (2³² pairs is out of reach for an experiment).
fn sweep_roster(widths: &[u32], samples_16: u64) -> Vec<RosterRow> {
    let mut rows = Vec::new();
    for &bits in widths {
        for entry in fig7_roster(bits) {
            let nl = &entry.netlist;
            let analysis = analyze_netlist(nl);
            let value = analysis.outputs[0].interval;
            let err = analysis.error;
            let mut contained = true;
            let vectors;
            if bits <= 8 {
                let stats = ErrorStats::exhaustive_wide(nl).expect("two-bus roster netlist");
                vectors = stats.samples;
                let wce = stats.max_error.unsigned_abs() as u128;
                contained &= err.as_ref().is_some_and(|e| wce <= e.wce_ub());
            } else {
                vectors = samples_16;
                let mut rng = StdRng::seed_from_u64(0xAB51_u64 ^ u64::from(bits));
                let mask = (1u64 << bits) - 1;
                for _ in 0..samples_16 {
                    let a = rng.random::<u64>() & mask;
                    let b = rng.random::<u64>() & mask;
                    let out = nl.eval(&[a, b]).expect("valid vector")[0];
                    let dev = out as i128 - (a as i128) * (b as i128);
                    contained &= value.contains(out as u128);
                    contained &= err
                        .as_ref()
                        .is_some_and(|e| e.err_lo <= dev && dev <= e.err_hi);
                }
            }
            rows.push(RosterRow {
                name: entry.name.clone(),
                bits,
                value_hi: value.hi,
                wce_ub: err.as_ref().map(axmul_absint::ErrorBound::wce_ub),
                vectors,
                contained,
            });
        }
    }
    rows
}

/// Outcome of the bound-guided 16×16 hill-climb.
struct PrunedSearch {
    evaluated: usize,
    pruned: u64,
    pruned_constraint: u64,
    pruned_dominance: u64,
    best_key: String,
    elapsed_s: f64,
}

/// Runs the 16×16 hill-climb with an error budget of 2²⁰ and dominance
/// pruning on; single worker keeps the walk reproducible.
fn pruned_search(budget: usize, restarts: usize) -> PrunedSearch {
    let mut opts = DseOptions::exhaustive_8x8();
    opts.bits = 16;
    opts.strategy = Strategy::HillClimb {
        budget,
        restarts,
        seed: 0xDAC18,
    };
    opts.workers = 1;
    opts.samples = 4096;
    opts.prune = Some(PruneOptions {
        max_wce: Some(1 << 20),
        dominance: true,
    });
    let result = run(&opts).expect("generated netlists simulate");
    let best = result
        .reports
        .iter()
        .min_by_key(|r| (r.max_error, r.luts))
        .expect("hill-climb evaluated at least the restart starts");
    PrunedSearch {
        evaluated: result.reports.len(),
        pruned: result.pruned(),
        pruned_constraint: result.pruned_constraint,
        pruned_dominance: result.pruned_dominance,
        best_key: best.key.clone(),
        elapsed_s: result.elapsed.as_secs_f64(),
    }
}

struct Measurements {
    sweep: ConfigSweep,
    roster: Vec<RosterRow>,
    search: PrunedSearch,
}

impl Measurements {
    /// The headline verdict: every check on every design passed.
    fn sound(&self) -> bool {
        let s = &self.sweep;
        s.contained == s.checked
            && s.certified == s.checked
            && s.witness_ok == s.checked
            && s.paper_exact
            && self.roster.iter().all(|r| r.contained)
    }
}

fn measure(quick: bool) -> Measurements {
    let (stride, widths, samples_16, budget, restarts) = if quick {
        (25, &[4u32, 8][..], 0, 8, 1)
    } else {
        (1, &[4u32, 8, 16][..], 2048, 24, 2)
    };
    Measurements {
        sweep: sweep_configs(stride),
        roster: sweep_roster(widths, samples_16),
        search: pruned_search(budget, restarts),
    }
}

fn render(m: &Measurements) -> String {
    let s = &m.sweep;
    let mut out = format!(
        "== Static analysis: sound bounds vs exhaustive truth ==\n\
         8x8 configuration space: {} configs checked\n\
         \x20 bracket contains exact WCE : {}/{}\n\
         \x20 certificate replays        : {}/{}\n\
         \x20 witnesses achieve bounds   : {}/{}\n\
         \x20 exact brackets (lb == ub)  : {}  (worst bracket gap {})\n\
         \x20 paper approx-Ca bounded exactly: {}\n\n",
        s.checked,
        s.contained,
        s.checked,
        s.certified,
        s.checked,
        s.witness_ok,
        s.checked,
        s.exact_brackets,
        s.max_gap,
        if s.paper_exact { "yes" } else { "NO" },
    );

    let mut t = Table::new(
        "Generic netlist bounds over the Fig. 7 roster",
        &[
            "design",
            "bits",
            "value hi",
            "static WCE ub",
            "vectors",
            "verdict",
        ],
    );
    for r in &m.roster {
        t.row_owned(vec![
            r.name.clone(),
            r.bits.to_string(),
            r.value_hi.to_string(),
            r.wce_ub.map_or_else(|| "-".to_string(), |u| u.to_string()),
            r.vectors.to_string(),
            if r.contained {
                "contained".to_string()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }
    out.push_str(&t.render());

    let p = &m.search;
    out.push_str(&format!(
        "\n16x16 bound-guided hill-climb (WCE budget 2^20, dominance on):\n\
         \x20 {} candidates pruned statically ({} over budget, {} dominated), \
         {} characterized exactly in {:.2} s\n\
         \x20 best surviving design: {}\n",
        p.pruned, p.pruned_constraint, p.pruned_dominance, p.evaluated, p.elapsed_s, p.best_key,
    ));
    out.push_str(&format!(
        "\nabsint verdict: {}\n",
        if m.sound() { "SOUND" } else { "UNSOUND" }
    ));
    out
}

fn render_json(m: &Measurements, quick: bool) -> String {
    let s = &m.sweep;
    let p = &m.search;
    format!(
        "{{\n  \"bench\": \"absint\",\n  \"mode\": \"{}\",\n\
         \x20 \"configs_checked\": {},\n  \"contained\": {},\n\
         \x20 \"certificates_verified\": {},\n  \"witnesses_ok\": {},\n\
         \x20 \"exact_brackets\": {},\n  \"max_bracket_gap\": {},\n\
         \x20 \"paper_exact\": {},\n\
         \x20 \"roster_designs\": {},\n  \"roster_contained\": {},\n\
         \x20 \"pruned_16x16\": {},\n  \"pruned_constraint\": {},\n\
         \x20 \"pruned_dominance\": {},\n  \"evaluated_16x16\": {},\n\
         \x20 \"sound\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        s.checked,
        s.contained,
        s.certified,
        s.witness_ok,
        s.exact_brackets,
        s.max_gap,
        s.paper_exact,
        m.roster.len(),
        m.roster.iter().filter(|r| r.contained).count(),
        p.pruned,
        p.pruned_constraint,
        p.pruned_dominance,
        p.evaluated,
        m.sound(),
    )
}

/// Full report: all 1250 configurations, the roster at 4/8/16 bits,
/// and a 2×24-step bound-guided 16×16 hill-climb.
#[must_use]
pub fn absint_report() -> String {
    render(&measure(false))
}

/// CI smoke variant: every 25th configuration plus the paper designs,
/// roster at 4/8 bits, a single 8-step 16×16 hill-climb.
#[must_use]
pub fn absint_quick() -> String {
    render(&measure(true))
}

/// The same measurements as a `BENCH_absint.json` payload.
#[must_use]
pub fn absint_json(quick: bool) -> String {
    render_json(&measure(quick), quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_sound_and_prunes() {
        let m = measure(true);
        assert!(m.sound(), "static bounds failed containment");
        assert!(m.sweep.paper_exact);
        assert!(
            m.search.pruned > 0,
            "16x16 hill-climb must hit statically-bad mutants"
        );
        let report = render(&m);
        assert!(report.contains("absint verdict: SOUND"));
        assert!(!report.contains("VIOLATED"));
    }

    #[test]
    fn json_payload_carries_the_gate_fields() {
        let json = absint_json(true);
        assert!(json.contains("\"bench\": \"absint\""));
        assert!(json.contains("\"sound\": true"));
        assert!(!json.contains("\"pruned_16x16\": 0,"));
    }
}

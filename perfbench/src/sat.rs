//! `sat-wce`: one op is one `axmul_sat::prove_wce` on an 8×8 netlist,
//! closed loop with one caller.
//!
//! The proof set is a fixed draw of [`SET_SIZE`] configs; the seed fixes
//! the order they are proven in. Proofs are deterministic, so every
//! whole pass over the set repeats the same solver counters exactly. A
//! timed phase always completes its first pass, then stops at the first
//! proof that would start after its time is up.

use std::time::Instant;

use axmul_dse::{CharCache, Config, Leaf};
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::cost::Characterizer;
use axmul_fabric::Netlist;
use axmul_sat::{encode_netlist, prove_wce, Solver, WceOptions, WceProof};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dse::shuffle;
use crate::report::{median, Outcome};
use crate::trace::Tracer;

/// Proofs per pass.
const SET_SIZE: usize = 12;
/// Seed of the draw that picks the proof set; fixed, so every run
/// proves the same configs.
const DRAW_SEED: u64 = 0x5A7_3CE;
/// Latency limit of one proof (ms).
const SLO_MS: f64 = 2000.0;

/// One proof of the set, with its reference answer.
struct Proof {
    key: String,
    netlist: Netlist,
    /// Exhaustive max |error| of the `CharCache` sweep and of the
    /// netlist's compiled simulation (set-up checks they agree).
    max_error: u128,
}

/// Solver counters of one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PassCounters {
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    solves: u64,
    ascent_steps: u64,
}

pub struct SatBench {
    set: Vec<Proof>,
}

/// The candidate pool: 8×8 configs with no exact leaf (exact miters
/// exhaust the solver budget) whose most significant quadrant is the
/// approximate kernel or 3-bit truncation. A 1- or 2-bit-truncated top
/// quadrant makes the final refutation take 1.4–15 s.
fn pool() -> Vec<Config> {
    Config::enumerate(8)
        .into_iter()
        .filter(|cfg| match cfg {
            Config::Quad { sub, .. } => {
                sub.iter().all(|s| !matches!(s, Config::Leaf(Leaf::Exact)))
                    && matches!(
                        sub[3],
                        Config::Leaf(Leaf::Approx) | Config::Leaf(Leaf::Truncated(3))
                    )
            }
            Config::Leaf(_) => false,
        })
        .collect()
}

impl SatBench {
    /// Draws the proof set, orders it by `seed`, assembles the netlists,
    /// runs the reference sweeps (the `CharCache` characterization and an
    /// exhaustive compiled simulation of the netlist itself, which must
    /// agree) and proves the set once.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut pool = pool();
        shuffle(&mut pool, &mut StdRng::seed_from_u64(DRAW_SEED));
        let mut chosen: Vec<Config> = pool.into_iter().take(SET_SIZE).collect();
        shuffle(&mut chosen, &mut StdRng::seed_from_u64(seed));
        let cache = CharCache::new(Characterizer::virtex7());
        let set = chosen
            .iter()
            .map(|cfg| {
                let c = cache
                    .characterize(cfg)
                    .map_err(|e| format!("sweep {}: {e}", cfg.key()))?;
                let netlist = cfg.assemble();
                let max_error = u128::from(c.stats.max_error.unsigned_abs());
                let mut swept = 0u128;
                CompiledNetlist::compile(&netlist)
                    .for_each_operand_pair_in(0..1 << 16, |a, b, out| {
                        swept = swept.max(u128::from(out[0]).abs_diff(u128::from(a * b)));
                    })
                    .map_err(|e| format!("simulate {}: {e}", cfg.key()))?;
                if swept != max_error {
                    return Err(format!(
                        "{}: simulated max error {swept} but CharCache reports {max_error}",
                        cfg.key()
                    ));
                }
                Ok(Proof {
                    key: cfg.key(),
                    netlist,
                    max_error,
                })
            })
            .collect::<Result<Vec<Proof>, String>>()?;
        // One untimed pass, as the DSE workloads run one untimed
        // exploration: it warms the process and checks every proof
        // before timing starts.
        for p in &set {
            let proof = prove_wce(&p.netlist, &WceOptions::default())
                .map_err(|e| format!("warm-up {}: {e}", p.key))?;
            if let Some(why) = check(p, &proof) {
                return Err(format!("warm-up {}: {why}", p.key));
            }
        }
        Ok(SatBench { set })
    }

    pub fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let mut out = Outcome {
            slo_ms: SLO_MS,
            ..Outcome::default()
        };
        let mut passes: Vec<(PassCounters, f64)> = Vec::new();
        let started = Instant::now();
        'timed: loop {
            let mut counters = PassCounters::default();
            let mut proof_ms = 0.0;
            for (index, p) in self.set.iter().enumerate() {
                if !passes.is_empty() && started.elapsed().as_secs_f64() >= seconds {
                    break 'timed;
                }
                let op = out.attempted;
                out.attempted += 1;
                let t0 = Instant::now();
                let proved = prove_wce(&p.netlist, &WceOptions::default());
                let t1 = Instant::now();
                if let Some(tracer) = tracer {
                    tracer.record("sat.prove_wce", None, op, t0, t1);
                }
                let proof = match proved {
                    Ok(proof) => proof,
                    Err(e) => {
                        eprintln!("op {op}: {}: {e}", p.key);
                        out.failed += 1;
                        continue;
                    }
                };
                if let Some(why) = check(p, &proof) {
                    eprintln!("op {op}: {}: {why}", p.key);
                    out.failed += 1;
                    continue;
                }
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                out.record(index, ms);
                proof_ms += ms;
                counters.conflicts += proof.stats.conflicts;
                counters.decisions += proof.stats.decisions;
                counters.propagations += proof.stats.propagations;
                counters.solves += proof.stats.solves;
                counters.ascent_steps += u64::from(proof.ascent_steps);
            }
            passes.push((counters, proof_ms));
        }
        out.elapsed_s = started.elapsed().as_secs_f64();
        // The solver is deterministic: every pass must repeat the first
        // pass's counters exactly.
        if passes.iter().any(|(c, _)| *c != passes[0].0) {
            eprintln!("solver counters differ between passes: {passes:?}");
            out.failed += 1;
        }
        if let Some(tracer) = tracer {
            let (c, _) = passes[0];
            let pass_ms = median(&passes.iter().map(|(_, ms)| *ms).collect::<Vec<_>>());
            let (encode_ms, seed_eval_ms) = self.probe(tracer)?;
            let search_ms = pass_ms - encode_ms - seed_eval_ms;
            out.layers.extend([
                ("sat.encode_ms", encode_ms),
                ("sat.seed_eval_ms", seed_eval_ms),
                ("sat.search_ms", search_ms),
                (
                    "sat.propagations_per_s",
                    c.propagations as f64 / (search_ms / 1e3),
                ),
                ("sat.conflicts", c.conflicts as f64),
                ("sat.decisions", c.decisions as f64),
                ("sat.propagations", c.propagations as f64),
                ("sat.solves", c.solves as f64),
                ("sat.ascent_steps", c.ascent_steps as f64),
            ]);
        }
        Ok(out)
    }

    /// Per pass, the time of `encode_netlist` and of the seed
    /// evaluations each proof starts with (corner pairs plus the 4096
    /// sampled pairs of `WceOptions::default`, through `Netlist::eval`).
    fn probe(&self, tracer: &Tracer) -> Result<(f64, f64), String> {
        let op = u64::MAX;
        let mut encode_ms = 0.0;
        let mut seed_ms = 0.0;
        for p in &self.set {
            let t = Instant::now();
            let mut solver = Solver::new();
            encode_netlist(&mut solver, &p.netlist, None)
                .map_err(|e| format!("encode {}: {e}", p.key))?;
            std::hint::black_box(&solver);
            let t1 = Instant::now();
            tracer.record("sat.encode_netlist", None, op, t, t1);
            encode_ms += (t1 - t).as_secs_f64() * 1e3;
            let t = Instant::now();
            for (a, b) in seed_inputs(WceOptions::default().samples) {
                std::hint::black_box(
                    p.netlist
                        .eval(&[a, b])
                        .map_err(|e| format!("eval {}: {e}", p.key))?,
                );
            }
            let t1 = Instant::now();
            tracer.record("fabric.netlist_eval", None, op, t, t1);
            seed_ms += (t1 - t).as_secs_f64() * 1e3;
        }
        Ok((encode_ms, seed_ms))
    }
}

/// Why `proof` is wrong, if it is: the proven wce must equal the
/// exhaustive sweep's, and the witness must replay to exactly that
/// error through `Netlist::eval`.
fn check(p: &Proof, proof: &WceProof) -> Option<String> {
    if proof.wce != p.max_error {
        return Some(format!(
            "proved wce {} but the sweep found {}",
            proof.wce, p.max_error
        ));
    }
    let (a, b) = proof.witness;
    let out = match p.netlist.eval(&[a, b]) {
        Ok(out) => out,
        Err(e) => return Some(format!("witness replay failed: {e}")),
    };
    let err = u128::from(out[0]).abs_diff(u128::from(a) * u128::from(b));
    (err != proof.wce).then(|| {
        format!(
            "witness ({a}, {b}) replays to error {err}, not {}",
            proof.wce
        )
    })
}

/// The 8×8 seed inputs `prove_wce` evaluates before solving: the
/// corner operand grid and a splitmix stream of `samples` pairs.
fn seed_inputs(samples: u64) -> Vec<(u64, u64)> {
    let corners = [0u64, 1, 255, 127, 128, 0x55, 0xAA, 0x33, 0x77, 0x66];
    let mut pairs: Vec<(u64, u64)> = corners
        .iter()
        .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
        .collect();
    let mut state = 0x05EE_D5A7_u64 ^ (8 << 32) ^ 8;
    for _ in 0..samples {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        pairs.push((z & 0xFF, (z >> 32) & 0xFF));
    }
    pairs
}

//! Search strategies and the sharded worker pool.
//!
//! Candidates are generated by a pluggable [`Strategy`] — exhaustive
//! enumeration for the 1250-point 8×8 space, seeded random sampling or
//! multi-restart hill-climbing for the doubly-exponential 16×16 space —
//! and evaluated on `N` OS threads (`std::thread::scope`) that share
//! one [`CharCache`]. Leaf and sub-block characterizations perform the
//! heavy lifting exactly once; each worker then assembles candidates
//! mostly from cache hits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use axmul_fabric::cost::Characterizer;
use axmul_fabric::FabricError;
use axmul_metrics::{pareto_front, DesignPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bounds::{static_bounds, PruneOptions, StaticPoint};
use crate::cache::{BlockChar, CharCache, CharTimeBreakdown};
use crate::config::Config;
use crate::store::DiskStore;

/// How candidates are generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate the whole space ([`Config::enumerate`]; widths ≤ 8).
    Exhaustive,
    /// `budget` uniform-random candidates from a seeded stream
    /// (deduplicated, so fewer unique evaluations may result).
    Random {
        /// Number of draws.
        budget: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Multi-restart stochastic hill-climb: each restart draws a random
    /// start and a random error-vs-area scalarization weight, then
    /// performs `budget` mutate-accept steps. All evaluated candidates
    /// (accepted or not) enter the result set, so the Pareto front is
    /// built from the entire search trace.
    HillClimb {
        /// Mutation steps per restart.
        budget: usize,
        /// Independent restarts (distributed over the workers).
        restarts: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Options of one exploration run.
#[derive(Debug, Clone)]
pub struct DseOptions {
    /// Operand width of the explored configurations (8 or 16).
    pub bits: u32,
    /// Candidate generation strategy.
    pub strategy: Strategy,
    /// Worker threads.
    pub workers: usize,
    /// Netlist characterization models.
    pub characterizer: Characterizer,
    /// Sampled operand pairs for error stats of widths > 8 bits.
    pub samples: u64,
    /// Seed of the sampling stream.
    pub sample_seed: u64,
    /// Optional persistent characterization store: warm starts restore
    /// sub-block characterizations from disk instead of recomputing
    /// them, and fresh characterizations are persisted for later runs.
    pub store: Option<Arc<DiskStore>>,
    /// Bound-guided pruning: candidates the abstract interpreter
    /// proves uninteresting are skipped before the (expensive) exact
    /// characterization. Applies to the `Random` and `HillClimb`
    /// strategies; `Exhaustive` always evaluates the whole space (its
    /// point is ground truth).
    pub prune: Option<PruneOptions>,
}

impl DseOptions {
    /// Exhaustive 8×8 exploration on all available cores.
    #[must_use]
    pub fn exhaustive_8x8() -> Self {
        DseOptions {
            bits: 8,
            strategy: Strategy::Exhaustive,
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            characterizer: Characterizer::virtex7(),
            samples: 100_000,
            sample_seed: 0x5EED,
            store: None,
            prune: None,
        }
    }
}

impl DseOptions {
    /// Builds the characterization cache these options describe.
    fn cache(&self) -> CharCache {
        let mut cache = CharCache::new(self.characterizer.clone())
            .with_sampling(self.samples, self.sample_seed);
        if let Some(store) = &self.store {
            cache = cache.with_store(Arc::clone(store));
        }
        cache
    }
}

/// One evaluated candidate, flattened for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// Canonical configuration key.
    pub key: String,
    /// Operand width.
    pub bits: u32,
    /// LUT count of the assembled netlist.
    pub luts: usize,
    /// Critical-path delay in ns.
    pub critical_path_ns: f64,
    /// Average switching energy per operation.
    pub energy_per_op: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Mean error magnitude (MED).
    pub avg_error: f64,
    /// Average relative error (the paper's Table 5 metric).
    pub avg_relative_error: f64,
    /// Largest error magnitude.
    pub max_error: i64,
    /// Fraction of erroneous operand pairs.
    pub error_probability: f64,
    /// On the error-vs-LUT Pareto front?
    pub on_lut_front: bool,
    /// On the error-vs-EDP Pareto front?
    pub on_edp_front: bool,
}

/// Per-worker accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index.
    pub id: usize,
    /// Candidates evaluated by this worker.
    pub evaluated: usize,
    /// Wall time this worker spent evaluating.
    pub elapsed: Duration,
}

impl WorkerStat {
    /// Candidates per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.evaluated as f64 / secs
        } else {
            0.0
        }
    }
}

/// Result of one exploration run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Every evaluated candidate (deduplicated by key), annotated with
    /// its Pareto membership.
    pub reports: Vec<CandidateReport>,
    /// Characterization-cache hits.
    pub cache_hits: u64,
    /// Characterization-cache misses.
    pub cache_misses: u64,
    /// Misses restored from the persistent store (0 without a store).
    pub cache_disk_hits: u64,
    /// Characterizations actually computed.
    pub cache_builds: u64,
    /// Candidates skipped because their static worst-case-error lower
    /// bound exceeded the pruning budget (0 without pruning).
    pub pruned_constraint: u64,
    /// Candidates skipped as provably dominated on the (LUT,
    /// worst-case-error) plane (0 without pruning).
    pub pruned_dominance: u64,
    /// Per-worker accounting.
    pub workers: Vec<WorkerStat>,
    /// Total wall time.
    pub elapsed: Duration,
    /// Wall-clock split of the characterizations actually built during
    /// this run (error sweeps vs energy measurements vs STA); zero on a
    /// fully warm cache.
    pub char_time: CharTimeBreakdown,
}

impl DseResult {
    /// `hits / (hits + misses)` of the characterization cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Candidates on the error-vs-LUT front, cheapest first.
    #[must_use]
    pub fn lut_front(&self) -> Vec<&CandidateReport> {
        let mut front: Vec<&CandidateReport> =
            self.reports.iter().filter(|r| r.on_lut_front).collect();
        front.sort_by(|a, b| a.luts.cmp(&b.luts).then(a.key.cmp(&b.key)));
        front
    }

    /// Candidates on the error-vs-EDP front, lowest EDP first.
    #[must_use]
    pub fn edp_front(&self) -> Vec<&CandidateReport> {
        let mut front: Vec<&CandidateReport> =
            self.reports.iter().filter(|r| r.on_edp_front).collect();
        front.sort_by(|a, b| a.edp.total_cmp(&b.edp).then(a.key.cmp(&b.key)));
        front
    }

    /// Looks up a candidate by canonical key.
    #[must_use]
    pub fn find(&self, key: &str) -> Option<&CandidateReport> {
        self.reports.iter().find(|r| r.key == key)
    }

    /// Total candidates skipped by bound-guided pruning.
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.pruned_constraint + self.pruned_dominance
    }
}

/// Shared pruning state: the knobs, the archive of screened points the
/// dominance predicate compares against, and the skip counters.
/// Thread-safe so hill-climb workers share one archive.
struct PruneState {
    opts: PruneOptions,
    archive: Mutex<Vec<StaticPoint>>,
    constraint: AtomicU64,
    dominance: AtomicU64,
}

impl PruneState {
    fn new(opts: PruneOptions) -> Self {
        PruneState {
            opts,
            archive: Mutex::new(Vec::new()),
            constraint: AtomicU64::new(0),
            dominance: AtomicU64::new(0),
        }
    }

    /// Decides a candidate's fate from sound static bounds alone.
    /// `true` means "skip the exact evaluation"; a surviving candidate
    /// joins the dominance archive. Configurations the interpreter
    /// cannot bound (wider than its arithmetic headroom) are never
    /// pruned.
    fn should_prune(&self, cfg: &Config) -> bool {
        if self.opts.max_wce.is_none() && !self.opts.dominance {
            return false;
        }
        let Ok(analysis) = static_bounds(cfg) else {
            return false;
        };
        if let Some(budget) = self.opts.max_wce {
            if analysis.bound.wce_lb > budget {
                self.constraint.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        if self.opts.dominance {
            let point = StaticPoint {
                key: analysis.key.clone(),
                luts: cfg.assemble().lut_count(),
                wce_lb: analysis.bound.wce_lb,
                wce_ub: analysis.bound.wce_ub(),
            };
            let mut archive = self.archive.lock().unwrap_or_else(PoisonError::into_inner);
            if archive
                .iter()
                .any(|p| p.provably_dominates(point.luts, point.wce_lb))
            {
                self.dominance.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            archive.push(point);
        }
        false
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.constraint.load(Ordering::Relaxed),
            self.dominance.load(Ordering::Relaxed),
        )
    }
}

/// Runs one design-space exploration.
///
/// # Errors
///
/// Propagates netlist simulation errors from characterization.
///
/// # Panics
///
/// Panics if `opts.workers == 0`, or on `Strategy::Exhaustive` beyond
/// 8 bits.
pub fn run(opts: &DseOptions) -> Result<DseResult, FabricError> {
    match &opts.strategy {
        Strategy::Exhaustive => evaluate(opts, &Config::enumerate(opts.bits)),
        Strategy::Random { budget, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut candidates = Vec::with_capacity(*budget);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..*budget {
                let cfg = Config::random(opts.bits, &mut rng);
                if seen.insert(cfg.key()) {
                    candidates.push(cfg);
                }
            }
            let Some(prune_opts) = opts.prune else {
                return evaluate(opts, &candidates);
            };
            assert!(opts.workers > 0, "need at least one worker");
            let started = Instant::now();
            // Screen the whole draw through the static bounds first —
            // the interpreter is orders of magnitude cheaper than one
            // exact characterization, so this stage is not sharded.
            let prune = PruneState::new(prune_opts);
            let survivors: Vec<Config> = candidates
                .into_iter()
                .filter(|cfg| !prune.should_prune(cfg))
                .collect();
            let cache = opts.cache();
            let (reports, workers) = evaluate_sharded(&cache, &survivors, opts.workers)?;
            Ok(finish(reports, workers, &cache, started, prune.counts()))
        }
        Strategy::HillClimb {
            budget,
            restarts,
            seed,
        } => {
            assert!(opts.workers > 0, "need at least one worker");
            let started = Instant::now();
            let cache = opts.cache();
            let prune = opts.prune.map(PruneState::new);
            let (reports, workers) =
                hill_climb(&cache, opts, *budget, *restarts, *seed, prune.as_ref())?;
            let pruned = prune.as_ref().map_or((0, 0), PruneState::counts);
            Ok(finish(reports, workers, &cache, started, pruned))
        }
    }
}

/// Evaluates an explicit candidate list on the worker pool — the
/// building block of [`run`], exposed for benchmarks and tests that
/// need hand-picked candidate sets.
///
/// # Errors
///
/// Propagates netlist simulation errors from characterization.
///
/// # Panics
///
/// Panics if `opts.workers == 0`.
pub fn evaluate(opts: &DseOptions, candidates: &[Config]) -> Result<DseResult, FabricError> {
    assert!(opts.workers > 0, "need at least one worker");
    let cache = opts.cache();
    evaluate_on(&cache, candidates, opts.workers)
}

/// Evaluates candidates on a caller-owned cache — the entry point for
/// long-lived services that keep one warm [`CharCache`] across many
/// queries instead of rebuilding it per call.
///
/// # Errors
///
/// Propagates netlist simulation errors from characterization.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn evaluate_on(
    cache: &CharCache,
    candidates: &[Config],
    workers: usize,
) -> Result<DseResult, FabricError> {
    assert!(workers > 0, "need at least one worker");
    let started = Instant::now();
    let (reports, worker_stats) = evaluate_sharded(cache, candidates, workers)?;
    Ok(finish(reports, worker_stats, cache, started, (0, 0)))
}

/// Deduplicates by key (hill-climb trajectories revisit points) and
/// annotates Pareto membership on both cost axes.
fn finish(
    mut reports: Vec<CandidateReport>,
    workers: Vec<WorkerStat>,
    cache: &CharCache,
    started: Instant,
    pruned: (u64, u64),
) -> DseResult {
    reports.sort_by(|a, b| a.key.cmp(&b.key));
    reports.dedup_by(|a, b| a.key == b.key);
    let lut_pts: Vec<DesignPoint> = reports
        .iter()
        .map(|r| DesignPoint::new(r.key.clone(), r.avg_relative_error, r.luts as f64))
        .collect();
    let edp_pts: Vec<DesignPoint> = reports
        .iter()
        .map(|r| DesignPoint::new(r.key.clone(), r.avg_relative_error, r.edp))
        .collect();
    for ((r, on_lut), on_edp) in reports
        .iter_mut()
        .zip(pareto_front(&lut_pts))
        .zip(pareto_front(&edp_pts))
    {
        r.on_lut_front = on_lut;
        r.on_edp_front = on_edp;
    }
    DseResult {
        reports,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_disk_hits: cache.disk_hits(),
        cache_builds: cache.builds(),
        pruned_constraint: pruned.0,
        pruned_dominance: pruned.1,
        workers,
        elapsed: started.elapsed(),
        char_time: cache.time_breakdown(),
    }
}

fn report(c: &BlockChar) -> CandidateReport {
    CandidateReport {
        key: c.key.clone(),
        bits: c.bits,
        luts: c.cost.area.luts,
        critical_path_ns: c.cost.critical_path_ns,
        energy_per_op: c.cost.energy_per_op,
        edp: c.cost.edp,
        avg_error: c.stats.avg_error,
        avg_relative_error: c.stats.avg_relative_error,
        max_error: c.stats.max_error,
        error_probability: c.stats.error_probability,
        on_lut_front: false,
        on_edp_front: false,
    }
}

fn evaluate_one(cache: &CharCache, cfg: &Config) -> Result<CandidateReport, FabricError> {
    cache.characterize(cfg).map(|c| report(&c))
}

/// Splits `candidates` into sibling groups ([`Config::sibling_group`];
/// any other configuration is a group of one), in order of first
/// appearance, and deals whole groups over `workers` scoped threads:
/// each group goes to the worker with the fewest candidates so far.
/// A worker characterizes one group at a time
/// ([`CharCache::characterize_group`]).
fn evaluate_sharded(
    cache: &CharCache,
    candidates: &[Config],
    workers: usize,
) -> Result<(Vec<CandidateReport>, Vec<WorkerStat>), FabricError> {
    let mut groups: Vec<Vec<Config>> = Vec::new();
    let mut group_of = HashMap::new();
    for cfg in candidates {
        match cfg.sibling_group() {
            Some(sibling) => {
                let g = *group_of.entry(sibling).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(cfg.clone());
            }
            None => groups.push(vec![cfg.clone()]),
        }
    }
    let workers = workers.min(groups.len()).max(1);
    let mut shards: Vec<Vec<Vec<Config>>> = vec![Vec::new(); workers];
    let mut dealt = vec![0usize; workers];
    for group in groups {
        let w = (0..workers).min_by_key(|&w| dealt[w]).unwrap_or(0);
        dealt[w] += group.len();
        shards[w].push(group);
    }
    let failure: Mutex<Option<FabricError>> = Mutex::new(None);
    let mut results: Vec<(Vec<CandidateReport>, WorkerStat)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(w, shard)| {
                let failure = &failure;
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut out = Vec::new();
                    for group in shard {
                        match cache.characterize_group(group) {
                            Ok(records) => out.extend(records.iter().map(|c| report(c))),
                            Err(e) => {
                                *failure.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                                break;
                            }
                        }
                    }
                    let stat = WorkerStat {
                        id: w,
                        evaluated: out.len(),
                        elapsed: t0.elapsed(),
                    };
                    (out, stat)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    });
    if let Some(e) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let mut reports = Vec::new();
    let mut stats = Vec::new();
    for (out, stat) in results {
        reports.extend(out);
        stats.push(stat);
    }
    Ok((reports, stats))
}

/// Multi-restart hill-climb; restarts are distributed round-robin over
/// the workers, each with its own deterministic RNG stream.
fn hill_climb(
    cache: &CharCache,
    opts: &DseOptions,
    budget: usize,
    restarts: usize,
    seed: u64,
    prune: Option<&PruneState>,
) -> Result<(Vec<CandidateReport>, Vec<WorkerStat>), FabricError> {
    let workers = opts.workers.min(restarts).max(1);
    let bits = opts.bits;
    let failure: Mutex<Option<FabricError>> = Mutex::new(None);
    let mut results: Vec<(Vec<CandidateReport>, WorkerStat)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let failure = &failure;
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut out = Vec::new();
                    'restarts: for r in (w..restarts).step_by(workers) {
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        // Random scalarization: how much this restart
                        // values accuracy over area.
                        let lambda = f64::from(rng.random_range(5..=95u32)) / 100.0;
                        let score = |c: &CandidateReport| {
                            // Normalize roughly: relative error is ~1e-2
                            // at the inaccurate end; LUTs ~60 (8-bit) or
                            // ~250 (16-bit).
                            let area_ref = if c.bits <= 8 { 60.0 } else { 250.0 };
                            lambda * c.avg_relative_error * 100.0
                                + (1.0 - lambda) * c.luts as f64 / area_ref
                        };
                        let mut current = Config::random(bits, &mut rng);
                        let mut best = match evaluate_one(cache, &current) {
                            Ok(rep) => rep,
                            Err(e) => {
                                *failure.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                                break 'restarts;
                            }
                        };
                        out.push(best.clone());
                        for _ in 0..budget {
                            let next = current.mutate(&mut rng);
                            // Bound-guided pruning: a mutant the static
                            // bounds prove uninteresting burns a step
                            // but no exact characterization.
                            if prune.is_some_and(|p| p.should_prune(&next)) {
                                continue;
                            }
                            match evaluate_one(cache, &next) {
                                Ok(rep) => {
                                    let better = score(&rep) < score(&best);
                                    out.push(rep.clone());
                                    if better {
                                        current = next;
                                        best = rep;
                                    }
                                }
                                Err(e) => {
                                    *failure.lock().unwrap_or_else(PoisonError::into_inner) =
                                        Some(e);
                                    break 'restarts;
                                }
                            }
                        }
                    }
                    let stat = WorkerStat {
                        id: w,
                        evaluated: out.len(),
                        elapsed: t0.elapsed(),
                    };
                    (out, stat)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    });
    if let Some(e) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let mut reports = Vec::new();
    let mut stats = Vec::new();
    for (out, stat) in results {
        reports.extend(out);
        stats.push(stat);
    }
    Ok((reports, stats))
}

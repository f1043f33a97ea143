//! `dse-8x8-cold` and `dse-8x8-warm`: one op is one exhaustive 8×8
//! exploration (`axmul_dse::evaluate` over all 1250 configs) in a
//! seed-shuffled order, closed loop with one caller.
//!
//! Cold builds every sub-block into a fresh `CharCache`; warm restores
//! every sub-block from a `DiskStore` that set-up filled, through a
//! fresh cache and a fresh store handle per op.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use axmul_dse::{evaluate, CandidateReport, Config, DiskStore, DseOptions, DseResult};
use axmul_metrics::{pareto_front, DesignPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, Outcome};
use crate::trace::Tracer;

/// Latency limit of one cold exploration (ms).
const COLD_SLO_MS: f64 = 1500.0;
/// Latency limit of one warm exploration (ms).
const WARM_SLO_MS: f64 = 3000.0;

/// Exploration worker threads: two, or fewer on a smaller machine.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

pub struct DseBench {
    /// All 1250 configs in seed order.
    configs: Vec<Config>,
    /// Every distinct key the exploration characterizes (configs and
    /// their sub-blocks), sorted.
    distinct: Vec<Config>,
    /// Store that set-up filled (warm only).
    store_dir: Option<PathBuf>,
    /// Reports of the set-up exploration every op must reproduce.
    reference: Vec<CandidateReport>,
}

impl DseBench {
    /// Generates the seed order and runs one untimed exploration. Warm
    /// set-up first fills a store, then restores from it once.
    pub fn setup(seed: u64, warm: bool, dir: &Path) -> Result<Self, String> {
        let mut configs = Config::enumerate(8);
        shuffle(&mut configs, &mut StdRng::seed_from_u64(seed));
        let mut distinct = BTreeMap::new();
        for cfg in &configs {
            if let Config::Quad { sub, .. } = cfg {
                for s in sub.iter() {
                    distinct.insert(s.key(), s.clone());
                }
            }
            distinct.insert(cfg.key(), cfg.clone());
        }
        let mut bench = DseBench {
            configs,
            distinct: distinct.into_values().collect(),
            store_dir: warm.then(|| dir.to_path_buf()),
            reference: Vec::new(),
        };
        let (first, _) = bench.explore()?;
        bench.reference = first.reports;
        if bench.reference.len() != bench.configs.len() {
            return Err(format!(
                "set-up exploration reported {} of {} configs",
                bench.reference.len(),
                bench.configs.len()
            ));
        }
        if warm {
            let (restored, _) = bench.explore()?;
            if let Some(why) = bench.check(&restored) {
                return Err(format!("set-up restore: {why}"));
            }
        }
        Ok(bench)
    }

    /// One exploration on a fresh cache (and, warm, a fresh store
    /// handle over the filled store).
    fn explore(&self) -> Result<(DseResult, Option<Arc<DiskStore>>), String> {
        let store = match &self.store_dir {
            Some(dir) => Some(Arc::new(
                DiskStore::open(dir).map_err(|e| format!("open store: {e}"))?,
            )),
            None => None,
        };
        let opts = DseOptions {
            workers: workers(),
            store: store.clone(),
            ..DseOptions::exhaustive_8x8()
        };
        let result = evaluate(&opts, &self.configs).map_err(|e| format!("explore: {e}"))?;
        Ok((result, store))
    }

    /// Why `result` is wrong, if it is: reports must equal the set-up
    /// exploration's (for warm, the cold reports: `ErrorStats`, LUTs,
    /// delay, EDP and front membership), and a warm op must build
    /// nothing.
    fn check(&self, result: &DseResult) -> Option<String> {
        if result.reports != self.reference {
            let diff = result
                .reports
                .iter()
                .zip(&self.reference)
                .find(|(a, b)| a != b)
                .map_or_else(|| "report count".to_string(), |(a, _)| a.key.clone());
            return Some(format!("reports differ from the reference at {diff}"));
        }
        if self.store_dir.is_some() && result.cache_builds != 0 {
            return Some(format!(
                "warm exploration built {} blocks",
                result.cache_builds
            ));
        }
        None
    }

    pub fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let warm = self.store_dir.is_some();
        let mut out = Outcome {
            slo_ms: if warm { WARM_SLO_MS } else { COLD_SLO_MS },
            ..Outcome::default()
        };
        let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut busy_s = Vec::new();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let op = out.attempted;
            out.attempted += 1;
            let t0 = Instant::now();
            let explored = self.explore();
            let t1 = Instant::now();
            let (result, store) = match explored {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("op {op}: {e}");
                    out.failed += 1;
                    continue;
                }
            };
            if let Some(why) = self.check(&result) {
                eprintln!("op {op}: {why}");
                out.failed += 1;
                continue;
            }
            out.record(0, (t1 - t0).as_secs_f64() * 1e3);
            let Some(tracer) = tracer else { continue };
            let root = tracer.record("dse.evaluate", None, op, t0, t1);
            let mut put = |k: &'static str, v: f64| per_op.entry(k).or_default().push(v);
            let w = result.workers.len() as f64;
            let times: Vec<f64> = result
                .workers
                .iter()
                .map(|s| s.elapsed.as_secs_f64())
                .collect();
            let max = times.iter().copied().fold(0.0, f64::max);
            let min = times.iter().copied().fold(f64::INFINITY, f64::min);
            let wall = result.elapsed.as_secs_f64();
            busy_s.push(times.iter().sum::<f64>());
            put(
                "dse.search.worker_busy_share",
                times.iter().sum::<f64>() / (w * wall),
            );
            put("dse.search.straggler_s", max - min);
            put("dse.search.finish_s", wall - max);
            let t = Instant::now();
            pareto_fronts(&result.reports);
            put("metrics.pareto_s", t.elapsed().as_secs_f64());
            tracer.record("metrics.pareto_front", Some(root), op, t, Instant::now());
            let distinct = self.distinct.len() as f64;
            let produced = (result.cache_builds + result.cache_disk_hits) as f64;
            put("dse.cache.builds", result.cache_builds as f64);
            put("dse.cache.hits", result.cache_hits as f64);
            put("dse.cache.misses", result.cache_misses as f64);
            put("dse.cache.disk_hits", result.cache_disk_hits as f64);
            put("dse.cache.dup_builds", produced - distinct);
            put("dse.cache.useful_share", distinct / produced);
            put("fabric.error_s", result.char_time.error.as_secs_f64());
            put("fabric.energy_s", result.char_time.energy.as_secs_f64());
            put("fabric.sta_s", result.char_time.sta.as_secs_f64());
            if let Some(store) = store {
                put("dse.store.disk_reads", store.disk_reads() as f64);
                put("dse.store.hot_hits", store.hot_hits() as f64);
            }
        }
        out.elapsed_s = started.elapsed().as_secs_f64();
        if let Some(tracer) = tracer {
            out.layers = per_op.iter().map(|(k, v)| (*k, median(v))).collect();
            self.probe(tracer, median(&busy_s), &mut out)?;
        }
        Ok(out)
    }

    /// Single-threaded probes after the traced phase: the time of
    /// `Config::assemble` over every distinct key and, warm only, of
    /// `DiskStore::load` and `netlist_fingerprint` over the same keys.
    fn probe(&self, tracer: &Tracer, busy_s: f64, out: &mut Outcome) -> Result<(), String> {
        let op = u64::MAX;
        let t = Instant::now();
        let netlists: Vec<_> = self.distinct.iter().map(Config::assemble).collect();
        let assemble_s = t.elapsed().as_secs_f64();
        tracer.record("dse.assemble", None, op, t, Instant::now());
        out.layers.insert("dse.assemble_s", assemble_s);
        let Some(dir) = &self.store_dir else {
            return Ok(());
        };
        let store = DiskStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        let t = Instant::now();
        for cfg in &self.distinct {
            match store.load(&cfg.key()) {
                Ok(Some(_)) => {}
                Ok(None) => return Err(format!("{} missing from the store", cfg.key())),
                Err(e) => return Err(format!("load {}: {e}", cfg.key())),
            }
        }
        let load_s = t.elapsed().as_secs_f64();
        tracer.record("dse.store.load", None, op, t, Instant::now());
        let t = Instant::now();
        for nl in &netlists {
            std::hint::black_box(axmul_netio::fingerprint(nl));
        }
        let fingerprint_s = t.elapsed().as_secs_f64();
        tracer.record("netio.fingerprint", None, op, t, Instant::now());
        out.layers.insert("dse.store.load_s", load_s);
        out.layers.insert("netio.fingerprint_s", fingerprint_s);
        out.layers.insert(
            "dse.cache.restore_other_s",
            busy_s - load_s - fingerprint_s - assemble_s,
        );
        Ok(())
    }
}

/// Both Pareto fronts the exploration annotates (error vs LUTs, error
/// vs EDP), recomputed by the benchmark to time the metrics layer.
fn pareto_fronts(reports: &[CandidateReport]) {
    let lut: Vec<DesignPoint> = reports
        .iter()
        .map(|r| DesignPoint::new(r.key.clone(), r.avg_relative_error, r.luts as f64))
        .collect();
    let edp: Vec<DesignPoint> = reports
        .iter()
        .map(|r| DesignPoint::new(r.key.clone(), r.avg_relative_error, r.edp))
        .collect();
    std::hint::black_box((pareto_front(&lut), pareto_front(&edp)));
}

//! Design-space exploration experiments (beyond the paper's two named
//! configurations per width).

use std::path::Path;
use std::sync::Arc;

use axmul_core::behavioral::Summation;
use axmul_dse::{evaluate, run, Config, DiskStore, DseOptions, DseResult, Leaf};

use crate::report::{f, BenchRecord, Field, Table};

/// **Extension: 8×8 design-space exploration.** The paper evaluates the
/// homogeneous approx-Ca / approx-Cc points; this sweeps all 1250
/// heterogeneous configurations (per-quadrant kernel choice × summation)
/// and reports the error-vs-LUT Pareto front the paper's two designs
/// live in.
///
/// Returns the report with its `BENCH_extdse.json` record, which adds
/// the wall-clock split of where the characterization time went (error
/// sweeps vs energy measurements vs STA).
#[must_use]
pub fn ext_dse() -> (String, String) {
    let opts = DseOptions::exhaustive_8x8();
    let result = run(&opts).expect("generated netlists simulate");
    let mut t = Table::new(
        "Extension: 8x8 DSE - error/LUT Pareto front over 1250 configurations",
        &["configuration", "LUTs", "ns", "EDP", "ARE", "max |e|"],
    );
    for r in result.lut_front() {
        t.row_owned(vec![
            r.key.clone(),
            r.luts.to_string(),
            f(r.critical_path_ns, 3),
            f(r.edp, 1),
            format!("{:.6}", r.avg_relative_error),
            r.max_error.to_string(),
        ]);
    }
    let mut s = t.render();
    let verdict = |summation: Summation, label: &str| {
        let key = Config::paper(8, summation).key();
        let r = result.find(&key).expect("paper config evaluated");
        format!(
            "{label} {key}: {} on error/LUT, {} on error/EDP\n",
            if r.on_lut_front {
                "non-dominated"
            } else {
                "dominated"
            },
            if r.on_edp_front {
                "non-dominated"
            } else {
                "dominated"
            },
        )
    };
    s.push_str(&verdict(Summation::Accurate, "approx-Ca"));
    s.push_str(&verdict(Summation::CarryFree, "approx-Cc"));
    s.push_str(&format!(
        "cache: {} hits / {} misses ({:.1}% hit rate), {:.1} cand/s overall\n",
        result.cache_hits,
        result.cache_misses,
        100.0 * result.hit_rate(),
        result.reports.len() as f64 / result.elapsed.as_secs_f64().max(1e-9),
    ));
    s.push_str(&format!(
        "characterization: assemble {:.3}s, error {:.3}s, energy {:.3}s, STA {:.3}s (of {:.2}s total)\n",
        result.char_time.assemble.as_secs_f64(),
        result.char_time.error.as_secs_f64(),
        result.char_time.energy.as_secs_f64(),
        result.char_time.sta.as_secs_f64(),
        result.elapsed.as_secs_f64(),
    ));
    (s, ext_dse_record(&result).render())
}

/// The `BENCH_extdse.json` record of one exploration.
fn ext_dse_record(result: &DseResult) -> BenchRecord {
    let elapsed = result.elapsed.as_secs_f64();
    BenchRecord::new("ext-dse")
        .field("configs", result.reports.len())
        .field("elapsed_s", Field::Fixed(elapsed, 4))
        .field(
            "cand_per_s",
            Field::Fixed(result.reports.len() as f64 / elapsed.max(1e-9), 1),
        )
        .field(
            "char_time_s",
            Field::Obj(vec![
                (
                    "assemble",
                    Field::Fixed(result.char_time.assemble.as_secs_f64(), 4),
                ),
                (
                    "error",
                    Field::Fixed(result.char_time.error.as_secs_f64(), 4),
                ),
                (
                    "energy",
                    Field::Fixed(result.char_time.energy.as_secs_f64(), 4),
                ),
                ("sta", Field::Fixed(result.char_time.sta.as_secs_f64(), 4)),
            ]),
        )
        .field(
            "cache",
            Field::Obj(vec![
                ("hits", result.cache_hits.into()),
                ("misses", result.cache_misses.into()),
                ("builds", result.cache_builds.into()),
            ]),
        )
        .field("lut_front", result.lut_front().len())
        .field("edp_front", result.edp_front().len())
}

/// **Extension: 8×8 DSE with a persistent store.** The same exhaustive
/// 1250-configuration sweep as [`ext_dse`], but every characterization
/// is written to (and, on a second run, restored from) the on-disk
/// store in `dir`. A warm rerun against a populated store reports zero
/// builds — the whole sweep is served from disk.
#[must_use]
pub fn ext_dse_cached(dir: &Path) -> String {
    let store = match DiskStore::open(dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            return format!(
                "ext-dse --cache-dir {}: cannot open store: {e}\n",
                dir.display()
            )
        }
    };
    let before = store.stored_records();
    let mut opts = DseOptions::exhaustive_8x8();
    opts.store = Some(Arc::clone(&store));
    let result = run(&opts).expect("generated netlists simulate");
    let front = result.lut_front().len();
    format!(
        "Extension: 8x8 DSE over persistent store {}\n\
         phase: {}  ({} records on disk at start, {} at end)\n\
         {} candidates in {:.2} s ({:.1} cand/s), error/LUT front size {}\n\
         cache: {} builds, {} disk hits, {} in-memory hits\n",
        store.root().display(),
        if result.cache_builds == 0 {
            "warm"
        } else {
            "cold"
        },
        before,
        store.stored_records(),
        result.reports.len(),
        result.elapsed.as_secs_f64(),
        result.reports.len() as f64 / result.elapsed.as_secs_f64().max(1e-9),
        front,
        result.cache_builds,
        result.cache_disk_hits,
        result.cache_hits,
    )
}

/// **DSE worker scaling.** Evaluates a fixed 60-candidate set with 1,
/// 2 and 4 workers and reports the wall-clock speedup of the sharded
/// pool (bounded by the machine's core count — on a single-core host
/// the pool degrades gracefully to ~1.0×).
#[must_use]
pub fn dse_scaling() -> String {
    let candidates = scaling_candidates();
    let mut t = Table::new(
        "DSE worker-pool scaling (fixed 60-candidate 8x8 set)",
        &["workers", "wall s", "cand/s", "speedup"],
    );
    let mut base = None;
    for workers in [1usize, 2, 4] {
        let mut opts = DseOptions::exhaustive_8x8();
        opts.workers = workers;
        let result = evaluate(&opts, &candidates).expect("generated netlists simulate");
        let secs = result.elapsed.as_secs_f64();
        let base_secs = *base.get_or_insert(secs);
        t.row_owned(vec![
            workers.to_string(),
            f(secs, 2),
            f(result.reports.len() as f64 / secs.max(1e-9), 1),
            format!("{:.2}x", base_secs / secs.max(1e-9)),
        ]);
    }
    t.render()
}

/// Deterministic mixed candidate set: all 10 homogeneous quads plus
/// seeded-random heterogeneous ones, 60 unique configurations total.
fn scaling_candidates() -> Vec<Config> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for summation in [Summation::Accurate, Summation::CarryFree] {
        for leaf in Leaf::ALL {
            let cfg = Config::uniform(Config::Leaf(leaf), summation);
            seen.insert(cfg.key());
            out.push(cfg);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xD5E_5CA1E);
    while out.len() < 60 {
        let cfg = Config::random(8, &mut rng);
        if seen.insert(cfg.key()) {
            out.push(cfg);
        }
    }
    out.sort_by_key(Config::key);
    out
}

/// A fast subset exploration used by unit tests and the Criterion
/// bench: the 10 homogeneous quads only.
#[must_use]
pub fn dse_subset() -> axmul_dse::DseResult {
    let candidates: Vec<Config> = [Summation::Accurate, Summation::CarryFree]
        .into_iter()
        .flat_map(|s| Leaf::ALL.map(|l| Config::uniform(Config::Leaf(l), s)))
        .collect();
    let opts = DseOptions::exhaustive_8x8();
    evaluate(&opts, &candidates).expect("generated netlists simulate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_contains_paper_points_with_table4_areas() {
        let result = dse_subset();
        assert_eq!(result.reports.len(), 10);
        assert_eq!(result.find("(a A A A A)").unwrap().luts, 57);
        assert_eq!(result.find("(c A A A A)").unwrap().luts, 56);
        // The all-exact Ca design has zero error and is non-dominated.
        let exact = result.find("(a X X X X)").unwrap();
        assert_eq!(exact.avg_error, 0.0);
        assert!(exact.on_lut_front);
    }

    #[test]
    fn ext_dse_record_parses_with_the_gate_field() {
        let json = ext_dse_record(&dse_subset()).render();
        let parsed = axmul_netio::json::parse(&json).expect("the record is JSON");
        assert_eq!(parsed.get("configs").and_then(|v| v.as_u64()), Some(10));
        assert!(parsed.get("char_time_s").is_some(), "{json}");
    }

    #[test]
    fn scaling_candidates_are_unique_and_sized() {
        let c = scaling_candidates();
        assert_eq!(c.len(), 60);
        assert!(c.iter().all(|cfg| cfg.bits() == 8));
    }
}

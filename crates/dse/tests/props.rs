//! Exactness and invariance properties of the DSE engine.
//!
//! The central claim: the memoized composition (value tables combined
//! with `combine_products`) predicts a configuration's error statistics
//! **exactly** — bit-identical, float fields included, to sweeping the
//! assembled gate-level netlist with [`ErrorStats::exhaustive_wide`].

use axmul_core::behavioral::Summation;
use axmul_dse::{
    evaluate, run, static_bounds, text_report, to_csv, CharCache, Config, DseOptions, Leaf,
    PruneOptions, Strategy,
};
use axmul_fabric::cost::Characterizer;
use axmul_metrics::ErrorStats;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A stratified sample of the 8×8 space: every homogeneous quad, the
/// paper's two named designs, and seeded-random heterogeneous configs.
fn stratified_8x8(random: usize) -> Vec<Config> {
    let mut configs = Vec::new();
    for summation in [Summation::Accurate, Summation::CarryFree] {
        for leaf in Leaf::ALL {
            configs.push(Config::uniform(Config::Leaf(leaf), summation));
        }
    }
    let mut rng = StdRng::seed_from_u64(0xD5E);
    for _ in 0..random {
        configs.push(Config::random(8, &mut rng));
    }
    configs.sort_by_key(Config::key);
    configs.dedup_by_key(|c| c.key());
    configs
}

fn assert_stats_match_netlist(cache: &CharCache, cfg: &Config) {
    let c = cache.characterize(cfg).unwrap();
    let wide = ErrorStats::exhaustive_wide(&c.netlist).unwrap();
    // Full structural equality: every field including the float
    // accumulators and the name (both are the canonical key).
    assert_eq!(c.stats, wide, "composed stats diverge for {}", cfg.key());
    // `==` would equate `+0.0` and `-0.0`; the float fields must match
    // to the last bit.
    let floats = |s: &ErrorStats| {
        [
            s.avg_error,
            s.avg_relative_error,
            s.error_probability,
            s.normalized_mean_error_distance,
            s.mean_squared_error,
            s.rmse,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(floats(&c.stats), floats(&wide), "{}", cfg.key());
}

#[test]
fn composed_stats_exactly_match_netlist_sweep_stratified() {
    let cache = CharCache::new(Characterizer::virtex7());
    for cfg in stratified_8x8(12) {
        assert_stats_match_netlist(&cache, &cfg);
    }
}

/// The full 1250-configuration version of the property above. Runs in
/// a couple of minutes in debug, so it is ignored by default; execute
/// with `cargo test --release -p axmul-dse -- --ignored`.
#[test]
#[ignore = "full 8x8 space sweep; run in release"]
fn composed_stats_exactly_match_netlist_sweep_all_1250() {
    let cache = CharCache::new(Characterizer::virtex7());
    for cfg in Config::enumerate(8) {
        assert_stats_match_netlist(&cache, &cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random heterogeneous 8×8 configurations keep the exactness
    /// property (drawn independently of the stratified sample).
    #[test]
    fn composed_stats_match_netlist_sweep_random(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = Config::random(8, &mut rng);
        let cache = CharCache::new(Characterizer::virtex7());
        let c = cache.characterize(&cfg).unwrap();
        let wide = ErrorStats::exhaustive_wide(&c.netlist).unwrap();
        prop_assert_eq!(&c.stats, &wide);
    }

    /// 16×16 value tables are too big to enumerate, but the composed
    /// evaluator must still agree with the assembled netlist on any
    /// operand pair.
    #[test]
    fn composed_evaluator_matches_netlist_at_16_bits(seed in 0u64..1 << 48) {
        use axmul_core::Multiplier;
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = Config::random(16, &mut rng);
        let cache = CharCache::new(Characterizer::virtex7());
        let c = cache.characterize(&cfg).unwrap();
        let m = c.multiplier();
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        for _ in 0..64 {
            let (a, b) = (next() & 0xFFFF, next() & 0xFFFF);
            let out = c.netlist.eval(&[a, b]).unwrap();
            prop_assert_eq!(out[0], m.multiply(a, b));
        }
    }
}

#[test]
fn cache_accounting_is_exact_for_single_worker_exhaustive() {
    let cache = CharCache::new(Characterizer::virtex7());
    let candidates = stratified_8x8(0); // 10 homogeneous quads
    for cfg in &candidates {
        cache.characterize(cfg).unwrap();
    }
    // 10 quads + 5 leaves computed once each; each quad makes 4 leaf
    // queries, the first 5 of which are the leaf misses.
    assert_eq!(cache.misses(), 15);
    assert_eq!(cache.hits(), 4 * 10 - 5);
    assert_eq!(cache.len(), 15);
    // Re-characterizing everything is pure hits.
    for cfg in &candidates {
        cache.characterize(cfg).unwrap();
    }
    assert_eq!(cache.misses(), 15);
    assert_eq!(cache.hits(), 4 * 10 - 5 + 10);
}

#[test]
fn worker_count_does_not_change_results() {
    let candidates = stratified_8x8(6);
    let mut opts = DseOptions::exhaustive_8x8();
    opts.workers = 1;
    let one = evaluate(&opts, &candidates).unwrap();
    opts.workers = 3;
    let three = evaluate(&opts, &candidates).unwrap();
    assert_eq!(one.reports, three.reports);
    assert_eq!(three.workers.len(), 3);
    assert_eq!(
        three.workers.iter().map(|w| w.evaluated).sum::<usize>(),
        candidates.len()
    );
}

#[test]
fn paper_configs_characterize_to_table4_and_reports_render() {
    let candidates = stratified_8x8(4);
    let opts = DseOptions::exhaustive_8x8();
    let result = evaluate(&opts, &candidates).unwrap();

    let ca = result.find("(a A A A A)").expect("approx-Ca evaluated");
    assert_eq!(ca.luts, 57);
    let cc = result.find("(c A A A A)").expect("approx-Cc evaluated");
    assert_eq!(cc.luts, 56);
    let exact = result.find("(a X X X X)").expect("exact-Ca evaluated");
    assert_eq!(exact.avg_error, 0.0);
    assert!(
        exact.on_lut_front,
        "zero-error design is always non-dominated"
    );

    let text = text_report(&result);
    assert!(text.contains("hit rate"));
    assert!(text.contains("cand/s"));
    assert!(text.contains("approx-Ca"));
    assert!(text.contains("approx-Cc"));
    assert!(text.contains("error/LUT Pareto front"));
    assert!(text.contains("error/EDP Pareto front"));

    let csv = to_csv(&result);
    assert_eq!(csv.lines().count(), result.reports.len() + 1);
    assert!(csv.starts_with("key,bits,luts"));
    assert!(csv.contains("\"(a A A A A)\",8,57,"));
}

#[test]
fn random_strategy_is_deterministic_and_respects_budget() {
    let mut opts = DseOptions::exhaustive_8x8();
    opts.strategy = Strategy::Random {
        budget: 15,
        seed: 42,
    };
    let a = run(&opts).unwrap();
    let b = run(&opts).unwrap();
    assert_eq!(a.reports, b.reports);
    assert!(a.reports.len() <= 15);
    assert!(!a.reports.is_empty());
}

#[test]
fn static_bounds_bracket_exact_stats_stratified() {
    let cache = CharCache::new(Characterizer::virtex7());
    for cfg in stratified_8x8(12) {
        let c = cache.characterize(&cfg).unwrap();
        let a = static_bounds(&cfg).unwrap();
        let wce = c.stats.max_error.unsigned_abs() as u128;
        assert!(
            a.bound.wce_lb <= wce && wce <= a.bound.wce_ub(),
            "{}: exact WCE {wce} outside static bracket [{}, {}]",
            cfg.key(),
            a.bound.wce_lb,
            a.bound.wce_ub()
        );
        assert!(a.certificate.verify().is_ok(), "{}", cfg.key());
    }
}

#[test]
fn constraint_pruning_is_admissible_on_random_8x8() {
    let mut opts = DseOptions::exhaustive_8x8();
    opts.strategy = Strategy::Random {
        budget: 60,
        seed: 7,
    };
    opts.workers = 2;
    let full = run(&opts).unwrap();

    let tau: u128 = 2000;
    opts.prune = Some(PruneOptions::max_wce(tau));
    let screened = run(&opts).unwrap();

    // The draw includes designs whose lower bound alone exceeds the
    // budget (e.g. anything with an approximate HH quadrant).
    assert!(screened.pruned_constraint > 0, "nothing was pruned");
    assert_eq!(screened.pruned_dominance, 0);
    // Admissible: every design that actually meets the budget survives
    // the screen …
    for r in &full.reports {
        if r.max_error.unsigned_abs() as u128 <= tau {
            assert!(
                screened.find(&r.key).is_some(),
                "feasible design {} was wrongly pruned",
                r.key
            );
        }
    }
    // … and the screen only ever removes candidates (same draw).
    for r in &screened.reports {
        assert!(full.find(&r.key).is_some());
    }
    assert_eq!(
        screened.reports.len() as u64 + screened.pruned(),
        full.reports.len() as u64
    );
}

#[test]
fn pruned_hill_climb_at_16x16_skips_provably_bad_mutants() {
    let mut opts = DseOptions::exhaustive_8x8();
    opts.bits = 16;
    opts.strategy = Strategy::HillClimb {
        budget: 8,
        restarts: 1,
        seed: 0xDAC18,
    };
    opts.workers = 1;
    opts.samples = 4096;
    opts.prune = Some(PruneOptions {
        max_wce: Some(1 << 20),
        dominance: true,
    });
    let result = run(&opts).unwrap();
    assert!(
        result.pruned() > 0,
        "a 16x16 random walk must hit statically-bad mutants"
    );
    // Single worker + fixed seed: the pruned run is reproducible.
    let again = run(&opts).unwrap();
    assert_eq!(result.reports, again.reports);
    assert_eq!(result.pruned(), again.pruned());
    let report = text_report(&result);
    assert!(report.contains("static pruning:"), "{report}");
}

#[test]
fn hill_climb_explores_and_keeps_whole_trace() {
    let mut opts = DseOptions::exhaustive_8x8();
    opts.strategy = Strategy::HillClimb {
        budget: 10,
        restarts: 2,
        seed: 9,
    };
    opts.workers = 2;
    let result = run(&opts).unwrap();
    // 2 restarts x (1 start + 10 steps) = 22 evaluations, minus
    // trajectory revisits after dedup.
    assert!(result.reports.len() > 2);
    assert!(result.reports.len() <= 22);
    assert!(!result.lut_front().is_empty());
    let again = run(&opts).unwrap();
    assert_eq!(result.reports, again.reports);
}

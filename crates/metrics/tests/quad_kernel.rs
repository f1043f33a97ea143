//! The lane-parallel 8×8 quad kernel ([`ErrorStats::exhaustive_quad`])
//! against the per-pair sweep ([`ErrorStats::exhaustive`]) of the same
//! composition, on synthetic 4×4 tables: every field must match, floats
//! to the last bit.

use axmul_core::behavioral::{combine_products, Summation};
use axmul_core::Multiplier;
use axmul_metrics::{ErrorStats, WITNESS_CAP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An 8×8 multiplier composed per pair from four 4×4 tables in `LL`,
/// `HL`, `LH`, `HH` order, each indexed `(b << 4) | a`.
struct TableQuad {
    tables: [Vec<u32>; 4],
    summation: Summation,
}

impl Multiplier for TableQuad {
    fn a_bits(&self) -> u32 {
        8
    }
    fn b_bits(&self) -> u32 {
        8
    }
    fn multiply(&self, a: u64, b: u64) -> u64 {
        let at =
            |t: usize, x: u64, y: u64| u64::from(self.tables[t][((y as usize) << 4) | x as usize]);
        let (al, ah, bl, bh) = (a & 15, a >> 4, b & 15, b >> 4);
        combine_products(
            at(0, al, bl),
            at(1, ah, bl),
            at(2, al, bh),
            at(3, ah, bh),
            4,
            self.summation,
        )
    }
    fn name(&self) -> &str {
        "quad"
    }
}

fn exact_table() -> Vec<u32> {
    (0..256).map(|i| (i & 15) * (i >> 4)).collect()
}

fn assert_bit_identical(fast: &ErrorStats, slow: &ErrorStats, what: &str) {
    assert_eq!(fast.name, slow.name, "{what}");
    assert_eq!(fast.samples, slow.samples, "{what}");
    assert_eq!(fast.error_occurrences, slow.error_occurrences, "{what}");
    assert_eq!(fast.max_error, slow.max_error, "{what}");
    assert_eq!(
        fast.max_error_occurrences, slow.max_error_occurrences,
        "{what}"
    );
    assert_eq!(fast.worst_case_inputs, slow.worst_case_inputs, "{what}");
    for (f, s, field) in [
        (fast.avg_error, slow.avg_error, "avg_error"),
        (
            fast.avg_relative_error,
            slow.avg_relative_error,
            "avg_relative_error",
        ),
        (
            fast.error_probability,
            slow.error_probability,
            "error_probability",
        ),
        (
            fast.normalized_mean_error_distance,
            slow.normalized_mean_error_distance,
            "normalized_mean_error_distance",
        ),
        (
            fast.mean_squared_error,
            slow.mean_squared_error,
            "mean_squared_error",
        ),
        (fast.rmse, slow.rmse, "rmse"),
    ] {
        assert_eq!(f.to_bits(), s.to_bits(), "{what}: {field} {f} vs {s}");
    }
}

/// Checks the kernel against the per-pair sweep under both summations
/// and returns the two results (accurate, carry-free).
fn check(tables: &[Vec<u32>; 4], what: &str) -> [ErrorStats; 2] {
    [Summation::Accurate, Summation::CarryFree].map(|summation| {
        let fast = ErrorStats::exhaustive_quad(
            "quad".to_string(),
            tables.each_ref().map(Vec::as_slice),
            summation,
        );
        let slow = ErrorStats::exhaustive(&TableQuad {
            tables: tables.clone(),
            summation,
        });
        assert_bit_identical(&fast, &slow, &format!("{what}, {summation:?}"));
        fast
    })
}

#[test]
fn random_tables_with_errors_at_zero_operands() {
    let mut rng = StdRng::seed_from_u64(0x9AD);
    for case in 0..12 {
        let tables: [Vec<u32>; 4] =
            std::array::from_fn(|_| (0..256).map(|_| rng.random_range(0..256u32)).collect());
        // Nonzero quadrant products at `a = 0` or `b = 0` make
        // `exact == 0` pairs with `approx != 0`, which no real leaf has.
        let quad = TableQuad {
            tables: tables.clone(),
            summation: Summation::Accurate,
        };
        assert!((0..256).any(|b| quad.multiply(0, b) != 0), "case {case}");
        check(&tables, &format!("random case {case}"));
    }
}

#[test]
fn sparse_random_errors_on_exact_tables() {
    // Exact leaves with a few perturbed entries: many error-free pairs
    // between the erring ones, as in the real leaves.
    let mut rng = StdRng::seed_from_u64(0x5A2);
    for case in 0..12 {
        let tables: [Vec<u32>; 4] = std::array::from_fn(|_| {
            let mut t = exact_table();
            for _ in 0..rng.random_range(0..4) {
                let i = rng.random_range(0..256usize);
                t[i] = rng.random_range(0..256u32);
            }
            t
        });
        check(&tables, &format!("sparse case {case}"));
    }
}

#[test]
fn all_exact_tables_have_no_error_and_no_witness() {
    let tables: [Vec<u32>; 4] = std::array::from_fn(|_| exact_table());
    let [accurate, _] = check(&tables, "all exact");
    assert_eq!(accurate.max_error, 0);
    assert_eq!(accurate.max_error_occurrences, 0);
    assert_eq!(accurate.error_occurrences, 0);
    assert!(accurate.worst_case_inputs.is_empty());
    assert_eq!(accurate.avg_relative_error.to_bits(), 0.0f64.to_bits());
}

#[test]
fn more_ties_than_witnesses() {
    // One `LL` entry off by one: every pair with `(al, bl) = (3, 5)`,
    // 256 of them, errs by exactly 1 under accurate summation.
    let mut tables: [Vec<u32>; 4] = std::array::from_fn(|_| exact_table());
    tables[0][(5 << 4) | 3] += 1;
    let [accurate, _] = check(&tables, "ties");
    assert_eq!(accurate.max_error, 1);
    assert_eq!(accurate.max_error_occurrences, 256);
    assert_eq!(accurate.worst_case_inputs.len(), WITNESS_CAP);
    assert_eq!(accurate.worst_case_inputs[0], (3, 5));
}

#[test]
fn maximum_only_on_the_last_pair() {
    // Each table is one too high at its (15, 15) entry. Under accurate
    // summation the errors add, weighted 1, 16, 16 and 256, and only
    // `a = b = 255` collects all four.
    let mut tables: [Vec<u32>; 4] = std::array::from_fn(|_| exact_table());
    for t in &mut tables {
        t[255] += 1;
    }
    let [accurate, _] = check(&tables, "last pair");
    assert_eq!(accurate.max_error, 1 + 16 + 16 + 256);
    assert_eq!(accurate.max_error_occurrences, 1);
    assert_eq!(accurate.worst_case_inputs, [(255, 255)]);
}

//! The 8×8 sibling kernel ([`ErrorStats::exhaustive_quads`]) against the
//! per-pair sweep ([`ErrorStats::exhaustive`]) of each composition, on
//! synthetic 4×4 tables: every field must match, floats to the last
//! bit, for single configurations and for sibling groups that share
//! some of their chunks.

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

/// Checks the kernel on the sibling group over the shared `ll`, `hl`
/// and each sibling's `(lh, hh)` against the per-pair sweep of every
/// sibling, under both summations, and returns the kernel's results
/// (accurate, carry-free).
fn check_group(
    ll: &[u32],
    hl: &[u32],
    siblings: &[(Vec<u32>, Vec<u32>)],
    what: &str,
) -> [Vec<ErrorStats>; 2] {
    let names: Vec<String> = (0..siblings.len()).map(|i| format!("quad{i}")).collect();
    let group: Vec<(&str, &[u32], &[u32])> = names
        .iter()
        .zip(siblings)
        .map(|(name, (lh, hh))| (name.as_str(), lh.as_slice(), hh.as_slice()))
        .collect();
    [Summation::Accurate, Summation::CarryFree].map(|summation| {
        let fast = ErrorStats::exhaustive_quads(ll, hl, summation, &group);
        assert_eq!(fast.len(), siblings.len(), "{what}");
        for (i, (got, (lh, hh))) in fast.iter().zip(siblings).enumerate() {
            let mut slow = ErrorStats::exhaustive(&TableQuad {
                tables: [ll.to_vec(), hl.to_vec(), lh.clone(), hh.clone()],
                summation,
            });
            slow.name = names[i].clone();
            assert_bit_identical(got, &slow, &format!("{what}, sibling {i}, {summation:?}"));
        }
        fast
    })
}

/// Checks one configuration, a group of one, and returns its two
/// results (accurate, carry-free).
fn check(tables: &[Vec<u32>; 4], what: &str) -> [ErrorStats; 2] {
    let [ll, hl, lh, hh] = tables;
    check_group(ll, hl, &[(lh.clone(), hh.clone())], what).map(|mut v| v.remove(0))
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

/// A 4×4 table whose row `c` (the entries with high operand nibble
/// `c`) is `rows[c]`.
fn from_rows(rows: &[[u32; 16]; 16]) -> Vec<u32> {
    rows.iter().flatten().copied().collect()
}

#[test]
fn sibling_groups_match_per_pair_sweeps() {
    let mut rng = StdRng::seed_from_u64(0x51B);
    let exact_row = |c: u32| -> [u32; 16] { std::array::from_fn(|x| c * x as u32) };
    for (case, n) in [1usize, 2, 5, 9, 17, 25].into_iter().enumerate() {
        // Shared tables: random (so `exact == 0` pairs err, at `a = 0`
        // and at `b = 0`) in even cases, sparse errors in odd ones.
        let shared = |rng: &mut StdRng| -> Vec<u32> {
            if case % 2 == 0 {
                (0..256).map(|_| rng.random_range(0..256u32)).collect()
            } else {
                let mut t = exact_table();
                for _ in 0..3 {
                    t[rng.random_range(0..256usize)] = rng.random_range(0..256u32);
                }
                t
            }
        };
        let (ll, hl) = (shared(&mut rng), shared(&mut rng));
        // Sibling rows come from small pools, so rows repeat across
        // siblings and across chunks: the all-zero row, one random row
        // used at every `c`, and the exact row of `c` with or without
        // one wrong entry. `LH` and `HH` draw independently, so some
        // siblings agree on one row of a chunk and not the other.
        let random_row: [[u32; 16]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.random_range(0..256u32)));
        let draw = |rng: &mut StdRng, which: usize| -> Vec<u32> {
            let rows: [[u32; 16]; 16] = std::array::from_fn(|c| match rng.random_range(0..4) {
                0 => [0; 16],
                1 => random_row[which],
                2 => exact_row(c as u32),
                _ => {
                    let mut r = exact_row(c as u32);
                    r[c % 16] = (r[c % 16] + 1) % 256;
                    r
                }
            });
            from_rows(&rows)
        };
        let siblings: Vec<(Vec<u32>, Vec<u32>)> = (0..n)
            .map(|_| (draw(&mut rng, 0), draw(&mut rng, 1)))
            .collect();
        check_group(&ll, &hl, &siblings, &format!("group case {case} of {n}"));
    }
}

#[test]
fn maximum_tied_across_chunks_and_siblings() {
    // `LH` one too high at `al = 3` in some rows `c`: under accurate
    // summation each such chunk errs by 16 on its 256 pairs with
    // `al = 3`. Siblings 0 and 1 share the rows of chunks 5 and 9;
    // sibling 2 also errs by 256 in chunk 9 through `HH`, so by 272 at
    // `a = (7 << 4) | 3` there.
    let lh = |rows: &[usize]| {
        let mut t = exact_table();
        for &c in rows {
            t[(c << 4) | 3] += 1;
        }
        t
    };
    let mut hh_off = exact_table();
    hh_off[(9 << 4) | 7] += 1;
    let siblings = [
        (lh(&[2, 5, 9]), exact_table()),
        (lh(&[5, 9, 12]), exact_table()),
        (lh(&[5, 9, 12]), hh_off),
        (exact_table(), exact_table()),
    ];
    let [accurate, _] = check_group(&exact_table(), &exact_table(), &siblings, "ties");
    for (s, first_b) in accurate.iter().zip([32, 80]) {
        assert_eq!(s.max_error, 16);
        assert_eq!(s.max_error_occurrences, 3 * 256);
        assert_eq!(s.worst_case_inputs, [3, 19, 35, 51].map(|a| (a, first_b)));
    }
    assert_eq!(accurate[2].max_error, 256 + 16);
    assert_eq!(accurate[2].max_error_occurrences, 16);
    assert_eq!(accurate[3].max_error, 0);
    assert!(accurate[3].worst_case_inputs.is_empty());
}

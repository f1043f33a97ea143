use std::fmt;

use axmul_core::{mask_for, Multiplier};
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::{FabricError, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Complete error characterization of one approximate multiplier.
///
/// Fields follow the quality metrics of the paper (§1.2 and Table 5).
/// Errors are measured as magnitudes `|exact − approximate|`; the
/// average relative error skips operand pairs whose true product is
/// zero (no design in the library errs there, and the ratio would be
/// undefined).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorStats {
    /// Architecture name the stats were computed for.
    pub name: String,
    /// Number of operand pairs evaluated.
    pub samples: u64,
    /// Operand pairs with a nonzero error ("Error Occurrences").
    pub error_occurrences: u64,
    /// Largest error magnitude ("Maximum Error Magnitude").
    pub max_error: i64,
    /// How many operand pairs hit the maximum
    /// ("Maximum Error Occurrences").
    pub max_error_occurrences: u64,
    /// Mean error magnitude over *all* samples ("Average Error"; also
    /// known as the mean error distance, MED).
    pub avg_error: f64,
    /// Mean of `|error| / exact` over all samples with `exact != 0`
    /// divided by the total sample count ("Average Relative Error").
    pub avg_relative_error: f64,
    /// `error_occurrences / samples`.
    pub error_probability: f64,
    /// `avg_error` normalized by the maximum exact product — the NMED
    /// metric common in the approximate-computing literature.
    pub normalized_mean_error_distance: f64,
    /// Mean of the *squared* error over all samples — the loss-proxy
    /// metric behind PSNR and NN quality estimates, accumulated in the
    /// same pass as the other statistics.
    pub mean_squared_error: f64,
    /// Root of [`ErrorStats::mean_squared_error`].
    pub rmse: f64,
    /// Operand pairs `(a, b)` achieving [`ErrorStats::max_error`]: the
    /// first `WITNESS_CAP` such pairs in sample order (empty when no
    /// sample errs). Deterministic across worker counts — sharded
    /// sweeps reproduce the sequential list exactly — and the hook
    /// that lets static analyses check their worst-case-error bounds
    /// against a *witnessed* concrete error.
    pub worst_case_inputs: Vec<(u64, u64)>,
}

/// Maximum number of worst-case operand witnesses kept per sweep.
pub const WITNESS_CAP: usize = 4;

impl ErrorStats {
    /// Exhaustively characterizes `m` over its full operand space.
    ///
    /// Pairs are enumerated with `a` as the fast axis — the same linear
    /// order as the gate-level sweep in [`ErrorStats::exhaustive_wide`],
    /// so the two paths produce bit-identical statistics (float
    /// accumulation order included).
    ///
    /// # Panics
    ///
    /// Panics if the operand space exceeds 2³² pairs (use
    /// [`ErrorStats::sampled`] for 16×16 and wider).
    #[must_use]
    pub fn exhaustive(m: &(impl Multiplier + ?Sized)) -> Self {
        let (wa, wb) = (m.a_bits(), m.b_bits());
        assert!(
            wa + wb <= 32,
            "exhaustive sweep over {wa}x{wb} is infeasible; use sampled()"
        );
        let pairs = (0..=mask_for(wb)).flat_map(|b| (0..=mask_for(wa)).map(move |a| (a, b)));
        Self::over_pairs(m, pairs)
    }

    /// Characterizes `m` over `n` uniform-random operand pairs drawn
    /// from a deterministic RNG seeded with `seed`.
    #[must_use]
    pub fn sampled(m: &(impl Multiplier + ?Sized), n: u64, seed: u64) -> Self {
        let (wa, wb) = (m.a_bits(), m.b_bits());
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..n).map(move |_| {
            (
                rng.random::<u64>() & mask_for(wa),
                rng.random::<u64>() & mask_for(wb),
            )
        });
        Self::over_pairs(m, pairs)
    }

    /// Characterizes `m` over an arbitrary operand stream — e.g. the
    /// operand trace of an application, as in the paper's SUSAN input
    /// analysis (Fig. 12).
    #[must_use]
    pub fn over_pairs(
        m: &(impl Multiplier + ?Sized),
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> Self {
        let mut acc = Accumulator::default();
        for (a, b) in pairs {
            acc.push(a, b, m.exact(a, b), m.multiply(a, b));
        }
        acc.finish(m.name().to_string(), m.a_bits(), m.b_bits())
    }

    /// Exhaustively characterizes a structural multiplier *netlist* by
    /// compiling it once ([`CompiledNetlist`]) and streaming the full
    /// operand space through the bit-sliced instruction stream — the
    /// gate-level twin of [`ErrorStats::exhaustive`], and the
    /// evaluation backend of the `axmul-dse` explorer.
    ///
    /// The netlist must have exactly two input buses (the operands, in
    /// `a`, `b` order) and its first output bus is taken as the product.
    /// Equivalent to [`ErrorStats::exhaustive_wide_with`] with one
    /// worker.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InputArity`] if the netlist does not have
    /// exactly two input buses; propagates simulation errors.
    ///
    /// # Panics
    ///
    /// Panics if the operand space exceeds 2³² pairs.
    pub fn exhaustive_wide(netlist: &Netlist) -> Result<Self, FabricError> {
        Self::exhaustive_wide_with(netlist, 1)
    }

    /// [`ErrorStats::exhaustive_wide`] sharded over `workers` threads.
    ///
    /// The operand space is split into contiguous ranges aligned to the
    /// relative-error accumulation chunk, each worker sweeps its range
    /// through its own simulator over the shared compiled program, and
    /// the per-shard partial sums are merged in fixed shard order. The
    /// result is **byte-identical** for every worker count — and to the
    /// scalar [`ErrorStats::exhaustive`] path — because the float
    /// accumulation order is preserved exactly (see `Accumulator`).
    ///
    /// # Errors
    ///
    /// Same as [`ErrorStats::exhaustive_wide`].
    ///
    /// # Panics
    ///
    /// Panics if the operand space exceeds 2³² pairs or if a worker
    /// thread panics.
    pub fn exhaustive_wide_with(netlist: &Netlist, workers: usize) -> Result<Self, FabricError> {
        let prog = CompiledNetlist::compile(netlist);
        let (wa, wb) = prog.operand_widths()?;
        assert!(
            wa + wb <= 32,
            "exhaustive sweep over {wa}x{wb} is infeasible"
        );
        let total = 1u64 << (wa + wb);
        // Shard boundaries must fall on REL_CHUNK multiples so every
        // relative-error chunk is computed whole inside one shard.
        let chunks = total.div_ceil(REL_CHUNK);
        let workers = workers.clamp(1, chunks.max(1) as usize);
        let per = chunks.div_ceil(workers as u64) * REL_CHUNK;
        let sweep = |range: std::ops::Range<u64>| -> Result<Accumulator, FabricError> {
            let mut acc = Accumulator::default();
            prog.for_each_operand_pair_in(range, |a, b, out| acc.push(a, b, a * b, out[0]))?;
            Ok(acc)
        };
        let acc = if workers == 1 {
            sweep(0..total)?
        } else {
            let ranges: Vec<std::ops::Range<u64>> = (0..workers as u64)
                .map(|w| (w * per).min(total)..((w + 1) * per).min(total))
                .filter(|r| !r.is_empty())
                .collect();
            let shards: Vec<Accumulator> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .into_iter()
                    .map(|range| scope.spawn(|| sweep(range)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect::<Result<_, FabricError>>()
            })?;
            let mut merged = Accumulator::default();
            for shard in shards {
                merged.merge(shard);
            }
            merged
        };
        Ok(acc.finish(netlist.name().to_string(), wa, wb))
    }
}

/// Samples per relative-error accumulation chunk (a power of two so
/// chunk boundaries coincide with the 64-lane sweep blocks).
const REL_CHUNK: u64 = 4096;

/// Streaming accumulator shared by the scalar ([`ErrorStats::over_pairs`])
/// and wide ([`ErrorStats::exhaustive_wide`]) characterization paths, so
/// both are guaranteed to aggregate identically.
///
/// The integer statistics (counts, `u128` error sums) are exactly
/// associative, but the relative-error sum is floating point, where
/// addition order matters. To make sharded parallel sweeps
/// bit-identical to the sequential path, `rel` is accumulated in
/// fixed-size chunks of [`REL_CHUNK`] samples: each chunk's partial sum
/// involves only samples inside that chunk, and [`Accumulator::finish`]
/// folds the chunk sums left-to-right. A parallel merge of shards whose
/// boundaries fall on chunk multiples therefore reproduces the exact
/// sequence of float additions the single-threaded sweep performs.
#[derive(Debug, Default)]
struct Accumulator {
    samples: u64,
    occ: u64,
    max: i64,
    max_occ: u64,
    sum: u128,
    sum_sq: u128,
    /// Completed relative-error chunk sums, in sample order.
    rel_chunks: Vec<f64>,
    /// Partial sum of the chunk currently being filled.
    chunk_rel: f64,
    /// Samples pushed into the current chunk so far.
    in_chunk: u64,
    /// First [`WITNESS_CAP`] operand pairs achieving the current
    /// maximum, in sample order.
    witnesses: Vec<(u64, u64)>,
}

/// Streaming builder for [`ErrorStats`] over an explicit operand
/// stream, for callers that drive the sweep themselves — e.g. the DSE
/// characterization cache composes a quad's products from its leaf
/// tables in one tight loop. Pushing pairs in the canonical
/// sweep order (`b` outer, `a` the fast axis) produces statistics
/// bit-identical to [`ErrorStats::exhaustive`]: it is the same
/// accumulator underneath.
#[derive(Debug, Default)]
pub struct StatsBuilder {
    acc: Accumulator,
}

impl StatsBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        StatsBuilder::default()
    }

    /// Accounts one operand pair with its exact and approximate
    /// products. Hot: inlined into the caller's sweep loop.
    #[inline]
    pub fn push(&mut self, a: u64, b: u64, exact: u64, approx: u64) {
        self.acc.push(a, b, exact, approx);
    }

    /// Finalizes the statistics for a `wa`×`wb` multiplier named
    /// `name`.
    #[must_use]
    pub fn finish(self, name: String, wa: u32, wb: u32) -> ErrorStats {
        self.acc.finish(name, wa, wb)
    }
}

impl Accumulator {
    #[inline]
    fn push(&mut self, a: u64, b: u64, exact: u64, approx: u64) {
        if self.in_chunk == REL_CHUNK {
            self.rel_chunks.push(self.chunk_rel);
            self.chunk_rel = 0.0;
            self.in_chunk = 0;
        }
        self.in_chunk += 1;
        self.samples += 1;
        let err = (exact as i64 - approx as i64).abs();
        if err != 0 {
            self.occ += 1;
            self.sum += err as u128;
            self.sum_sq += (err as u128) * (err as u128);
            if exact != 0 {
                self.chunk_rel += err as f64 / exact as f64;
            }
            match err.cmp(&self.max) {
                std::cmp::Ordering::Greater => {
                    self.max = err;
                    self.max_occ = 1;
                    self.witnesses.clear();
                    self.witnesses.push((a, b));
                }
                std::cmp::Ordering::Equal => {
                    self.max_occ += 1;
                    if self.witnesses.len() < WITNESS_CAP {
                        self.witnesses.push((a, b));
                    }
                }
                std::cmp::Ordering::Less => {}
            }
        }
    }

    /// Appends `next`, which must hold the samples immediately
    /// following `self`'s, with the boundary on a [`REL_CHUNK`]
    /// multiple. Counts and integer sums add exactly; the maximum and
    /// its occurrence count compose as they would have sequentially;
    /// the relative-error chunks concatenate in sample order.
    fn merge(&mut self, next: Accumulator) {
        if self.in_chunk == REL_CHUNK {
            self.rel_chunks.push(self.chunk_rel);
            self.chunk_rel = 0.0;
            self.in_chunk = 0;
        }
        assert_eq!(self.in_chunk, 0, "merge boundary must be chunk-aligned");
        self.samples += next.samples;
        self.occ += next.occ;
        self.sum += next.sum;
        self.sum_sq += next.sum_sq;
        match next.max.cmp(&self.max) {
            std::cmp::Ordering::Greater => {
                self.max = next.max;
                self.max_occ = next.max_occ;
                self.witnesses = next.witnesses;
            }
            std::cmp::Ordering::Equal => {
                self.max_occ += next.max_occ;
                // `self`'s samples precede `next`'s, so appending (up
                // to the cap) reproduces the sequential witness list.
                for w in next.witnesses {
                    if self.witnesses.len() < WITNESS_CAP {
                        self.witnesses.push(w);
                    }
                }
            }
            std::cmp::Ordering::Less => {}
        }
        self.rel_chunks.extend_from_slice(&next.rel_chunks);
        self.chunk_rel = next.chunk_rel;
        self.in_chunk = next.in_chunk;
    }

    fn finish(self, name: String, wa: u32, wb: u32) -> ErrorStats {
        let samples_f = self.samples.max(1) as f64;
        let max_product = (mask_for(wa) * mask_for(wb)).max(1) as f64;
        let mse = self.sum_sq as f64 / samples_f;
        // Left fold in sample order: identical for any shard split.
        let rel = self.rel_chunks.iter().fold(0.0f64, |acc, &c| acc + c) + self.chunk_rel;
        ErrorStats {
            name,
            samples: self.samples,
            error_occurrences: self.occ,
            max_error: self.max,
            max_error_occurrences: self.max_occ,
            avg_error: self.sum as f64 / samples_f,
            avg_relative_error: rel / samples_f,
            error_probability: self.occ as f64 / samples_f,
            normalized_mean_error_distance: (self.sum as f64 / samples_f) / max_product,
            mean_squared_error: mse,
            rmse: mse.sqrt(),
            worst_case_inputs: self.witnesses,
        }
    }
}

impl fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: max |e| {} (x{}), avg {:.4}, avg rel {:.6}, {} / {} erroneous",
            self.name,
            self.max_error,
            self.max_error_occurrences,
            self.avg_error,
            self.avg_relative_error,
            self.error_occurrences,
            self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul_baselines::Truncated;
    use axmul_core::Exact;

    #[test]
    fn exact_multiplier_has_zero_errors() {
        let s = ErrorStats::exhaustive(&Exact::new(6, 6));
        assert_eq!(s.samples, 4096);
        assert_eq!(s.error_occurrences, 0);
        assert_eq!(s.max_error, 0);
        assert_eq!(s.avg_error, 0.0);
        assert_eq!(s.error_probability, 0.0);
    }

    #[test]
    fn mult_8_4_table5_row() {
        let s = ErrorStats::exhaustive(&Truncated::new(8, 4));
        assert_eq!(s.samples, 65536);
        assert_eq!(s.max_error, 15);
        assert_eq!(s.max_error_occurrences, 2048);
        assert_eq!(s.error_occurrences, 53248);
        assert!((s.avg_error - 6.5).abs() < 1e-12);
        assert!((s.avg_relative_error - 0.003768).abs() < 1e-5);
    }

    #[test]
    fn sampled_is_deterministic_and_close_to_exhaustive() {
        let m = Truncated::new(8, 4);
        let s1 = ErrorStats::sampled(&m, 50_000, 7);
        let s2 = ErrorStats::sampled(&m, 50_000, 7);
        assert_eq!(s1, s2);
        let exact = ErrorStats::exhaustive(&m);
        assert!((s1.avg_error - exact.avg_error).abs() < 0.2);
        assert!((s1.error_probability - exact.error_probability).abs() < 0.02);
    }

    #[test]
    fn over_pairs_with_biased_trace() {
        // A trace that never exercises the truncated bits sees no error.
        let m = Truncated::new(8, 4);
        let trace = (0..256u64).map(|a| (a, 16)); // products are multiples of 16
        let s = ErrorStats::over_pairs(&m, trace);
        assert_eq!(s.error_occurrences, 0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = ErrorStats::exhaustive(&Truncated::new(4, 3));
        let line = s.to_string();
        assert!(line.contains("Mult(4,3)"));
        assert!(line.contains("max |e| 7"));
    }

    fn assert_same_numbers(wide: &ErrorStats, scalar: &ErrorStats) {
        assert_eq!(wide.samples, scalar.samples);
        assert_eq!(wide.error_occurrences, scalar.error_occurrences);
        assert_eq!(wide.max_error, scalar.max_error);
        assert_eq!(wide.max_error_occurrences, scalar.max_error_occurrences);
        assert_eq!(wide.avg_error, scalar.avg_error);
        assert_eq!(wide.avg_relative_error, scalar.avg_relative_error);
        assert_eq!(wide.error_probability, scalar.error_probability);
        assert_eq!(
            wide.normalized_mean_error_distance,
            scalar.normalized_mean_error_distance
        );
        assert_eq!(wide.mean_squared_error, scalar.mean_squared_error);
        assert_eq!(wide.rmse, scalar.rmse);
        assert_eq!(wide.worst_case_inputs, scalar.worst_case_inputs);
    }

    #[test]
    fn exhaustive_wide_matches_scalar_on_4x4() {
        use axmul_core::behavioral::Approx4x4;
        use axmul_core::structural::approx_4x4_netlist;
        let wide = ErrorStats::exhaustive_wide(&approx_4x4_netlist()).unwrap();
        let scalar = ErrorStats::exhaustive(&Approx4x4::new());
        assert_same_numbers(&wide, &scalar);
        // Paper §3.1: 6 erroneous pairs of magnitude 8 out of 256.
        assert_eq!(wide.error_occurrences, 6);
        assert_eq!(wide.max_error, 8);
    }

    #[test]
    fn exhaustive_wide_matches_scalar_on_8x8() {
        use axmul_core::behavioral::{Ca, Cc, Summation};
        use axmul_core::structural::{ca_netlist, cc_netlist};
        for (nl, m) in [
            (ca_netlist(8).unwrap(), Summation::Accurate),
            (cc_netlist(8).unwrap(), Summation::CarryFree),
        ] {
            let wide = ErrorStats::exhaustive_wide(&nl).unwrap();
            let scalar = match m {
                Summation::Accurate => ErrorStats::exhaustive(&Ca::new(8).unwrap()),
                Summation::CarryFree => ErrorStats::exhaustive(&Cc::new(8).unwrap()),
            };
            assert_same_numbers(&wide, &scalar);
            assert!(wide.error_occurrences > 0, "approximate 8x8 must err");
        }
    }

    #[test]
    fn exhaustive_wide_is_byte_stable_across_worker_counts() {
        use axmul_core::structural::{approx_4x4_netlist, ca_netlist, cc_netlist};
        for nl in [
            approx_4x4_netlist(),
            ca_netlist(8).unwrap(),
            cc_netlist(8).unwrap(),
        ] {
            let one = ErrorStats::exhaustive_wide_with(&nl, 1).unwrap();
            for workers in [2, 4] {
                let many = ErrorStats::exhaustive_wide_with(&nl, workers).unwrap();
                assert_eq!(one, many, "{} with {workers} workers", nl.name());
                assert_eq!(
                    one.avg_relative_error.to_bits(),
                    many.avg_relative_error.to_bits(),
                    "float fields must match to the last bit"
                );
            }
        }
    }

    #[test]
    fn exhaustive_wide_rejects_wrong_arity() {
        use axmul_fabric::{Init, NetlistBuilder};
        let mut b = NetlistBuilder::new("one_bus");
        let a = b.inputs("a", 4);
        let (o6, _) = b.lut2(Init::AND2, a[0], a[1]);
        b.output("y", o6);
        let nl = b.finish().unwrap();
        assert!(ErrorStats::exhaustive_wide(&nl).is_err());
    }

    #[test]
    fn worst_case_witnesses_achieve_the_maximum() {
        use axmul_core::behavioral::Approx4x4;
        let m = Approx4x4::new();
        let s = ErrorStats::exhaustive(&m);
        assert_eq!(s.max_error, 8);
        // 6 erring pairs, capped at WITNESS_CAP witnesses.
        assert_eq!(s.worst_case_inputs.len(), WITNESS_CAP);
        for &(a, b) in &s.worst_case_inputs {
            assert_eq!(m.error(a, b), 8, "witness ({a}, {b})");
        }
        // Exact designs report no witness.
        let z = ErrorStats::exhaustive(&axmul_core::Exact::new(4, 4));
        assert!(z.worst_case_inputs.is_empty());
    }

    #[test]
    fn witnesses_are_first_in_sample_order() {
        // Mult(8,4) errs by `p mod 16`; scanning b-slow/a-fast, the
        // first pair with p ≡ 15 (mod 16) is (a, b) = (15, 1).
        let s = ErrorStats::exhaustive(&Truncated::new(8, 4));
        assert_eq!(s.max_error, 15);
        assert_eq!(s.worst_case_inputs.first(), Some(&(15, 1)));
    }

    #[test]
    fn witnesses_are_stable_across_worker_counts() {
        use axmul_core::structural::ca_netlist;
        let nl = ca_netlist(8).unwrap();
        let one = ErrorStats::exhaustive_wide_with(&nl, 1).unwrap();
        assert!(!one.worst_case_inputs.is_empty());
        for workers in [2, 4] {
            let many = ErrorStats::exhaustive_wide_with(&nl, workers).unwrap();
            assert_eq!(one.worst_case_inputs, many.worst_case_inputs);
        }
    }

    #[test]
    fn nmed_is_normalized() {
        let s = ErrorStats::exhaustive(&Truncated::new(8, 4));
        assert!(s.normalized_mean_error_distance > 0.0);
        assert!(s.normalized_mean_error_distance < 1e-3);
    }

    #[test]
    fn mse_and_rmse_are_consistent() {
        // Mult(8,4) zeroes the low nibble of the product: the error is
        // `p mod 16`, so the MSE can be computed independently.
        let m = Truncated::new(8, 4);
        let s = ErrorStats::exhaustive(&m);
        let direct: f64 = (0..=255u64)
            .flat_map(|b| (0..=255u64).map(move |a| a * b))
            .map(|p| ((p % 16) * (p % 16)) as f64)
            .sum::<f64>()
            / 65536.0;
        assert!((s.mean_squared_error - direct).abs() < 1e-9);
        assert!((s.rmse - s.mean_squared_error.sqrt()).abs() < 1e-12);
        // Jensen: E[e^2] >= E[e]^2, i.e. rmse >= avg_error.
        assert!(s.rmse >= s.avg_error);
        // Exact designs have zero everywhere.
        let z = ErrorStats::exhaustive(&axmul_core::Exact::new(6, 6));
        assert_eq!(z.mean_squared_error, 0.0);
        assert_eq!(z.rmse, 0.0);
    }
}

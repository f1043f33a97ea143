use std::collections::HashMap;
use std::fmt;

use axmul_core::behavioral::{combine_products, Summation};
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
    /// sample errs). Every sweep kernel reproduces the sequential list
    /// exactly, and it is the hook that lets static analyses check their worst-case-error bounds
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
        let prog = CompiledNetlist::compile(netlist);
        let (wa, wb) = prog.operand_widths()?;
        assert!(
            wa + wb <= 32,
            "exhaustive sweep over {wa}x{wb} is infeasible"
        );
        let mut acc = Accumulator::default();
        prog.for_each_operand_pair_in(0..1u64 << (wa + wb), |a, b, out| {
            acc.push(a, b, a * b, out[0]);
        })?;
        Ok(acc.finish(netlist.name().to_string(), wa, wb))
    }

    /// Exhaustively characterizes a *sibling group* of 8×8 multipliers.
    /// Sibling `i` is composed, under `summation`, from the 4×4 value
    /// tables `ll`, `hl` that all siblings share and its own `lh`, `hh`
    /// (the `LL`, `HL`, `LH`, `HH` quadrants, each indexed
    /// `(b << 4) | a`), and is named `siblings[i].0`. Returns one result
    /// per sibling, in order, each bit-identical to
    /// [`ErrorStats::exhaustive`] of its composition, floats included.
    /// A single configuration is a group of one.
    ///
    /// Chunk `c` of the sweep (the rows `b = 16c + bl`, see
    /// `Accumulator`) reads only `ll`, `hl` and row `c` of `lh` and
    /// `hh`, so siblings that agree there have the same chunk. The
    /// kernel sweeps each distinct chunk of the group once, a few
    /// chunks side by side as lanes, and assembles every sibling from
    /// its sixteen chunk results.
    ///
    /// # Panics
    ///
    /// Panics unless every table has 256 entries, each below 256 (a
    /// 4×4 product's range).
    #[must_use]
    pub fn exhaustive_quads(
        ll: &[u32],
        hl: &[u32],
        summation: Summation,
        siblings: &[(&str, &[u32], &[u32])],
    ) -> Vec<Self> {
        const N: usize = QUAD_ROW;
        let tables = siblings.iter().flat_map(|&(_, lh, hh)| [lh, hh]);
        for t in [ll, hl].into_iter().chain(tables) {
            assert!(
                t.len() == N * N && t.iter().all(|&v| v < 256),
                "a 4x4 value table has 256 entries below 256"
            );
        }
        // The distinct chunk keys in order of first use, and each
        // sibling's chunks as indices into them.
        let mut keys: Vec<ChunkKey<'_>> = Vec::new();
        let mut index: HashMap<ChunkKey<'_>, usize> = HashMap::new();
        let mut chunks_of: Vec<[usize; N]> = Vec::with_capacity(siblings.len());
        for &(_, lh, hh) in siblings {
            let mut chunks = [0; N];
            for (c, slot) in chunks.iter_mut().enumerate() {
                let key = (c, &lh[c * N..][..N], &hh[c * N..][..N]);
                *slot = *index.entry(key).or_insert_with(|| {
                    keys.push(key);
                    keys.len() - 1
                });
            }
            chunks_of.push(chunks);
        }
        // One kernel per summation, so the composition is a constant.
        let sums: Vec<ChunkSums> = keys
            .chunks(LANES)
            .flat_map(|batch| match summation {
                Summation::Accurate => sweep_chunks::<false>(ll, hl, batch),
                Summation::CarryFree => sweep_chunks::<true>(ll, hl, batch),
            })
            .collect();
        siblings
            .iter()
            .zip(&chunks_of)
            .map(|(&(name, lh, hh), chunks)| {
                let product = |a: usize, b: usize| {
                    let (al, ah, bl, bh) = (a % N, a / N, b % N, b / N);
                    let p = |t: &[u32], x: usize, y: usize| u64::from(t[y * N + x]);
                    combine_products(
                        p(ll, al, bl),
                        p(hl, ah, bl),
                        p(lh, al, bh),
                        p(hh, ah, bh),
                        4,
                        summation,
                    )
                };
                let chunks = chunks.map(|i| &sums[i]);
                assemble_quad(chunks, product).finish(name.to_string(), 8, 8)
            })
            .collect()
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
/// addition order matters. `rel` is therefore accumulated in
/// fixed-size chunks of [`REL_CHUNK`] samples: each chunk's partial sum
/// involves only samples inside that chunk, and [`Accumulator::finish`]
/// folds the chunk sums left-to-right. That fixes the sequence of float
/// additions independently of how a kernel walks the chunks.
///
/// The 8×8 sibling kernel behind [`ErrorStats::exhaustive_quads`]
/// runs chunks side by side. In the canonical order (`b` outer, `a`
/// the fast axis) an 8×8 sweep's chunk `c` is exactly the sixteen rows
/// `b ∈ [16c, 16c + 16)`, i.e. the rows whose high operand nibble is
/// `bh = c`, so it reads only the shared `LL`, `HL` tables and row `c`
/// of `LH` and `HH`. The kernel keys a chunk by `c` and those two rows,
/// sweeps each distinct key of a sibling group once in its own lane,
/// and walks `bl`, then `ah`, then `al`, so every lane sees its chunk's
/// samples in the original order and makes the same roundings. Where
/// [`Accumulator::push`] skips a sample (`err == 0` or `exact == 0`),
/// the lane adds `+0.0` or nothing, which leaves a chain that is always
/// `≥ +0.0` unchanged. Counts and error sums are order-independent; the
/// lanes hold them, like the products and errors, as `f64` values that
/// stay exact integers (`err < 2¹⁷`, so a lane's sum of squares stays
/// below 2⁴⁶ < 2⁵³). A sibling's accumulator is then built from its
/// sixteen chunk results: `rel` chunk sums in chunk order, integer
/// sums, and each row's maximum error, from which a rescan, in sample
/// order, of only the rows that reach the maximum finds the maximum's
/// occurrences and witnesses. The result is the accumulator the
/// sequential pushes would have left.
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

    fn finish(self, name: String, wa: u32, wb: u32) -> ErrorStats {
        let samples_f = self.samples.max(1) as f64;
        let max_product = (mask_for(wa) * mask_for(wb)).max(1) as f64;
        let mse = self.sum_sq as f64 / samples_f;
        // Left fold in sample order.
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

/// Row length of an 8×8 sweep: sixteen rows make a relative-error
/// chunk, and sixteen chunks a sweep.
const QUAD_ROW: usize = 16;

// A chunk is exactly sixteen rows of 256 pairs.
const _: () = assert!(REL_CHUNK as usize == QUAD_ROW * QUAD_ROW * QUAD_ROW);

/// Chunks an 8×8 sibling sweep runs side by side, one per lane: four
/// keep every lane's running sums in vector registers.
const LANES: usize = 4;

/// A chunk of an 8×8 sibling sweep: its index `c` (the high nibble of
/// `b`) and row `c` of the `LH` and `HH` tables, compared by contents.
type ChunkKey<'a> = (usize, &'a [u32], &'a [u32]);

/// The sums of one chunk, as the sequential pushes would leave them.
struct ChunkSums {
    rel: f64,
    occ: u64,
    sum: u128,
    sum_sq: u128,
    /// Largest error of each row `b = 16c + bl`, indexed by `bl`.
    row_max: [u32; QUAD_ROW],
}

/// The running sums of the lanes of [`sweep_chunks`]. Counts and error
/// sums are exact integers in `f64`.
#[derive(Default)]
struct LaneSums {
    rel: [f64; LANES],
    occ: [f64; LANES],
    sum: [f64; LANES],
    sum_sq: [f64; LANES],
}

/// Sweeps up to [`LANES`] chunks side by side (see `Accumulator`):
/// lane `l` takes the rows `b = 16c + bl` of `batch[l]`, and lanes past
/// the batch repeat its first key and are dropped.
fn sweep_chunks<const CARRY_FREE: bool>(
    ll: &[u32],
    hl: &[u32],
    batch: &[ChunkKey<'_>],
) -> Vec<ChunkSums> {
    const N: usize = QUAD_ROW;
    let key = |l: usize| batch[if l < batch.len() { l } else { 0 }];
    // The lanes' `LH` and `HH` rows side by side: `lh[al][l]` is
    // `LH[c][al]` of lane `l`'s chunk `c`.
    let lh: [[u32; LANES]; N] = std::array::from_fn(|al| std::array::from_fn(|l| key(l).1[al]));
    let hh: [[u32; LANES]; N] = std::array::from_fn(|ah| std::array::from_fn(|l| key(l).2[ah]));
    let mut sums = LaneSums::default();
    // Largest error of each lane's row `b = 16c + bl`, indexed `[bl][l]`.
    let mut row_max = [[0u32; LANES]; N];
    for (bl, max) in row_max.iter_mut().enumerate() {
        let b: [f64; LANES] = std::array::from_fn(|l| (key(l).0 * N + bl) as f64);
        let (ll, hl) = (&ll[bl * N..][..N], &hl[bl * N..][..N]);
        // Only in the stripe `bl = 0` can a lane's `b` be 0 (`c = 0`).
        *max = if bl == 0 {
            stripe::<CARRY_FREE, true>(&mut sums, ll, hl, &b, &lh, &hh)
        } else {
            stripe::<CARRY_FREE, false>(&mut sums, ll, hl, &b, &lh, &hh)
        };
    }
    (0..batch.len())
        .map(|l| ChunkSums {
            rel: sums.rel[l],
            occ: sums.occ[l] as u64,
            sum: sums.sum[l] as u128,
            sum_sq: sums.sum_sq[l] as u128,
            row_max: std::array::from_fn(|bl| row_max[bl][l]),
        })
        .collect()
}

/// One stripe of [`sweep_chunks`]: the row `b[l]` of every lane, in
/// sample order, over that row's `LL` and `HL` entries. Returns each
/// lane's largest error.
///
/// The signed error `a·b − approx` is formed in `f64` from parts
/// hoisted per `al` and per `ah`; every value is an exact integer below
/// 2⁵³, so no rounding moves. The exact product `a·b` is 0 only at the
/// `a = 0` step, which adds nothing to `rel`, and, with
/// `B_MAY_BE_ZERO`, in a lane whose `b` is 0, which adds `+0.0`; every
/// other division is unguarded.
#[inline(always)]
fn stripe<const CARRY_FREE: bool, const B_MAY_BE_ZERO: bool>(
    sums: &mut LaneSums,
    ll: &[u32],
    hl: &[u32],
    b: &[f64; LANES],
    lh: &[[u32; LANES]; QUAD_ROW],
    hh: &[[u32; LANES]; QUAD_ROW],
) -> [u32; LANES] {
    const N: usize = QUAD_ROW;
    let LaneSums {
        rel,
        occ,
        sum,
        sum_sq,
    } = sums;
    // Hoisted per `al`: `al·b`, the part of the signed error that
    // depends on `al` alone, and, carry-free, the `al` half of the
    // middle field's xor.
    let al_b: [[f64; LANES]; N] =
        std::array::from_fn(|al| std::array::from_fn(|l| al as f64 * b[l]));
    let lo: [[f64; LANES]; N] = std::array::from_fn(|al| {
        std::array::from_fn(|l| {
            al_b[al][l]
                - if CARRY_FREE {
                    f64::from(ll[al] & 15)
                } else {
                    f64::from(ll[al]) + 16.0 * f64::from(lh[al][l])
                }
        })
    });
    let mid_lo: [[i32; LANES]; N] =
        std::array::from_fn(|al| std::array::from_fn(|l| ((ll[al] >> 4) ^ lh[al][l]) as i32));
    let mut max = [0.0f64; LANES];
    for ah in 0..N {
        // Hoisted per `ah`: `16ah·b`, the part of the signed error that
        // depends on `ah` alone, and the `ah` half of the xor.
        let ah_b: [f64; LANES] = std::array::from_fn(|l| (ah * N) as f64 * b[l]);
        let hi: [f64; LANES] = std::array::from_fn(|l| {
            ah_b[l]
                - if CARRY_FREE {
                    4096.0 * f64::from(hh[ah][l] >> 4)
                } else {
                    16.0 * f64::from(hl[ah]) + 256.0 * f64::from(hh[ah][l])
                }
        });
        let mid_hi: [i32; LANES] =
            std::array::from_fn(|l| (hl[ah] ^ ((hh[ah][l] & 15) << 4)) as i32);
        let mut step = |al: usize, l: usize| {
            // Carry-free: `approx = (ll & 15) + 16·mid + 4096·(hh >> 4)`
            // with `mid = (ll >> 4) ^ hl ^ lh ^ ((hh & 15) << 4)`;
            // accurate: `approx = ll + 16·(hl + lh) + 256·hh`.
            let err = if CARRY_FREE {
                hi[l] + lo[al][l] - 16.0 * f64::from(mid_hi[l] ^ mid_lo[al][l])
            } else {
                hi[l] + lo[al][l]
            }
            .abs();
            // Plain compares: no NaN occurs, and `f64::min` and
            // `f64::max` would pay to handle one.
            occ[l] += if err < 1.0 { err } else { 1.0 };
            sum[l] += err;
            sum_sq[l] += err * err;
            max[l] = if err > max[l] { err } else { max[l] };
            err
        };
        // The `a = 0` step adds nothing to `rel`.
        if ah == 0 {
            for l in 0..LANES {
                step(0, l);
            }
        }
        for (al, al_b) in al_b.iter().enumerate().skip(usize::from(ah == 0)) {
            for l in 0..LANES {
                let err = step(al, l);
                let exact = ah_b[l] + al_b[l];
                rel[l] += if B_MAY_BE_ZERO && b[l] == 0.0 {
                    0.0
                } else {
                    err / exact
                };
            }
        }
    }
    max.map(|m| m as u32)
}

/// A sibling's accumulator from its sixteen chunk results, in chunk
/// order; `product(a, b)` is its composed product, used only to
/// rescan the rows that reach the maximum.
fn assemble_quad(
    chunks: [&ChunkSums; QUAD_ROW],
    product: impl Fn(usize, usize) -> u64,
) -> Accumulator {
    const N: usize = QUAD_ROW;
    let max = chunks.iter().flat_map(|c| c.row_max).max().unwrap_or(0);
    let mut max_occ = 0;
    let mut witnesses = Vec::new();
    if max > 0 {
        let rows = chunks.iter().flat_map(|c| c.row_max).enumerate();
        for (b, _) in rows.filter(|&(_, m)| m == max) {
            for a in 0..N * N {
                if ((a * b) as u64).abs_diff(product(a, b)) == u64::from(max) {
                    max_occ += 1;
                    if witnesses.len() < WITNESS_CAP {
                        witnesses.push((a as u64, b as u64));
                    }
                }
            }
        }
    }
    let (done, last) = chunks.split_at(N - 1);
    Accumulator {
        samples: REL_CHUNK * N as u64,
        occ: chunks.iter().map(|c| c.occ).sum(),
        max: i64::from(max),
        max_occ,
        sum: chunks.iter().map(|c| c.sum).sum(),
        sum_sq: chunks.iter().map(|c| c.sum_sq).sum(),
        rel_chunks: done.iter().map(|c| c.rel).collect(),
        chunk_rel: last[0].rel,
        in_chunk: REL_CHUNK,
        witnesses,
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

//! Memoized characterization of configuration sub-blocks.
//!
//! Characterizing a candidate means knowing its hardware cost (LUTs,
//! critical path, energy/EDP — from `axmul-fabric`) and its error
//! statistics (from `axmul-metrics`). Both are expensive to recompute
//! per candidate, but candidates share sub-blocks massively: every 8×8
//! candidate is built from the same five 4×4 leaves, and 16×16
//! candidates re-use whole 8×8 quadrants. [`CharCache`] therefore
//! memoizes one [`BlockChar`] per *canonical configuration key*
//! ([`crate::Config::key`]) and assembles parents from cached children.
//!
//! # Why value tables, not error PMFs
//!
//! The four quadrant products of a recursive multiplier share operand
//! halves (`AL·BL` and `AL·BH` both read `AL`), so their errors are
//! *dependent* random variables: convolving per-quadrant error PMFs
//! would be wrong (and under carry-free summation the quadrant errors
//! do not even compose additively). The cache instead keeps each 4×4
//! leaf's exhaustive **value table** (256 entries) and composes parent
//! values exactly with [`axmul_core::behavioral::combine_products`].
//! Composed statistics are therefore *exact* — bit-identical to
//! sweeping the assembled netlist — which the crate's property tests
//! assert.
//!
//! An 8×8 quad's statistics are folded straight from its four leaf
//! tables by [`ErrorStats::exhaustive_quad`], whose sixteen lanes are
//! the sixteen 4096-sample relative-error chunks of the sweep: chunk
//! `bh` is the rows `b = (bh << 4) | bl`, each lane takes its chunk's
//! samples in the original order, a pair the per-pair fold would skip
//! adds `+0.0` to its lane's chain (a no-op, since the chain is never
//! below `+0.0`), and the counts and error sums are exact integers in
//! any order. So the statistics are bit-identical to
//! [`ErrorStats::exhaustive`]. The quad's own 65 536-entry table is
//! built only when something asks for the block's evaluator
//! ([`BlockChar::multiplier`]) and then kept.
//! An exhaustive 8×8 sweep therefore holds 1 KiB per leaf instead of
//! 256 KiB per candidate, while a 16×16 parent still evaluates its
//! 8×8 children by table lookup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use axmul_core::behavioral::{combine_products, Summation};
use axmul_core::{mask_for, Multiplier};
use axmul_fabric::area::AreaReport;
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::cost::{Characterizer, NetlistCost};
use axmul_fabric::{FabricError, Netlist};
use axmul_metrics::ErrorStats;

/// Version of the characterization algorithm, mixed into every
/// persisted record's hash. Bump it whenever a change alters the float
/// values a build produces (e.g. the wide-lane energy rework moved the
/// weight fold to the end of the run, changing `energy_per_op`/`edp`
/// in the last bits) so stale records rebuild instead of silently
/// serving the old numbers.
const CHAR_ALGO_VERSION: u64 = 2;

use crate::config::Config;
use crate::store::{netlist_fingerprint, DiskStore, StoreError, StoredChar};

/// Fully-characterized configuration block: netlist, hardware cost,
/// exact evaluator and error statistics.
#[derive(Debug, Clone)]
pub struct BlockChar {
    /// Canonical configuration key this record describes.
    pub key: String,
    /// Operand width in bits.
    pub bits: u32,
    /// The assembled structural netlist.
    pub netlist: Arc<Netlist>,
    /// Area / timing / energy of the netlist.
    pub cost: NetlistCost,
    /// Error statistics: exhaustive for widths ≤ 8 bits, sampled above.
    pub stats: ErrorStats,
    node: EvalNode,
    /// Value table of an ≤ 8-bit quad, flattened from its leaf tables
    /// on the first [`BlockChar::multiplier`] call.
    table: OnceLock<Arc<Vec<u32>>>,
}

impl BlockChar {
    /// A cheap, exact behavioral evaluator of this block: value-table
    /// lookups at ≤ 8 bits, recursive table composition above. An
    /// ≤ 8-bit quad's table is built on the first call and kept.
    #[must_use]
    pub fn multiplier(&self) -> ComposedMultiplier {
        let node = match self.node.leaf_quad() {
            Some(quad) => EvalNode::Table {
                bits: self.bits,
                table: Arc::clone(self.table.get_or_init(|| Arc::new(quad.table()))),
            },
            None => self.node.clone(),
        };
        ComposedMultiplier {
            bits: self.bits,
            name: self.key.clone(),
            node,
        }
    }
}

/// Exact behavioral evaluator of a configuration, backed by the
/// cache's memoized value tables. Implements [`Multiplier`], so it
/// plugs into `axmul-metrics` and application-level simulation.
#[derive(Debug, Clone)]
pub struct ComposedMultiplier {
    bits: u32,
    name: String,
    node: EvalNode,
}

#[derive(Debug, Clone)]
enum EvalNode {
    /// Exhaustive table, indexed `(b << bits) | a`.
    Table { bits: u32, table: Arc<Vec<u32>> },
    /// Recursive composition of four half-width evaluators.
    Quad {
        summation: Summation,
        m: u32,
        sub: Box<[EvalNode; 4]>,
    },
}

impl EvalNode {
    fn eval(&self, a: u64, b: u64) -> u64 {
        match self {
            EvalNode::Table { bits, table } => table[((b as usize) << bits) | a as usize].into(),
            EvalNode::Quad { summation, m, sub } => {
                let mask = mask_for(*m);
                let (al, ah) = (a & mask, a >> m);
                let (bl, bh) = (b & mask, b >> m);
                combine_products(
                    sub[0].eval(al, bl),
                    sub[1].eval(ah, bl),
                    sub[2].eval(al, bh),
                    sub[3].eval(ah, bh),
                    *m,
                    *summation,
                )
            }
        }
    }

    /// The node as an 8×8 quad over four value tables, if it is one.
    fn leaf_quad(&self) -> Option<LeafQuad<'_>> {
        match self {
            EvalNode::Quad { summation, m, sub } if *m == 4 => match &**sub {
                [EvalNode::Table { table: ll, .. }, EvalNode::Table { table: hl, .. }, EvalNode::Table { table: lh, .. }, EvalNode::Table { table: hh, .. }] => {
                    Some(LeafQuad {
                        summation: *summation,
                        tables: [ll, hl, lh, hh],
                    })
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// An 8×8 quad whose four children are 4×4 value tables: the DSE hot
/// loop folds its statistics from the leaf tables, and its own table
/// is flattened from them on demand.
struct LeafQuad<'a> {
    summation: Summation,
    /// Child tables in `LL`, `HL`, `LH`, `HH` order.
    tables: [&'a [u32]; 4],
}

impl LeafQuad<'_> {
    /// Calls `f(product)` for every operand pair in the canonical sweep
    /// order (`b` outer, `a` the fast axis), composing products from
    /// hoisted child-table rows instead of walking the evaluator tree
    /// per pair.
    #[inline]
    fn for_each_product(&self, mut f: impl FnMut(u64)) {
        const M: u32 = 4;
        const HALF: usize = 1 << M;
        let [ll, hl, lh, hh] = self.tables;
        for b in 0..HALF * HALF {
            let (bl, bh) = (b % HALF, b / HALF);
            let r_ll = &ll[bl * HALF..][..HALF];
            let r_hl = &hl[bl * HALF..][..HALF];
            let r_lh = &lh[bh * HALF..][..HALF];
            let r_hh = &hh[bh * HALF..][..HALF];
            for ah in 0..HALF {
                let p_hl = u64::from(r_hl[ah]);
                let p_hh = u64::from(r_hh[ah]);
                for al in 0..HALF {
                    let p_ll = u64::from(r_ll[al]);
                    let p_lh = u64::from(r_lh[al]);
                    f(combine_products(p_ll, p_hl, p_lh, p_hh, M, self.summation));
                }
            }
        }
    }

    /// Exhaustive error statistics, from the lane-parallel quad kernel
    /// ([`ErrorStats::exhaustive_quad`]), bit-identical to
    /// [`ErrorStats::exhaustive`].
    fn stats(&self, name: &str) -> ErrorStats {
        ErrorStats::exhaustive_quad(name.to_string(), self.tables, self.summation)
    }

    /// Exhaustive value table, indexed `(b << bits) | a` — exactly the
    /// sweep order.
    fn table(&self) -> Vec<u32> {
        let mut table = Vec::with_capacity(1 << 16);
        self.for_each_product(|p| table.push(p as u32));
        table
    }
}

/// A quad's evaluator over its children's; an ≤ 8-bit child's table is
/// built here if no one has asked for it yet.
fn quad_node(summation: Summation, bits: u32, children: &[Arc<BlockChar>; 4]) -> EvalNode {
    EvalNode::Quad {
        summation,
        m: bits / 2,
        sub: Box::new(children.each_ref().map(|c| c.multiplier().node)),
    }
}

impl Multiplier for ComposedMultiplier {
    fn a_bits(&self) -> u32 {
        self.bits
    }
    fn b_bits(&self) -> u32 {
        self.bits
    }
    fn multiply(&self, a: u64, b: u64) -> u64 {
        let mask = mask_for(self.bits);
        self.node.eval(a & mask, b & mask)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Thread-safe memoization cache of sub-block characterizations.
///
/// Shared by reference across the worker pool; lookups and inserts are
/// internally synchronized, and hit/miss counters are atomic.
#[derive(Debug)]
pub struct CharCache {
    characterizer: Characterizer,
    /// Number of sampled operand pairs for widths > 8 bits.
    samples: u64,
    /// Seed of the sampled-stats stream.
    sample_seed: u64,
    /// Every lock of the cache tolerates poisoning: each critical
    /// section is one lookup or insert, which leaves the data valid
    /// even when its holder panics.
    map: Mutex<HashMap<String, Arc<BlockChar>>>,
    /// Keys a worker is characterizing right now; a second worker that
    /// misses on one waits for the first worker's record.
    in_flight: Mutex<HashMap<String, Arc<InFlight>>>,
    store: Option<Arc<DiskStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    store_failures: AtomicU64,
    last_store_error: Mutex<Option<String>>,
    time_sta_ns: AtomicU64,
    time_energy_ns: AtomicU64,
    time_error_ns: AtomicU64,
}

/// A key being characterized: waiters sleep until its builder is done,
/// whether it succeeded, failed or panicked.
#[derive(Debug, Default)]
struct InFlight {
    done: Mutex<bool>,
    wake: Condvar,
}

impl InFlight {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self.wake.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A claimed in-flight slot, released (and its waiters woken) when the
/// build returns or unwinds.
struct SlotGuard<'a> {
    cache: &'a CharCache,
    key: &'a str,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let slot = self
            .cache
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(self.key);
        if let Some(slot) = slot {
            *slot.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
            slot.wake.notify_all();
        }
    }
}

/// Cumulative wall-clock split of the characterizations a [`CharCache`]
/// has built, by phase (see [`CharCache::time_breakdown`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharTimeBreakdown {
    /// Error-statistics sweeps (exhaustive or sampled), plus the 8×8
    /// tables that wider parents build on demand.
    pub error: Duration,
    /// Packed-stimulus energy measurements.
    pub energy: Duration,
    /// Static timing analysis.
    pub sta: Duration,
}

/// Why restoring a persisted record failed. Store-level failures fall
/// back to a rebuild; fabric failures are real and propagate.
enum RestoreError {
    Store(StoreError),
    Fabric(FabricError),
}

impl From<StoreError> for RestoreError {
    fn from(e: StoreError) -> Self {
        RestoreError::Store(e)
    }
}

impl CharCache {
    /// Creates an empty cache with 100 000 sampled pairs for wide
    /// blocks.
    #[must_use]
    pub fn new(characterizer: Characterizer) -> Self {
        CharCache {
            characterizer,
            samples: 100_000,
            sample_seed: 0x5EED,
            map: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            last_store_error: Mutex::new(None),
            time_sta_ns: AtomicU64::new(0),
            time_energy_ns: AtomicU64::new(0),
            time_error_ns: AtomicU64::new(0),
        }
    }

    /// Overrides the sampling policy for widths > 8 bits.
    #[must_use]
    pub fn with_sampling(mut self, samples: u64, seed: u64) -> Self {
        self.samples = samples;
        self.sample_seed = seed;
        self
    }

    /// Backs the cache with a persistent on-disk store: in-memory
    /// misses first consult the store (skipping characterization on a
    /// hit), and freshly built records are persisted for the next
    /// process. Restored characterizations are bit-identical to built
    /// ones; any unreadable, corrupt or stale record falls back to a
    /// clean rebuild (counted by [`CharCache::store_failures`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<DiskStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The backing persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Characterizes `cfg`, reusing every already-characterized
    /// sub-block (including `cfg` itself on repeat queries).
    ///
    /// Each key is characterized once: a worker that misses on a key
    /// another worker is building waits for that record (and counts a
    /// hit). If the build fails or panics, waiters retry it themselves.
    ///
    /// # Errors
    ///
    /// Propagates netlist simulation errors.
    pub fn characterize(&self, cfg: &Config) -> Result<Arc<BlockChar>, FabricError> {
        let key = cfg.key();
        let _slot = loop {
            if let Some(hit) = self.lookup(&key) {
                return Ok(hit);
            }
            // Claim the key, or wait for the worker that holds it. The
            // map is checked again under the in-flight lock, because a
            // builder inserts its record before it releases its slot.
            let mut in_flight = self
                .in_flight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match in_flight.get(&key) {
                Some(slot) => {
                    let slot = Arc::clone(slot);
                    drop(in_flight);
                    slot.wait();
                }
                None => {
                    if let Some(hit) = self.lookup(&key) {
                        return Ok(hit);
                    }
                    in_flight.insert(key.clone(), Arc::new(InFlight::default()));
                    break SlotGuard {
                        cache: self,
                        key: &key,
                    };
                }
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let record = match self.restore(cfg, &key) {
            Ok(Some(rec)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Arc::new(rec)
            }
            Ok(None) => Arc::new(self.build_and_persist(cfg, &key)?),
            Err(RestoreError::Fabric(e)) => return Err(e),
            Err(RestoreError::Store(e)) => {
                // Truncated, corrupt, version-mismatched or stale
                // record: rebuild cleanly and overwrite it.
                self.store_failures.fetch_add(1, Ordering::Relaxed);
                *self
                    .last_store_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(e.to_string());
                Arc::new(self.build_and_persist(cfg, &key)?)
            }
        };
        self.map().insert(key.clone(), Arc::clone(&record));
        Ok(record)
    }

    /// The locked record map (poison-tolerant, see the `map` field).
    fn map(&self) -> MutexGuard<'_, HashMap<String, Arc<BlockChar>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An in-memory hit, counted.
    fn lookup(&self, key: &str) -> Option<Arc<BlockChar>> {
        let hit = Arc::clone(self.map().get(key)?);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Characterizes a quad's four sub-configurations.
    fn characterize_quadrants(
        &self,
        sub: &[Config; 4],
    ) -> Result<[Arc<BlockChar>; 4], FabricError> {
        Ok([
            self.characterize(&sub[0])?,
            self.characterize(&sub[1])?,
            self.characterize(&sub[2])?,
            self.characterize(&sub[3])?,
        ])
    }

    /// Attempts to rebuild a [`BlockChar`] from the persistent store:
    /// netlist reassembled from the key, leaf tables read back, quad
    /// evaluators composed from (recursively restored) children, cost
    /// and stats taken from the record. `Ok(None)` = not stored.
    fn restore(&self, cfg: &Config, key: &str) -> Result<Option<BlockChar>, RestoreError> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let Some(rec) = store.load(key)? else {
            return Ok(None);
        };
        let bits = cfg.bits();
        if rec.bits != bits {
            return Err(StoreError::Corrupt(format!(
                "record width {} does not match key width {bits}",
                rec.bits
            ))
            .into());
        }
        let netlist = cfg.assemble();
        let expected = self.record_hash(&netlist, bits);
        if rec.netlist_hash != expected {
            return Err(StoreError::StaleNetlist {
                expected,
                found: rec.netlist_hash,
            }
            .into());
        }
        let node = match cfg {
            Config::Leaf(_) => {
                let Some(table) = rec.table.clone() else {
                    return Err(StoreError::Corrupt("leaf record without table".into()).into());
                };
                if table.len() != 1usize << (2 * bits) {
                    return Err(StoreError::Corrupt(format!(
                        "leaf table has {} entries, expected {}",
                        table.len(),
                        1usize << (2 * bits)
                    ))
                    .into());
                }
                EvalNode::Table {
                    bits,
                    table: Arc::new(table),
                }
            }
            Config::Quad { summation, sub } => {
                let children = self
                    .characterize_quadrants(sub)
                    .map_err(RestoreError::Fabric)?;
                quad_node(*summation, bits, &children)
            }
        };
        let cost = NetlistCost {
            area: AreaReport {
                luts: rec.luts as usize,
                carry4s: rec.carry4s as usize,
                wasted_sites: rec.wasted_sites as usize,
                dead_outputs: rec.dead_outputs as usize,
                ignored_pins: rec.ignored_pins as usize,
            },
            critical_path_ns: rec.critical_path_ns,
            energy_per_op: rec.energy_per_op,
            edp: rec.edp,
        };
        Ok(Some(BlockChar {
            key: key.to_string(),
            bits,
            netlist: Arc::new(netlist),
            cost,
            stats: rec.stats.clone(),
            node,
            table: OnceLock::new(),
        }))
    }

    /// Per-record version hash: the structural netlist fingerprint
    /// mixed with [`CHAR_ALGO_VERSION`], plus the sampling policy for
    /// widths whose statistics are sampled rather than exhaustive.
    fn record_hash(&self, netlist: &Netlist, bits: u32) -> u64 {
        let mut h = netlist_fingerprint(netlist);
        let mut mix = |v: u64| {
            h ^= v;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
        };
        mix(CHAR_ALGO_VERSION);
        if 2 * bits > 16 {
            mix(self.samples);
            mix(self.sample_seed);
        }
        h
    }

    fn build_and_persist(&self, cfg: &Config, key: &str) -> Result<BlockChar, FabricError> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        let block = self.build(cfg, key)?;
        if let Some(store) = &self.store {
            // Leaf value tables are persisted; a quad's evaluator is
            // composed from its children, so only stats/cost are stored.
            let table = match (cfg, &block.node) {
                (Config::Leaf(_), EvalNode::Table { table, .. }) => Some(table.to_vec()),
                _ => None,
            };
            let rec = StoredChar {
                key: key.to_string(),
                bits: block.bits,
                netlist_hash: self.record_hash(&block.netlist, block.bits),
                luts: block.cost.area.luts as u64,
                carry4s: block.cost.area.carry4s as u64,
                wasted_sites: block.cost.area.wasted_sites as u64,
                dead_outputs: block.cost.area.dead_outputs as u64,
                ignored_pins: block.cost.area.ignored_pins as u64,
                critical_path_ns: block.cost.critical_path_ns,
                energy_per_op: block.cost.energy_per_op,
                edp: block.cost.edp,
                stats: block.stats.clone(),
                table,
            };
            if store.save(&rec).is_err() {
                self.store_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(block)
    }

    fn build(&self, cfg: &Config, key: &str) -> Result<BlockChar, FabricError> {
        let bits = cfg.bits();
        // Each block is compiled into the fabric's bit-sliced program
        // exactly once; the leaf value-table sweep and the
        // energy-characterization stimulus both run over that program.
        let (netlist, node, prog) = match cfg {
            Config::Leaf(leaf) => {
                let nl = leaf.netlist();
                let prog = CompiledNetlist::compile(&nl);
                let mut table = vec![0u32; 1usize << (2 * bits)];
                prog.for_each_operand_pair_in(0..1u64 << (2 * bits), |a, b, out| {
                    table[((b as usize) << bits) | a as usize] = out[0] as u32;
                })?;
                let node = EvalNode::Table {
                    bits,
                    table: Arc::new(table),
                };
                (nl, node, prog)
            }
            Config::Quad { summation, sub } => {
                let subs = self.characterize_quadrants(sub)?;
                let nl = axmul_core::structural::compose_quad_netlist(
                    key.to_string(),
                    &subs[0].netlist,
                    &subs[1].netlist,
                    &subs[2].netlist,
                    &subs[3].netlist,
                    *summation,
                );
                // Building a child's lazy table is error-sweep work.
                let t_err = Instant::now();
                let node = quad_node(*summation, bits, &subs);
                self.time_error_ns
                    .fetch_add(t_err.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let prog = CompiledNetlist::compile(&nl);
                (nl, node, prog)
            }
        };
        let (cost, char_times) = self.characterizer.characterize_timed(&netlist, &prog)?;
        self.time_sta_ns
            .fetch_add(char_times.sta.as_nanos() as u64, Ordering::Relaxed);
        self.time_energy_ns
            .fetch_add(char_times.energy.as_nanos() as u64, Ordering::Relaxed);
        let t_err = Instant::now();
        let evaluator = ComposedMultiplier {
            bits,
            name: key.to_string(),
            node,
        };
        let stats = match evaluator.node.leaf_quad() {
            Some(quad) => quad.stats(key),
            None if 2 * bits <= 16 => ErrorStats::exhaustive(&evaluator),
            None => ErrorStats::sampled(&evaluator, self.samples, self.sample_seed),
        };
        self.time_error_ns
            .fetch_add(t_err.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(BlockChar {
            key: key.to_string(),
            bits,
            netlist: Arc::new(netlist),
            cost,
            stats,
            node: evaluator.node,
            table: OnceLock::new(),
        })
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// In-memory cache misses so far. A miss is either restored from
    /// the persistent store ([`CharCache::disk_hits`]) or characterized
    /// from scratch ([`CharCache::builds`]).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// In-memory misses served from the persistent store without any
    /// recharacterization.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Characterizations actually computed (netlist sweeps + energy
    /// stimulus). Zero on a fully warm store.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock split of the characterizations this cache
    /// has built: error-statistics sweeps vs energy measurements vs
    /// STA. Restores and in-memory hits add nothing — the split covers
    /// actual compute only.
    pub fn time_breakdown(&self) -> CharTimeBreakdown {
        CharTimeBreakdown {
            error: Duration::from_nanos(self.time_error_ns.load(Ordering::Relaxed)),
            energy: Duration::from_nanos(self.time_energy_ns.load(Ordering::Relaxed)),
            sta: Duration::from_nanos(self.time_sta_ns.load(Ordering::Relaxed)),
        }
    }

    /// Store records that could not be used (unreadable, truncated,
    /// corrupt, stale) or written; each one fell back to a clean
    /// rebuild / was skipped.
    pub fn store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Human-readable description of the most recent store failure,
    /// for diagnostics (e.g. a daemon's stats endpoint).
    pub fn last_store_error(&self) -> Option<String> {
        self.last_store_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// `hits / (hits + misses)`, or 0 before the first query.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of distinct sub-blocks characterized.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::evaluate_on;

    fn cache() -> CharCache {
        CharCache::new(Characterizer::virtex7())
    }

    /// Keys of the 8-bit blocks in `cache` that hold a built table.
    fn tabled_8x8(cache: &CharCache) -> Vec<String> {
        let map = cache.map.lock().unwrap();
        let mut keys: Vec<String> = map
            .values()
            .filter(|c| c.bits == 8 && c.table.get().is_some())
            .map(|c| c.key.clone())
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn exhaustive_8x8_sweep_builds_no_8x8_table() {
        let cache = cache();
        let result = evaluate_on(&cache, &Config::enumerate(8), 2).unwrap();
        assert_eq!(result.reports.len(), 1250);
        assert_eq!(cache.len(), 1255);
        assert_eq!(tabled_8x8(&cache), Vec::<String>::new());
    }

    #[test]
    fn a_16x16_parent_builds_exactly_its_distinct_children_tables() {
        let cache = cache();
        // A spectator 8×8 block the parent does not use.
        cache.characterize(&"(c X X X X)".parse().unwrap()).unwrap();
        let parent: Config = "(a (a A A A A) (c T3 A X X) (a A A A A) (a X X X X))"
            .parse()
            .unwrap();
        cache.characterize(&parent).unwrap();
        assert_eq!(
            tabled_8x8(&cache),
            ["(a A A A A)", "(a X X X X)", "(c T3 A X X)"]
        );
    }

    #[test]
    fn lazy_table_matches_composition_on_every_pair() {
        let cache = cache();
        for key in ["(a T3 A X X)", "(c X T1 T2 A)"] {
            let block = cache.characterize(&key.parse().unwrap()).unwrap();
            assert!(block.table.get().is_none());
            let lazy = block.multiplier();
            assert!(matches!(lazy.node, EvalNode::Table { .. }), "{key}");
            // The block's own node is still the composition of its
            // four leaf tables via `combine_products`.
            assert!(matches!(block.node, EvalNode::Quad { .. }), "{key}");
            for b in 0..256 {
                for a in 0..256 {
                    assert_eq!(lazy.multiply(a, b), block.node.eval(a, b), "{key} {a}x{b}");
                }
            }
        }
    }

    #[test]
    fn racing_workers_characterize_each_key_once() {
        let cache = cache();
        let keys: Vec<Config> = ["(a A T1 X T3)", "(c T2 A A X)", "(a X X T3 A)"]
            .iter()
            .map(|k| k.parse().unwrap())
            .collect();
        let start = std::sync::Barrier::new(2);
        let records: Vec<Vec<Arc<BlockChar>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        keys.iter()
                            .map(|k| cache.characterize(k).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // 5 distinct leaves plus 3 quads, each built exactly once; the
        // calls are 6 top-level ones plus 4 children per quad build.
        assert_eq!(cache.builds(), 8);
        assert_eq!(cache.misses(), 8);
        assert_eq!(cache.hits(), 2 * 3 + 3 * 4 - 8);
        for (mine, theirs) in records[0].iter().zip(&records[1]) {
            assert!(Arc::ptr_eq(mine, theirs), "{}", mine.key);
        }
    }

    #[test]
    fn a_panic_under_the_map_lock_leaves_the_cache_usable() {
        let cache = cache();
        let (seen, unseen): (Config, Config) = (
            "(a T3 A X X)".parse().unwrap(),
            "(c X T1 T2 A)".parse().unwrap(),
        );
        let before = cache.characterize(&seen).unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _map = cache.map.lock().unwrap();
                    panic!("worker dies holding the map lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cache.map.is_poisoned());
        // A hit, a fresh build over cached leaves, and the counters.
        let hit = cache.characterize(&seen).unwrap();
        assert!(Arc::ptr_eq(&hit, &before));
        let built = cache.characterize(&unseen).unwrap();
        let fresh = CharCache::new(Characterizer::virtex7());
        assert_eq!(built.stats, fresh.characterize(&unseen).unwrap().stats);
        // All five leaves and the two quads.
        assert_eq!(cache.len(), 7);
        assert_eq!(cache.last_store_error(), None);
    }
}

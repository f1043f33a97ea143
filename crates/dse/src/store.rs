//! Persistent on-disk characterization store.
//!
//! [`DiskStore`] persists one [`StoredChar`] record per canonical
//! configuration key so a process restart (or a different process
//! sharing the cache directory) skips characterization entirely: the
//! expensive quantities — energy/EDP from the 1024-vector toggle sweep,
//! exhaustive error statistics, leaf value tables — are read back
//! instead of recomputed. The [`crate::CharCache`] composes everything
//! else (quad evaluators) from the records, so restored
//! characterizations are bit-identical to freshly computed ones.
//!
//! # Layout and format
//!
//! ```text
//! <cache-dir>/char-v2/<hh>/<hash16>.bin
//! ```
//!
//! `char-v2` pins [`STORE_FORMAT_VERSION`]; `<hh>` is the first byte of
//! the key's FNV-1a hash (256-way directory sharding); `<hash16>` the
//! full 64-bit hash in hex. Each file is one length-prefixed binary
//! record:
//!
//! ```text
//! magic "AXCH" | u32 format version | u64 payload length
//! payload bytes | u64 FNV-1a checksum of the payload
//! ```
//!
//! Writes go to a unique temporary file in the same directory followed
//! by an atomic rename, so readers never observe a half-written record
//! and concurrent writers of the same key settle on one winner.
//!
//! # Versioning
//!
//! Two mechanisms invalidate stale records. The format version gates
//! the whole directory (a bump abandons `char-v<old>` wholesale; bump
//! it whenever the record layout *or* the characterization models
//! change). Per record, [`StoredChar::netlist_hash`] fingerprints the
//! structural netlist the record describes; on load the caller
//! re-assembles the netlist from the key and rejects the record with
//! [`StoreError::StaleNetlist`] if the generators have since changed.
//! The record hash the [`crate::CharCache`] computes also mixes in its
//! characterization-algorithm version (`CHAR_ALGO_VERSION` in
//! `cache.rs`), which is bumped whenever the *semantics* of the stored
//! floats change — e.g. the packed-stimulus energy rework, which
//! accumulates integer toggle counts and applies the float weights
//! once at the end, shifting `energy_per_op`/`edp` by final-rounding
//! bits relative to the old per-batch accumulation. Records written by
//! an older algorithm therefore miss (via the netlist-hash mismatch
//! path) and are rebuilt instead of silently serving stale floats.
//!
//! # Hot tier
//!
//! A sharded in-process LRU (16 shards, [`DiskStore::with_hot_capacity`]
//! records overall) caches decoded records, so repeated loads — e.g.
//! several [`crate::CharCache`] instances sharing one store inside a
//! daemon — skip the filesystem and the decode.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use axmul_fabric::Netlist;
use axmul_metrics::ErrorStats;

/// Bump whenever the record layout or the characterization models
/// (delay, energy, stimulus policy, error-statistics definition)
/// change; old cache directories are then ignored rather than misread.
/// v2 added the worst-case operand witness list to the error stats.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Record file magic.
const MAGIC: [u8; 4] = *b"AXCH";

/// LRU shard count of the hot tier.
const LRU_SHARDS: usize = 16;

/// Default hot-tier capacity (records, across all shards).
const DEFAULT_HOT_CAPACITY: usize = 4096;

/// Typed failure of a store operation. Every variant is recoverable:
/// the characterization cache treats any load error as a miss and
/// rebuilds the record from scratch.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem failure (open, read, write, rename).
    Io(std::io::Error),
    /// The record does not start with the `AXCH` magic — the file is
    /// garbage or not a characterization record at all.
    BadMagic,
    /// The record's format version differs from
    /// [`STORE_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the declared record length — a torn or
    /// truncated write.
    Truncated,
    /// The payload checksum does not match — corrupted bytes.
    ChecksumMismatch,
    /// The payload is structurally invalid (bad lengths, non-UTF-8
    /// strings, impossible field values).
    Corrupt(String),
    /// The record was written for a different netlist than the one the
    /// key assembles today — the generators changed since it was saved.
    StaleNetlist {
        /// Fingerprint of the netlist the key assembles now.
        expected: u64,
        /// Fingerprint recorded in the store.
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::BadMagic => write!(f, "store record has bad magic"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "store record version {v} (supported: {STORE_FORMAT_VERSION})"
                )
            }
            StoreError::Truncated => write!(f, "store record is truncated"),
            StoreError::ChecksumMismatch => write!(f, "store record checksum mismatch"),
            StoreError::Corrupt(m) => write!(f, "store record is corrupt: {m}"),
            StoreError::StaleNetlist { expected, found } => write!(
                f,
                "store record is stale: netlist hash {found:#018x}, expected {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The persisted subset of a characterization: everything expensive to
/// recompute, nothing derivable cheaply from the key (the netlist is
/// reassembled and quad evaluators are composed from children on load).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredChar {
    /// Canonical configuration key.
    pub key: String,
    /// Operand width in bits.
    pub bits: u32,
    /// Fingerprint of the structural netlist this record describes
    /// (see [`netlist_fingerprint`]).
    pub netlist_hash: u64,
    /// LUT count.
    pub luts: u64,
    /// `CARRY4` count.
    pub carry4s: u64,
    /// Stranded LUT sites.
    pub wasted_sites: u64,
    /// Dead cell outputs.
    pub dead_outputs: u64,
    /// Routed-but-ignored LUT pins.
    pub ignored_pins: u64,
    /// Critical path in ns.
    pub critical_path_ns: f64,
    /// Average switching energy per operation.
    pub energy_per_op: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Error statistics (exhaustive ≤ 8 bits, sampled above).
    pub stats: ErrorStats,
    /// Exhaustive leaf value table; `None` for quads, whose evaluators
    /// are composed exactly from their children on load.
    pub table: Option<Vec<u32>>,
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable structural fingerprint of a netlist: FNV-1a over its Verilog
/// export (cells, INITs, connectivity and port order all feed the
/// text). Any change to the generators changes the fingerprint and
/// invalidates persisted records for the affected keys.
///
/// The canonical implementation lives in [`axmul_netio::fingerprint`]:
/// because `export → import → export` is a byte fixpoint there, an
/// imported netlist fingerprints identically to its in-process twin
/// and warm cache records keep hitting for externally supplied
/// designs.
#[must_use]
pub fn netlist_fingerprint(netlist: &Netlist) -> u64 {
    axmul_netio::fingerprint(netlist)
}

/// One LRU shard: decoded records plus a logical clock for eviction.
#[derive(Debug, Default)]
struct LruShard {
    map: HashMap<String, (u64, Arc<StoredChar>)>,
    clock: u64,
}

impl LruShard {
    fn get(&mut self, key: &str) -> Option<Arc<StoredChar>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(stamp, rec)| {
            *stamp = clock;
            Arc::clone(rec)
        })
    }

    fn insert(&mut self, key: String, rec: Arc<StoredChar>, capacity: usize) {
        self.clock += 1;
        self.map.insert(key, (self.clock, rec));
        while self.map.len() > capacity.max(1) {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty shard");
            self.map.remove(&oldest);
        }
    }
}

/// Persistent, thread-safe characterization store: binary shards on
/// disk fronted by a sharded in-process LRU.
#[derive(Debug)]
pub struct DiskStore {
    /// `<cache-dir>/char-v<N>`.
    root: PathBuf,
    shards: Vec<Mutex<LruShard>>,
    hot_capacity: usize,
    tmp_counter: AtomicU64,
    hot_hits: AtomicU64,
    disk_reads: AtomicU64,
    saves: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) the store under `cache_dir`. Records
    /// live in a `char-v<N>` subdirectory, so a format bump silently
    /// starts an empty store next to the old one.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created.
    pub fn open(cache_dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = cache_dir
            .as_ref()
            .join(format!("char-v{STORE_FORMAT_VERSION}"));
        fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            shards: (0..LRU_SHARDS)
                .map(|_| Mutex::new(LruShard::default()))
                .collect(),
            hot_capacity: DEFAULT_HOT_CAPACITY,
            tmp_counter: AtomicU64::new(0),
            hot_hits: AtomicU64::new(0),
            disk_reads: AtomicU64::new(0),
            saves: AtomicU64::new(0),
        })
    }

    /// Overrides the hot-tier capacity (records, across all shards).
    #[must_use]
    pub fn with_hot_capacity(mut self, records: usize) -> Self {
        self.hot_capacity = records.max(LRU_SHARDS);
        self
    }

    /// Root directory records are stored under (the versioned subdir).
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The locked LRU shard of a key hash. A poisoned lock is taken
    /// over: every step of an LRU update leaves the shard valid, at
    /// worst above capacity.
    fn shard_of(&self, hash: u64) -> MutexGuard<'_, LruShard> {
        self.shards[(hash as usize) % LRU_SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// On-disk path of `key`'s record.
    #[must_use]
    pub fn record_path(&self, key: &str) -> PathBuf {
        let hash = fnv1a(key.as_bytes());
        self.root
            .join(format!("{:02x}", hash >> 56))
            .join(format!("{hash:016x}.bin"))
    }

    /// Loads the record for `key`: hot tier first, then disk.
    /// `Ok(None)` means "not stored" (also returned on the
    /// astronomically unlikely event of a key-hash collision).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for unreadable, truncated, corrupt or
    /// version-mismatched records; callers are expected to treat any
    /// error as a miss and rebuild.
    pub fn load(&self, key: &str) -> Result<Option<Arc<StoredChar>>, StoreError> {
        let hash = fnv1a(key.as_bytes());
        if let Some(rec) = self.shard_of(hash).get(key) {
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(rec));
        }
        let path = self.record_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        let rec = decode_record(&bytes)?;
        if rec.key != key {
            return Ok(None);
        }
        let rec = Arc::new(rec);
        self.shard_of(hash).insert(
            key.to_string(),
            Arc::clone(&rec),
            self.hot_capacity / LRU_SHARDS,
        );
        Ok(Some(rec))
    }

    /// Persists `rec` (write-to-temp + atomic rename) and promotes it
    /// into the hot tier.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, rec: &StoredChar) -> Result<(), StoreError> {
        let hash = fnv1a(rec.key.as_bytes());
        let path = self.record_path(&rec.key);
        let dir = path.parent().expect("record path has a parent");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = encode_record(rec);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        self.saves.fetch_add(1, Ordering::Relaxed);
        self.shard_of(hash).insert(
            rec.key.clone(),
            Arc::new(rec.clone()),
            self.hot_capacity / LRU_SHARDS,
        );
        Ok(())
    }

    /// Hot-tier hits served without touching the filesystem.
    pub fn hot_hits(&self) -> u64 {
        self.hot_hits.load(Ordering::Relaxed)
    }

    /// Records read (and decoded) from disk.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads.load(Ordering::Relaxed)
    }

    /// Records persisted by this handle.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Number of record files currently on disk (walks the directory;
    /// intended for reporting, not hot paths).
    #[must_use]
    pub fn stored_records(&self) -> usize {
        let Ok(shards) = fs::read_dir(&self.root) else {
            return 0;
        };
        shards
            .flatten()
            .filter_map(|d| fs::read_dir(d.path()).ok())
            .flatten()
            .flatten()
            .filter(|f| f.path().extension().is_some_and(|e| e == "bin"))
            .count()
    }
}

// ---------------------------------------------------------------------
// Binary record codec
// ---------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string fits u32"));
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Encodes a full record file: header, length-prefixed payload,
/// trailing checksum.
#[must_use]
pub fn encode_record(rec: &StoredChar) -> Vec<u8> {
    let mut p = Enc(Vec::with_capacity(
        256 + 4 * rec.table.as_ref().map_or(0, Vec::len),
    ));
    p.u64(rec.netlist_hash);
    p.str(&rec.key);
    p.u32(rec.bits);
    p.u64(rec.luts);
    p.u64(rec.carry4s);
    p.u64(rec.wasted_sites);
    p.u64(rec.dead_outputs);
    p.u64(rec.ignored_pins);
    p.f64(rec.critical_path_ns);
    p.f64(rec.energy_per_op);
    p.f64(rec.edp);
    let s = &rec.stats;
    p.str(&s.name);
    p.u64(s.samples);
    p.u64(s.error_occurrences);
    p.i64(s.max_error);
    p.u64(s.max_error_occurrences);
    p.f64(s.avg_error);
    p.f64(s.avg_relative_error);
    p.f64(s.error_probability);
    p.f64(s.normalized_mean_error_distance);
    p.f64(s.mean_squared_error);
    p.f64(s.rmse);
    p.u32(u32::try_from(s.worst_case_inputs.len()).expect("witness list fits u32"));
    for &(a, b) in &s.worst_case_inputs {
        p.u64(a);
        p.u64(b);
    }
    match &rec.table {
        None => p.0.push(0),
        Some(t) => {
            p.0.push(1);
            p.u32(u32::try_from(t.len()).expect("table fits u32"));
            for &v in t {
                p.u32(v);
            }
        }
    }
    let payload = p.0;
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("non-UTF-8 string".to_string()))
    }
}

/// Decodes a record file produced by [`encode_record`].
///
/// # Errors
///
/// Typed [`StoreError`]s: bad magic, unsupported version, truncation,
/// checksum mismatch, or structurally invalid payload.
pub fn decode_record(bytes: &[u8]) -> Result<StoredChar, StoreError> {
    if bytes.len() < 16 {
        return Err(StoreError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != STORE_FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| StoreError::Corrupt("payload length overflows".to_string()))?;
    let rest = &bytes[16..];
    if rest.len() < payload_len + 8 {
        return Err(StoreError::Truncated);
    }
    let payload = &rest[..payload_len];
    let checksum = u64::from_le_bytes(
        rest[payload_len..payload_len + 8]
            .try_into()
            .expect("8 bytes"),
    );
    if fnv1a(payload) != checksum {
        return Err(StoreError::ChecksumMismatch);
    }
    let mut d = Dec {
        bytes: payload,
        pos: 0,
    };
    let netlist_hash = d.u64()?;
    let key = d.str()?;
    let bits = d.u32()?;
    if !(1..=128).contains(&bits) {
        return Err(StoreError::Corrupt(format!("impossible width {bits}")));
    }
    let luts = d.u64()?;
    let carry4s = d.u64()?;
    let wasted_sites = d.u64()?;
    let dead_outputs = d.u64()?;
    let ignored_pins = d.u64()?;
    let critical_path_ns = d.f64()?;
    let energy_per_op = d.f64()?;
    let edp = d.f64()?;
    let mut stats = ErrorStats {
        name: d.str()?,
        samples: d.u64()?,
        error_occurrences: d.u64()?,
        max_error: d.i64()?,
        max_error_occurrences: d.u64()?,
        avg_error: d.f64()?,
        avg_relative_error: d.f64()?,
        error_probability: d.f64()?,
        normalized_mean_error_distance: d.f64()?,
        mean_squared_error: d.f64()?,
        rmse: d.f64()?,
        worst_case_inputs: Vec::new(),
    };
    let witnesses = d.u32()? as usize;
    if witnesses > 64 {
        return Err(StoreError::Corrupt(format!(
            "witness list length {witnesses} too large"
        )));
    }
    for _ in 0..witnesses {
        let a = d.u64()?;
        let b = d.u64()?;
        stats.worst_case_inputs.push((a, b));
    }
    let table = match d.take(1)?[0] {
        0 => None,
        1 => {
            let len = d.u32()? as usize;
            if len > (1 << 16) {
                return Err(StoreError::Corrupt(format!("table length {len} too large")));
            }
            let mut t = Vec::with_capacity(len);
            for _ in 0..len {
                t.push(d.u32()?);
            }
            Some(t)
        }
        other => {
            return Err(StoreError::Corrupt(format!("bad table marker {other}")));
        }
    };
    if d.pos != payload.len() {
        return Err(StoreError::Corrupt("trailing payload bytes".to_string()));
    }
    Ok(StoredChar {
        key,
        bits,
        netlist_hash,
        luts,
        carry4s,
        wasted_sites,
        dead_outputs,
        ignored_pins,
        critical_path_ns,
        energy_per_op,
        edp,
        stats,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(key: &str, table: Option<Vec<u32>>) -> StoredChar {
        StoredChar {
            key: key.to_string(),
            bits: 4,
            netlist_hash: 0xDEAD_BEEF_0123_4567,
            luts: 11,
            carry4s: 2,
            wasted_sites: 1,
            dead_outputs: 0,
            ignored_pins: 3,
            critical_path_ns: 1.875,
            energy_per_op: 12.5,
            edp: 23.4375,
            stats: ErrorStats {
                name: key.to_string(),
                samples: 256,
                error_occurrences: 81,
                max_error: -12,
                max_error_occurrences: 3,
                avg_error: 1.25,
                avg_relative_error: 0.03125,
                error_probability: 0.31640625,
                normalized_mean_error_distance: 0.005,
                mean_squared_error: 9.5,
                rmse: 3.082_207_001_484_488,
                worst_case_inputs: vec![(7, 6), (13, 13)],
            },
            table: table.clone(),
        }
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        for rec in [
            sample_record("A", Some((0..256).collect())),
            sample_record("(a A A A A)", None),
        ] {
            let decoded = decode_record(&encode_record(&rec)).unwrap();
            assert_eq!(decoded, rec);
            assert_eq!(
                decoded.critical_path_ns.to_bits(),
                rec.critical_path_ns.to_bits()
            );
        }
    }

    #[test]
    fn store_round_trips_through_disk_and_hot_tier() {
        let dir = tempdir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        let rec = sample_record("T3", Some((0..256).rev().collect()));
        assert!(store.load("T3").unwrap().is_none());
        store.save(&rec).unwrap();
        // First load is served from the hot tier (save promotes).
        assert_eq!(*store.load("T3").unwrap().unwrap(), rec);
        assert_eq!(store.disk_reads(), 0);
        // A second handle on the same directory must hit the disk.
        let cold = DiskStore::open(&dir).unwrap();
        assert_eq!(*cold.load("T3").unwrap().unwrap(), rec);
        assert_eq!(cold.disk_reads(), 1);
        // ... and serve the repeat from its own hot tier.
        assert_eq!(*cold.load("T3").unwrap().unwrap(), rec);
        assert_eq!(cold.disk_reads(), 1);
        assert_eq!(cold.hot_hits(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_hot_tier_evicts_but_disk_retains() {
        let dir = tempdir("lru");
        let store = DiskStore::open(&dir).unwrap().with_hot_capacity(LRU_SHARDS);
        for i in 0..200 {
            store.save(&sample_record(&format!("K{i}"), None)).unwrap();
        }
        assert_eq!(store.stored_records(), 200);
        // Capacity is 1 record per shard, so most keys were evicted —
        // but every key is still loadable (from disk).
        for i in 0..200 {
            assert!(store.load(&format!("K{i}")).unwrap().is_some(), "K{i}");
        }
        assert!(store.disk_reads() > 0, "eviction must force disk reads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let full = encode_record(&sample_record("A", Some((0..256).collect())));
        for cut in [0, 3, 8, 15, 16, full.len() / 2, full.len() - 1] {
            let err = decode_record(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated | StoreError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_magic_version_and_checksum() {
        let rec = sample_record("A", None);
        let mut bad_magic = encode_record(&rec);
        bad_magic[0] = b'Z';
        assert!(matches!(
            decode_record(&bad_magic),
            Err(StoreError::BadMagic)
        ));

        let mut bad_version = encode_record(&rec);
        bad_version[4] = 0xFF;
        assert!(matches!(
            decode_record(&bad_version),
            Err(StoreError::UnsupportedVersion(_))
        ));

        let mut flipped = encode_record(&rec);
        let n = flipped.len();
        flipped[n - 20] ^= 0x40; // payload byte, checksum unchanged
        assert!(matches!(
            decode_record(&flipped),
            Err(StoreError::ChecksumMismatch)
        ));
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "axmul_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}

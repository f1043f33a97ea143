//! Persistence properties of the on-disk characterization store.
//!
//! The central claims: a warm start over a fully persisted roster
//! performs **zero** recharacterizations and returns bit-identical
//! results, and no amount of on-disk damage — truncation, garbage,
//! stale version hashes — can panic the cache or corrupt its output:
//! every failure mode is a typed error followed by a clean rebuild.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use axmul_core::Multiplier;
use axmul_dse::store::decode_record;
use axmul_dse::{CharCache, Config, DiskStore, StoreError};
use axmul_fabric::cost::Characterizer;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "axmul_store_it_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn roster() -> Vec<Config> {
    [
        "A",
        "X",
        "T2",
        "(a A A A A)",
        "(c A A A A)",
        "(a T3 A X X)",
        "(c X T1 T2 T3)",
    ]
    .iter()
    .map(|k| k.parse().unwrap())
    .collect()
}

fn warm_cache(dir: &PathBuf) -> CharCache {
    let store = Arc::new(DiskStore::open(dir).unwrap());
    CharCache::new(Characterizer::virtex7()).with_store(store)
}

/// One 16×16 configuration on top of [`roster`]: too wide to compare
/// exhaustively, so its evaluators are compared on sampled pairs.
const WIDE: &str = "(a (a A A A A) (c A A A A) (a T3 A X X) (a X X X X))";

#[test]
fn warm_start_is_bit_identical_with_zero_builds() {
    let dir = tempdir("warm");
    let configs: Vec<Config> = roster()
        .into_iter()
        .chain([WIDE.parse().unwrap()])
        .collect();
    let cold = warm_cache(&dir);
    let cold_chars: Vec<_> = configs
        .iter()
        .map(|c| cold.characterize(c).unwrap())
        .collect();
    assert!(cold.builds() > 0);
    assert_eq!(cold.disk_hits(), 0);
    assert_eq!(cold.store_failures(), 0, "{:?}", cold.last_store_error());

    let warm = warm_cache(&dir);
    for (cfg, cold_char) in configs.iter().zip(&cold_chars) {
        let w = warm.characterize(cfg).unwrap();
        // Full bit-level equality: error statistics (floats included
        // via PartialEq on every field) and hardware cost.
        assert_eq!(w.stats, cold_char.stats, "{}", cfg.key());
        assert_eq!(
            w.stats.avg_relative_error.to_bits(),
            cold_char.stats.avg_relative_error.to_bits()
        );
        assert_eq!(w.cost, cold_char.cost, "{}", cfg.key());
        // The two evaluators agree on every operand pair up to 8 bits,
        // and on a deterministic sample above.
        let (wm, cm) = (w.multiplier(), cold_char.multiplier());
        let bits = cfg.bits();
        if bits <= 8 {
            for b in 0..1u64 << bits {
                for a in 0..1u64 << bits {
                    assert_eq!(
                        wm.multiply(a, b),
                        cm.multiply(a, b),
                        "{} {a}x{b}",
                        cfg.key()
                    );
                }
            }
        } else {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4096 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (a, b) = (x & 0xFFFF, (x >> 16) & 0xFFFF);
                assert_eq!(
                    wm.multiply(a, b),
                    cm.multiply(a, b),
                    "{} {a}x{b}",
                    cfg.key()
                );
            }
        }
    }
    assert_eq!(warm.builds(), 0, "warm start must not recharacterize");
    assert!(warm.disk_hits() > 0);
    assert_eq!(warm.store_failures(), 0, "{:?}", warm.last_store_error());
    let _ = fs::remove_dir_all(&dir);
}

/// Damages the stored record for `key` with `f`, then asserts that a
/// fresh cache (a) yields the expected typed error when loading the
/// record directly, and (b) transparently rebuilds correct results.
fn assert_recovers(tag: &str, key: &str, damage: impl Fn(&PathBuf), check: impl Fn(&StoreError)) {
    let cfg: Config = key.parse().unwrap();
    let dir = tempdir(tag);
    let cold = warm_cache(&dir);
    let reference = cold.characterize(&cfg).unwrap();

    let store = DiskStore::open(&dir).unwrap();
    let path = store.record_path(key);
    assert!(path.is_file(), "record for {key} must exist at {path:?}");
    damage(&path);

    // (a) the store surfaces a typed error, never a panic.
    match store.load(key) {
        Err(e) => check(&e),
        Ok(rec) => panic!("damaged record for {key} loaded: {rec:?}"),
    }

    // (b) the cache falls back to a clean rebuild with identical stats,
    // and heals the store for the next run.
    let recovering = warm_cache(&dir);
    let rebuilt = recovering.characterize(&cfg).unwrap();
    assert!(recovering.store_failures() > 0);
    assert_eq!(rebuilt.stats, reference.stats);
    assert_eq!(rebuilt.cost, reference.cost);

    let healed = warm_cache(&dir);
    let restored = healed.characterize(&cfg).unwrap();
    assert_eq!(restored.stats, reference.stats);
    assert_eq!(
        healed.store_failures(),
        0,
        "{:?}",
        healed.last_store_error()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_shard_yields_typed_error_and_clean_rebuild() {
    assert_recovers(
        "trunc",
        "A",
        |path| {
            let bytes = fs::read(path).unwrap();
            fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        },
        |e| assert!(matches!(e, StoreError::Truncated), "{e}"),
    );
}

#[test]
fn garbage_bytes_yield_typed_error_and_clean_rebuild() {
    assert_recovers(
        "garbage",
        "T1",
        |path| fs::write(path, b"not a characterization record at all").unwrap(),
        |e| assert!(matches!(e, StoreError::BadMagic), "{e}"),
    );
}

#[test]
fn flipped_payload_byte_yields_checksum_error_and_clean_rebuild() {
    assert_recovers(
        "checksum",
        "T3",
        |path| {
            let mut bytes = fs::read(path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x5A;
            fs::write(path, bytes).unwrap();
        },
        |e| assert!(matches!(e, StoreError::ChecksumMismatch), "{e}"),
    );
}

#[test]
fn unsupported_record_version_yields_typed_error_and_clean_rebuild() {
    assert_recovers(
        "version",
        "X",
        |path| {
            let mut bytes = fs::read(path).unwrap();
            bytes[4] = 0xEE; // format-version field, little-endian
            fs::write(path, bytes).unwrap();
        },
        |e| assert!(matches!(e, StoreError::UnsupportedVersion(_)), "{e}"),
    );
}

#[test]
fn wrong_netlist_hash_is_rejected_as_stale_and_rebuilt() {
    let key = "(a A A A A)";
    let cfg: Config = key.parse().unwrap();
    let dir = tempdir("stale");
    let cold = warm_cache(&dir);
    let reference = cold.characterize(&cfg).unwrap();

    // Re-encode the record with a flipped netlist hash: structurally a
    // perfectly valid record, but for a different netlist generation.
    let store = DiskStore::open(&dir).unwrap();
    let path = store.record_path(key);
    let mut rec = (*store.load(key).unwrap().unwrap()).clone();
    rec.netlist_hash ^= 0xFFFF_FFFF_FFFF_FFFF;
    let store2 = DiskStore::open(&dir).unwrap();
    store2.save(&rec).unwrap();
    // The store itself cannot know the expected hash — decode succeeds.
    assert!(decode_record(&fs::read(&path).unwrap()).is_ok());

    // The cache compares against the freshly assembled netlist and
    // rebuilds (quad record is stale; its four `A` leaf records are
    // intact, so leaves restore and only the quad recharacterizes).
    let recovering = warm_cache(&dir);
    let rebuilt = recovering.characterize(&cfg).unwrap();
    assert!(recovering.store_failures() > 0);
    assert!(recovering
        .last_store_error()
        .is_some_and(|m| m.contains("stale")));
    assert_eq!(rebuilt.stats, reference.stats);
    assert_eq!(rebuilt.cost, reference.cost);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_concurrent_cache_populations() {
    let dir = tempdir("concurrent");
    let configs = roster();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let cache = warm_cache(&dir);
                for cfg in &configs {
                    cache.characterize(cfg).unwrap();
                }
            });
        }
    });
    let warm = warm_cache(&dir);
    for cfg in &configs {
        warm.characterize(cfg).unwrap();
    }
    assert_eq!(warm.builds(), 0);
    assert_eq!(warm.store_failures(), 0, "{:?}", warm.last_store_error());
    let _ = fs::remove_dir_all(&dir);
}

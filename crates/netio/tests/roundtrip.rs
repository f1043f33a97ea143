//! End-to-end interchange guarantees over the full Fig. 7 roster and a
//! sampled slice of the 8×8 DSE configuration space:
//!
//! * **Byte fixpoint** — `to_verilog(import(to_verilog(n)))` equals
//!   `to_verilog(n)` exactly, so fingerprints (and therefore warm
//!   characterization caches) survive a trip through the filesystem.
//! * **Lossless axnl** — `from_axnl(to_axnl(n))` reproduces the same
//!   document and the same Verilog.
//! * **Semantic identity** — imported netlists lint identically and
//!   produce bit-identical [`ErrorStats`] (float accumulation order
//!   included) to their in-process twins.

use axmul_baselines::{kulkarni_netlist, pp_truncated_netlist, rehman_netlist, IpOpt, VivadoIp};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_dse::Config;
use axmul_fabric::export::to_verilog;
use axmul_fabric::Netlist;
use axmul_lint::Linter;
use axmul_metrics::ErrorStats;
use axmul_netio::{fingerprint, from_axnl, from_verilog, to_axnl};

/// The Fig. 7 roster at one operand width (mirrors
/// `axmul_bench::roster::fig7_roster`, re-built here because the bench
/// crate sits above netio in the dependency graph).
fn roster(bits: u32) -> Vec<Netlist> {
    vec![
        kulkarni_netlist(bits).expect("valid width"),
        rehman_netlist(bits).expect("valid width"),
        ca_netlist(bits).expect("valid width"),
        cc_netlist(bits).expect("valid width"),
        pp_truncated_netlist(bits, bits, bits / 2 + 1),
        VivadoIp::new(bits, IpOpt::Area).netlist(),
        VivadoIp::new(bits, IpOpt::Speed).netlist(),
    ]
}

/// Every 25th of the 1250 enumerable 8×8 configs: 50 designs spanning
/// the whole space (all five leaf kinds appear in both recursion
/// styles).
fn sampled_configs() -> Vec<Netlist> {
    let configs = Config::enumerate(8);
    assert_eq!(configs.len(), 1250);
    configs.iter().step_by(25).map(Config::assemble).collect()
}

#[test]
fn roster_verilog_round_trips_to_byte_fixpoint() {
    for bits in [4u32, 8, 16] {
        for n in roster(bits) {
            let v = to_verilog(&n);
            let back = from_verilog(&v)
                .unwrap_or_else(|e| panic!("{} @ {bits} bits failed to import: {e}", n.name()));
            assert_eq!(
                to_verilog(&back),
                v,
                "{} @ {bits} bits is not a byte fixpoint",
                n.name()
            );
            assert_eq!(back.name(), n.name());
            assert_eq!(
                fingerprint(&back),
                fingerprint(&n),
                "{} @ {bits} bits changed fingerprint on import",
                n.name()
            );
            // axnl equality is a full structural comparison: drivers,
            // cells, buses and the content hash all feed the document.
            assert_eq!(to_axnl(&back), to_axnl(&n));
        }
    }
}

#[test]
fn roster_axnl_round_trips_losslessly() {
    for bits in [4u32, 8, 16] {
        for n in roster(bits) {
            let doc = to_axnl(&n);
            let back = from_axnl(&doc)
                .unwrap_or_else(|e| panic!("{} @ {bits} bits failed axnl import: {e}", n.name()));
            assert_eq!(to_axnl(&back), doc, "{} axnl not lossless", n.name());
            assert_eq!(to_verilog(&back), to_verilog(&n));
        }
    }
}

#[test]
fn roster_import_preserves_lint_reports() {
    let linter = Linter::new();
    for bits in [4u32, 8] {
        for n in roster(bits) {
            let orig = linter.lint(&n);
            let back = linter.lint(&from_verilog(&to_verilog(&n)).expect("imports"));
            assert_eq!(
                orig,
                back,
                "{} @ {bits} bits lints differently after import",
                n.name()
            );
        }
    }
}

#[test]
fn roster_import_preserves_error_stats_bit_identically() {
    for bits in [4u32, 8] {
        for n in roster(bits) {
            let orig = ErrorStats::exhaustive_wide(&n).expect("simulates");
            let imported = from_verilog(&to_verilog(&n)).expect("imports");
            let back = ErrorStats::exhaustive_wide(&imported).expect("simulates");
            assert_eq!(
                orig,
                back,
                "{} @ {bits} bits: stats diverged after import",
                n.name()
            );
        }
    }
}

#[test]
fn sixteen_bit_roster_evals_identically_on_sampled_operands() {
    // 16×16 exhaustive sweeps are 2³² pairs — sample the operand space
    // with a splitmix64 stream instead and compare raw eval outputs.
    let mut state = 0xDAC18u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pairs: Vec<(u64, u64)> = (0..256)
        .map(|_| (next() & 0xFFFF, next() & 0xFFFF))
        .collect();
    for n in roster(16) {
        let imported = from_verilog(&to_verilog(&n)).expect("imports");
        for &(a, b) in &pairs {
            assert_eq!(
                n.eval(&[a, b]).expect("original simulates"),
                imported.eval(&[a, b]).expect("import simulates"),
                "{}: eval({a}, {b}) diverged after import",
                n.name()
            );
        }
    }
}

#[test]
fn sampled_dse_configs_round_trip() {
    let linter = Linter::new();
    for (i, n) in sampled_configs().into_iter().enumerate() {
        let v = to_verilog(&n);
        let back = from_verilog(&v)
            .unwrap_or_else(|e| panic!("config #{i} ({}) failed to import: {e}", n.name()));
        assert_eq!(to_verilog(&back), v, "config #{i} not a byte fixpoint");
        assert_eq!(fingerprint(&back), fingerprint(&n));
        assert_eq!(to_axnl(&back), to_axnl(&n), "config #{i} axnl differs");
        let doc = to_axnl(&n);
        assert_eq!(to_axnl(&from_axnl(&doc).expect("axnl imports")), doc);
        // Exhaustive 8×8 stats for a subset keep the runtime modest
        // while still pinning semantic identity across the space.
        if i % 10 == 0 {
            assert_eq!(
                linter.lint(&n),
                linter.lint(&back),
                "config #{i} lints differently"
            );
            assert_eq!(
                ErrorStats::exhaustive_wide(&n).expect("simulates"),
                ErrorStats::exhaustive_wide(&back).expect("simulates"),
                "config #{i} stats diverged"
            );
        }
    }
}

//! The `repro netio` experiment: the interchange layer's headline
//! guarantee — `export → import → export` is a **byte fixpoint** — plus
//! import throughput over the paper roster.
//!
//! Three parts:
//!
//! 1. **Roster fixpoint** — every Fig. 7 design (4/8/16 bits; 4/8 in
//!    `--quick` mode) re-imports from its own Verilog to the identical
//!    byte string, keeps its fingerprint, and survives an axnl-v1 JSON
//!    round trip losslessly.
//! 2. **Config-space fixpoint** — a stride of the 1250-point 8×8 DSE
//!    space gets the same treatment, so the guarantee holds across the
//!    whole generator, not just the named designs.
//! 3. **Import throughput** — repeated parses of the roster's Verilog,
//!    reported in MiB/s and designs/s.
//!
//! [`netio`] returns the same measurements as the
//! `BENCH_netio.json` record the CI gate greps for
//! `"fixpoint": true`.

use std::time::Instant;

use axmul_dse::Config;
use axmul_fabric::export::to_verilog;
use axmul_netio::{fingerprint, from_axnl, from_verilog, to_axnl};

use crate::report::{mode, BenchRecord, Field, Table};
use crate::roster::fig7_roster;

/// One design's round-trip verdict.
struct TripRow {
    name: String,
    bits: u32,
    verilog_bytes: usize,
    axnl_bytes: usize,
    fixpoint: bool,
    lossless_json: bool,
}

/// Runs both round trips on one netlist.
fn round_trip(name: &str, bits: u32, n: &axmul_fabric::Netlist) -> TripRow {
    let v = to_verilog(n);
    let doc = to_axnl(n);
    let fixpoint = match from_verilog(&v) {
        Ok(back) => to_verilog(&back) == v && fingerprint(&back) == fingerprint(n),
        Err(_) => false,
    };
    let lossless_json = match from_axnl(&doc) {
        Ok(back) => to_axnl(&back) == doc && to_verilog(&back) == v,
        Err(_) => false,
    };
    TripRow {
        name: name.to_string(),
        bits,
        verilog_bytes: v.len(),
        axnl_bytes: doc.len(),
        fixpoint,
        lossless_json,
    }
}

/// Round-trips the Fig. 7 roster at the given widths.
fn sweep_roster(widths: &[u32]) -> Vec<TripRow> {
    let mut rows = Vec::new();
    for &bits in widths {
        for entry in fig7_roster(bits) {
            rows.push(round_trip(&entry.name, bits, &entry.netlist));
        }
    }
    rows
}

/// Round-trips every `stride`-th enumerable 8×8 configuration.
fn sweep_configs(stride: usize) -> (usize, usize) {
    let configs = Config::enumerate(8);
    let mut checked = 0;
    let mut ok = 0;
    for cfg in configs.iter().step_by(stride) {
        let row = round_trip(&cfg.key(), 8, &cfg.assemble());
        checked += 1;
        if row.fixpoint && row.lossless_json {
            ok += 1;
        }
    }
    (checked, ok)
}

/// Import throughput over the roster's Verilog text.
struct Throughput {
    designs_per_s: f64,
    mib_per_s: f64,
    designs: usize,
}

fn measure_throughput(widths: &[u32], reps: usize) -> Throughput {
    let texts: Vec<String> = widths
        .iter()
        .flat_map(|&bits| fig7_roster(bits))
        .map(|e| to_verilog(&e.netlist))
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let start = Instant::now();
    for _ in 0..reps {
        for t in &texts {
            let n = from_verilog(t).expect("roster Verilog imports");
            assert!(n.lut_count() > 0);
        }
    }
    let dt = start.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        designs_per_s: (texts.len() * reps) as f64 / dt,
        mib_per_s: (bytes * reps) as f64 / dt / (1024.0 * 1024.0),
        designs: texts.len(),
    }
}

struct Measurements {
    roster: Vec<TripRow>,
    configs_checked: usize,
    configs_ok: usize,
    throughput: Throughput,
}

impl Measurements {
    /// The headline verdict: every round trip on every design held.
    fn fixpoint(&self) -> bool {
        self.roster.iter().all(|r| r.fixpoint && r.lossless_json)
            && self.configs_ok == self.configs_checked
    }
}

fn measure(quick: bool) -> Measurements {
    let (widths, stride, reps) = if quick {
        (&[4u32, 8][..], 125, 3)
    } else {
        (&[4u32, 8, 16][..], 25, 20)
    };
    let (configs_checked, configs_ok) = sweep_configs(stride);
    Measurements {
        roster: sweep_roster(widths),
        configs_checked,
        configs_ok,
        throughput: measure_throughput(widths, reps),
    }
}

fn render(m: &Measurements) -> String {
    let mut t = Table::new(
        "Interchange round trips over the Fig. 7 roster",
        &[
            "design",
            "bits",
            "verilog B",
            "axnl B",
            "fixpoint",
            "axnl lossless",
        ],
    );
    for r in &m.roster {
        t.row_owned(vec![
            r.name.clone(),
            r.bits.to_string(),
            r.verilog_bytes.to_string(),
            r.axnl_bytes.to_string(),
            if r.fixpoint { "yes" } else { "NO" }.to_string(),
            if r.lossless_json { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut out = t.render();
    let p = &m.throughput;
    out.push_str(&format!(
        "\n8x8 config space: {}/{} sampled configurations round-trip\n\
         import throughput: {:.0} designs/s, {:.1} MiB/s over {} roster designs\n\
         \nnetio verdict: {}\n",
        m.configs_ok,
        m.configs_checked,
        p.designs_per_s,
        p.mib_per_s,
        p.designs,
        if m.fixpoint() { "FIXPOINT" } else { "DIVERGED" }
    ));
    out
}

fn record(m: &Measurements, quick: bool) -> BenchRecord {
    let p = &m.throughput;
    BenchRecord::new("netio")
        .field("mode", mode(quick))
        .field("roster_designs", m.roster.len())
        .field(
            "roster_fixpoint",
            m.roster.iter().filter(|r| r.fixpoint).count(),
        )
        .field(
            "roster_axnl_lossless",
            m.roster.iter().filter(|r| r.lossless_json).count(),
        )
        .field("configs_checked", m.configs_checked)
        .field("configs_ok", m.configs_ok)
        .field("import_designs_per_s", Field::Fixed(p.designs_per_s, 1))
        .field("import_mib_per_s", Field::Fixed(p.mib_per_s, 2))
        .field("fixpoint", m.fixpoint())
}

/// Runs the experiment and returns its report with its
/// `BENCH_netio.json` record. The full form round-trips the roster at
/// 4/8/16 bits and every 25th 8×8 configuration, with 20 throughput
/// repetitions; `quick` (the CI smoke) the roster at 4/8 bits, every
/// 125th configuration and 3 repetitions.
#[must_use]
pub fn netio(quick: bool) -> (String, String) {
    let m = measure(quick);
    (render(&m), record(&m, quick).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_a_fixpoint() {
        let m = measure(true);
        assert!(m.fixpoint(), "interchange round trip diverged");
        let report = render(&m);
        assert!(report.contains("netio verdict: FIXPOINT"));
        assert!(!report.contains("NO"));

        let json = record(&m, true).render();
        assert!(json.contains("\"bench\": \"netio\""));
        assert!(json.contains("\"fixpoint\": true"));
        let parsed = axmul_netio::json::parse(&json).expect("the record is JSON");
        assert_eq!(parsed.get("fixpoint").and_then(|v| v.as_bool()), Some(true));
    }
}

//! The `repro sim-bench` experiment: compiled bit-sliced simulator
//! throughput, checked against the scalar [`Netlist::eval`] oracle.
//!
//! For every 8×8 architecture in the Fig. 7 roster the experiment times
//! the exhaustive 65 536-pair error-characterization sweep through the
//! compiled instruction stream
//! ([`CompiledNetlist::for_each_operand_pair_in`]) and reports
//! pairs/second. It then sweeps the same pairs through the scalar
//! oracle and checks that both product streams agree and that
//! [`ErrorStats`] built from the oracle's products equal
//! [`ErrorStats::exhaustive_wide`] exactly (`"stats_identical"` — gated
//! in CI).
//!
//! The energy section times the packed wide-lane characterization
//! ([`measure_packed`] behind `Characterizer::characterize_timed`),
//! reports net-transitions/second, and checks that the packed report is
//! bit-identical to the scalar [`measure_reference`] for worker counts
//! 1–4 (`"energy_identical"` — gated in CI). It also times the NN
//! product-table build.
//!
//! `sim_bench_json` renders the same measurements as the
//! `BENCH_sim.json` machine-readable artifact.

use std::time::Instant;

use axmul_core::behavioral::Summation;
use axmul_core::{Multiplier, TableMultiplier};
use axmul_dse::{CharCache, Config};
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::cost::Characterizer;
use axmul_fabric::power::{measure_packed, measure_reference, uniform_stimulus, PackedStimulus};
use axmul_fabric::timing::analyze;
use axmul_fabric::{Driver, Netlist};
use axmul_metrics::ErrorStats;
use axmul_nn::ProductTable;

use crate::report::{f, Table};
use crate::roster::{fig7_roster, RosterEntry};

/// The timed visitor workload: the running quantities the error
/// characterization accumulates, so a divergence in any product
/// changes the digest.
#[derive(Debug, Default, PartialEq, Eq)]
struct SweepDigest {
    pairs: u64,
    sum_abs_error: u64,
    max_abs_error: u64,
    checksum: u64,
}

impl SweepDigest {
    fn push(&mut self, a: u64, b: u64, out: &[u64]) {
        let exact = a * b;
        let err = out[0].abs_diff(exact);
        self.pairs += 1;
        self.sum_abs_error += err;
        self.max_abs_error = self.max_abs_error.max(err);
        self.checksum = self
            .checksum
            .rotate_left(7)
            .wrapping_add(out[0] ^ (a << 32) ^ b);
    }
}

/// [`Netlist::eval`] as a [`Multiplier`]: feeds [`ErrorStats`] and the
/// digest the scalar oracle's products, so the cross-check against the
/// compiled engine is end-to-end bit-identical or not.
struct ScalarOracle<'a> {
    netlist: &'a Netlist,
    a_bits: u32,
    b_bits: u32,
}

impl Multiplier for ScalarOracle<'_> {
    fn a_bits(&self) -> u32 {
        self.a_bits
    }
    fn b_bits(&self) -> u32 {
        self.b_bits
    }
    fn multiply(&self, a: u64, b: u64) -> u64 {
        self.netlist.eval(&[a, b]).expect("two-bus netlist")[0]
    }
    fn name(&self) -> &str {
        self.netlist.name()
    }
}

/// One architecture's measurements.
struct ArchBench {
    name: String,
    pairs: u64,
    compiled_pairs_per_sec: f64,
    stats_identical: bool,
}

fn time_runs(reps: u32, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn bench_arch(entry: &RosterEntry, reps: u32) -> ArchBench {
    let nl = &entry.netlist;
    let a_bits = nl.input_buses()[0].1.len() as u32;
    let b_bits = nl.input_buses()[1].1.len() as u32;
    let pairs: u64 = 1 << (a_bits + b_bits);

    let mut compiled_digest = SweepDigest::default();
    let compiled_s = time_runs(reps, || {
        let mut d = SweepDigest::default();
        let prog = CompiledNetlist::compile(nl);
        prog.for_each_operand_pair_in(0..pairs, |a, b, out| d.push(a, b, out))
            .expect("two-bus netlist");
        compiled_digest = d;
    });

    // One scalar-oracle sweep, tabulated: its product stream must give
    // the compiled digest, and its ErrorStats the compiled
    // exhaustive_wide record, float bits included.
    let oracle = TableMultiplier::new(&ScalarOracle {
        netlist: nl,
        a_bits,
        b_bits,
    });
    let mut oracle_digest = SweepDigest::default();
    for (idx, &product) in oracle.table().iter().enumerate() {
        let idx = idx as u64;
        oracle_digest.push(idx & ((1 << a_bits) - 1), idx >> a_bits, &[product]);
    }
    let oracle_stats = ErrorStats::exhaustive(&oracle);
    let compiled_stats = ErrorStats::exhaustive_wide(nl).expect("two-bus netlist");
    let stats_identical = oracle_digest == compiled_digest
        && oracle_stats == compiled_stats
        && oracle_stats.avg_relative_error.to_bits() == compiled_stats.avg_relative_error.to_bits();

    ArchBench {
        name: entry.name.clone(),
        pairs,
        compiled_pairs_per_sec: pairs as f64 / compiled_s,
        stats_identical,
    }
}

/// One architecture's energy-characterization measurements.
struct EnergyBench {
    name: String,
    /// Packed wide-lane characterize: `Characterizer::characterize_timed`.
    packed_char_s: f64,
    /// Net-level adjacent-step transitions examined per second, in
    /// millions: `non-const nets × (steps − 1) / seconds / 1e6`.
    packed_mtrans_per_sec: f64,
    /// Packed path bit-identical (`energy_per_op`, `edp`) to the
    /// scalar reference for worker counts 1–4.
    energy_identical: bool,
}

fn bench_energy(entry: &RosterEntry, reps: u32) -> EnergyBench {
    let nl = &entry.netlist;
    let prog = CompiledNetlist::compile(nl);
    let ch = Characterizer::virtex7();
    let stimulus = uniform_stimulus(nl, ch.stimulus_len, ch.stimulus_seed);
    let packed = PackedStimulus::uniform(nl, ch.stimulus_len, ch.stimulus_seed);

    let packed_s = time_runs(reps, || {
        let (cost, _) = ch
            .characterize_timed(nl, &prog)
            .expect("roster netlist characterizes");
        std::hint::black_box(cost.edp);
    });

    let reference =
        measure_reference(nl, &ch.energy, &ch.delay, &stimulus).expect("reference measures");
    let critical_path_ns = analyze(nl, &ch.delay).critical_path_ns;
    let energy_identical = (1..=4).all(|workers| {
        let r = measure_packed(nl, &prog, &ch.energy, critical_path_ns, &packed, workers)
            .expect("packed measure");
        r.energy_per_op.to_bits() == reference.energy_per_op.to_bits()
            && r.edp.to_bits() == reference.edp.to_bits()
    });

    let tracked = nl
        .drivers()
        .iter()
        .filter(|d| !matches!(d, Driver::Const(_)))
        .count() as u64;
    let net_transitions = (tracked * (ch.stimulus_len as u64 - 1)) as f64;
    EnergyBench {
        name: entry.name.clone(),
        packed_char_s: packed_s,
        packed_mtrans_per_sec: net_transitions / packed_s / 1e6,
        energy_identical,
    }
}

/// NN product-table build: the compiled path sweeps all 2¹⁶ pairs
/// bit-sliced.
fn bench_nn_table(reps: u32) -> f64 {
    let nl = axmul_core::structural::ca_netlist(8).expect("8-bit Ca");
    time_runs(reps, || {
        let t = ProductTable::from_netlist_with_faults(&nl, &[], "ca8").expect("8x8 netlist");
        std::hint::black_box(&t);
    })
}

/// Everything one `sim-bench` invocation measures.
struct SimBench {
    archs: Vec<ArchBench>,
    energy: Vec<EnergyBench>,
    nn_compiled_s: f64,
}

fn run(quick: bool) -> SimBench {
    let reps = if quick { 1 } else { 3 };
    let mut roster = fig7_roster(8);
    if quick {
        roster.truncate(2);
    }
    let archs: Vec<ArchBench> = roster.iter().map(|e| bench_arch(e, reps)).collect();
    // The energy section also covers the two paper DSE points as
    // LUT-mapped quad netlists — several times larger than the
    // structural roster designs, and the shape the characterization
    // cache actually hammers.
    let cache = CharCache::new(Characterizer::virtex7());
    for summation in [Summation::Accurate, Summation::CarryFree] {
        let cfg = Config::paper(8, summation);
        let bc = cache
            .characterize(&cfg)
            .expect("paper config characterizes");
        roster.push(RosterEntry {
            name: format!("DSE {}", cfg.key()),
            netlist: (*bc.netlist).clone(),
        });
    }
    let energy: Vec<EnergyBench> = roster.iter().map(|e| bench_energy(e, reps)).collect();
    SimBench {
        archs,
        energy,
        nn_compiled_s: bench_nn_table(reps),
    }
}

fn verdict(identical: bool) -> String {
    let word = if identical {
        "bit-identical"
    } else {
        "DIVERGED"
    };
    word.to_string()
}

fn render(b: &SimBench) -> String {
    let mut t = Table::new(
        "Simulator throughput: exhaustive 8x8 characterization sweep",
        &["design", "pairs", "compiled pairs/s", "stats"],
    );
    for a in &b.archs {
        t.row_owned(vec![
            a.name.clone(),
            a.pairs.to_string(),
            f(a.compiled_pairs_per_sec, 0),
            verdict(a.stats_identical),
        ]);
    }
    let mut out = t.render();
    let mut e = Table::new(
        "Energy characterization: packed wide-lane vs scalar reference",
        &["design", "packed ms", "packed Mtr/s", "report"],
    );
    for a in &b.energy {
        e.row_owned(vec![
            a.name.clone(),
            f(a.packed_char_s * 1e3, 3),
            f(a.packed_mtrans_per_sec, 1),
            verdict(a.energy_identical),
        ]);
    }
    out.push('\n');
    out.push_str(&e.render());
    let packed_total: f64 = b.energy.iter().map(|a| a.packed_char_s).sum();
    out.push_str(&format!(
        "\ncharacterize (STA + energy) over the roster: packed {} s\n",
        f(packed_total, 4),
    ));
    out.push_str(&format!(
        "\nNN product table build (Ca 8x8, fault-free): compiled {} s\n",
        f(b.nn_compiled_s, 3),
    ));
    out
}

fn render_json(b: &SimBench, quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"bench\": \"sim\",\n  \"mode\": \"{}\",\n  \"archs\": [\n",
        if quick { "quick" } else { "full" }
    ));
    for (i, a) in b.archs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"pairs\": {}, \"compiled_pairs_per_sec\": {:.1}, \
             \"stats_identical\": {}}}{}\n",
            a.name,
            a.pairs,
            a.compiled_pairs_per_sec,
            a.stats_identical,
            if i + 1 < b.archs.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"energy\": [\n");
    for (i, a) in b.energy.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"packed_char_s\": {:.6}, \
             \"packed_mtrans_per_sec\": {:.1}}}{}\n",
            a.name,
            a.packed_char_s,
            a.packed_mtrans_per_sec,
            if i + 1 < b.energy.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"energy_identical\": {},\n",
        b.energy.iter().all(|a| a.energy_identical),
    ));
    s.push_str(&format!(
        "  \"nn_table_build\": {{\"compiled_s\": {:.4}}}\n",
        b.nn_compiled_s,
    ));
    s.push_str("}\n");
    s
}

/// Full simulator-throughput report over the Fig. 7 roster.
#[must_use]
pub fn sim_bench() -> String {
    render(&run(false))
}

/// CI smoke variant: two architectures, single repetition.
#[must_use]
pub fn sim_bench_quick() -> String {
    render(&run(true))
}

/// The same measurements as a `BENCH_sim.json` payload.
#[must_use]
pub fn sim_bench_json(quick: bool) -> String {
    render_json(&run(quick), quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_streams_agree() {
        let report = sim_bench_quick();
        assert!(report.contains("bit-identical"));
        assert!(!report.contains("DIVERGED"));
    }

    #[test]
    fn json_payload_is_well_formed_enough() {
        let json = sim_bench_json(true);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"bench\": \"sim\""));
        assert!(json.contains("\"stats_identical\": true"));
        assert!(!json.contains("\"stats_identical\": false"));
        assert!(json.contains("\"energy_identical\": true"));
        assert!(!json.contains("\"energy_identical\": false"));
    }
}

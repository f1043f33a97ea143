//! Reproductions of the paper's figures (as numeric series — the
//! repository regenerates the data behind each plot).

use axmul_baselines::evo::library;
use axmul_baselines::{kulkarni_netlist, rehman_netlist, IpOpt, VivadoIp};
use axmul_core::behavioral::{Ca, Cc};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_core::{Exact, Multiplier};
use axmul_fabric::cost::{Characterizer, NetlistCost};
use axmul_fabric::timing::{analyze, DelayModel};
use axmul_fabric::Netlist;
use axmul_metrics::{bit_accuracy, pareto_front, DesignPoint, ErrorPmf, ErrorStats};
use axmul_susan::{operand_histogram, susan_smooth, synthetic_test_image, Recording, SusanParams};

use crate::report::{f, pct, Table};
use crate::roster::fig7_roster;

/// Area, STA and energy/EDP of a roster netlist under the one
/// characterization recipe every front end shares.
fn characterize(netlist: &Netlist) -> NetlistCost {
    Characterizer::virtex7()
        .characterize(netlist)
        .expect("roster netlists simulate")
}

/// **Fig. 1** — cross-platform comparison: ASIC gains of W and K
/// (quoted from \[19\]/\[6\] as in the paper) against their FPGA gains
/// measured on our fabric, normalized to the strongest accurate soft
/// multiplier at 8×8.
#[must_use]
pub fn fig1() -> String {
    // ASIC-side gains as presented in the paper's Fig. 1 (digitized):
    // the paper itself quotes these from the original publications.
    let asic = [("W", 0.32, 0.12, 0.35), ("K", 0.12, 0.02, 0.18)];
    let accurate = characterize(&axmul_baselines::array_mult_netlist(8, 8));
    let w = characterize(&rehman_netlist(8).expect("valid"));
    let k = characterize(&kulkarni_netlist(8).expect("valid"));
    let gain = |ours: &NetlistCost, metric: &dyn Fn(&NetlistCost) -> f64| -> f64 {
        1.0 - metric(ours) / metric(&accurate)
    };
    let mut t = Table::new(
        "Fig. 1: ASIC vs FPGA gains of W and K (8x8)",
        &["design", "platform", "area", "latency", "EDP"],
    );
    for (name, area, lat, edp) in asic {
        t.row_owned(vec![
            name.to_string(),
            "ASIC (quoted)".to_string(),
            pct(area),
            pct(lat),
            pct(edp),
        ]);
    }
    for (name, c) in [("W", &w), ("K", &k)] {
        t.row_owned(vec![
            name.to_string(),
            "FPGA (measured)".to_string(),
            pct(gain(c, &|c| c.area.luts as f64)),
            pct(gain(c, &|c| c.critical_path_ns)),
            pct(gain(c, &|c| c.edp)),
        ]);
    }
    let mut s = t.render();
    s.push_str(
        "paper's observation: ASIC area/EDP gains do not translate to the \
         FPGA (they shrink or go negative), latency gains improve\n",
    );
    s
}

/// **Fig. 7** — area, latency and EDP gains of 4/8/16-bit multipliers,
/// normalized to the Vivado-IP-like accurate multiplier (speed
/// configuration, the tool default).
#[must_use]
pub fn fig7() -> String {
    let mut t = Table::new(
        "Fig. 7: area/latency/EDP gains vs Vivado IP (speed)",
        &[
            "size",
            "design",
            "LUTs",
            "ns",
            "area gain",
            "latency gain",
            "EDP gain",
        ],
    );
    for bits in [4u32, 8, 16] {
        let baseline = characterize(&VivadoIp::new(bits, IpOpt::Speed).netlist());
        for entry in fig7_roster(bits) {
            let c = characterize(&entry.netlist);
            t.row_owned(vec![
                format!("{bits}x{bits}"),
                entry.name,
                c.area.luts.to_string(),
                f(c.critical_path_ns, 3),
                pct(1.0 - c.area.luts as f64 / baseline.area.luts as f64),
                pct(1.0 - c.critical_path_ns / baseline.critical_path_ns),
                pct(1.0 - c.edp / baseline.edp),
            ]);
        }
    }
    let mut s = t.render();
    s.push_str(
        "paper: proposed designs achieve 25-31.5% area, 8.6-53.2% latency \
         and 8.86-67% EDP gains over the accurate Vivado multiplier\n",
    );
    s
}

/// **Fig. 8** — per-bit accuracy profiles and error PMFs of the
/// proposed multipliers.
#[must_use]
pub fn fig8() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Fig. 8a: per-bit error probability",
        &["design", "profile (bit 0 .. bit 15)"],
    );
    let designs: Vec<Box<dyn Multiplier>> = vec![
        Box::new(Ca::new(4).expect("valid")),
        Box::new(Ca::new(8).expect("valid")),
        Box::new(Cc::new(8).expect("valid")),
    ];
    for m in &designs {
        let profile = bit_accuracy(m);
        let cells: Vec<String> = profile.iter().map(|p| format!("{p:.3}")).collect();
        t.row_owned(vec![m.name().to_string(), cells.join(" ")]);
    }
    out.push_str(&t.render());

    let mut t = Table::new(
        "Fig. 8b: error PMF summary",
        &["design", "distinct errors", "most common error", "count"],
    );
    for m in &designs {
        let pmf = ErrorPmf::exhaustive(m);
        let (top_e, top_c) = pmf.iter().max_by_key(|&(_, c)| c).unwrap_or((0, 0));
        t.row_owned(vec![
            m.name().to_string(),
            pmf.distinct_errors().to_string(),
            top_e.to_string(),
            top_c.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "paper: the proposed designs restrict errors to limited bits; only \
         Cc (carry-free summation) spreads errors across many values\n",
    );
    out
}

/// Every Fig. 9/10 design as (average relative error, `cost(LUTs,
/// critical path ns)`) with its Pareto flag. Only area and STA are
/// computed: neither figure reads energy.
fn pareto_points(cost: &dyn Fn(usize, f64) -> f64) -> Vec<(DesignPoint, bool)> {
    let delay = DelayModel::virtex7();
    let netlist_cost = |nl: &Netlist| cost(nl.lut_count(), analyze(nl, &delay).critical_path_ns);
    let mut points = Vec::new();
    // Proposed + state of the art.
    let named: Vec<(&str, Box<dyn Multiplier>, Netlist)> = vec![
        (
            "Ca 8x8",
            Box::new(Ca::new(8).expect("valid")),
            ca_netlist(8).expect("valid"),
        ),
        (
            "Cc 8x8",
            Box::new(Cc::new(8).expect("valid")),
            cc_netlist(8).expect("valid"),
        ),
        (
            "W 8x8",
            Box::new(axmul_baselines::RehmanW::new(8).expect("valid")),
            rehman_netlist(8).expect("valid"),
        ),
        (
            "K 8x8",
            Box::new(axmul_baselines::Kulkarni::new(8).expect("valid")),
            kulkarni_netlist(8).expect("valid"),
        ),
        (
            "VivadoIP-Area 8x8",
            Box::new(Exact::new(8, 8)),
            VivadoIp::new(8, IpOpt::Area).netlist(),
        ),
        (
            "VivadoIP-Speed 8x8",
            Box::new(Exact::new(8, 8)),
            VivadoIp::new(8, IpOpt::Speed).netlist(),
        ),
    ];
    for (name, m, nl) in &named {
        let are = ErrorStats::exhaustive(m).avg_relative_error;
        points.push(DesignPoint::new(name.to_string(), are, netlist_cost(nl)));
    }
    // The EvoApprox-style cloud.
    for d in library() {
        let are = ErrorStats::exhaustive(&d).avg_relative_error;
        points.push(DesignPoint::new(
            d.name().to_string(),
            are,
            netlist_cost(&d.netlist()),
        ));
    }
    // DRUM: behavioral model with its documented LUT/latency estimates
    // (the one family without a netlist; see its module docs).
    for k in [3u32, 4, 5] {
        let drum = axmul_baselines::Drum::new(8, k);
        let are = ErrorStats::exhaustive(&drum).avg_relative_error;
        let c = cost(drum.area_estimate(), drum.latency_estimate(&delay));
        points.push(DesignPoint::new(drum.name().to_string(), are, c));
    }
    let front = pareto_front(&points);
    points.into_iter().zip(front).collect()
}

fn render_pareto(title: &str, cost_label: &str, pts: Vec<(DesignPoint, bool)>) -> String {
    let mut t = Table::new(title, &["design", "avg rel error", cost_label, "pareto"]);
    let mut sorted = pts;
    sorted.sort_by(|a, b| a.0.cost.partial_cmp(&b.0.cost).expect("finite"));
    for (p, on_front) in &sorted {
        t.row_owned(vec![
            p.name.clone(),
            format!("{:.6}", p.error),
            f(p.cost, 2),
            if *on_front { "*" } else { "" }.to_string(),
        ]);
    }
    let n_front = sorted.iter().filter(|(_, f)| *f).count();
    let proposed_on_front = sorted
        .iter()
        .filter(|(p, f)| *f && (p.name.starts_with("Ca") || p.name.starts_with("Cc")))
        .count();
    let mut s = t.render();
    s.push_str(&format!(
        "{n_front} Pareto-optimal of {} designs; {proposed_on_front} of the \
         proposed designs are on the front (paper: the low-error/low-cost \
         corner is only reached by the proposed methodology)\n",
        sorted.len()
    ));
    s
}

/// **Fig. 9** — Pareto analysis: average relative error vs area (LUTs).
#[must_use]
pub fn fig9() -> String {
    render_pareto(
        "Fig. 9: Pareto — relative error vs area",
        "LUTs",
        pareto_points(&|luts, _| luts as f64),
    )
}

/// **Fig. 10** — Pareto analysis: average relative error vs latency.
#[must_use]
pub fn fig10() -> String {
    render_pareto(
        "Fig. 10: Pareto — relative error vs latency",
        "ns",
        pareto_points(&|_, ns| ns),
    )
}

/// **Fig. 12** — the operand histogram of the SUSAN accelerator's
/// multiplications.
#[must_use]
pub fn fig12() -> String {
    let img = synthetic_test_image(64, 64, 11);
    let rec = Recording::new(Exact::new(8, 8));
    let _ = susan_smooth(&img, &SusanParams::default(), &rec);
    let trace = rec.into_trace();
    let hist = operand_histogram(&trace, 8);
    let total: u64 = hist.iter().flatten().sum();
    let mut t = Table::new(
        "Fig. 12: SUSAN multiplication histogram (weight bins x pixel bins, % of ops)",
        &[
            "w\\p", "0-31", "32-63", "64-95", "96-127", "128-159", "160-191", "192-223", "224-255",
        ],
    );
    for (i, row) in hist.iter().enumerate() {
        let mut cells = vec![format!("{}-{}", i * 32, i * 32 + 31)];
        cells.extend(
            row.iter()
                .map(|&c| format!("{:.1}", 100.0 * c as f64 / total as f64)),
        );
        t.row_owned(cells);
    }
    let peak = hist.iter().flatten().max().copied().unwrap_or(0);
    let mut s = t.render();
    s.push_str(&format!(
        "{} multiplications traced; busiest cell holds {:.1}% (uniform would \
         be {:.1}%) — the narrow operand band the paper's swapping exploits\n",
        total,
        100.0 * peak as f64 / total as f64,
        100.0 / 64.0
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shows_fpga_area_collapse() {
        let s = fig1();
        // The FPGA area gains of W and K against the strongest accurate
        // soft multiplier must be below their quoted ASIC gains.
        let fpga_rows: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("FPGA (measured)"))
            .collect();
        assert_eq!(fpga_rows.len(), 2);
        for row in fpga_rows {
            let area_cell = row
                .split_whitespace()
                .nth(3)
                .expect("area column")
                .trim_end_matches('%');
            let area: f64 = area_cell.parse().expect("numeric");
            assert!(area < 12.0, "FPGA area gain should collapse: {row}");
        }
    }

    #[test]
    fn fig7_proposed_beats_ip() {
        let s = fig7();
        // Every Ca/Cc row must show a positive area gain vs the IP.
        for line in s.lines().filter(|l| {
            let t = l.trim_start();
            t.contains(" Ca ") || t.contains(" Cc ")
        }) {
            assert!(
                line.matches('+').count() >= 1,
                "proposed design without any gain: {line}"
            );
        }
    }

    #[test]
    fn fig8_profiles_render() {
        let s = fig8();
        assert!(s.contains("Ca 8x8"));
        assert!(s.contains("distinct errors"));
    }

    #[test]
    fn fig9_ca_is_pareto_optimal() {
        let s = fig9();
        let ca_row = s
            .lines()
            .find(|l| l.contains("Ca 8x8"))
            .expect("Ca row present");
        assert!(
            ca_row.trim_end().ends_with('*'),
            "Ca must be on the front: {ca_row}"
        );
    }

    #[test]
    fn fig12_is_concentrated() {
        let s = fig12();
        assert!(s.contains("busiest cell"));
    }
}

//! The `repro nn` experiment: quantized int8 inference accuracy on
//! approximate multipliers.
//!
//! Three artifacts, mirroring the paper's accelerator case studies but
//! for a neural workload:
//!
//! 1. **Accuracy vs architecture** — top-1 accuracy of the reference
//!    classifier when every MAC routes through a given 8×8 multiplier,
//!    alongside that multiplier's standalone RMSE so the
//!    severity→degradation trend is visible in one table.
//! 2. **Fault robustness** — stuck-at faults injected into the Ca 8×8
//!    netlist; the product table is rebuilt from the faulty netlist
//!    and network accuracy re-measured (satellite of the fabric fault
//!    model).
//! 3. **Accuracy-constrained DSE** — the cheapest recursive 8×8
//!    configuration that keeps the network at ≥95% of the all-exact
//!    baseline accuracy, at strictly fewer LUTs.
//!
//! `nn(true)` is the CI smoke variant: a 64-sample slice, a reduced
//! roster, a 2-point fault sweep, and the homogeneous candidate set.

use axmul_baselines::{evo, Drum, IpOpt, Kulkarni, RehmanW, Truncated, VivadoIp};
use axmul_core::behavioral::{Ca, Cc};
use axmul_core::structural::ca_netlist;
use axmul_core::{Exact, Multiplier};
use axmul_metrics::ErrorStats;
use axmul_nn::{
    accuracy_search, evaluate, fault_sites, fault_sweep, quick_candidates, reference_model,
    test_set, Dataset, ProductTable,
};

use crate::report::{f, Table};

/// Worker count for the sharded batch pool. Determinism is guaranteed
/// for any value; 2 exercises the sharding even on a single-core host.
const WORKERS: usize = 2;

fn behavioral_roster(quick: bool) -> Vec<Box<dyn Multiplier>> {
    let mut r: Vec<Box<dyn Multiplier>> = vec![
        Box::new(Exact::new(8, 8)),
        Box::new(Ca::new(8).expect("8-bit Ca")),
        Box::new(Cc::new(8).expect("8-bit Cc")),
        Box::new(Kulkarni::new(8).expect("8-bit K")),
        Box::new(RehmanW::new(8).expect("8-bit W")),
        Box::new(Truncated::new(8, 2)),
    ];
    if !quick {
        r.push(Box::new(Truncated::new(8, 1)));
        r.push(Box::new(Truncated::new(8, 3)));
        r.push(Box::new(Drum::new(8, 4)));
        r.push(Box::new(VivadoIp::new(8, IpOpt::Area)));
        r.push(Box::new(VivadoIp::new(8, IpOpt::Speed)));
        // A low/medium/high-error slice of the EvoApprox-style library.
        let lib = evo::library();
        let n = lib.len();
        for idx in [0, n / 2, n - 1] {
            r.push(Box::new(lib[idx].clone()));
        }
    }
    r
}

fn accuracy_table(dataset: &Dataset, quick: bool) -> String {
    let model = reference_model();
    let mut rows: Vec<(String, f64, f64, f64, usize, usize)> = Vec::new();
    for mult in behavioral_roster(quick) {
        let stats = ErrorStats::exhaustive(mult.as_ref());
        let table = ProductTable::new(mult.as_ref()).expect("8x8 fits a product table");
        let eval = evaluate(model, &table, dataset, WORKERS).expect("reference dataset is sound");
        rows.push((
            mult.name().to_string(),
            stats.avg_relative_error,
            stats.rmse,
            eval.accuracy(),
            eval.correct,
            eval.total,
        ));
    }
    // Sort by average relative error — the severity metric that tracks
    // decision-level damage (absolute RMSE overweights proportional
    // underestimates like K's, which argmax tolerates).
    rows.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let mut t = Table::new(
        format!(
            "NN top-1 accuracy vs multiplier ({} samples, {} MACs/inference)",
            dataset.len(),
            model.macs_per_inference()
        ),
        &["multiplier", "avg rel e", "RMSE", "accuracy", "correct"],
    );
    for (name, rel, rmse, acc, correct, total) in rows {
        t.row_owned(vec![
            name,
            format!("{rel:.4}"),
            f(rmse, 1),
            format!("{:.2}%", 100.0 * acc),
            format!("{correct}/{total}"),
        ]);
    }
    t.render()
}

fn fault_table(dataset: &Dataset, quick: bool) -> String {
    let model = reference_model();
    let netlist = ca_netlist(8).expect("8-bit Ca netlist");
    let sites = fault_sites(&netlist).len();
    let (counts, trials): (&[usize], usize) = if quick {
        (&[0, 2], 2)
    } else {
        (&[0, 1, 2, 4, 8, 16], 3)
    };
    let points = fault_sweep(
        model,
        dataset,
        &netlist,
        counts,
        trials,
        0xDAC1_8F04,
        WORKERS,
    )
    .expect("Ca netlist simulates under faults");
    let mut t = Table::new(
        format!("NN accuracy under stuck-at faults in the Ca 8x8 netlist ({sites} fault sites)"),
        &["faults", "trials", "mean acc", "min acc"],
    );
    for p in points {
        t.row_owned(vec![
            p.faults.to_string(),
            p.trials.to_string(),
            format!("{:.2}%", 100.0 * p.mean_accuracy),
            format!("{:.2}%", 100.0 * p.min_accuracy),
        ]);
    }
    t.render()
}

fn dse_section(dataset: &Dataset, quick: bool) -> String {
    let model = reference_model();
    let configs = if quick {
        Some(quick_candidates())
    } else {
        None
    };
    let search = accuracy_search(model, dataset, 0.95, WORKERS, configs)
        .expect("DSE candidates characterize");
    let mut t = Table::new(
        format!(
            "Accuracy-constrained DSE ({} configurations, floor {:.2}% = 95% of baseline)",
            search.points.len(),
            100.0 * search.floor
        ),
        &["configuration", "LUTs", "EDP", "RMSE", "accuracy"],
    );
    let mut shown = 0;
    for p in &search.points {
        if p.accuracy >= search.floor {
            t.row_owned(vec![
                p.key.clone(),
                p.luts.to_string(),
                f(p.edp, 1),
                f(p.rmse, 1),
                format!("{:.2}%", 100.0 * p.accuracy),
            ]);
            shown += 1;
            if shown >= 10 {
                break;
            }
        }
    }
    let mut s = t.render();
    s.push_str(&format!(
        "baseline {}: {} LUTs, {:.2}% accuracy\n",
        search.baseline.key,
        search.baseline.luts,
        100.0 * search.baseline.accuracy
    ));
    match &search.best {
        Some(best) => s.push_str(&format!(
            "best {}: {} LUTs ({} fewer than baseline) at {:.2}% accuracy\n",
            best.key,
            best.luts,
            search.baseline.luts - best.luts,
            100.0 * best.accuracy
        )),
        None => s.push_str("no configuration beat the baseline under the floor\n"),
    }
    s
}

/// **NN inference accuracy.** The full experiment runs the complete
/// roster on the 256-sample test set, a 6-point fault sweep and the
/// exhaustive 1250-config accuracy-constrained DSE; `quick`
/// (`repro nn --quick`, fast enough for CI) a reduced roster on 64
/// samples, a 2-point fault sweep and the homogeneous DSE candidates.
#[must_use]
pub fn nn(quick: bool) -> String {
    let full = test_set();
    let dataset = if quick {
        Dataset {
            images: full.images[..64].to_vec(),
            labels: full.labels[..64].to_vec(),
        }
    } else {
        full
    };
    let mut s = accuracy_table(&dataset, quick);
    s.push('\n');
    s.push_str(&fault_table(&dataset, quick));
    s.push('\n');
    s.push_str(&dse_section(&dataset, quick));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_contains_all_three_sections() {
        let s = nn(true);
        assert!(s.contains("NN top-1 accuracy vs multiplier"));
        assert!(s.contains("stuck-at faults"));
        assert!(s.contains("Accuracy-constrained DSE"));
        assert!(s.contains("baseline (a X X X X)"));
    }
}

//! CSV and text rendering of exploration results.

use std::fmt::Write as _;

use axmul_core::behavioral::Summation;

use crate::config::Config;
use crate::search::{CandidateReport, DseResult};

/// Renders every evaluated candidate as CSV (header + one row each),
/// sorted by canonical key.
#[must_use]
pub fn to_csv(result: &DseResult) -> String {
    let mut out = String::from(
        "key,bits,luts,critical_path_ns,energy_per_op,edp,avg_error,\
         avg_relative_error,max_error,error_probability,on_lut_front,on_edp_front\n",
    );
    for r in &result.reports {
        let _ = writeln!(
            out,
            "\"{}\",{},{},{:.6},{:.6},{:.6},{:.6},{:.8},{},{:.8},{},{}",
            r.key,
            r.bits,
            r.luts,
            r.critical_path_ns,
            r.energy_per_op,
            r.edp,
            r.avg_error,
            r.avg_relative_error,
            r.max_error,
            r.error_probability,
            r.on_lut_front,
            r.on_edp_front
        );
    }
    out
}

/// Whether the paper's named configuration survives the sweep, and if
/// not, what dominates it (on the error-vs-LUT axes).
fn paper_verdict(result: &DseResult, bits: u32, summation: Summation) -> String {
    let cfg = Config::paper(bits, summation);
    let key = cfg.key();
    let label = match summation {
        Summation::Accurate => "approx-Ca",
        Summation::CarryFree => "approx-Cc",
    };
    let Some(r) = result.find(&key) else {
        return format!("  {label} {key}: not evaluated in this run\n");
    };
    if r.on_lut_front || r.on_edp_front {
        let fronts = match (r.on_lut_front, r.on_edp_front) {
            (true, true) => "error/LUT and error/EDP fronts",
            (true, false) => "error/LUT front",
            _ => "error/EDP front",
        };
        format!(
            "  {label} {key}: NON-DOMINATED on the {fronts} \
             ({} LUTs, EDP {:.3}, avg rel err {:.6})\n",
            r.luts, r.edp, r.avg_relative_error
        )
    } else {
        let by = result
            .reports
            .iter()
            .filter(|q| {
                q.avg_relative_error <= r.avg_relative_error
                    && q.luts <= r.luts
                    && (q.avg_relative_error < r.avg_relative_error || q.luts < r.luts)
            })
            .min_by(|a, b| a.luts.cmp(&b.luts))
            .map_or_else(|| "?".to_string(), |q| q.key.clone());
        format!(
            "  {label} {key}: dominated (by e.g. {by}; {} LUTs, avg rel err {:.6})\n",
            r.luts, r.avg_relative_error
        )
    }
}

fn front_lines(out: &mut String, front: &[&CandidateReport], cost_label: &str) {
    for r in front {
        let cost = match cost_label {
            "LUTs" => format!("{} LUTs", r.luts),
            _ => format!("EDP {:.3}", r.edp),
        };
        let _ = writeln!(
            out,
            "    {:<24} {cost:<14} avg rel err {:.8}  max |e| {}",
            r.key, r.avg_relative_error, r.max_error
        );
    }
}

/// Human-readable run summary: configuration counts, cache behavior,
/// per-worker throughput, both Pareto fronts, and the verdict on the
/// paper's named configurations.
#[must_use]
pub fn text_report(result: &DseResult) -> String {
    let bits = result.reports.first().map_or(0, |r| r.bits);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "design-space exploration: {} candidates at {bits}x{bits} in {:.2}s",
        result.reports.len(),
        result.elapsed.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  cache: {} hits / {} misses (hit rate {:.1}%)",
        result.cache_hits,
        result.cache_misses,
        100.0 * result.hit_rate()
    );
    let ct = result.char_time;
    if ct.assemble + ct.error + ct.energy + ct.sta > std::time::Duration::ZERO {
        let _ = writeln!(
            out,
            "  characterization: assemble {:.3}s, error {:.3}s, energy {:.3}s, STA {:.3}s",
            ct.assemble.as_secs_f64(),
            ct.error.as_secs_f64(),
            ct.energy.as_secs_f64(),
            ct.sta.as_secs_f64()
        );
    }
    if result.pruned() > 0 {
        let _ = writeln!(
            out,
            "  static pruning: {} candidates skipped ({} over the error budget, {} provably dominated)",
            result.pruned(),
            result.pruned_constraint,
            result.pruned_dominance
        );
    }
    for w in &result.workers {
        let _ = writeln!(
            out,
            "  worker {}: {} candidates in {:.2}s ({:.1} cand/s)",
            w.id,
            w.evaluated,
            w.elapsed.as_secs_f64(),
            w.throughput()
        );
    }

    let lut_front = result.lut_front();
    let _ = writeln!(
        out,
        "  error/LUT Pareto front ({} designs):",
        lut_front.len()
    );
    front_lines(&mut out, &lut_front, "LUTs");
    let edp_front = result.edp_front();
    let _ = writeln!(
        out,
        "  error/EDP Pareto front ({} designs):",
        edp_front.len()
    );
    front_lines(&mut out, &edp_front, "EDP");

    if bits >= 8 {
        out.push_str("  paper configurations:\n");
        out.push_str(&paper_verdict(result, bits, Summation::Accurate));
        out.push_str(&paper_verdict(result, bits, Summation::CarryFree));
    }
    out
}

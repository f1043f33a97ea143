//! Serve-daemon experiments: the load-generator benchmark (cold vs
//! warm persistent store) and the CI smoke check, both driving a real
//! daemon over real sockets.

use axmul_serve::loadgen::{self, BenchReport, LoadgenOptions, PhaseReport, TypeLatency};

use crate::report::{mode, BenchRecord, Field};

/// **Serve benchmark.** Mixed requests over concurrent TCP connections
/// against a cold store, then the identical workload against the warmed
/// store; reports p50/p99 latency, throughput and the build/disk-hit
/// counters of both phases. The full form sends tens of thousands of
/// requests; `quick` is CI-sized.
///
/// Returns the report with its `BENCH_serve.json` record. A failed run
/// becomes a record with an `"error"` key, so the file always parses.
#[must_use]
pub fn serve_bench(quick: bool) -> (String, String) {
    let opts = if quick {
        LoadgenOptions::quick()
    } else {
        LoadgenOptions::full()
    };
    match loadgen::run(&opts) {
        Ok(report) => (report.render_text(), record(&report, quick).render()),
        Err(e) => (
            format!("serve-bench FAILED: {e}\n"),
            BenchRecord::new("serve")
                .field("mode", mode(quick))
                .field("error", e)
                .render(),
        ),
    }
}

fn record(report: &BenchReport, quick: bool) -> BenchRecord {
    let digest = |t: &TypeLatency| {
        Field::Obj(vec![
            ("count", t.count.into()),
            ("p50_us", t.p50_us.into()),
            ("p99_us", t.p99_us.into()),
        ])
    };
    let phase = |p: &PhaseReport| {
        let mut latency: Vec<_> = p.per_type.iter().map(|t| (t.name, digest(t))).collect();
        latency.push(("overall", digest(&p.overall)));
        Field::Obj(vec![
            ("elapsed_s", Field::Fixed(p.elapsed_s, 3)),
            ("requests", p.requests.into()),
            ("throughput_rps", Field::Fixed(p.throughput_rps, 1)),
            ("builds", p.builds.into()),
            ("disk_hits", p.disk_hits.into()),
            ("latency_us", Field::Obj(latency)),
        ])
    };
    let opts = &report.opts;
    BenchRecord::new("serve")
        .field("mode", mode(quick))
        .field("roster_configs", opts.roster)
        .field("requests_per_phase", opts.requests)
        .field("connections", opts.connections)
        .field("workers", opts.workers)
        .field("seed", opts.seed)
        .field("cold", phase(&report.cold))
        .field("warm", phase(&report.warm))
        .field("cold_builds", report.cold.builds)
        .field("warm_builds", report.warm.builds)
        .field("warm_disk_hits", report.warm.disk_hits)
}

/// **Serve smoke.** Boots a daemon on a Unix socket, issues one request
/// of every type, and prints a per-type verdict plus a final
/// `serve smoke: PASS`/`FAIL` line for CI to grep.
#[must_use]
pub fn serve_smoke() -> String {
    match loadgen::smoke() {
        Ok(lines) => {
            let mut s = lines.join("\n");
            s.push_str("\nserve smoke: PASS\n");
            s
        }
        Err(e) => format!("{e}\nserve smoke: FAIL\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_reports_pass_and_every_type() {
        let out = serve_smoke();
        assert!(out.contains("serve smoke: PASS"), "{out}");
        for ty in [
            "characterize-config",
            "lint-netlist",
            "nn-classify-batch",
            "dse-query",
        ] {
            assert!(out.contains(ty), "missing {ty} in {out}");
        }
    }
}

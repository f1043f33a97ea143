//! Serve-daemon experiments: the load-generator benchmark (cold vs
//! warm persistent store) and the CI smoke check, both driving a real
//! daemon over real sockets.

use axmul_serve::loadgen::{self, LoadgenOptions};

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
        Ok(report) => (report.render_text(), report.to_json()),
        Err(e) => (
            format!("serve-bench FAILED: {e}\n"),
            format!(
                "{{\"bench\":\"serve\",\"error\":\"{}\"}}",
                e.replace('"', "'")
            ),
        ),
    }
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

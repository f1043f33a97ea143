//! Golden reports of `axmul dse`: the exhaustive 8×8 and the default
//! (hill-climb) 16×16 exploration must print exactly the fronts and
//! statistics recorded in `tests/golden/`, cache hit/miss counts
//! included (each block is characterized exactly once, however the
//! workers race). Lines that depend on the host or on worker scheduling
//! are left out: the run time on the first line, the characterization
//! time split and the per-worker throughput.

use axmul_cli::run;

fn report_body(width: &str) -> String {
    let args: Vec<String> = ["dse", "--width", width]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let out = run(&args).unwrap();
    let mut body = String::new();
    for (i, line) in out.lines().enumerate() {
        let line = if i == 0 {
            // "design-space exploration: N candidates at WxW in T s"
            line.rsplit_once(" in ").map_or(line, |(head, _)| head)
        } else {
            line
        };
        let skipped = ["  characterization:", "  worker "]
            .iter()
            .any(|p| line.starts_with(p));
        if !skipped {
            body.push_str(line);
            body.push('\n');
        }
    }
    body
}

#[test]
fn dse_8x8_report_matches_golden() {
    assert_eq!(report_body("8"), include_str!("golden/dse_8x8.txt"));
}

#[test]
fn dse_16x16_report_matches_golden() {
    assert_eq!(report_body("16"), include_str!("golden/dse_16x16.txt"));
}

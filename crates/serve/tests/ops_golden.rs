//! Golden replies of the daemon's netlist operations: `import-netlist`
//! (with and without a `config`, a structural variant, a SAT-proven
//! twin, a mismatch and the error paths), `equiv-check` (configuration
//! pairs, netlist sides, bad sides and sides over the width cap), `absint-query` and
//! `lint-netlist`. Every reply must equal
//! `tests/golden/ops_daemon.txt`, with `elapsed_ms` and `elapsed_us`
//! masked.

use axmul_dse::Config;
use axmul_fabric::export::to_verilog;
use axmul_fabric::Netlist;
use axmul_serve::json::{self, Value};
use axmul_serve::proto::render_request;
use axmul_serve::{Op, Request, Service};

fn verilog_of(key: &str) -> String {
    to_verilog(&key.parse::<Config>().unwrap().assemble())
}

/// The `(a A A A A)` twin under another module name: same function,
/// different content fingerprint.
fn renamed_twin() -> String {
    let twin = "(a A A A A)".parse::<Config>().unwrap().assemble();
    to_verilog(&Netlist::from_parts(
        "renamed_variant".to_string(),
        twin.drivers().to_vec(),
        twin.cells().to_vec(),
        twin.input_buses().to_vec(),
        twin.output_buses().to_vec(),
    ))
}

fn import(text: String, format: Option<&str>, config: Option<&str>) -> Op {
    Op::ImportNetlist {
        text,
        format: format.map(str::to_string),
        config: config.map(str::to_string),
    }
}

/// An `equiv-check` with each side given as a netlist document or a
/// configuration key.
fn equiv(lhs: (Option<String>, Option<&str>), rhs: (Option<String>, Option<&str>)) -> Op {
    Op::EquivCheck {
        lhs_netlist: lhs.0,
        lhs_config: lhs.1.map(str::to_string),
        rhs_netlist: rhs.0,
        rhs_config: rhs.1.map(str::to_string),
    }
}

fn mask(v: &mut Value) {
    match v {
        Value::Obj(map) => {
            for (k, v) in map.iter_mut() {
                if k == "elapsed_ms" || k == "elapsed_us" {
                    *v = Value::str("<masked>");
                } else {
                    mask(v);
                }
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}

#[test]
fn netlist_operations_match_golden_replies() {
    let ca8 = to_verilog(&axmul_core::structural::ca_netlist(8).unwrap());
    // An exact 4×4 multiplier that is not structurally the `X` leaf.
    let ips4 =
        to_verilog(&axmul_baselines::VivadoIp::new(4, axmul_baselines::IpOpt::Speed).netlist());
    let twin = verilog_of("(a A A A A)");
    let broken = || Some("module broken (".to_string());
    let wide = to_verilog(&axmul_core::structural::ca_netlist(32).unwrap());
    let q16 = "(a (a A A A A) (a A A A A) (a A A A A) (a A A A A))";
    let wide_key = format!("(a {q16} {q16} {q16} {q16})");
    let cases: Vec<(&str, Op)> = vec![
        ("import, no config", import(ca8.clone(), None, None)),
        (
            "import axnl, named format",
            import(
                axmul_netio::to_axnl(&axmul_netio::import(&twin).unwrap()),
                Some("axnl"),
                None,
            ),
        ),
        (
            "import, fingerprint twin",
            import(twin.clone(), Some("verilog"), Some("(a A A A A)")),
        ),
        (
            "import, structural variant",
            import(ca8.clone(), None, Some("(a A A A A)")),
        ),
        (
            "import, renamed variant",
            import(renamed_twin(), None, Some("(a A A A A)")),
        ),
        (
            "import, SAT-proven twin",
            import(ips4.clone(), None, Some("X")),
        ),
        (
            "import, mismatch",
            import(ca8.clone(), None, Some("(a X X X X)")),
        ),
        (
            "import, bad config",
            import(ca8.clone(), None, Some("(a A A")),
        ),
        (
            "import, unknown format",
            import(ca8.clone(), Some("edif"), None),
        ),
        (
            "import, malformed",
            import("module broken (".into(), None, None),
        ),
        (
            "equiv, equal configs",
            equiv((None, Some("(a A A A A)")), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, distinct configs",
            equiv((None, Some("(a A A A A)")), (None, Some("(c X X X X)"))),
        ),
        (
            "equiv, netlist side",
            equiv((Some(ca8.clone()), None), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, SAT-proven netlist side",
            equiv((Some(ips4), None), (None, Some("X"))),
        ),
        (
            "equiv, malformed side",
            equiv((broken(), None), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, bad config side",
            equiv((None, Some("(a A A")), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, empty side",
            equiv((None, None), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, side over the width cap",
            equiv((Some(wide), None), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, config over the width cap",
            equiv((None, Some(&wide_key)), (None, Some("(a A A A A)"))),
        ),
        (
            "equiv, interface mismatch",
            equiv((None, Some("(a A A A A)")), (None, Some("A"))),
        ),
        (
            "absint-query",
            Op::AbsintQuery {
                config: "(a A A A A)".into(),
            },
        ),
        (
            "absint-query, bad config",
            Op::AbsintQuery {
                config: "(a A".into(),
            },
        ),
        (
            "lint-netlist",
            Op::Lint {
                config: "(c A A A A)".into(),
            },
        ),
    ];

    let svc = Service::new(None);
    let mut transcript = String::new();
    for (name, op) in cases {
        let reply = svc.handle_payload(&render_request(&Request { id: 1, op }));
        let mut reply = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        mask(&mut reply);
        transcript.push_str(&format!("== {name} ==\n{reply}\n"));
    }
    assert_eq!(transcript, include_str!("golden/ops_daemon.txt"));
}

//! The operations the `axmul` CLI and the daemon share, each decided
//! once: parsing a configuration key, importing a netlist document,
//! checking an import against the configuration it claims to implement,
//! resolving one side of an equivalence check, and certifying a proven
//! worst-case error against its absint bracket. Results are the
//! library's own types and errors keep their source error, so each
//! front end renders text in its own words.
//!
//! JSON is rendered once, here: [`lint_report_value`],
//! [`tree_bounds_value`], [`netlist_bounds_value`] and
//! [`certified_wce_value`] are the one JSON view of each shared result.
//! `axmul lint|absint|verify --json` print them and the daemon replies
//! with them, so both front ends print the same bytes. Integers are
//! exact ([`Value::Int`]): a 32×32 worst-case error exceeds 2^53.

use std::fmt;

use axmul_absint::{analyze_netlist, AbsintError, ErrorBound, NetlistAnalysis, TreeAnalysis};
use axmul_dse::{static_bounds, Config, ParseConfigError};
use axmul_fabric::Netlist;
use axmul_lint::{LintReport, Locus};
use axmul_netio::{Format, NetioError};
use axmul_sat::{
    check_equiv, prove_wce, EquivReport, ProofOptions, SatError, WceOptions, WceProof,
};

use crate::json::Value;

/// Why a configuration key was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The key does not parse.
    Parse(ParseConfigError),
    /// The configuration is wider than the caller's width cap.
    TooWide {
        /// Operand width of the configuration.
        bits: u32,
        /// The cap it exceeds.
        limit: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "{e}"),
            ConfigError::TooWide { bits, limit } => write!(
                f,
                "{bits}-bit configuration exceeds the {limit}-bit serving limit"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parses a configuration key, refusing one wider than `max_bits`.
///
/// # Errors
///
/// The [`ConfigError`] that refused the key.
pub fn parse_config(key: &str, max_bits: Option<u32>) -> Result<Config, ConfigError> {
    let cfg: Config = key.parse().map_err(ConfigError::Parse)?;
    match max_bits {
        Some(limit) if cfg.bits() > limit => Err(ConfigError::TooWide {
            bits: cfg.bits(),
            limit,
        }),
        _ => Ok(cfg),
    }
}

/// Why a netlist document was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The named format is neither `verilog` nor `axnl`.
    UnknownFormat(String),
    /// The document does not import.
    Netio(NetioError),
}

/// Imports a netlist document in the named format, or the detected one
/// when `format` is `None`, and returns it with the format it was read
/// as.
///
/// # Errors
///
/// [`ImportError::UnknownFormat`] (before any parsing) or
/// [`ImportError::Netio`].
pub fn import(text: &str, format: Option<&str>) -> Result<(Netlist, Format), ImportError> {
    let format = match format {
        None => axmul_netio::detect_format(text),
        Some(name) => name
            .parse()
            .map_err(|()| ImportError::UnknownFormat(name.to_string()))?,
    };
    let netlist = match format {
        Format::Verilog => axmul_netio::from_verilog(text),
        Format::Axnl => axmul_netio::from_axnl(text),
    }
    .map_err(ImportError::Netio)?;
    Ok((netlist, format))
}

/// How an imported netlist stands against the netlist its claimed
/// configuration assembles (its twin).
#[derive(Debug, Clone)]
pub struct TwinCheck {
    /// Content fingerprint of the imported netlist.
    pub fingerprint: u64,
    /// Content fingerprint of the twin.
    pub twin_fingerprint: u64,
    /// The SAT equivalence verdict; `None` when the fingerprints match.
    pub proof: Option<Result<EquivReport, SatError>>,
}

/// Checks `netlist` against the netlist `cfg` assembles: equal content
/// fingerprints settle it, otherwise a SAT equivalence proof decides.
#[must_use]
pub fn check_twin(netlist: &Netlist, cfg: &Config) -> TwinCheck {
    let twin = cfg.assemble();
    let fingerprint = axmul_netio::fingerprint(netlist);
    let twin_fingerprint = axmul_netio::fingerprint(&twin);
    let proof = (fingerprint != twin_fingerprint)
        .then(|| check_equiv(netlist, &twin, &ProofOptions::default()));
    TwinCheck {
        fingerprint,
        twin_fingerprint,
        proof,
    }
}

/// One side of an equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side<'a> {
    /// A netlist document in either interchange format.
    Document(&'a str),
    /// A configuration key, standing for the netlist it assembles.
    Config(&'a str),
}

/// Why an equivalence side was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SideError {
    /// The document does not import.
    Netio(NetioError),
    /// The configuration key was refused.
    Config(ConfigError),
    /// The document has more input bits than the width cap allows.
    TooWide {
        /// Input bits of the document's netlist, over all buses.
        input_bits: usize,
        /// The cap they exceed.
        limit: usize,
    },
}

/// Resolves one side of an equivalence check into a netlist. With
/// `max_bits`, a configuration is capped at that operand width and a
/// document at twice as many input bits.
///
/// # Errors
///
/// The [`SideError`] that refused the side.
pub fn resolve_side(side: Side<'_>, max_bits: Option<u32>) -> Result<Netlist, SideError> {
    match side {
        Side::Document(text) => {
            let netlist = axmul_netio::import(text).map_err(SideError::Netio)?;
            let input_bits: usize = netlist.input_buses().iter().map(|(_, n)| n.len()).sum();
            match max_bits.map(|bits| 2 * bits as usize) {
                Some(limit) if input_bits > limit => Err(SideError::TooWide { input_bits, limit }),
                _ => Ok(netlist),
            }
        }
        Side::Config(key) => Ok(parse_config(key, max_bits)
            .map_err(SideError::Config)?
            .assemble()),
    }
}

/// A design whose worst-case error [`certify_wce`] proves.
#[derive(Debug, Clone)]
pub enum WceDesign {
    /// A configuration, bracketed by [`static_bounds`] and proven on
    /// the netlist it assembles.
    Config(Config),
    /// A netlist, bracketed by [`analyze_netlist`] when absint bounds
    /// its shape.
    Netlist(Netlist),
}

/// A SAT-proven worst-case error and the absint bracket it was checked
/// against.
#[derive(Debug, Clone)]
pub struct CertifiedWce {
    /// The exact worst-case error, with its replayed witness.
    pub proof: WceProof,
    /// Absint's bound on the design; `None` when absint cannot bound
    /// the netlist's shape.
    pub bracket: Option<ErrorBound>,
    /// `wce_lb ≤ wce ≤ wce_ub`: the proof certifies the bracket.
    /// Vacuously `true` without a bracket; `false` means the static
    /// analysis is unsound.
    pub contained: bool,
}

/// Why a worst-case error was not proven.
#[derive(Debug, Clone, PartialEq)]
pub enum WceError {
    /// The configuration is too wide for the abstract interpreter.
    Absint(AbsintError),
    /// The proof did not complete.
    Sat(SatError),
}

/// Proves `design`'s exact worst-case error, hinted by the witness of
/// its absint bracket, and checks that the proven value lies inside the
/// bracket.
///
/// # Errors
///
/// [`WceError::Absint`] before any proof, or [`WceError::Sat`].
pub fn certify_wce(design: &WceDesign) -> Result<CertifiedWce, WceError> {
    match design {
        WceDesign::Config(cfg) => {
            let bound = static_bounds(cfg).map_err(WceError::Absint)?.bound;
            prove_in_bracket(&cfg.assemble(), Some(bound))
        }
        WceDesign::Netlist(netlist) => prove_in_bracket(netlist, analyze_netlist(netlist).error),
    }
    .map_err(WceError::Sat)
}

fn prove_in_bracket(
    netlist: &Netlist,
    bracket: Option<ErrorBound>,
) -> Result<CertifiedWce, SatError> {
    let opts = WceOptions {
        hint: bracket.as_ref().and_then(|b| b.witness),
        ..WceOptions::default()
    };
    let proof = prove_wce(netlist, &opts)?;
    let contained = bracket
        .as_ref()
        .is_none_or(|b| b.wce_lb <= proof.wce && proof.wce <= b.wce_ub());
    Ok(CertifiedWce {
        proof,
        bracket,
        contained,
    })
}

/// The JSON view of a lint report: the netlist, its size, the finding
/// counts, every finding and every skipped analysis.
#[must_use]
pub fn lint_report_value(report: &LintReport) -> Value {
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            let locus = match d.locus {
                Locus::Global => Value::Null,
                Locus::Cell(i) => Value::obj([("cell", Value::int(i))]),
                Locus::Net(i) => Value::obj([("net", Value::int(i))]),
            };
            Value::obj([
                ("pass", Value::str(d.pass.name())),
                ("severity", Value::str(d.severity.name())),
                ("code", Value::str(d.code)),
                ("engine", Value::str(d.engine)),
                ("locus", locus),
                ("message", Value::str(d.message.clone())),
            ])
        })
        .collect();
    let skipped = report
        .skipped
        .iter()
        .map(|s| Value::str(s.clone()))
        .collect();
    Value::obj([
        ("netlist", Value::str(report.netlist.clone())),
        ("luts", Value::int(report.luts)),
        ("carry4s", Value::int(report.carry4s)),
        ("errors", Value::int(report.errors())),
        ("warnings", Value::int(report.warnings())),
        ("infos", Value::int(report.infos())),
        ("diagnostics", Value::Arr(diagnostics)),
        ("skipped", Value::Arr(skipped)),
    ])
}

/// An operand pair as a two-element array.
pub(crate) fn pair((a, b): (u64, u64)) -> Value {
    Value::Arr(vec![Value::int(a), Value::int(b)])
}

/// The JSON view of a configuration tree's static bounds: the wce
/// bracket, the deviation and value intervals, the relative-error
/// bound, the witness and whether the certificate verifies.
#[must_use]
pub fn tree_bounds_value(analysis: &TreeAnalysis) -> Value {
    let b = &analysis.bound;
    Value::obj([
        ("key", Value::str(analysis.key.clone())),
        ("bits", Value::int(analysis.bits)),
        ("wce_lb", Value::int(b.wce_lb)),
        ("wce_ub", Value::int(b.wce_ub())),
        ("err_lo", Value::int(b.err_lo)),
        ("err_hi", Value::int(b.err_hi)),
        ("mre_ub", Value::num(b.mre)),
        ("value_lo", Value::int(b.value.lo)),
        ("value_hi", Value::int(b.value.hi)),
        ("witness", b.witness.map_or(Value::Null, pair)),
        ("cert_steps", Value::int(analysis.certificate.steps().len())),
        ("sound", Value::Bool(analysis.certificate.verify().is_ok())),
    ])
}

/// The JSON view of a netlist's static bounds: each output bus's value
/// interval, the number of derived constant nets, and the error bound
/// when absint bounds the netlist's shape.
#[must_use]
pub fn netlist_bounds_value(analysis: &NetlistAnalysis) -> Value {
    let outputs = analysis
        .outputs
        .iter()
        .map(|o| {
            Value::obj([
                ("bus", Value::str(o.bus.clone())),
                ("lo", Value::int(o.interval.lo)),
                ("hi", Value::int(o.interval.hi)),
            ])
        })
        .collect();
    let error = analysis.error.as_ref().map_or(Value::Null, |e| {
        Value::obj([
            ("wce_ub", Value::int(e.wce_ub())),
            ("err_lo", Value::int(e.err_lo)),
            ("err_hi", Value::int(e.err_hi)),
        ])
    });
    Value::obj([
        ("name", Value::str(analysis.name.clone())),
        ("outputs", Value::Arr(outputs)),
        (
            "derived_constants",
            Value::int(analysis.derived_constants.len()),
        ),
        ("error", error),
    ])
}

/// The JSON view of a certified worst-case error of the design called
/// `name`: the proof, the bracket it was checked against (`null` bounds
/// without one) and the verdict.
#[must_use]
pub fn certified_wce_value(name: &str, certified: &CertifiedWce) -> Value {
    let proof = &certified.proof;
    let (lb, ub) = certified
        .bracket
        .as_ref()
        .map_or((Value::Null, Value::Null), |b| {
            (Value::int(b.wce_lb), Value::int(b.wce_ub()))
        });
    Value::obj([
        ("name", Value::str(name)),
        ("a_bits", Value::int(proof.a_bits)),
        ("b_bits", Value::int(proof.b_bits)),
        ("wce", Value::int(proof.wce)),
        ("witness", pair(proof.witness)),
        ("absint_lb", lb),
        ("absint_ub", ub),
        ("contained", Value::Bool(certified.contained)),
        ("engine", Value::str(proof.engine.to_string())),
        ("ascent_steps", Value::int(proof.ascent_steps)),
        ("solves", Value::int(proof.stats.solves)),
        ("conflicts", Value::int(proof.stats.conflicts)),
        ("elapsed_ms", Value::num(proof.stats.elapsed_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_cap_applies_only_when_given() {
        let q = "(a A A A A)";
        let wide = format!("(c {q} {q} {q} {q})");
        assert_eq!(parse_config(&wide, None).unwrap().bits(), 16);
        assert_eq!(
            parse_config(&wide, Some(8)),
            Err(ConfigError::TooWide { bits: 16, limit: 8 })
        );
        assert!(matches!(
            parse_config("(a A", None),
            Err(ConfigError::Parse(_))
        ));
    }

    #[test]
    fn import_reports_the_format_it_read() {
        let text = axmul_fabric::export::to_verilog(&"A".parse::<Config>().unwrap().assemble());
        let (_, format) = import(&text, None).unwrap();
        assert_eq!(format, Format::Verilog);
        let doc = axmul_netio::to_axnl(&import(&text, Some("v")).unwrap().0);
        assert_eq!(import(&doc, None).unwrap().1, Format::Axnl);
        assert_eq!(
            import(&text, Some("edif")).unwrap_err(),
            ImportError::UnknownFormat("edif".into())
        );
        assert!(matches!(
            import(&text, Some("axnl")),
            Err(ImportError::Netio(_))
        ));
    }

    #[test]
    fn twin_check_proves_only_when_fingerprints_differ() {
        let cfg: Config = "(a A A A A)".parse().unwrap();
        let same = check_twin(&cfg.assemble(), &cfg);
        assert_eq!(same.fingerprint, same.twin_fingerprint);
        assert!(same.proof.is_none());

        let ca8 = axmul_core::structural::ca_netlist(8).unwrap();
        let variant = check_twin(&ca8, &cfg);
        assert_ne!(variant.fingerprint, variant.twin_fingerprint);
        assert!(variant.proof.unwrap().unwrap().is_equivalent());

        let other = check_twin(&ca8, &"(a X X X X)".parse().unwrap());
        assert!(!other.proof.unwrap().unwrap().is_equivalent());
    }

    #[test]
    fn sides_resolve_under_the_cap() {
        let doc = axmul_fabric::export::to_verilog(&axmul_core::structural::ca_netlist(8).unwrap());
        assert!(resolve_side(Side::Document(&doc), Some(8)).is_ok());
        assert_eq!(
            resolve_side(Side::Document(&doc), Some(4)).unwrap_err(),
            SideError::TooWide {
                input_bits: 16,
                limit: 8
            }
        );
        assert!(matches!(
            resolve_side(Side::Document("module broken ("), None),
            Err(SideError::Netio(_))
        ));
        assert_eq!(
            resolve_side(Side::Config("(a A A A A)"), Some(4)).unwrap_err(),
            SideError::Config(ConfigError::TooWide { bits: 8, limit: 4 })
        );
        assert!(resolve_side(Side::Config("A"), None).is_ok());
    }

    #[test]
    fn certification_checks_the_proof_against_the_bracket() {
        let cfg: Config = "(a A A A A)".parse().unwrap();
        let paper = certify_wce(&WceDesign::Config(cfg.clone())).unwrap();
        assert_eq!(paper.proof.wce, 2312);
        let bound = paper.bracket.clone().unwrap();
        assert_eq!((bound.wce_lb, bound.wce_ub()), (2312, 2312));
        assert!(paper.contained);

        // A bracket that stops short of the proven 2312 is refuted.
        let short = ErrorBound {
            err_lo: -2000,
            wce_lb: 0,
            witness: None,
            ..bound
        };
        let refuted = prove_in_bracket(&cfg.assemble(), Some(short)).unwrap();
        assert_eq!(refuted.proof.wce, 2312);
        assert!(!refuted.contained);
        // Without a bracket there is nothing to refute.
        assert!(prove_in_bracket(&cfg.assemble(), None).unwrap().contained);

        let ca8 = certify_wce(&WceDesign::Netlist(
            axmul_core::structural::ca_netlist(8).unwrap(),
        ))
        .unwrap();
        assert_eq!(ca8.proof.wce, 2312);
        assert!(ca8.bracket.is_some() && ca8.contained);

        // 64 bits is past absint's headroom: refused before any proof.
        let mut wide = "(a A A A A)".to_string();
        for _ in 0..3 {
            wide = format!("(c {wide} {wide} {wide} {wide})");
        }
        assert!(matches!(
            certify_wce(&WceDesign::Config(wide.parse().unwrap())),
            Err(WceError::Absint(_))
        ));
    }

    #[test]
    fn lint_view_escapes_and_structures() {
        use axmul_lint::{Diagnostic, Pass, Severity};
        let report = LintReport {
            netlist: "m".into(),
            luts: 2,
            carry4s: 1,
            diagnostics: vec![
                Diagnostic {
                    pass: Pass::Structure,
                    severity: Severity::Error,
                    code: "comb-loop",
                    engine: "sat",
                    locus: Locus::Net(3),
                    message: "cycle \"here\"".into(),
                },
                Diagnostic {
                    pass: Pass::DeadLogic,
                    severity: Severity::Info,
                    code: "dead-o5",
                    engine: "static",
                    locus: Locus::Global,
                    message: "O5 unused".into(),
                },
            ],
            skipped: vec!["tables: too wide".into()],
        };
        let j = lint_report_value(&report).to_string();
        for part in [
            "\"netlist\":\"m\"",
            "\\\"here\\\"",
            "\"locus\":{\"net\":3}",
            "\"locus\":null",
            "\"errors\":1",
            "\"infos\":1",
            "\"engine\":\"sat\"",
            "\"engine\":\"static\"",
            "\"pass\":\"dead-logic\"",
            "\"skipped\":[\"tables: too wide\"]",
        ] {
            assert!(j.contains(part), "{part} missing from {j}");
        }
        let back = crate::json::parse(&j).unwrap();
        let diags = back.get("diagnostics").and_then(Value::as_arr).unwrap();
        assert_eq!(
            diags[0].get("message").and_then(Value::as_str),
            Some("cycle \"here\"")
        );
    }

    #[test]
    fn tree_view_mentions_soundness_and_witness() {
        let cfg: Config = "(a A A A A)".parse().unwrap();
        let j = tree_bounds_value(&static_bounds(&cfg).unwrap()).to_string();
        assert!(j.contains("\"sound\":true"), "{j}");
        assert!(j.contains("\"wce_ub\":2312"), "{j}");
        assert!(j.contains("\"witness\":[119,102]"), "{j}");
    }

    #[test]
    fn netlist_view_keeps_a_hostile_name() {
        let ca8 = axmul_core::structural::ca_netlist(8).unwrap();
        let name = "a\"b\\c\n";
        let renamed = Netlist::from_parts(
            name.to_string(),
            ca8.drivers().to_vec(),
            ca8.cells().to_vec(),
            ca8.input_buses().to_vec(),
            ca8.output_buses().to_vec(),
        );
        let text = netlist_bounds_value(&analyze_netlist(&renamed)).to_string();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("name").and_then(Value::as_str), Some(name));
        let error = back.get("error").unwrap();
        assert_eq!(error.get("wce_ub").and_then(Value::as_u64), Some(65535));
    }
}

//! Request execution: one [`Service`] owns the warm state (the
//! characterization cache, tabulated NN backends, the linter) and turns
//! request payloads into response payloads.
//!
//! The service is transport-agnostic and fully thread-safe: the server
//! hands byte payloads to [`Service::handle_payload`] from any worker
//! thread. Every failure becomes a typed error *response*; nothing in
//! here panics on hostile input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use axmul_dse::{evaluate_on, CharCache, Config, DiskStore, DseResult};
use axmul_fabric::cost::Characterizer;
use axmul_fabric::Netlist;
use axmul_lint::Linter;
use axmul_nn::{infer_batch, reference_model, ProductTable};
use axmul_sat::{check_equiv, EquivOutcome, EquivReport, ProofOptions, SatError};

use crate::json::Value;
use crate::ops::{self, ConfigError, ImportError, Side, SideError};
use crate::proto::{parse_request, render_err, render_ok, ErrorCode, Op, RequestError};

/// Widest configuration the daemon characterizes on demand. The cache
/// itself goes to 128 bits, but a single blocking request has to stay
/// interactive.
pub const MAX_SERVE_BITS: u32 = 16;

/// Cap on images per `nn-classify-batch` request.
pub const MAX_BATCH_IMAGES: usize = 4096;

/// Cap on candidates per `dse-query` request.
pub const MAX_DSE_CANDIDATES: usize = 512;

/// Per-request-type counters, all monotonically increasing.
#[derive(Debug, Default)]
struct Counters {
    characterize: AtomicU64,
    lint: AtomicU64,
    nn_classify: AtomicU64,
    dse_query: AtomicU64,
    absint_query: AtomicU64,
    import_netlist: AtomicU64,
    equiv_check: AtomicU64,
    stats: AtomicU64,
    errors: AtomicU64,
}

/// The daemon's warm state and request dispatcher.
pub struct Service {
    cache: CharCache,
    /// Signed 8-bit product tables keyed by configuration key; `""` is
    /// the exact backend. Built once per configuration, then shared.
    /// The lock tolerates poisoning: each critical section is one
    /// lookup or insert, which leaves the map valid if its holder
    /// panics.
    tables: Mutex<HashMap<String, Arc<ProductTable>>>,
    linter: Linter,
    counters: Counters,
    started: Instant,
}

impl Service {
    /// Builds a service around a fresh in-memory cache, optionally
    /// backed by a persistent store.
    #[must_use]
    pub fn new(store: Option<Arc<DiskStore>>) -> Self {
        let mut cache = CharCache::new(Characterizer::virtex7());
        if let Some(store) = store {
            cache = cache.with_store(store);
        }
        Service {
            cache,
            tables: Mutex::new(HashMap::new()),
            linter: Linter::new(),
            counters: Counters::default(),
            started: Instant::now(),
        }
    }

    /// The characterization cache (exposed for stats and benchmarks).
    #[must_use]
    pub fn cache(&self) -> &CharCache {
        &self.cache
    }

    /// Executes one request payload and renders the response payload.
    /// Infallible by design: every failure mode is an error response.
    pub fn handle_payload(&self, payload: &[u8]) -> Vec<u8> {
        let req = match parse_request(payload) {
            Ok(r) => r,
            Err(RequestError { id, code, message }) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                return render_err(id, code, &message);
            }
        };
        let id = req.id;
        match self.dispatch(&req.op) {
            Ok(result) => render_ok(id, result),
            Err((code, message)) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                render_err(id, code, &message)
            }
        }
    }

    fn dispatch(&self, op: &Op) -> Result<Value, (ErrorCode, String)> {
        match op {
            Op::Characterize { config } => {
                self.counters.characterize.fetch_add(1, Ordering::Relaxed);
                self.characterize(config)
            }
            Op::Lint { config } => {
                self.counters.lint.fetch_add(1, Ordering::Relaxed);
                self.lint(config)
            }
            Op::NnClassify { config, images } => {
                self.counters.nn_classify.fetch_add(1, Ordering::Relaxed);
                self.nn_classify(config.as_deref(), images)
            }
            Op::DseQuery { candidates } => {
                self.counters.dse_query.fetch_add(1, Ordering::Relaxed);
                self.dse_query(candidates)
            }
            Op::AbsintQuery { config } => {
                self.counters.absint_query.fetch_add(1, Ordering::Relaxed);
                self.absint_query(config)
            }
            Op::ImportNetlist {
                text,
                format,
                config,
            } => {
                self.counters.import_netlist.fetch_add(1, Ordering::Relaxed);
                self.import_netlist(text, format.as_deref(), config.as_deref())
            }
            Op::EquivCheck {
                lhs_netlist,
                lhs_config,
                rhs_netlist,
                rhs_config,
            } => {
                self.counters.equiv_check.fetch_add(1, Ordering::Relaxed);
                self.equiv_check(
                    lhs_netlist.as_deref(),
                    lhs_config.as_deref(),
                    rhs_netlist.as_deref(),
                    rhs_config.as_deref(),
                )
            }
            Op::Stats => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Ok(self.stats())
            }
        }
    }

    fn characterize(&self, key: &str) -> Result<Value, (ErrorCode, String)> {
        let cfg = served_config(key)?;
        let char = self
            .cache
            .characterize(&cfg)
            .map_err(|e| (ErrorCode::Internal, format!("characterization failed: {e}")))?;
        let cost = &char.cost;
        let stats = &char.stats;
        Ok(Value::obj([
            ("key", Value::str(char.key.clone())),
            ("bits", Value::int(char.bits)),
            (
                "cost",
                Value::obj([
                    ("luts", Value::int(char.cost.area.luts)),
                    ("carry4s", Value::int(cost.area.carry4s)),
                    ("wasted_sites", Value::int(cost.area.wasted_sites)),
                    ("dead_outputs", Value::int(cost.area.dead_outputs)),
                    ("ignored_pins", Value::int(cost.area.ignored_pins)),
                    ("critical_path_ns", Value::Num(cost.critical_path_ns)),
                    ("energy_per_op", Value::Num(cost.energy_per_op)),
                    ("edp", Value::Num(cost.edp)),
                ]),
            ),
            (
                "stats",
                Value::obj([
                    ("samples", Value::int(stats.samples)),
                    ("error_occurrences", Value::int(stats.error_occurrences)),
                    ("max_error", Value::int(stats.max_error)),
                    (
                        "max_error_occurrences",
                        Value::int(stats.max_error_occurrences),
                    ),
                    ("avg_error", Value::Num(stats.avg_error)),
                    ("avg_relative_error", Value::Num(stats.avg_relative_error)),
                    ("error_probability", Value::Num(stats.error_probability)),
                    (
                        "normalized_mean_error_distance",
                        Value::Num(stats.normalized_mean_error_distance),
                    ),
                    ("mean_squared_error", Value::Num(stats.mean_squared_error)),
                    ("rmse", Value::Num(stats.rmse)),
                    (
                        // Worst-case operand witnesses (store v2): pairs
                        // `[a, b]` attaining `max_error`.
                        "worst_case_inputs",
                        Value::Arr(
                            stats
                                .worst_case_inputs
                                .iter()
                                .copied()
                                .map(ops::pair)
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]))
    }

    /// Imports an external netlist document, lints it, and — when the
    /// client names the configuration it claims to implement — checks
    /// it against the in-process twin ([`ops::check_twin`]) and answers
    /// with the (warm-cache) characterization. A structural variant of
    /// the claimed configuration is accepted with a note; a different
    /// function is `invalid-netlist`.
    fn import_netlist(
        &self,
        text: &str,
        format: Option<&str>,
        config: Option<&str>,
    ) -> Result<Value, (ErrorCode, String)> {
        let (netlist, format) = ops::import(text, format).map_err(|e| match e {
            ImportError::UnknownFormat(f) => (
                ErrorCode::BadRequest,
                format!("unknown format `{f}` (expected `verilog` or `axnl`)"),
            ),
            ImportError::Netio(e) => (ErrorCode::InvalidNetlist, format!("{}: {e}", e.code())),
        })?;
        let fp = axmul_netio::fingerprint(&netlist);
        let report = self.linter.lint(&netlist);
        let mut verify_note = Value::Null;
        let characterization = match config {
            None => Value::Null,
            Some(key) => {
                let check = ops::check_twin(&netlist, &served_config(key)?);
                let twin = check.twin_fingerprint;
                match check.proof {
                    None => {}
                    Some(Ok(r)) if r.is_equivalent() => {
                        verify_note = Value::str(format!(
                            "content fingerprints differ ({fp:016x} vs twin {twin:016x}) \
                             but SAT proved the designs equivalent — accepted as a \
                             structural variant of `{key}`"
                        ));
                    }
                    Some(Ok(r)) => {
                        return Err((
                            ErrorCode::InvalidNetlist,
                            format!(
                                "imported netlist (fingerprint {fp:016x}) does not \
                                 implement configuration `{key}`: {}",
                                counterexample_text(&r)
                            ),
                        ));
                    }
                    Some(Err(e)) => {
                        return Err((
                            ErrorCode::InvalidNetlist,
                            format!(
                                "imported netlist (fingerprint {fp:016x}) does not match \
                                 configuration `{key}` (fingerprint {twin:016x}) and \
                                 equivalence could not be proven: {e}"
                            ),
                        ));
                    }
                }
                self.characterize(key)?
            }
        };
        Ok(Value::obj([
            ("name", Value::str(netlist.name())),
            ("format", Value::str(format.name())),
            ("fingerprint", Value::str(format!("{fp:016x}"))),
            ("luts", Value::int(netlist.lut_count())),
            ("carry4s", Value::int(netlist.carry4_count())),
            ("nets", Value::int(netlist.drivers().len())),
            ("lint", ops::lint_report_value(&report)),
            ("verify_note", verify_note),
            ("characterization", characterization),
        ]))
    }

    /// Resolves one side of an `equiv-check` request into a netlist:
    /// either an interchange document or a configuration key's
    /// in-process twin, both under the serving width cap.
    fn equiv_side(
        &self,
        side: &str,
        netlist: Option<&str>,
        config: Option<&str>,
    ) -> Result<Netlist, (ErrorCode, String)> {
        let resolved = match (netlist, config) {
            (Some(text), None) => Side::Document(text),
            (None, Some(key)) => Side::Config(key),
            // The envelope parser enforces exactly-one, but dispatch can
            // also be reached with a hand-built `Op`.
            _ => {
                return Err((
                    ErrorCode::BadRequest,
                    format!("exactly one of `{side}-netlist` and `{side}-config` must be given"),
                ))
            }
        };
        ops::resolve_side(resolved, Some(MAX_SERVE_BITS)).map_err(|e| match e {
            SideError::Netio(e) => (
                ErrorCode::InvalidNetlist,
                format!("{side}: {}: {e}", e.code()),
            ),
            SideError::Config(e) => config_error(e),
            SideError::TooWide { input_bits, limit } => (
                ErrorCode::InvalidNetlist,
                format!("{side}: {input_bits} input bits exceed the {limit}-bit serving limit"),
            ),
        })
    }

    /// SAT-based combinational equivalence of two designs. Both
    /// verdicts are successful responses; a proven inequivalence
    /// carries the counterexample operands and both sides' outputs.
    fn equiv_check(
        &self,
        lhs_netlist: Option<&str>,
        lhs_config: Option<&str>,
        rhs_netlist: Option<&str>,
        rhs_config: Option<&str>,
    ) -> Result<Value, (ErrorCode, String)> {
        let lhs = self.equiv_side("lhs", lhs_netlist, lhs_config)?;
        let rhs = self.equiv_side("rhs", rhs_netlist, rhs_config)?;
        let report = check_equiv(&lhs, &rhs, &ProofOptions::default()).map_err(|e| match e {
            SatError::Interface(_) | SatError::Width(_) => (ErrorCode::BadRequest, e.to_string()),
            other => (
                ErrorCode::Internal,
                format!("equivalence check failed: {other}"),
            ),
        })?;
        let counterexample = match &report.outcome {
            EquivOutcome::Equivalent => Value::Null,
            EquivOutcome::NotEquivalent(cex) => Value::obj([
                (
                    "inputs",
                    Value::Arr(
                        cex.inputs
                            .iter()
                            .map(|(name, v)| {
                                Value::Arr(vec![Value::str(name.clone()), Value::int(*v)])
                            })
                            .collect(),
                    ),
                ),
                (
                    "lhs_outputs",
                    Value::Arr(cex.lhs_outputs.iter().map(|&v| Value::int(v)).collect()),
                ),
                (
                    "rhs_outputs",
                    Value::Arr(cex.rhs_outputs.iter().map(|&v| Value::int(v)).collect()),
                ),
            ]),
        };
        Ok(Value::obj([
            ("lhs", Value::str(lhs.name())),
            ("rhs", Value::str(rhs.name())),
            ("equivalent", Value::Bool(report.is_equivalent())),
            ("structural", Value::Bool(report.structural)),
            ("counterexample", counterexample),
            ("solves", Value::int(report.stats.solves)),
            ("conflicts", Value::int(report.stats.conflicts)),
            ("decisions", Value::int(report.stats.decisions)),
            ("elapsed_ms", Value::Num(report.stats.elapsed_ms)),
        ]))
    }

    fn lint(&self, key: &str) -> Result<Value, (ErrorCode, String)> {
        let cfg = served_config(key)?;
        let char = self
            .cache
            .characterize(&cfg)
            .map_err(|e| (ErrorCode::Internal, format!("characterization failed: {e}")))?;
        let report = self
            .linter
            .lint_against(&cfg.assemble(), &char.multiplier());
        Ok(ops::lint_report_value(&report))
    }

    fn nn_classify(
        &self,
        config: Option<&str>,
        images: &[Vec<u8>],
    ) -> Result<Value, (ErrorCode, String)> {
        if images.len() > MAX_BATCH_IMAGES {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "{} images exceed the {MAX_BATCH_IMAGES}-image batch limit",
                    images.len()
                ),
            ));
        }
        let model = reference_model();
        let pixels = model.input().len();
        if let Some(bad) = images.iter().position(|img| img.len() != pixels) {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "image {bad} has {} pixels, expected {pixels}",
                    images[bad].len()
                ),
            ));
        }
        let backend = self.backend(config)?;
        let predictions = infer_batch(model, backend.as_ref(), images, 1)
            .map_err(|e| (ErrorCode::Internal, format!("inference failed: {e}")))?;
        Ok(Value::obj([
            ("backend", Value::str(config.unwrap_or("exact"))),
            (
                "predictions",
                Value::Arr(predictions.iter().map(|&p| Value::int(p)).collect()),
            ),
        ]))
    }

    /// Fetches or builds the signed product table for a configuration
    /// key (`None` = exact int8).
    fn backend(&self, config: Option<&str>) -> Result<Arc<ProductTable>, (ErrorCode, String)> {
        let cache_key = config.unwrap_or("");
        if let Some(t) = self
            .tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(cache_key)
        {
            return Ok(Arc::clone(t));
        }
        let table = match config {
            None => ProductTable::exact(),
            Some(key) => {
                let cfg = served_config(key)?;
                if cfg.bits() != 8 {
                    return Err((
                        ErrorCode::InvalidConfig,
                        format!("NN backend must be 8x8, got {}x{}", cfg.bits(), cfg.bits()),
                    ));
                }
                let char = self
                    .cache
                    .characterize(&cfg)
                    .map_err(|e| (ErrorCode::Internal, format!("characterization failed: {e}")))?;
                ProductTable::new(&char.multiplier())
                    .map_err(|e| (ErrorCode::Internal, format!("tabulation failed: {e}")))?
            }
        };
        let table = Arc::new(table);
        self.tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(cache_key.to_string(), Arc::clone(&table));
        Ok(table)
    }

    fn dse_query(&self, candidates: &[String]) -> Result<Value, (ErrorCode, String)> {
        if candidates.is_empty() {
            return Err((ErrorCode::BadRequest, "empty candidate list".into()));
        }
        if candidates.len() > MAX_DSE_CANDIDATES {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "{} candidates exceed the {MAX_DSE_CANDIDATES}-candidate limit",
                    candidates.len()
                ),
            ));
        }
        let cfgs: Vec<Config> = candidates
            .iter()
            .map(|k| served_config(k))
            .collect::<Result<_, _>>()?;
        // One worker per request, so concurrent requests don't
        // oversubscribe the machine.
        let result = evaluate_on(&self.cache, &cfgs, 1)
            .map_err(|e| (ErrorCode::Internal, format!("evaluation failed: {e}")))?;
        Ok(dse_result_value(&result))
    }

    /// Static bounds from the abstract interpreter. Pure tree walk, no
    /// characterization — the one request type that never touches the
    /// cache. The reply is [`ops::tree_bounds_value`], the document
    /// `axmul absint --config KEY --json` prints.
    fn absint_query(&self, key: &str) -> Result<Value, (ErrorCode, String)> {
        let cfg = served_config(key)?;
        let analysis = axmul_dse::static_bounds(&cfg)
            .map_err(|e| (ErrorCode::InvalidConfig, e.to_string()))?;
        Ok(ops::tree_bounds_value(&analysis))
    }

    fn stats(&self) -> Value {
        let c = &self.counters;
        let store = self.cache.store().map(|s| {
            Value::obj([
                ("root", Value::str(s.root().display().to_string())),
                ("records", Value::int(s.stored_records())),
            ])
        });
        Value::obj([
            ("uptime_s", Value::Num(self.started.elapsed().as_secs_f64())),
            (
                "requests",
                Value::obj([
                    (
                        "characterize-config",
                        Value::int(c.characterize.load(Ordering::Relaxed)),
                    ),
                    ("lint-netlist", Value::int(c.lint.load(Ordering::Relaxed))),
                    (
                        "nn-classify-batch",
                        Value::int(c.nn_classify.load(Ordering::Relaxed)),
                    ),
                    ("dse-query", Value::int(c.dse_query.load(Ordering::Relaxed))),
                    (
                        "absint-query",
                        Value::int(c.absint_query.load(Ordering::Relaxed)),
                    ),
                    (
                        "import-netlist",
                        Value::int(c.import_netlist.load(Ordering::Relaxed)),
                    ),
                    (
                        "equiv-check",
                        Value::int(c.equiv_check.load(Ordering::Relaxed)),
                    ),
                    ("server-stats", Value::int(c.stats.load(Ordering::Relaxed))),
                    ("errors", Value::int(c.errors.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "cache",
                Value::obj([
                    ("hits", Value::int(self.cache.hits())),
                    ("misses", Value::int(self.cache.misses())),
                    ("disk_hits", Value::int(self.cache.disk_hits())),
                    ("builds", Value::int(self.cache.builds())),
                    // Wall-clock split of this process's cache builds
                    // (netlist assembly vs error sweeps vs packed energy
                    // vs STA), so operators see where characterization
                    // time goes without re-profiling.
                    (
                        "char_time_s",
                        Value::obj([
                            (
                                "assemble",
                                Value::Num(self.cache.time_breakdown().assemble.as_secs_f64()),
                            ),
                            (
                                "error",
                                Value::Num(self.cache.time_breakdown().error.as_secs_f64()),
                            ),
                            (
                                "energy",
                                Value::Num(self.cache.time_breakdown().energy.as_secs_f64()),
                            ),
                            (
                                "sta",
                                Value::Num(self.cache.time_breakdown().sta.as_secs_f64()),
                            ),
                        ]),
                    ),
                    ("store_failures", Value::int(self.cache.store_failures())),
                    (
                        "last_store_error",
                        self.cache
                            .last_store_error()
                            .map_or(Value::Null, Value::str),
                    ),
                ]),
            ),
            ("store", store.unwrap_or(Value::Null)),
        ])
    }
}

/// Parses a configuration key under the serving width cap.
fn served_config(key: &str) -> Result<Config, (ErrorCode, String)> {
    ops::parse_config(key, Some(MAX_SERVE_BITS)).map_err(config_error)
}

fn config_error(e: ConfigError) -> (ErrorCode, String) {
    (ErrorCode::InvalidConfig, e.to_string())
}

/// Renders a proven-inequivalent verdict's counterexample as one
/// human-readable sentence for error messages.
fn counterexample_text(report: &EquivReport) -> String {
    match &report.outcome {
        EquivOutcome::Equivalent => "the designs are equivalent".into(),
        EquivOutcome::NotEquivalent(cex) => {
            let inputs = cex
                .inputs
                .iter()
                .map(|(name, v)| format!("{name}={v}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "SAT counterexample at {inputs} (outputs {:?} vs {:?})",
                cex.lhs_outputs, cex.rhs_outputs
            )
        }
    }
}

fn dse_result_value(result: &DseResult) -> Value {
    let reports = result
        .reports
        .iter()
        .map(|r| {
            Value::obj([
                ("key", Value::str(r.key.clone())),
                ("bits", Value::int(r.bits)),
                ("luts", Value::int(r.luts)),
                ("critical_path_ns", Value::Num(r.critical_path_ns)),
                ("energy_per_op", Value::Num(r.energy_per_op)),
                ("edp", Value::Num(r.edp)),
                ("avg_error", Value::Num(r.avg_error)),
                ("avg_relative_error", Value::Num(r.avg_relative_error)),
                ("max_error", Value::int(r.max_error)),
                ("error_probability", Value::Num(r.error_probability)),
                ("on_lut_front", Value::Bool(r.on_lut_front)),
                ("on_edp_front", Value::Bool(r.on_edp_front)),
            ])
        })
        .collect();
    Value::obj([
        ("reports", Value::Arr(reports)),
        ("cache_hits", Value::int(result.cache_hits)),
        ("cache_misses", Value::int(result.cache_misses)),
        ("cache_disk_hits", Value::int(result.cache_disk_hits)),
        ("cache_builds", Value::int(result.cache_builds)),
        ("elapsed_us", Value::int(result.elapsed.as_micros())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::proto::{render_request, Request};

    fn response(svc: &Service, op: Op) -> Value {
        let payload = render_request(&Request { id: 1, op });
        let out = svc.handle_payload(&payload);
        json::parse(std::str::from_utf8(&out).unwrap()).unwrap()
    }

    fn assert_ok(v: &Value) -> &Value {
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v}");
        v.get("result").unwrap()
    }

    fn assert_err(v: &Value, code: &str) {
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{v}");
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Value::as_str), Some(code), "{v}");
    }

    #[test]
    fn characterize_reports_cost_and_stats() {
        let svc = Service::new(None);
        let v = response(
            &svc,
            Op::Characterize {
                config: "(a A A A A)".into(),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("bits").and_then(Value::as_u64), Some(8));
        let luts = r
            .get("cost")
            .unwrap()
            .get("luts")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(luts > 0);
        let stats = r.get("stats").unwrap();
        assert_eq!(stats.get("samples").and_then(Value::as_u64), Some(65536));
        let are = stats
            .get("avg_relative_error")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(are.is_finite() && are >= 0.0, "{are}");
    }

    #[test]
    fn invalid_and_oversized_configs_are_typed_errors() {
        let svc = Service::new(None);
        assert_err(
            &response(
                &svc,
                Op::Characterize {
                    config: "(a A A".into(),
                },
            ),
            "invalid-config",
        );
        // 32-bit key: within the parser's limits, beyond the serving cap.
        let wide = "(a (a A A A A) (a A A A A) (a A A A A) (a A A A A))";
        let wide32 = format!("(a {wide} {wide} {wide} {wide})");
        assert_err(
            &response(&svc, Op::Characterize { config: wide32 }),
            "invalid-config",
        );
    }

    #[test]
    fn lint_of_shipped_config_is_clean_of_errors() {
        let svc = Service::new(None);
        let v = response(
            &svc,
            Op::Lint {
                config: "(c A A A A)".into(),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("errors").and_then(Value::as_u64), Some(0), "{r}");
        assert!(r.get("luts").and_then(Value::as_u64).unwrap() > 0);
    }

    #[test]
    fn nn_classify_matches_direct_inference() {
        let svc = Service::new(None);
        let ds = axmul_nn::test_set();
        let images: Vec<Vec<u8>> = ds.images[..8].to_vec();
        // `config: null` selects the exact int8 backend, so the served
        // predictions must match direct in-process inference exactly.
        let v = response(
            &svc,
            Op::NnClassify {
                config: None,
                images: images.clone(),
            },
        );
        let r = assert_ok(&v);
        let got: Vec<u64> = r
            .get("predictions")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.as_u64().unwrap())
            .collect();
        let table = ProductTable::exact();
        let want = infer_batch(reference_model(), &table, &images, 1).unwrap();
        assert_eq!(got, want.iter().map(|&p| u64::from(p)).collect::<Vec<_>>());

        // An approximate backend still classifies the whole batch.
        let v = response(
            &svc,
            Op::NnClassify {
                config: Some("(a A A A A)".into()),
                images: images.clone(),
            },
        );
        let preds = assert_ok(&v)
            .get("predictions")
            .and_then(Value::as_arr)
            .unwrap()
            .len();
        assert_eq!(preds, images.len());
    }

    #[test]
    fn a_panic_under_the_table_lock_leaves_nn_serving() {
        let svc = Service::new(None);
        let images: Vec<Vec<u8>> = axmul_nn::test_set().images[..4].to_vec();
        let classify = |config: Option<&str>| {
            let v = response(
                &svc,
                Op::NnClassify {
                    config: config.map(str::to_string),
                    images: images.clone(),
                },
            );
            assert_ok(&v).get("predictions").cloned().unwrap()
        };
        let cached = classify(Some("(a A A A A)"));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _tables = svc.tables.lock().unwrap();
                    panic!("handler dies holding the table lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(svc.tables.is_poisoned());
        // A cached backend, and a fresh one checked against direct
        // inference.
        assert_eq!(classify(Some("(a A A A A)")), cached);
        let want = infer_batch(reference_model(), &ProductTable::exact(), &images, 1).unwrap();
        let want = Value::Arr(want.iter().map(|&p| Value::int(p)).collect());
        assert_eq!(classify(None), want);
    }

    #[test]
    fn nn_classify_rejects_wrong_pixel_counts() {
        let svc = Service::new(None);
        let v = response(
            &svc,
            Op::NnClassify {
                config: None,
                images: vec![vec![0; 63]],
            },
        );
        assert_err(&v, "bad-request");
    }

    #[test]
    fn dse_query_ranks_candidates_and_flags_fronts() {
        let svc = Service::new(None);
        let v = response(
            &svc,
            Op::DseQuery {
                candidates: vec![
                    "(a A A A A)".into(),
                    "(c X X X X)".into(),
                    "(a T3 A X X)".into(),
                ],
            },
        );
        let r = assert_ok(&v);
        let reports = r.get("reports").and_then(Value::as_arr).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports
            .iter()
            .any(|rep| rep.get("on_lut_front") == Some(&Value::Bool(true))));
    }

    #[test]
    fn absint_query_returns_sound_bounds_without_touching_the_cache() {
        let svc = Service::new(None);
        let v = response(
            &svc,
            Op::AbsintQuery {
                config: "(a A A A A)".into(),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("bits").and_then(Value::as_u64), Some(8));
        // Uniform accurate paper config: the bracket is exact.
        assert_eq!(r.get("wce_lb").and_then(Value::as_u64), Some(2312));
        assert_eq!(r.get("wce_ub").and_then(Value::as_u64), Some(2312));
        assert_eq!(r.get("sound"), Some(&Value::Bool(true)), "{r}");
        // Static analysis must not have characterized anything.
        assert_eq!(svc.cache().builds(), 0);
        assert_err(
            &response(
                &svc,
                Op::AbsintQuery {
                    config: "(a A".into(),
                },
            ),
            "invalid-config",
        );
    }

    #[test]
    fn import_netlist_round_trips_an_exported_design() {
        let svc = Service::new(None);
        let cfg: axmul_dse::Config = "(a A A A A)".parse().unwrap();
        let text = axmul_fabric::export::to_verilog(&cfg.assemble());
        // No config hint: structure + lint only.
        let v = response(
            &svc,
            Op::ImportNetlist {
                text: text.clone(),
                format: None,
                config: None,
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("format").and_then(Value::as_str), Some("verilog"));
        assert!(r.get("luts").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(
            r.get("lint").unwrap().get("errors").and_then(Value::as_u64),
            Some(0),
            "{r}"
        );
        assert_eq!(r.get("characterization"), Some(&Value::Null));

        // With the matching config: full characterization, including
        // the worst-case witnesses (stats carry `worst_case_inputs`).
        let v = response(
            &svc,
            Op::ImportNetlist {
                text,
                format: Some("verilog".into()),
                config: Some("(a A A A A)".into()),
            },
        );
        let r = assert_ok(&v);
        let ch = r.get("characterization").unwrap();
        assert_eq!(ch.get("bits").and_then(Value::as_u64), Some(8));
        let wci = ch
            .get("stats")
            .unwrap()
            .get("worst_case_inputs")
            .and_then(Value::as_arr)
            .unwrap();
        assert!(!wci.is_empty(), "{r}");
    }

    #[test]
    fn import_netlist_rejects_malformed_and_mismatched_input() {
        let svc = Service::new(None);
        // Typed importer error, surfaced with its class code.
        let v = response(
            &svc,
            Op::ImportNetlist {
                text: "module broken (".into(),
                format: None,
                config: None,
            },
        );
        assert_err(&v, "invalid-netlist");
        // A valid netlist that does not implement the claimed config.
        let cfg: axmul_dse::Config = "(c X X X X)".parse().unwrap();
        let text = axmul_fabric::export::to_verilog(&cfg.assemble());
        let v = response(
            &svc,
            Op::ImportNetlist {
                text,
                format: None,
                config: Some("(a A A A A)".into()),
            },
        );
        assert_err(&v, "invalid-netlist");
        // Unknown explicit format string.
        let v = response(
            &svc,
            Op::ImportNetlist {
                text: "module m (\n  input wire a\n);\nendmodule\n".into(),
                format: Some("edif".into()),
                config: None,
            },
        );
        assert_err(&v, "bad-request");
    }

    #[test]
    fn equiv_check_proves_and_refutes_config_pairs() {
        let svc = Service::new(None);
        // Same configuration on both sides: the twins are structurally
        // identical, so the miter folds away without a single solve.
        let v = response(
            &svc,
            Op::EquivCheck {
                lhs_netlist: None,
                lhs_config: Some("(a A A A A)".into()),
                rhs_netlist: None,
                rhs_config: Some("(a A A A A)".into()),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("equivalent"), Some(&Value::Bool(true)), "{r}");
        assert_eq!(r.get("structural"), Some(&Value::Bool(true)), "{r}");
        assert_eq!(r.get("counterexample"), Some(&Value::Null));

        // Different multipliers: a successful response carrying the
        // counterexample operand pair and both sides' outputs.
        let v = response(
            &svc,
            Op::EquivCheck {
                lhs_netlist: None,
                lhs_config: Some("(a A A A A)".into()),
                rhs_netlist: None,
                rhs_config: Some("(c X X X X)".into()),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("equivalent"), Some(&Value::Bool(false)), "{r}");
        let cex = r.get("counterexample").unwrap();
        let inputs = cex.get("inputs").and_then(Value::as_arr).unwrap();
        assert_eq!(inputs.len(), 2, "{r}");
        let lhs_out = cex.get("lhs_outputs").and_then(Value::as_arr).unwrap();
        let rhs_out = cex.get("rhs_outputs").and_then(Value::as_arr).unwrap();
        assert_ne!(lhs_out, rhs_out, "{r}");
    }

    #[test]
    fn equiv_check_accepts_netlist_sides_and_rejects_bad_ones() {
        let svc = Service::new(None);
        let cfg: axmul_dse::Config = "(a A A A A)".parse().unwrap();
        let text = axmul_fabric::export::to_verilog(&cfg.assemble());
        let v = response(
            &svc,
            Op::EquivCheck {
                lhs_netlist: Some(text),
                lhs_config: None,
                rhs_netlist: None,
                rhs_config: Some("(a A A A A)".into()),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("equivalent"), Some(&Value::Bool(true)), "{r}");

        // Typed errors: malformed netlist, unparseable config, and a
        // hand-built op with an ambiguous side.
        assert_err(
            &response(
                &svc,
                Op::EquivCheck {
                    lhs_netlist: Some("module broken (".into()),
                    lhs_config: None,
                    rhs_netlist: None,
                    rhs_config: Some("(a A A A A)".into()),
                },
            ),
            "invalid-netlist",
        );
        assert_err(
            &response(
                &svc,
                Op::EquivCheck {
                    lhs_netlist: None,
                    lhs_config: Some("(a A A".into()),
                    rhs_netlist: None,
                    rhs_config: Some("(a A A A A)".into()),
                },
            ),
            "invalid-config",
        );
        assert_err(
            &response(
                &svc,
                Op::EquivCheck {
                    lhs_netlist: None,
                    lhs_config: None,
                    rhs_netlist: None,
                    rhs_config: Some("(a A A A A)".into()),
                },
            ),
            "bad-request",
        );
        // Mismatched interfaces (8-bit vs 4-bit operands) are a typed
        // request error, not an internal failure.
        assert_err(
            &response(
                &svc,
                Op::EquivCheck {
                    lhs_netlist: None,
                    lhs_config: Some("(a A A A A)".into()),
                    rhs_netlist: None,
                    rhs_config: Some("A".into()),
                },
            ),
            "bad-request",
        );
    }

    #[test]
    fn import_netlist_accepts_structural_variants_via_sat() {
        let svc = Service::new(None);
        let cfg: axmul_dse::Config = "(a A A A A)".parse().unwrap();
        let twin = cfg.assemble();
        // Same logic under a different module name: the content
        // fingerprint differs, but SAT proves equivalence and the
        // import goes through with a note instead of a rejection.
        let renamed = axmul_fabric::Netlist::from_parts(
            "renamed_variant".to_string(),
            twin.drivers().to_vec(),
            twin.cells().to_vec(),
            twin.input_buses().to_vec(),
            twin.output_buses().to_vec(),
        );
        assert_ne!(
            axmul_netio::fingerprint(&renamed),
            axmul_netio::fingerprint(&twin)
        );
        let v = response(
            &svc,
            Op::ImportNetlist {
                text: axmul_fabric::export::to_verilog(&renamed),
                format: None,
                config: Some("(a A A A A)".into()),
            },
        );
        let r = assert_ok(&v);
        let note = r.get("verify_note").and_then(Value::as_str).unwrap();
        assert!(note.contains("equivalent"), "{note}");
        assert!(
            r.get("characterization")
                .unwrap()
                .get("bits")
                .and_then(Value::as_u64)
                == Some(8),
            "{r}"
        );
        // A fingerprint match still short-circuits: no note.
        let v = response(
            &svc,
            Op::ImportNetlist {
                text: axmul_fabric::export::to_verilog(&twin),
                format: None,
                config: Some("(a A A A A)".into()),
            },
        );
        let r = assert_ok(&v);
        assert_eq!(r.get("verify_note"), Some(&Value::Null), "{r}");
    }

    #[test]
    fn stats_counts_requests_and_exposes_cache_counters() {
        let svc = Service::new(None);
        let _ = response(&svc, Op::Characterize { config: "A".into() });
        let _ = response(
            &svc,
            Op::Characterize {
                config: "bogus(".into(),
            },
        );
        let v = response(&svc, Op::Stats);
        let r = assert_ok(&v);
        let reqs = r.get("requests").unwrap();
        assert_eq!(
            reqs.get("characterize-config").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(reqs.get("errors").and_then(Value::as_u64), Some(1));
        let cache = r.get("cache").unwrap();
        assert_eq!(cache.get("builds").and_then(Value::as_u64), Some(1));
        // One build happened, so the characterization time split is
        // present and the energy+STA share is a real, positive number.
        let split = cache.get("char_time_s").unwrap();
        for phase in ["assemble", "error", "energy", "sta"] {
            assert!(
                split
                    .get(phase)
                    .and_then(Value::as_f64)
                    .is_some_and(|s| s >= 0.0),
                "missing char_time_s.{phase}"
            );
        }
        assert_eq!(r.get("store"), Some(&Value::Null));
    }
}

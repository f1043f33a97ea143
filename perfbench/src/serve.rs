//! `serve-mixed`: an in-process daemon (`axmul_serve::serve`, two
//! workers, store in a fresh directory) under an open loop of
//! [`RATE`] req/s with Poisson arrivals.
//!
//! Two sender threads each own one TCP connection and write requests
//! when they are due, without waiting for replies; a receiver thread per
//! connection reads the replies. Each request is timed from when it was
//! due. The mix is the load generator's 60/15/10/10/5 characterize /
//! dse-query / lint / nn / stats mix over its 48-config roster, and
//! set-up warms every roster key, so the timed phase builds nothing.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use axmul_dse::{CharCache, Config};
use axmul_fabric::cost::Characterizer;
use axmul_serve::json::{self, Value};
use axmul_serve::proto::{
    parse_request, read_frame, render_ok, render_request, write_frame, DEFAULT_MAX_FRAME,
};
use axmul_serve::{
    loadgen, open_store, serve, Client, Endpoints, Op, Request, ServerHandle, ServerOptions,
    Service,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, quantile, Outcome};
use crate::trace::Tracer;

/// Offered load over all connections (req/s).
const RATE: f64 = 1000.0;
/// Sender threads, one connection each.
const CONNECTIONS: usize = 2;
/// Daemon worker threads.
const SERVER_WORKERS: usize = 2;
/// Latency limit of one request, timed from when it was due (ms).
const SLO_MS: f64 = 5.0;
/// Roster size and seed of the load generator's full run.
const ROSTER: usize = 48;
const ROSTER_SEED: u64 = 0xD0C5;
/// How long receivers wait for a reply before counting the rest of
/// their connection's requests as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Requests replayed in process, after a traced phase, per connection.
const REPLAY_PER_CONNECTION: usize = 1000;

/// Request types of the mix.
const OP_NAMES: [&str; 5] = [
    "characterize-config",
    "dse-query",
    "lint-netlist",
    "nn-classify-batch",
    "server-stats",
];
/// Round-trip and in-process service metrics of each request type.
const RTT_METRICS: [&str; 5] = [
    "serve.rtt_characterize_p50_us",
    "serve.rtt_dse_query_p50_us",
    "serve.rtt_lint_p50_us",
    "serve.rtt_nn_classify_p50_us",
    "serve.rtt_stats_p50_us",
];
const SERVICE_METRICS: [&str; 5] = [
    "serve.service.characterize_p50_us",
    "serve.service.dse_query_p50_us",
    "serve.service.lint_p50_us",
    "serve.service.nn_classify_p50_us",
    "serve.service.stats_p50_us",
];

/// A characterization as the benchmark's own `CharCache` computes it.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    luts: f64,
    critical_path_ns: f64,
    energy_per_op: f64,
    edp: f64,
    max_error: f64,
    avg_error: f64,
    avg_relative_error: f64,
    error_probability: f64,
}

impl Expected {
    /// The same fields read back from a `characterize-config` result.
    fn from_result(r: &Value) -> Option<Self> {
        let cost = r.get("cost")?;
        let stats = r.get("stats")?;
        let f = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
        Some(Expected {
            luts: f(cost, "luts")?,
            critical_path_ns: f(cost, "critical_path_ns")?,
            energy_per_op: f(cost, "energy_per_op")?,
            edp: f(cost, "edp")?,
            max_error: f(stats, "max_error")?,
            avg_error: f(stats, "avg_error")?,
            avg_relative_error: f(stats, "avg_relative_error")?,
            error_probability: f(stats, "error_probability")?,
        })
    }
}

/// One scheduled request.
struct Planned {
    /// Offset of the due time from the phase start.
    due: Duration,
    ty: usize,
    /// Configuration key of a characterize request.
    key: Option<String>,
    payload: Vec<u8>,
}

/// What happened to one sent request.
struct Done {
    sent: Instant,
    received: Option<Instant>,
    /// Why the reply is wrong, if it is.
    error: Option<String>,
    /// Reply bytes, kept for the first [`REPLAY_PER_CONNECTION`] only.
    response: Vec<u8>,
}

pub struct ServeBench {
    seed: u64,
    keys: Vec<String>,
    images: Vec<Vec<u8>>,
    expected: BTreeMap<String, Expected>,
    handle: ServerHandle,
    addr: SocketAddr,
}

/// Calls `op` on `client` and demands a success envelope.
fn call(client: &mut Client, op: Op) -> Result<Value, String> {
    let name = op.type_name();
    client.call(op).map_err(|e| format!("{name}: {e}"))
}

/// `server-stats` counters: (errors, cache builds).
fn server_counters(addr: SocketAddr) -> Result<(u64, u64), String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
    let stats = call(&mut client, Op::Stats)?;
    let get = |section: &str, k: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(k))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("server-stats lacks {section}.{k}"))
    };
    Ok((get("requests", "errors")?, get("cache", "builds")?))
}

impl ServeBench {
    /// Starts the daemon over a fresh store, warms every roster key
    /// (characterize, lint, and the NN backends the mix uses), and
    /// characterizes the roster in process as the reference.
    pub fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let keys: Vec<String> = loadgen::roster(ROSTER, ROSTER_SEED)
            .iter()
            .map(Config::key)
            .collect();
        let images: Vec<Vec<u8>> = axmul_nn::test_set().images[..64].to_vec();
        let store = open_store(Some(dir)).map_err(|e| format!("open store: {e}"))?;
        let handle = serve(
            Service::new(Some(store)),
            &Endpoints {
                tcp_port: Some(0),
                unix_path: None,
            },
            &ServerOptions {
                workers: SERVER_WORKERS,
                ..ServerOptions::default()
            },
        )
        .map_err(|e| format!("start server: {e}"))?;
        let addr = handle.tcp_addr().expect("tcp endpoint requested");
        let mut client = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        for key in &keys {
            call(
                &mut client,
                Op::Characterize {
                    config: key.clone(),
                },
            )?;
            call(
                &mut client,
                Op::Lint {
                    config: key.clone(),
                },
            )?;
        }
        for key in &keys[..4] {
            call(
                &mut client,
                Op::NnClassify {
                    config: Some(key.clone()),
                    images: images[..4].to_vec(),
                },
            )?;
        }
        call(
            &mut client,
            Op::DseQuery {
                candidates: keys[..8].to_vec(),
            },
        )?;
        let cache = CharCache::new(Characterizer::virtex7());
        let mut expected = BTreeMap::new();
        for key in &keys {
            let cfg: Config = key.parse().map_err(|e| format!("{key}: {e}"))?;
            let c = cache
                .characterize(&cfg)
                .map_err(|e| format!("{key}: {e}"))?;
            expected.insert(
                key.clone(),
                Expected {
                    luts: c.cost.area.luts as f64,
                    critical_path_ns: c.cost.critical_path_ns,
                    energy_per_op: c.cost.energy_per_op,
                    edp: c.cost.edp,
                    max_error: c.stats.max_error as f64,
                    avg_error: c.stats.avg_error,
                    avg_relative_error: c.stats.avg_relative_error,
                    error_probability: c.stats.error_probability,
                },
            );
        }
        Ok(ServeBench {
            seed,
            keys,
            images,
            expected,
            handle,
            addr,
        })
    }

    /// The open-loop schedule of one connection: Poisson arrivals at
    /// `RATE / CONNECTIONS` and the load generator's mix.
    fn plan(&self, conn: usize, seconds: f64) -> Vec<Planned> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ ((conn as u64 + 1) << 17));
        let rate = RATE / CONNECTIONS as f64;
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += -(1.0 - rng.random::<f64>()).ln() / rate;
            if t >= seconds {
                return out;
            }
            let id = out.len() as u64;
            let (ty, op) = self.next_op(&mut rng);
            let key = match &op {
                Op::Characterize { config } => Some(config.clone()),
                _ => None,
            };
            out.push(Planned {
                due: Duration::from_secs_f64(t),
                ty,
                key,
                payload: render_request(&Request { id, op }),
            });
        }
    }

    /// The load generator's mix: 60% characterize, 15% dse-query (8
    /// candidates), 10% lint, 10% nn (4 images on one of the first
    /// four keys), 5% server-stats.
    fn next_op(&self, rng: &mut StdRng) -> (usize, Op) {
        let keys = &self.keys;
        let pick = |rng: &mut StdRng| keys[rng.random_range(0..keys.len())].clone();
        match rng.random_range(0..100u32) {
            0..=59 => (0, Op::Characterize { config: pick(rng) }),
            60..=74 => (
                1,
                Op::DseQuery {
                    candidates: (0..8).map(|_| pick(rng)).collect(),
                },
            ),
            75..=84 => (2, Op::Lint { config: pick(rng) }),
            85..=94 => {
                let config = Some(keys[rng.random_range(0..4usize)].clone());
                let start = rng.random_range(0..self.images.len() - 4usize);
                (
                    3,
                    Op::NnClassify {
                        config,
                        images: self.images[start..start + 4].to_vec(),
                    },
                )
            }
            _ => (4, Op::Stats),
        }
    }

    /// Why a response is wrong, if it is: it must be a success envelope
    /// with the request's id, and a characterization must equal the
    /// benchmark's in-process `CharCache` result.
    fn check(&self, id: u64, p: &Planned, response: &[u8]) -> Option<String> {
        let text = match std::str::from_utf8(response) {
            Ok(t) => t,
            Err(e) => return Some(format!("response is not UTF-8: {e}")),
        };
        let doc = match json::parse(text) {
            Ok(d) => d,
            Err(e) => return Some(format!("response is not JSON: {e}")),
        };
        if doc.get("ok").and_then(Value::as_bool) != Some(true) {
            return Some(format!("{} failed: {text}", OP_NAMES[p.ty]));
        }
        if doc.get("id").and_then(Value::as_u64) != Some(id) {
            return Some(format!("reply to request {id} carries another id"));
        }
        let key = p.key.as_ref()?;
        let got = doc.get("result").and_then(Expected::from_result);
        (got.as_ref() != self.expected.get(key)).then(|| {
            format!(
                "characterize {key}: daemon {got:?} vs in-process {:?}",
                self.expected.get(key)
            )
        })
    }

    pub fn measure(&self, seconds: f64, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let plans: Vec<Vec<Planned>> = (0..CONNECTIONS).map(|c| self.plan(c, seconds)).collect();
        let (errors0, builds0) = server_counters(self.addr)?;
        let mut streams = Vec::new();
        for _ in 0..CONNECTIONS {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| format!("timeout: {e}"))?;
            s.set_write_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| format!("timeout: {e}"))?;
            streams.push(s);
        }
        // Let every thread reach its first sleep before the first due time.
        let start = Instant::now() + Duration::from_millis(20);
        let done: Vec<Vec<Done>> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .zip(&streams)
                .map(|(plan, stream)| {
                    let mut writer = stream.try_clone().expect("clone socket");
                    let mut reader = stream.try_clone().expect("clone socket");
                    let sender = s.spawn(move || {
                        let mut sent = Vec::with_capacity(plan.len());
                        for p in plan {
                            let due = start + p.due;
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            if write_frame(&mut writer, &p.payload).is_err() {
                                break;
                            }
                            sent.push(Instant::now());
                        }
                        sent
                    });
                    // Checks each reply as it arrives and keeps the bytes
                    // only of the replies a traced phase replays.
                    let receiver = s.spawn(move || {
                        let mut got = Vec::with_capacity(plan.len());
                        while got.len() < plan.len() {
                            let Ok(Some(payload)) = read_frame(&mut reader, DEFAULT_MAX_FRAME)
                            else {
                                break;
                            };
                            let at = Instant::now();
                            let i = got.len();
                            let error = self.check(i as u64, &plan[i], &payload);
                            let keep = i < REPLAY_PER_CONNECTION;
                            got.push((at, error, if keep { payload } else { Vec::new() }));
                        }
                        got
                    });
                    (sender, receiver)
                })
                .collect();
            handles
                .into_iter()
                .map(|(sender, receiver)| {
                    let sent = sender.join().expect("sender thread");
                    let got = receiver.join().expect("receiver thread");
                    let mut got = got.into_iter();
                    sent.into_iter()
                        .map(|at| {
                            let reply = got.next();
                            Done {
                                sent: at,
                                received: reply.as_ref().map(|r| r.0),
                                error: reply.as_ref().and_then(|r| r.1.clone()),
                                response: reply.map(|r| r.2).unwrap_or_default(),
                            }
                        })
                        .collect()
                })
                .collect()
        });
        drop(streams);
        let (errors1, builds1) = server_counters(self.addr)?;

        let mut out = Outcome {
            slo_ms: SLO_MS,
            ..Outcome::default()
        };
        let mut last = start;
        let mut rtt_us: Vec<Vec<f64>> = vec![Vec::new(); OP_NAMES.len()];
        let mut late_ms = Vec::new();
        for (plan, done) in plans.iter().zip(&done) {
            for (i, p) in plan.iter().enumerate() {
                out.attempted += 1;
                let Some(Done {
                    sent,
                    received: Some(received),
                    error,
                    ..
                }) = done.get(i)
                else {
                    eprintln!("request {i} of {}: no reply", OP_NAMES[p.ty]);
                    out.failed += 1;
                    continue;
                };
                if let Some(why) = error {
                    eprintln!("request {i}: {why}");
                    out.failed += 1;
                    continue;
                }
                let (sent, received) = (*sent, *received);
                let due = start + p.due;
                out.latencies_ms.push((received - due).as_secs_f64() * 1e3);
                late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                rtt_us[p.ty].push((received - sent).as_secs_f64() * 1e6);
                last = last.max(received);
            }
        }
        out.elapsed_s = (last - start).as_secs_f64();
        // Every timed request hit a warm cache and succeeded; the two
        // `server-stats` probes around the phase account for none of this.
        if errors1 != errors0 || builds1 != builds0 {
            eprintln!(
                "timed phase: {} server errors, {} cache builds",
                errors1 - errors0,
                builds1 - builds0
            );
            out.failed += 1;
        }
        if let Some(tracer) = tracer {
            self.trace(tracer, &plans, &done, start, &rtt_us, &mut out);
            out.layers
                .insert("serve.gen_late_p99_ms", quantile(&late_ms, 0.99));
            out.layers
                .insert("serve.errors", (errors1 - errors0) as f64);
            out.layers
                .insert("serve.cache.builds", (builds1 - builds0) as f64);
        }
        Ok(out)
    }

    /// Records one span per request and replays the first requests of
    /// each connection through the daemon's `Service::handle_payload`
    /// in process, on the same payload bytes, to split round trips into
    /// service time and transport plus queueing.
    fn trace(
        &self,
        tracer: &Tracer,
        plans: &[Vec<Planned>],
        done: &[Vec<Done>],
        start: Instant,
        rtt_us: &[Vec<f64>],
        out: &mut Outcome,
    ) {
        let phase = tracer.record("serve.timed_phase", None, u64::MAX, start, Instant::now());
        let service: &Arc<Service> = self.handle.service();
        let mut service_us: Vec<Vec<f64>> = vec![Vec::new(); OP_NAMES.len()];
        let (mut transport_us, mut parse_us, mut render_us) = (Vec::new(), Vec::new(), Vec::new());
        for (conn, (plan, done)) in plans.iter().zip(done).enumerate() {
            for (i, (p, d)) in plan.iter().zip(done).enumerate() {
                let (sent, Some(received)) = (d.sent, d.received) else {
                    continue;
                };
                let op = (conn as u64) << 32 | i as u64;
                let req = tracer.record("serve.request", Some(phase), op, sent, received);
                if i >= REPLAY_PER_CONNECTION {
                    continue;
                }
                let t = Instant::now();
                std::hint::black_box(service.handle_payload(&p.payload));
                let t1 = Instant::now();
                tracer.record("serve.service.handle_payload", Some(req), op, t, t1);
                let us = (t1 - t).as_secs_f64() * 1e6;
                service_us[p.ty].push(us);
                transport_us.push((received - sent).as_secs_f64() * 1e6 - us);
                let t = Instant::now();
                std::hint::black_box(parse_request(&p.payload).is_ok());
                let t1 = Instant::now();
                tracer.record("serve.proto.parse_request", Some(req), op, t, t1);
                parse_us.push((t1 - t).as_secs_f64() * 1e6);
                let result = std::str::from_utf8(&d.response)
                    .ok()
                    .and_then(|text| json::parse(text).ok())
                    .and_then(|doc| doc.get("result").cloned());
                if let Some(result) = result {
                    let t = Instant::now();
                    std::hint::black_box(render_ok(i as u64, result));
                    let t1 = Instant::now();
                    tracer.record("serve.proto.render_ok", Some(req), op, t, t1);
                    render_us.push((t1 - t).as_secs_f64() * 1e6);
                }
            }
        }
        let all_rtt: Vec<f64> = rtt_us.iter().flatten().copied().collect();
        let total_service: f64 = service_us.iter().flatten().sum();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        for t in 0..OP_NAMES.len() {
            out.layers.insert(RTT_METRICS[t], median(&rtt_us[t]));
            out.layers
                .insert(SERVICE_METRICS[t], median(&service_us[t]));
        }
        out.layers
            .insert("serve.rtt_p99_ms", quantile(&all_rtt, 0.99) / 1e3);
        out.layers
            .insert("serve.rtt_p99_samples", all_rtt.len() as f64);
        out.layers
            .insert("serve.transport_queue_p50_us", median(&transport_us));
        out.layers.insert(
            "serve.service.lint_share",
            service_us[2].iter().sum::<f64>() / total_service,
        );
        out.layers.insert("serve.proto.parse_us", mean(&parse_us));
        out.layers.insert("serve.proto.render_us", mean(&render_us));
    }
}

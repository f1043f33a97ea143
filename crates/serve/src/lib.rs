//! Characterization-and-inference daemon for the approximate-multiplier
//! toolkit.
//!
//! This crate turns the library's expensive analyses — configuration
//! characterization, netlist linting, int8 inference, design-space
//! queries — into a long-running, std-only service:
//!
//! - [`ops`]: the operations the daemon shares with the `axmul` CLI
//!   (configuration keys, netlist import, the config-twin check,
//!   equivalence sides, the certified worst-case error), each decided
//!   once.
//! - [`proto`]: a versioned length-prefixed JSON wire protocol
//!   (`b"AX"` magic, version byte, `u32` payload length), with typed
//!   request/response envelopes and typed framing errors.
//! - [`service`]: the transport-agnostic dispatcher owning the warm
//!   state — one shared [`axmul_dse::CharCache`], tabulated NN
//!   backends, the linter — and turning request payloads into response
//!   payloads without ever panicking on hostile input.
//! - [`server`]: TCP + Unix-socket listeners feeding a bounded pool of
//!   `std::thread` workers over a `sync_channel`; no async runtime.
//! - [`storage`]: cache-directory policy over the persistent
//!   [`axmul_dse::DiskStore`], so a restarted daemon warm-starts with
//!   zero recharacterizations.
//! - [`client`]: a blocking client for the protocol.
//! - [`loadgen`]: the `repro serve-bench` load generator measuring
//!   p50/p99 latency, throughput, and the cold-vs-warm store effect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod ops;
pub mod proto;
pub mod server;
pub mod service;
pub mod storage;

// The generic JSON value/parser/printer started life here and moved to
// `axmul-netio` so the wire protocol and the netlist interchange
// formats share one implementation; the re-export keeps every
// `axmul_serve::json::…` path working.
pub use axmul_netio::json;

pub use client::{Client, ClientError};
pub use loadgen::{BenchReport, LoadgenOptions};
pub use proto::{Op, Request, PROTO_VERSION};
pub use server::{serve, Endpoints, ServerHandle, ServerOptions};
pub use service::Service;
pub use storage::{default_cache_dir, open_store};

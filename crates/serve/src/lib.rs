//! Locking-as-a-service: a long-running, std-only daemon exposing the
//! workspace's lock / attack / verify / ATPG engines as asynchronous jobs
//! over a length-prefixed TCP protocol.
//!
//! The OraP paper's thesis is that the *oracle* is the asset to protect,
//! which makes the oracle-access path a first-class system component. This
//! crate is that path: a service surface through which many concurrent
//! tenants submit locking workloads, while the correct keys never leave the
//! server — clients observe only what an attacker could (recovered keys,
//! verification verdicts), mirroring the paper's threat model.
//!
//! Architecture (specified precisely in DESIGN.md §10):
//!
//! - [`proto`]: the wire format — `ORP1`-magic frames carrying compact
//!   JSON, with a golden-transcript test pinning the bytes to the spec.
//! - [`queue`]: a priority job queue with cancellation, per-job timeouts
//!   and a bounded worker pool run on [`exec::Pool`] (one long-lived
//!   `par_map` task per worker).
//! - [`cache`]: a content-hashed artifact cache holding
//!   `Arc<netlist::CompiledCircuit>`-backed artifacts shared across
//!   concurrent requests, with hit/miss/coalesced/eviction counters and
//!   single-flight builds (N concurrent requests for the same uncached
//!   circuit compile it exactly once).
//! - [`jobs`]: the job kinds and their adapters over the shared artifacts.
//! - [`server`] / [`client`]: the daemon loop and a small blocking client
//!   used by the tests and the repository benchmark's `serve-mixed`
//!   workload.
//!
//! The one binary, `serve_daemon`, runs the daemon as a process;
//! `tests/daemon_process.rs` drives it end to end. Serving throughput and
//! latency are measured by the benchmark's `serve-mixed` workload (see
//! EXPERIMENTS.md "Serving").
//!
//! # Example
//!
//! ```
//! use serve::server::{Server, ServerConfig};
//! use serve::client::Client;
//!
//! let mut handle = Server::start(ServerConfig::default()).expect("bind loopback");
//! let mut client = Client::connect(&format!("127.0.0.1:{}", handle.port())).unwrap();
//! let bench = netlist::bench::write(&netlist::samples::c17());
//! let job = client.submit_lock(&bench, "rll", 4, 7).unwrap();
//! let done = client.wait_result(job).unwrap();
//! assert_eq!(serve::proto::get_str(&done, "state"), Some("done"));
//! handle.stop();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hash;
pub mod jobs;
pub mod proto;
pub mod queue;
pub mod server;

//! `serve-mixed`: lock→attack→verify sessions through an in-process
//! `serve` daemon.
//!
//! The daemon runs two workers; two client connections on two threads
//! each run a closed loop of sessions. Seven sessions in eight reuse the
//! four hot variants of the `serve_load` harness, which set-up warms, so
//! their lock jobs are cache hits. One in eight submits a fresh seeded
//! `random_comb(·, 10, 5, 90)`, a cold circuit-cache and locked-cache
//! build. The attack is `sat`, with `double_dip` on every eighth session;
//! the daemon's `verify` job checks the key exactly. Together this loads
//! the wire protocol, the queue, and cache hits beside builds.

use std::time::Instant;

use serve::client::Client;
use serve::proto;
use serve::server::{Server, ServerConfig, ServerHandle};

use crate::load::{drive, set_up, ROUNDS};
use crate::session::solver_counts;
use crate::trace::Tracer;
use crate::{add, derive, stream, Counts, ExecDelta, Report, RunConfig, Workload};

/// Daemon workers and client connections (each capped at the host's
/// cores).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// The four hot variants: `(bench text, rll key bits)`, all locked with
/// seed 7 as in `serve_load`.
fn hot_variants() -> Result<Vec<(String, usize)>, String> {
    let comb = |seed, inputs, outputs, gates| {
        netlist::generate::random_comb(seed, inputs, outputs, gates)
            .map_err(|e| format!("hot circuit: {e}"))
    };
    Ok(vec![
        (netlist::bench::write(&netlist::samples::c17()), 4),
        (netlist::bench::write(&netlist::samples::ripple_adder(4)), 5),
        (netlist::bench::write(&comb(11, 8, 4, 60)?), 6),
        (netlist::bench::write(&comb(23, 10, 5, 90)?), 7),
    ])
}

const HOT_LOCK_SEED: u64 = 7;
const FRESH_KEY_BITS: usize = 7;

struct Daemon {
    handle: ServerHandle,
    addr: String,
    hot: Vec<(String, usize)>,
}

/// Submits a job with `submit` and waits for it; returns the job's
/// `result` object's fields through `read`, or why it failed. A macro
/// rather than a function because the response type belongs to a crate the
/// benchmark does not depend on, so it cannot be named here.
macro_rules! job {
    ($tr:expr, $span:literal, $client:expr, $submit:expr, |$result:ident| $read:expr) => {{
        let client: &mut Client = $client;
        $tr.span($span, || {
            let job = $tr
                .span("serve.submit", || ($submit)(&mut *client))
                .map_err(|e| format!("{} submit: {e}", $span))?;
            let done = client
                .wait_result(job)
                .map_err(|e| format!("{} result: {e}", $span))?;
            let state = proto::get_str(&done, "state").unwrap_or("?");
            if state != "done" {
                return Err(format!("{} ended {state}: {}", $span, done.compact()));
            }
            let $result =
                proto::get(&done, "result").ok_or_else(|| format!("{} result missing", $span))?;
            $read
        })
    }};
}

/// Whether the daemon reports a key as exactly correct for `artifact`.
///
/// # Errors
///
/// A transport or job failure.
pub fn verify_remote(
    tr: &Tracer,
    client: &mut Client,
    artifact: &str,
    key: &str,
) -> Result<bool, String> {
    job!(
        tr,
        "serve.verify",
        client,
        |c: &mut Client| c.submit_verify(artifact, key),
        |result| Ok(proto::get(result, "exact").and_then(proto::as_bool) == Some(true))
    )
}

/// One session: lock `bench` (rll, `key_bits`, `lock_seed`), attack with
/// `engine`, verify on the daemon.
fn session(
    tr: &Tracer,
    client: &mut Client,
    bench: &str,
    key_bits: usize,
    lock_seed: u64,
    engine: &str,
    counts: &mut Counts,
) -> Result<(), String> {
    let artifact = job!(
        tr,
        "serve.lock",
        client,
        |c: &mut Client| c.submit_lock(bench, "rll", key_bits, lock_seed),
        |result| {
            proto::get_str(result, "artifact")
                .map(str::to_string)
                .ok_or_else(|| "lock artifact missing".to_string())
        }
    )?;
    add(counts, "locking.locks", 1);
    let key = job!(
        tr,
        "serve.attack",
        client,
        |c: &mut Client| c.submit_attack(&artifact, engine),
        |result| {
            if proto::get(result, "succeeded").and_then(proto::as_bool) != Some(true) {
                return Err(format!("{engine} did not succeed: {}", result.compact()));
            }
            add(
                counts,
                "attacks.oracle_queries",
                proto::get_u64(result, "oracle_queries").unwrap_or(0),
            );
            add(
                counts,
                "attacks.iterations",
                proto::get_u64(result, "iterations").unwrap_or(0),
            );
            let solver = proto::get(result, "solver").ok_or("attack result lacks solver stats")?;
            for (name, _) in solver_counts(&cdcl::SolverStats::default()) {
                let field = &name["sat.".len()..];
                add(counts, name, proto::get_u64(solver, field).unwrap_or(0));
            }
            proto::get_str(result, "key")
                .map(str::to_string)
                .ok_or_else(|| "attack key missing".to_string())
        }
    )?;
    add(counts, "verify.calls", 1);
    if !verify_remote(tr, client, &artifact, &key)? {
        return Err(format!("{engine} key {key} is not exactly correct"));
    }
    Ok(())
}

/// The daemon counters the report uses, read through the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
struct DaemonStats {
    busy_ns: u64,
    queue_wait_ns: u64,
    build_ns: u64,
    /// `[circuit, locked]` × `[hits, builds, coalesced]`.
    caches: [[u64; 3]; 2],
}

fn daemon_stats(addr: &str) -> Result<DaemonStats, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let field = |obj: &str, name: &str| {
        proto::get(&stats, obj)
            .and_then(|o| proto::get_u64(o, name))
            .ok_or_else(|| format!("stats lacks {obj}.{name}"))
    };
    let cache = |obj: &str| -> Result<[u64; 3], String> {
        Ok([
            field(obj, "hits")?,
            field(obj, "builds")?,
            field(obj, "coalesced")?,
        ])
    };
    Ok(DaemonStats {
        busy_ns: field("queue", "busy_ns")?,
        queue_wait_ns: field("queue", "queue_wait_ns")?,
        build_ns: field("circuit_cache", "build_ns")? + field("locked_cache", "build_ns")?,
        caches: [cache("circuit_cache")?, cache("locked_cache")?],
    })
}

fn start_daemon(cfg: &RunConfig, epoch: Instant) -> Result<Daemon, String> {
    let handle = Server::start(ServerConfig {
        workers: WORKERS.min(cfg.nproc),
        ..ServerConfig::default()
    })?;
    let addr = format!("127.0.0.1:{}", handle.port());
    let hot = hot_variants()?;
    // Warm-up: one session per hot variant, so the timed hot sessions are
    // cache hits.
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let tr = Tracer::new(epoch);
    for (bench, key_bits) in &hot {
        session(
            &tr,
            &mut client,
            bench,
            *key_bits,
            HOT_LOCK_SEED,
            "sat",
            &mut Counts::new(),
        )?;
    }
    Ok(Daemon { handle, addr, hot })
}

/// One session of the timed loop. Fresh circuits differ in every round,
/// so they stay cold when the round replays the session.
fn timed_session(
    tr: &Tracer,
    client: &mut Client,
    hot: &[(String, usize)],
    seed: u64,
    i: u64,
    round: usize,
    counts: &mut Counts,
) -> Result<(), String> {
    let engine = if i % 8 == 3 { "double_dip" } else { "sat" };
    if i % 8 != 7 {
        // Index among the hot sessions, so the four variants share them
        // evenly.
        let (bench, key_bits) = &hot[((i - i / 8) % hot.len() as u64) as usize];
        return session(tr, client, bench, *key_bits, HOT_LOCK_SEED, engine, counts);
    }
    let fresh = i * ROUNDS as u64 + round as u64;
    let bench = tr
        .span("netlist.generate", || {
            netlist::generate::random_comb(derive(seed, stream::CIRCUIT, fresh), 10, 5, 90)
                .map(|c| netlist::bench::write(&c))
        })
        .map_err(|e| format!("fresh circuit: {e}"))?;
    add(counts, "serve.fresh_sessions", 1);
    session(
        tr,
        client,
        &bench,
        FRESH_KEY_BITS,
        derive(seed, stream::LOCK, fresh),
        engine,
        counts,
    )
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (the daemon cannot start or warm up).
pub fn run(cfg: &RunConfig, epoch: Instant) -> Result<Report, String> {
    let (daemon, setup) = set_up(epoch, || start_daemon(cfg, epoch))?;
    let before = daemon_stats(&daemon.addr)?;
    let exec_before = ExecDelta::totals();
    let connect = || Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"));
    let driven = drive(
        cfg,
        CLIENTS.min(cfg.nproc),
        1,
        epoch,
        connect,
        |client, tr, i, round, counts| {
            timed_session(tr, client, &daemon.hot, cfg.seed, i, round, counts)
        },
    );
    let exec = ExecDelta::totals().since(exec_before);
    let after = daemon_stats(&daemon.addr)?;
    let Daemon { mut handle, .. } = daemon;
    handle.stop();

    let mut report = Report::new(Workload::ServeMixed, setup, driven, exec);
    let counts = &mut report.sessions.counts;
    let names = [
        [
            "serve.circuit_cache.hits",
            "serve.circuit_cache.builds",
            "serve.circuit_cache.coalesced",
        ],
        [
            "serve.locked_cache.hits",
            "serve.locked_cache.builds",
            "serve.locked_cache.coalesced",
        ],
    ];
    for (cache, row) in names.iter().enumerate() {
        for (k, name) in row.iter().enumerate() {
            add(
                counts,
                name,
                after.caches[cache][k] - before.caches[cache][k],
            );
        }
    }
    // The caches must build each fresh circuit once and never rebuild a
    // hot variant.
    let fresh = counts.get("serve.fresh_sessions").copied().unwrap_or(0);
    for name in ["serve.circuit_cache.builds", "serve.locked_cache.builds"] {
        let builds = counts.get(name).copied().unwrap_or(0);
        if builds > fresh {
            report.sessions.failures.push(format!(
                "{name}: {builds} builds for {fresh} fresh circuits"
            ));
        }
    }
    report
        .daemon_ns
        .insert("serve.busy_ns", after.busy_ns - before.busy_ns);
    report.daemon_ns.insert(
        "serve.queue_wait_ns",
        after.queue_wait_ns - before.queue_wait_ns,
    );
    report
        .daemon_ns
        .insert("serve.cache_build_ns", after.build_ns - before.build_ns);
    Ok(report)
}

//! Concurrency contracts of the daemon: priority ordering, cancellation,
//! timeouts, single-flight compilation under a TCP thundering herd, and
//! graceful drain on shutdown.

use std::sync::Arc;
use std::time::Duration;

use orap_bench::json::Json;
use orap_bench::json_object;
use serve::client::{Client, ClientError};
use serve::proto;
use serve::queue::{JobQueue, JobState, Priority};
use serve::server::{Server, ServerConfig};

fn start(workers: usize) -> (serve::server::ServerHandle, String) {
    let handle = Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = format!("127.0.0.1:{}", handle.port());
    (handle, addr)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).expect("connect")
}

/// With one worker occupied by a blocker, later submissions must start in
/// strict priority order (high before normal before low), FIFO within a
/// class — observable through `started_seq`.
#[test]
fn queue_dequeues_in_priority_order() {
    let queue: Arc<JobQueue<u64, ()>> = JobQueue::new(1);
    let runner_queue = Arc::clone(&queue);
    let worker = std::thread::spawn(move || {
        runner_queue.run(|ctx, ms: &u64| {
            ctx.sleep_cancellable(Duration::from_millis(*ms))?;
            Ok(())
        });
    });

    let blocker = queue.submit("sleep", 300, Priority::Normal, None).unwrap();
    // Wait until the blocker actually occupies the worker, so everything
    // below is ordered by the scheduler, not by submission racing.
    while queue.status(blocker).unwrap().state != JobState::Running {
        std::thread::sleep(Duration::from_millis(2));
    }
    let low1 = queue.submit("sleep", 1, Priority::Low, None).unwrap();
    let norm1 = queue.submit("sleep", 1, Priority::Normal, None).unwrap();
    let high1 = queue.submit("sleep", 1, Priority::High, None).unwrap();
    let high2 = queue.submit("sleep", 1, Priority::High, None).unwrap();
    let norm2 = queue.submit("sleep", 1, Priority::Normal, None).unwrap();

    for id in [low1, norm1, high1, high2, norm2] {
        let st = queue.wait_terminal(id, Duration::from_secs(30)).unwrap();
        assert_eq!(st.state, JobState::Done, "job {id}");
    }
    let seq = |id: u64| queue.status(id).unwrap().started_seq;
    assert!(seq(high1) < seq(high2), "FIFO within high");
    assert!(seq(high2) < seq(norm1), "high before normal");
    assert!(seq(norm1) < seq(norm2), "FIFO within normal");
    assert!(seq(norm2) < seq(low1), "normal before low");

    queue.shutdown(false);
    worker.join().unwrap();
}

/// Cancelling a queued job kills it without running; cancelling a running
/// job interrupts it at the next checkpoint.
#[test]
fn cancel_queued_and_running_jobs() {
    let (mut handle, addr) = start(1);
    let mut c = connect(&addr);

    let running = c
        .submit(json_object! { kind: "sleep", ms: 60000u64 })
        .unwrap();
    let queued = c
        .submit(json_object! { kind: "sleep", ms: 60000u64 })
        .unwrap();

    // The queued job never ran: cancel reports it straight to cancelled.
    assert_eq!(c.cancel(queued).unwrap(), "cancelled");
    let st = c.wait_result(queued).unwrap();
    assert_eq!(proto::get_str(&st, "state"), Some("cancelled"));

    // The running job was observed in state running; it must stop at its
    // next 5 ms checkpoint, not after 60 s.
    assert_eq!(c.cancel(running).unwrap(), "running");
    let st = c.wait_result(running).unwrap();
    assert_eq!(proto::get_str(&st, "state"), Some("cancelled"));

    handle.stop();
}

/// A per-job timeout fires while the job runs.
#[test]
fn timeout_interrupts_running_job() {
    let (mut handle, addr) = start(1);
    let mut c = connect(&addr);
    let job = c
        .submit_with(
            json_object! { kind: "sleep", ms: 10000u64 },
            None,
            Some(Duration::from_millis(50)),
        )
        .unwrap();
    let st = c.wait_result(job).unwrap();
    assert_eq!(proto::get_str(&st, "state"), Some("timed_out"));
    handle.stop();
}

/// Locks a ~20k-gate circuit with 32 RLL key bits on a one-worker daemon,
/// submits `job(bench, artifact)` with a 200 ms timeout, and asserts that
/// it lands in `timed_out` well within 30 s. Each miter solve on this lock
/// is long enough that a stage-boundary checkpoint would be far too coarse
/// to honour the deadline.
fn assert_times_out_mid_solve(job: impl FnOnce(&str, String) -> Json) {
    let (mut handle, addr) = start(1);
    let mut c = connect(&addr);
    let comb = netlist::generate::random_comb(7, 48, 24, 20_000).unwrap();
    let bench = netlist::bench::write(&comb);
    let lock = c.submit_lock(&bench, "rll", 32, 11).unwrap();
    let done = c.wait_result(lock).unwrap();
    assert_eq!(proto::get_str(&done, "state"), Some("done"));
    let artifact = proto::get_str(proto::get(&done, "result").unwrap(), "artifact")
        .unwrap()
        .to_string();

    let start = std::time::Instant::now();
    let timeout = Some(Duration::from_millis(200));
    let job = c.submit_with(job(&bench, artifact), None, timeout).unwrap();
    let st = c.wait_result(job).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(proto::get_str(&st, "state"), Some("timed_out"));
    assert!(
        elapsed < Duration::from_secs(30),
        "mid-solve timeout took {elapsed:?}"
    );
    handle.stop();
}

/// A short per-job timeout fires *mid-solve* on a SAT attack whose first
/// miter solve alone far outlasts it: the engine layer hands the job
/// deadline to the solver's interrupt hook, so the job lands in
/// `timed_out` promptly instead of grinding through the full attack.
#[test]
fn timeout_interrupts_sat_attack_mid_solve() {
    assert_times_out_mid_solve(|_, artifact| {
        json_object! { kind: "attack", target: artifact, attack: "sat" }
    });
}

/// The same for an exact `verify` of the lock's correct key: proving the
/// two keyed copies equal is one long miter solve, and the job deadline
/// reaches it through the same control block an attack uses.
#[test]
fn timeout_interrupts_verify_mid_solve() {
    assert_times_out_mid_solve(|bench, artifact| {
        // The daemon never returns the correct key, so lock the same
        // parsed circuit locally to learn it.
        let circuit = netlist::bench::parse(bench).unwrap();
        let config = locking::random::RllConfig {
            key_bits: 32,
            seed: 11,
        };
        let locked = locking::random::lock(&circuit, &config).unwrap();
        let key = proto::key_to_bits(&locked.correct_key);
        json_object! { kind: "verify", target: artifact, key: key }
    });
}

/// Submits `job` (an `atpg` job) with `timeout` to a one-worker daemon and
/// asserts that it lands in `timed_out` well within 30 s, with a stage log
/// that shows the deadline fired inside ATPG rather than before it.
fn assert_atpg_times_out(job: Json, timeout: Duration) {
    let (mut handle, addr) = start(1);
    let mut c = connect(&addr);
    let job = c.submit_with(job, None, Some(timeout)).unwrap();
    let start = std::time::Instant::now();
    let st = c.wait_result(job).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(proto::get_str(&st, "state"), Some("timed_out"));
    assert!(
        elapsed < Duration::from_secs(30),
        "mid-run timeout took {elapsed:?}"
    );
    let status = c.status(job).unwrap();
    let Some(Json::Array(stages)) = proto::get(&status, "stages") else {
        panic!("status without a stage log: {status:?}");
    };
    assert!(
        stages
            .iter()
            .any(|s| proto::get_str(s, "stage") == Some("atpg")),
        "the deadline fired before ATPG started: {status:?}"
    );
    handle.stop();
}

/// A per-job timeout fires mid-run on an `atpg` job at the default
/// configuration: its fault simulation and PODEM search on the ~20k-gate
/// circuit run far past the deadline, and the flow's stop check ends the
/// job. The timeout leaves room for the compile stage, which parses the
/// whole `.bench` text (under a second in a debug build).
#[test]
fn timeout_interrupts_atpg_mid_run() {
    let comb = netlist::generate::random_comb(7, 48, 24, 20_000).unwrap();
    let job = json_object! { kind: "atpg", bench: netlist::bench::write(&comb) };
    assert_atpg_times_out(job, Duration::from_secs(6));
}

/// A per-job timeout also ends a single PODEM search that the client's
/// backtrack limit leaves unbounded. On `f = AND(XOR(a..), XNOR(a..))`
/// over 40 inputs, `f` is constant 0, and proving `f` stuck-at-0
/// redundant takes about 2^40 backtracks; the flow consults the job's
/// checkpoint before each of them.
#[test]
fn timeout_interrupts_one_unbounded_podem_search() {
    let mut comb = netlist::Circuit::new("parity");
    let a: Vec<_> = (0..40).map(|i| comb.add_input(format!("a{i}"))).collect();
    let p = comb.add_gate(netlist::GateKind::Xor, a.clone(), "p").unwrap();
    let q = comb.add_gate(netlist::GateKind::Xnor, a, "q").unwrap();
    let f = comb.add_gate(netlist::GateKind::And, vec![p, q], "f").unwrap();
    comb.mark_output(f);
    let job = json_object! {
        kind: "atpg",
        bench: netlist::bench::write(&comb),
        backtrack_limit: 1u64 << 60,
    };
    assert_atpg_times_out(job, Duration::from_millis(300));
}

/// A client-chosen random-pattern count costs neither unbounded memory nor
/// time once every fault is detected: the random phase holds at most 4096
/// patterns' good values at a time and ends when no fault is left, so
/// 10^12 patterns on c17 (no redundant fault) finish at once, and the
/// daemon serves the next job.
#[test]
fn huge_random_pattern_count_ends_once_every_fault_is_detected() {
    let (mut handle, addr) = start(1);
    let mut c = connect(&addr);
    let bench = netlist::bench::write(&netlist::samples::c17());
    for _ in 0..2 {
        let job = json_object! {
            kind: "atpg",
            bench: bench.clone(),
            random_patterns: 1_000_000_000_000u64,
        };
        let job = c
            .submit_with(job, None, Some(Duration::from_secs(30)))
            .unwrap();
        let st = c.wait_result(job).unwrap();
        assert_eq!(proto::get_str(&st, "state"), Some("done"), "{st:?}");
        let result = proto::get(&st, "result").unwrap();
        assert_eq!(
            proto::get_u64(result, "detected"),
            proto::get_u64(result, "total_faults")
        );
    }
    handle.stop();
}

/// Thundering herd over TCP: 8 connections submit the identical lock job
/// concurrently; the daemon compiles the circuit once and builds the
/// locked artifact once — every other request coalesces onto those builds.
#[test]
fn concurrent_identical_lock_jobs_compile_once() {
    let (mut handle, addr) = start(4);
    let bench = netlist::bench::write(&netlist::samples::c17());

    const CONNS: usize = 8;
    let artifacts: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                let addr = addr.clone();
                let bench = bench.clone();
                s.spawn(move || {
                    let mut c = connect(&addr);
                    let job = c.submit_lock(&bench, "rll", 4, 7).unwrap();
                    let st = c.wait_result(job).unwrap();
                    assert_eq!(proto::get_str(&st, "state"), Some("done"));
                    let result = proto::get(&st, "result").unwrap();
                    proto::get_str(result, "artifact").unwrap().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        artifacts.iter().all(|a| a == &artifacts[0]),
        "identical jobs must name one artifact"
    );

    let mut c = connect(&addr);
    let stats = c.stats().unwrap();
    let circuit = proto::get(&stats, "circuit_cache").unwrap();
    let locked = proto::get(&stats, "locked_cache").unwrap();
    assert_eq!(proto::get_u64(circuit, "builds"), Some(1), "one compile");
    assert_eq!(proto::get_u64(locked, "builds"), Some(1), "one lock build");
    let served = proto::get_u64(circuit, "hits").unwrap()
        + proto::get_u64(circuit, "coalesced").unwrap();
    assert_eq!(served as usize, CONNS - 1, "everyone else shared it");

    handle.stop();
}

/// `shutdown` with drain: queued jobs run to completion, new submissions
/// are rejected with code 300, and the daemon then exits.
#[test]
fn graceful_shutdown_drains_queued_jobs() {
    let (mut handle, addr) = start(2);
    let mut submitter = connect(&addr);
    let mut poller = connect(&addr);
    // The accept loop polls, so a connection opened just before `shutdown`
    // may never be accepted; one answered request proves this one was.
    poller.ping().unwrap();

    let jobs: Vec<u64> = (0..6)
        .map(|_| {
            submitter
                .submit(json_object! { kind: "sleep", ms: 100u64 })
                .unwrap()
        })
        .collect();

    submitter.shutdown(true).unwrap();

    // Submitting during the drain is rejected with SHUTTING_DOWN.
    match poller.submit(json_object! { kind: "sleep", ms: 1u64 }) {
        Err(ClientError::Server(code, _)) => assert_eq!(code, 300),
        other => panic!("expected code 300, got {other:?}"),
    }

    // Every job submitted before the shutdown still completes.
    for id in jobs {
        let st = poller.wait_result(id).unwrap();
        assert_eq!(proto::get_str(&st, "state"), Some("done"), "job {id}");
    }
    drop(poller);
    handle.wait();
}

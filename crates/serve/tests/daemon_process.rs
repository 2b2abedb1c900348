//! The built `serve_daemon` executable, driven as a separate process: it
//! announces its ephemeral port through `--announce`, serves concurrent
//! lock→attack→verify sessions from two connections, reports its counters
//! through the `stats` op, and exits with status 0 after a draining
//! `shutdown`. An unknown flag exits with the usage status 2.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use orap_bench::json::Json;
use serve::client::Client;
use serve::proto;

/// Sessions run against the daemon, split evenly over the connections.
const SESSIONS: usize = 16;
const CONNECTIONS: usize = 2;
/// The distinct circuits the sessions cycle through; each cache may build
/// at most one entry per variant.
const VARIANTS: usize = 4;

/// A spawned daemon, killed on drop so that a failing assertion never
/// leaves the process behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_serve_daemon"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve_daemon");
        Daemon(child)
    }

    fn exited(&mut self) -> Option<ExitStatus> {
        self.0.try_wait().expect("poll serve_daemon")
    }
}

/// Calls `ready` every 5 ms until it yields a value; fails after 60 s.
fn poll<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(value) = ready() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn variant_bench(v: usize) -> String {
    let circuit = match v {
        0 => netlist::samples::c17(),
        1 => netlist::samples::ripple_adder(4),
        2 => netlist::generate::random_comb(11, 8, 4, 60).expect("generator"),
        _ => netlist::generate::random_comb(23, 10, 5, 90).expect("generator"),
    };
    netlist::bench::write(&circuit)
}

/// The `result` object of a job that must end `done`.
fn done_result(client: &mut Client, job: u64, what: &str) -> Json {
    let done = client.wait_result(job).expect(what);
    let state = proto::get_str(&done, "state");
    assert_eq!(state, Some("done"), "{what}: {}", done.compact());
    proto::get(&done, "result").expect("result").clone()
}

/// A boolean field of a result object.
fn flag(json: &Json, key: &str) -> Option<bool> {
    proto::get(json, key).and_then(proto::as_bool)
}

/// One lock→attack→verify session: `sat`, or `double_dip` on every eighth
/// session, against the daemon-held oracle, then an exact verify of the
/// recovered key.
fn run_session(client: &mut Client, session: usize) {
    let variant = session % VARIANTS;
    let bench = variant_bench(variant);
    let job = client.submit_lock(&bench, "rll", 4 + variant, 7).unwrap();
    let locked = done_result(client, job, "lock");
    let artifact = proto::get_str(&locked, "artifact").expect("artifact");

    let attack = if session % 8 == 3 {
        "double_dip"
    } else {
        "sat"
    };
    let job = client.submit_attack(artifact, attack).unwrap();
    let result = done_result(client, job, attack);
    let what = format!("session {session}: {attack}: {}", result.compact());
    assert_eq!(flag(&result, "succeeded"), Some(true), "{what}");
    let queries = proto::get_u64(&result, "oracle_queries");
    assert!(queries.is_some_and(|q| q > 0), "{what}");
    let key = proto::get_str(&result, "key").expect("key");

    let job = client.submit_verify(artifact, key).unwrap();
    let verdict = done_result(client, job, "verify");
    let what = format!("session {session}: verify: {}", verdict.compact());
    assert_eq!(flag(&verdict, "exact"), Some(true), "{what}");
}

#[test]
fn daemon_binary_serves_sessions_and_drains_on_shutdown() {
    let announce = std::env::temp_dir().join(format!("serve-daemon-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&announce);
    let mut daemon = Daemon::spawn(&["--workers", "2", "--announce", announce.to_str().unwrap()]);
    // The daemon writes `PORT\n` without an atomic rename: a file that does
    // not end in a newline yet may hold a truncated port.
    let port: u16 = poll("the announced port", || {
        if let Some(status) = daemon.exited() {
            panic!("serve_daemon exited with {status} before announcing its port");
        }
        let text = std::fs::read_to_string(&announce).ok()?;
        let port = text.strip_suffix('\n')?;
        Some(port.parse().expect("announced port is a number"))
    });
    let _ = std::fs::remove_file(&announce);
    let addr = format!("127.0.0.1:{port}");

    std::thread::scope(|s| {
        for conn in 0..CONNECTIONS {
            let addr = &addr;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for session in (conn..SESSIONS).step_by(CONNECTIONS) {
                    run_session(&mut client, session);
                }
            });
        }
    });

    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    let counter = |group: &str, name: &str| {
        let group = proto::get(&stats, group).expect(group);
        proto::get_u64(group, name).expect(name)
    };
    assert_eq!(counter("queue", "failed"), 0, "failed jobs");
    assert_eq!(counter("queue", "completed"), 3 * SESSIONS as u64);
    assert_eq!(counter("queue", "depth_total"), 0, "queue drained");
    for cache in ["circuit_cache", "locked_cache"] {
        let builds = counter(cache, "builds");
        assert!(builds <= VARIANTS as u64, "{cache}: {builds} builds");
        // How many lookups coalesce depends on timing; only the field's
        // presence is checked.
        counter(cache, "coalesced");
    }

    client.shutdown(true).expect("shutdown");
    let status = poll("serve_daemon to exit", || daemon.exited());
    assert!(status.success(), "serve_daemon exited with {status}");
}

#[test]
fn unknown_flag_exits_with_usage_status() {
    let mut daemon = Daemon::spawn(&["--no-such-flag"]);
    let status = poll("serve_daemon to exit", || daemon.exited());
    assert_eq!(status.code(), Some(2));
}

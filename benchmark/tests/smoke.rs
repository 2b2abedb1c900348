//! Runs every workload at a tiny size through the library and checks that
//! its correctness checks fire and its work counters repeat.

use std::time::{Duration, Instant};

use attacks::CombOracle;
use locking::weighted::WllConfig;
use netlist::generate::{self, BenchmarkId};
use orap_benchmark::load::ROUNDS;
use orap_benchmark::session::{self, Scheme};
use orap_benchmark::trace::Tracer;
use orap_benchmark::{
    defend, run, serve_mixed, Counts, RunConfig, Size, Stop, Workload, END_TO_END, PER_LAYER,
};

fn tiny(seed: u64, sessions: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        size: Size::Tiny,
        stop: Stop::Sessions(sessions),
        trace,
        nproc: 2,
    }
}

/// Counters each workload must move: the sessions really did the work.
fn expected_counters(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::SatHard => &[
            "attacks.iterations",
            "sat.conflicts",
            "sat.propagations",
            "sim.oracle_queries",
        ],
        Workload::AttackMix => &[
            "attacks.iterations",
            "sat.conflicts",
            "sim.oracle_queries",
            "verify.calls",
        ],
        Workload::ServeMixed => &[
            "attacks.oracle_queries",
            "sat.propagations",
            "serve.circuit_cache.builds",
            "serve.locked_cache.hits",
        ],
        Workload::Defend => &[
            "atpg.detected",
            "atpg.faults",
            "orap.protects",
            "synth.area_orig",
        ],
    }
}

/// The layers whose spans each workload's traced run must record.
fn expected_layers(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::SatHard | Workload::AttackMix => &["locking", "sim", "attacks", "verify"],
        Workload::ServeMixed => &["netlist", "serve"],
        Workload::Defend => &["locking", "sim", "orap", "synth", "atpg"],
    }
}

/// Latency samples per round at the tiny size.
fn samples(w: Workload) -> u64 {
    match w {
        Workload::SatHard => 4,
        Workload::AttackMix | Workload::ServeMixed => 16,
        Workload::Defend => 1,
    }
}

#[test]
fn workloads_pass_their_checks_and_repeat_their_counts() {
    for w in Workload::ALL {
        let n = samples(w);
        let executions = ROUNDS as u64 * n * w.group();
        let plain = run(w, &tiny(3, n, false), Instant::now()).expect("set-up");
        let traced = run(w, &tiny(3, n, true), Instant::now()).expect("set-up");
        assert!(
            plain.correct(),
            "{}: {:?}",
            w.name(),
            plain.sessions.failures
        );
        assert!(
            traced.correct(),
            "{}: {:?}",
            w.name(),
            traced.sessions.failures
        );
        assert_eq!(plain.sessions.attempted, executions);
        assert_eq!(plain.latencies_ns().len() as u64, n);
        // Same seed, same work, whether traced or not.
        assert_eq!(
            plain.sessions.counts,
            traced.sessions.counts,
            "{}",
            w.name()
        );
        for name in expected_counters(w) {
            assert!(
                plain.sessions.counts.get(name).copied().unwrap_or(0) > 0,
                "{}: {name} is 0",
                w.name()
            );
        }

        let layers = traced.layer_times();
        assert_eq!(layers.sessions, executions, "{}", w.name());
        for layer in expected_layers(w) {
            assert!(
                layers.self_ns.get(layer).copied().unwrap_or(0) > 0,
                "{}: no {layer} spans",
                w.name()
            );
        }
        let metrics = traced.per_layer();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|(_, v, _)| v.is_finite()));
        assert_eq!(traced.end_to_end().len(), END_TO_END.len());
    }
}

#[test]
fn a_key_from_a_lying_oracle_fails_its_session() {
    let tr = Tracer::new(Instant::now());
    let mut counts = Counts::new();
    let circuit = generate::random_comb(5, 8, 4, 40).expect("circuit");
    let locked = Scheme::Rll.lock(&circuit, 6, 2).expect("lock");
    let mut flipped = locked.correct_key.clone();
    flipped[0] = !flipped[0];
    assert!(session::key_is_exact(
        &tr,
        &locked,
        &locked.correct_key,
        &mut counts
    ));
    assert!(!session::key_is_exact(&tr, &locked, &flipped, &mut counts));

    // An oracle answering with the flipped key leads the attack to a key
    // that is not the chip's, and the session must count as failed.
    let deadline = Instant::now() + Duration::from_secs(30);
    let honest = CombOracle::from_locked(&locked).expect("oracle");
    session::attack_and_verify(&tr, &locked, honest, "sat", deadline, &mut counts)
        .expect("honest session");
    let mut lying = locked.clone();
    lying.correct_key = flipped;
    let oracle = CombOracle::from_locked(&lying).expect("oracle");
    assert!(
        session::attack_and_verify(&tr, &locked, oracle, "sat", deadline, &mut counts).is_err()
    );
}

#[test]
fn the_daemon_rejects_a_flipped_key() {
    let mut handle =
        serve::server::Server::start(serve::server::ServerConfig::default()).expect("daemon");
    let mut client =
        serve::client::Client::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect");
    let tr = Tracer::new(Instant::now());
    let bench = netlist::bench::write(&netlist::samples::ripple_adder(4));
    let job = client.submit_lock(&bench, "rll", 5, 7).expect("lock");
    let done = client.wait_result(job).expect("lock result");
    let result = serve::proto::get(&done, "result").expect("result");
    let artifact = serve::proto::get_str(result, "artifact")
        .expect("artifact")
        .to_string();
    let job = client.submit_attack(&artifact, "sat").expect("attack");
    let done = client.wait_result(job).expect("attack result");
    let result = serve::proto::get(&done, "result").expect("result");
    let key = serve::proto::get_str(result, "key")
        .expect("key")
        .to_string();
    assert!(serve_mixed::verify_remote(&tr, &mut client, &artifact, &key).expect("verify"));
    let mut flipped = key.into_bytes();
    flipped[0] ^= b'0' ^ b'1';
    let flipped = String::from_utf8(flipped).expect("bit string");
    assert!(!serve_mixed::verify_remote(&tr, &mut client, &artifact, &flipped).expect("verify"));
    drop(client);
    handle.stop();
}

#[test]
fn a_protected_circuit_with_a_wrong_key_does_not_unlock() {
    let tr = Tracer::new(Instant::now());
    let design = generate::synthesize(&generate::profile(BenchmarkId::S38417).scaled(0.002))
        .expect("circuit");
    let protected = orap::protect(
        &design,
        &WllConfig {
            key_bits: 12,
            control_width: 3,
            seed: 1,
        },
        &orap::OrapConfig::default(),
    )
    .expect("protect");
    assert!(defend::unlocks_to_original(&tr, &protected.locked, &design));
    let mut wrong = protected.locked.clone();
    wrong.correct_key[0] = !wrong.correct_key[0];
    assert!(!defend::unlocks_to_original(&tr, &wrong, &design));
}

/// `BENCHMARK.json` declares exactly the workloads and metrics this crate
/// prints.
#[test]
fn benchmark_json_matches_the_crate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    let declared = text.matches("{\"name\": ").count();
    assert_eq!(
        declared,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

//! End-to-end CLI tests driving the real `orap` binary.

use std::path::PathBuf;
use std::process::Command;

fn orap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_orap"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("orap_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Writes c17 to a file of the calling test's own: tests run in parallel,
/// and rewriting one shared input could truncate it under another test's
/// `orap` process.
fn write_c17(test: &str) -> PathBuf {
    let path = tmp(&format!("{test}_c17.bench"));
    std::fs::write(&path, netlist::bench::write(&netlist::samples::c17()))
        .expect("write sample");
    path
}

#[test]
fn stats_prints_counts() {
    let input = write_c17("stats");
    let out = orap().arg("stats").arg(&input).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("5 PI"), "{text}");
    assert!(text.contains("6 gates"), "{text}");
}

#[test]
fn lock_then_attack_recovers_key() {
    let input = write_c17("lock");
    let locked = tmp("c17_locked.bench");
    let out = orap()
        .args(["lock"])
        .arg(&input)
        .args(["-o"])
        .arg(&locked)
        .args(["--scheme", "rll", "--key-bits", "4", "--seed", "9"])
        .output()
        .expect("run lock");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let key = text
        .lines()
        .find_map(|l| l.strip_prefix("key     : "))
        .expect("key line")
        .trim()
        .to_owned();

    let out = orap()
        .arg("attack")
        .arg(&locked)
        .args(["--key", &key, "--attack", "sat"])
        .output()
        .expect("run attack");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("functionally correct: true"),
        "attack output: {text}"
    );
}

#[test]
fn convert_bench_to_verilog_and_back() {
    let input = write_c17("convert");
    let v = tmp("c17.v");
    let back = tmp("c17_back.bench");
    assert!(orap().arg("convert").arg(&input).arg("-o").arg(&v).status().expect("run").success());
    assert!(orap().arg("convert").arg(&v).arg("-o").arg(&back).status().expect("run").success());
    let text = std::fs::read_to_string(&back).expect("read");
    let c = netlist::bench::parse(&text).expect("parse");
    assert_eq!(c.num_gates(), 6);
}

#[test]
fn protect_reports_key_sequence() {
    let input = write_c17("protect");
    let out_path = tmp("c17_orap.bench");
    let out = orap()
        .arg("protect")
        .arg(&input)
        .arg("-o")
        .arg(&out_path)
        .args(["--key-bits", "6"])
        .output()
        .expect("run protect");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("unlock cycles"), "{text}");
    assert!(text.contains("cycle   0:"), "{text}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = orap().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

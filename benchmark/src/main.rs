//! Runs the repository benchmark.
//!
//! ```text
//! orap-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, one after another. Each runs
//! in a child process (this program re-executed with `--child`), so the
//! process it measures is its own; the parent sets `ORAP_THREADS` to the host's core
//! count unless it is already set, and kills a child that overruns. A
//! child prints a human-readable report (lines starting with `#`) and, as
//! its last line, the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — end-to-end
//! metrics, or per-layer metrics with `--trace 1`. A traced run also
//! writes its spans to `benchmark/out/trace-<workload>-<seed>.json`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use orap_benchmark::{quantile_ms, run, RunConfig, Size, Stop, Workload, LAYERS};

const USAGE: &str =
    "usage: orap-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 25;
/// A child still running this long after its timed window ends is killed.
const CHILD_GRACE: Duration = Duration::from_secs(120);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workloads = vec![Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child needs --workload".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    match parse_args() {
        Ok(args) if args.child => child(&args, epoch),
        Ok(args) => parent(&args),
        Err(e) => {
            eprintln!("orap-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs each workload in a child process and waits for it.
fn parent(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("orap-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = std::env::var(exec::THREADS_ENV).unwrap_or_else(|_| nproc().to_string());
    for w in &args.workloads {
        let spawned = Command::new(&exe)
            .args(["--child", "--workload", w.name()])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .env(exec::THREADS_ENV, &threads)
            .spawn();
        let mut child = match spawned {
            Ok(c) => c,
            Err(e) => {
                eprintln!("orap-benchmark: cannot start {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let deadline = Instant::now() + Duration::from_secs(args.seconds) + CHILD_GRACE;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50))
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        match status {
            Some(s) if s.success() => {}
            Some(s) => {
                eprintln!("orap-benchmark: {} exited with {s}", w.name());
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!(
                    "orap-benchmark: {} overran its time and was killed",
                    w.name()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one workload in this process and prints its report and result.
fn child(args: &Args, epoch: Instant) -> ExitCode {
    let workload = args.workloads[0];
    let cfg = RunConfig {
        seed: args.seed,
        size: Size::Standard,
        stop: Stop::After(Duration::from_secs(args.seconds)),
        trace: args.trace,
        nproc: nproc(),
    };
    let report = match run(workload, &cfg, epoch) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("orap-benchmark: {}: set-up failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let s = &report.sessions;
    let threads = std::env::var(exec::THREADS_ENV).unwrap_or_else(|_| "unset".into());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} {}={threads}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        cfg.nproc,
        exec::THREADS_ENV
    );
    let walls: Vec<String> = report
        .round_walls
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    println!(
        "# {} sessions per round, round walls (s): {}; executions attempted {}, failed {}",
        report.batch,
        walls.join(" "),
        s.attempted,
        s.failures.len()
    );
    for f in s.failures.iter().take(10) {
        println!("# FAILED {f}");
    }
    let setups: Vec<String> = report
        .setup
        .iter()
        .map(|d| format!("{:.4}", d.as_secs_f64()))
        .collect();
    println!("# set-up repetitions (s): {}", setups.join(" "));
    let lat = report.latencies_ns();
    let quantiles: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.3}", q * 100.0, quantile_ms(lat.clone(), q)))
        .collect();
    println!(
        "# latency quantiles over {} samples, each a session's fastest round (ms): {}",
        lat.len(),
        quantiles.join(" ")
    );
    if let Some(rss) = peak_rss_mib() {
        println!("# VmHWM {rss:.1} MiB (peak resident set; the memory metric is session_heap_mib)");
    }

    let metrics = if args.trace {
        print_self_times(&report);
        match write_trace(&report, args, cfg.nproc, &threads) {
            Ok(path) => println!("# trace written to {}", path.display()),
            Err(e) => {
                eprintln!("orap-benchmark: writing the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
        report.per_layer()
    } else {
        report.end_to_end()
    };
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        s.attempted,
        s.failures.len(),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints each layer's and each span's self time per traced session.
fn print_self_times(report: &orap_benchmark::Report) {
    let t = report.layer_times();
    let n = t.sessions.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    println!(
        "# self time per traced session ({} sessions, mean wall {:.3} ms)",
        t.sessions,
        ms(t.session_ns)
    );
    for layer in LAYERS {
        let own = t.self_ns.get(layer).copied().unwrap_or(0);
        println!(
            "#   {layer:<10} {:>12.4} ms {:>7.2}%",
            ms(own),
            t.self_pct(layer)
        );
    }
    println!(
        "#   {:<24} {:>12} {:>14} {:>14} {:>12}",
        "span", "calls/sess", "total ms/sess", "self ms/sess", "us/call"
    );
    for (name, &calls) in &t.calls {
        let total = t.total_ns[name];
        println!(
            "#   {name:<24} {:>12.2} {:>14.4} {:>14.4} {:>12.2}",
            calls as f64 / n,
            ms(total),
            ms(t.name_self_ns[name]),
            total as f64 / 1e3 / calls as f64
        );
    }
}

fn write_trace(
    report: &orap_benchmark::Report,
    args: &Args,
    nproc: usize,
    threads: &str,
) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-{}.json",
            report.workload.name(),
            args.seed
        ));
    let header = [
        ("workload", format!("\"{}\"", report.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("orap_threads", format!("\"{threads}\"")),
    ];
    orap_benchmark::trace::write_json(&path, &header, &report.spans)?;
    Ok(path)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

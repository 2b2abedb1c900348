//! Full-scale conformance kill matrix: runs the mutation battery of the
//! `conformance` crate at [`Scale::Full`] and writes the per-mutant kill
//! matrix to `results/BENCH_conformance.json`.
//!
//! Regenerate the checked-in file with
//! `cargo run --release -p orap-bench --bin kill_matrix` when the catalog
//! or a battery changes: `tests/kill_matrix.rs` pins every row's `id`,
//! `layer`, `killed` and `killed_by` against it. The binary exits non-zero
//! (via assertion) if the clean baseline fails or any mutant survives.

use std::time::Instant;

use conformance::mutation::{self, Scale};
use orap_bench::json::Json;
use orap_bench::{json_object, write_results};

fn main() {
    let start = Instant::now();
    let report = mutation::run_matrix(Scale::Full);
    let wall_ns = start.elapsed().as_nanos() as u64;

    println!(
        "conformance kill matrix (Full scale): {} mutants, baseline {}",
        report.results.len(),
        if report.baseline_ok { "ok" } else { "FAILED" },
    );
    for r in &report.results {
        let verdict = if r.killed { "killed" } else { "SURVIVED" };
        let detail: String = r.killed_by.chars().take(72).collect();
        println!("  {:<32} {:<8} {:<9} {}", r.id, r.layer, verdict, detail);
    }
    println!(
        "kill rate: {:.0}% ({}/{}) in {}",
        100.0 * report.kill_rate(),
        report.results.iter().filter(|r| r.killed).count(),
        report.results.len(),
        orap_bench::timing::human_time(wall_ns as f64),
    );

    let rows: Vec<Json> = report
        .results
        .iter()
        .map(|r| {
            json_object! {
                id: r.id,
                layer: r.layer,
                description: r.description,
                killed: r.killed,
                killed_by: r.killed_by,
                wall_ns: r.wall_ns,
            }
        })
        .collect();
    let doc = json_object! {
        harness: "conformance",
        smoke: false,
        mutants: report.results.len(),
        killed: report.results.iter().filter(|r| r.killed).count(),
        kill_rate: report.kill_rate(),
        baseline_ok: report.baseline_ok,
        baseline_detail: report.baseline_detail.clone(),
        survivors: report.survivors(),
        wall_ns: wall_ns,
        rows: rows,
    };
    let path = write_results("BENCH_conformance", &doc).expect("write results");
    println!("results -> {}", path.display());

    assert!(
        report.baseline_ok,
        "clean engines failed the conformance battery: {}",
        report.baseline_detail
    );
    let survivors = report.survivors();
    assert!(
        survivors.is_empty(),
        "mutants survived the conformance battery: {survivors:?}"
    );
}

//! Round-trip tests of the in-repo JSON writer against the checked-in
//! `results/*.json` shapes produced by the experiment binaries.

use orap_bench::json::{parse, Json};
use orap_bench::json_object;

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"))
        .expect("workspace root")
}

/// Every checked-in results file (written by the serde_json-era harness)
/// must parse, re-serialize, and re-parse to the identical value tree —
/// proving the in-repo writer speaks the same dialect.
#[test]
fn checked_in_results_roundtrip() {
    let dir = results_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e != "json").unwrap_or(true) {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let first = parse(text.trim_end()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rewritten = first.pretty();
        let second = parse(&rewritten).unwrap_or_else(|e| panic!("{name} rewrite: {e}"));
        assert_eq!(first, second, "{name}: value tree changed across round trip");
        checked += 1;
    }
    assert!(checked >= 5, "expected the five checked-in results files, saw {checked}");
}

/// The exact Row shapes emitted by the five experiment binaries round-trip
/// through write→parse with types preserved.
#[test]
fn experiment_row_shapes_roundtrip() {
    let rows = vec![
        // table1-style row.
        json_object! {
            circuit: "s38417",
            gates: 435usize,
            comb_outputs: 86usize,
            lfsr_size: 36usize,
            control_inputs: 3usize,
            hd_percent: 15.82729605741279f64,
            area_overhead_percent: 18.848167539267017f64,
            delay_overhead_percent: 6.0606060606060606f64,
        },
        // attack_resistance-style row with Option fields both ways.
        json_object! {
            attack: "sat",
            target: "rll",
            oracle: "combinational",
            key_recovered: true,
            key_correct: false,
            iterations: 17usize,
            queries: 212usize,
            failure: None::<String>,
        },
        json_object! {
            scenario: "shadow_register",
            baseline_ge: 800usize,
            hardened_ge: 2124usize,
            detected_baseline: false,
            detected_hardened: true,
            oracle_resurrected: Some(true),
        },
    ];
    let doc = Json::Array(rows);
    let text = doc.pretty();
    assert_eq!(parse(&text).expect("valid"), doc);
    // Floats survive with full precision.
    assert!(text.contains("15.82729605741279"));
    // Nulls appear for None options.
    assert!(text.contains("\"failure\": null"));
}

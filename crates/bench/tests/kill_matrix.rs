//! The Full-scale kill matrix as a test: the clean baseline passes, and
//! each mutant's `id`, `layer`, `killed` and `killed_by` equal its row in
//! the checked-in `results/BENCH_conformance.json`. A battery change that
//! moves a kill shows up here; regenerate the file with the `kill_matrix`
//! binary when the move is intended.

use conformance::mutation::{self, Scale};
use orap_bench::json::{parse, Json};
use orap_bench::json_object;

/// The row fields the checked-in matrix pins, in file order.
const PINNED: [&str; 4] = ["id", "layer", "killed", "killed_by"];

fn pinned(row: &Json) -> Vec<(String, Json)> {
    let Json::Object(fields) = row else {
        panic!("kill-matrix row is not an object: {row:?}");
    };
    fields
        .iter()
        .filter(|(k, _)| PINNED.contains(&k.as_str()))
        .cloned()
        .collect()
}

fn checked_in_rows() -> Vec<Json> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_conformance.json");
    let text = std::fs::read_to_string(&path).expect("checked-in kill matrix");
    let Json::Object(doc) = parse(text.trim_end()).expect("valid JSON") else {
        panic!("BENCH_conformance.json is not an object");
    };
    doc.into_iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            ("rows", Json::Array(rows)) => Some(rows),
            _ => None,
        })
        .expect("BENCH_conformance.json has a rows array")
}

#[test]
fn full_kill_matrix_matches_the_checked_in_file() {
    let report = mutation::run_matrix(Scale::Full);
    assert!(
        report.baseline_ok,
        "clean engines failed the Full battery: {}",
        report.baseline_detail
    );
    let want = checked_in_rows();
    assert_eq!(report.results.len(), want.len(), "catalog size changed");
    for (r, want) in report.results.iter().zip(&want) {
        let got = json_object! {
            id: r.id,
            layer: r.layer,
            killed: r.killed,
            killed_by: r.killed_by,
        };
        assert_eq!(got, Json::Object(pinned(want)), "kill-matrix row {}", r.id);
    }
}

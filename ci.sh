#!/usr/bin/env bash
# Tier-1 verification, run fully offline (the hermetic-build policy in
# DESIGN.md §5 means dependency resolution never touches a registry).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Pre-existing style lints in the seed code, scoped and allowed until each
# is cleaned up; new code must not extend this list.
# (needless_range_loop, useless_vec, manual_contains, manual_is_multiple_of
# and print_literal were cleaned up and removed — the list is now empty.)
CLIPPY_ALLOW=()

echo "==> cargo build --release (offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q (offline)"
cargo test -q --workspace --offline

echo "==> benchmark smoke tests (offline; its own workspace under benchmark/)"
# Building the benchmark here makes a removed public API it still calls
# fail tier-1 instead of the next benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -D warnings (offline, scoped allows)"
cargo clippy --workspace --all-targets --offline -- -D warnings "${CLIPPY_ALLOW[@]}"

echo "==> benchmark clippy -D warnings (offline; its own workspace under benchmark/)"
CARGO_TARGET_DIR=.bench_build cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc -D warnings (offline, no deps)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --offline --no-deps --quiet

echo "==> SAT-attack bench (smoke mode) -> results/BENCH_sat_smoke.json"
ORAP_BENCH_SMOKE=1 cargo bench -p orap-bench --bench sat_attack --offline
for field in inprocessings subsumed_clauses eliminated_vars restored_vars \
             vivified_literals chrono_backtracks restarts_forced; do
  if ! grep -q "\"$field\"" results/BENCH_sat_smoke.json; then
    echo "ERROR: BENCH_sat_smoke.json missing solver-stats field: $field" >&2
    exit 1
  fi
done

echo "==> engine bench (smoke mode) -> results/BENCH_engine_smoke.json"
ORAP_BENCH_SMOKE=1 cargo bench -p orap-bench --bench engine --offline

echo "==> conformance kill matrix (smoke mode) -> results/BENCH_conformance_smoke.json"
ORAP_BENCH_SMOKE=1 cargo bench -p orap-bench --bench conformance --offline

echo "==> scaling bench (smoke mode) -> results/BENCH_scaling_smoke.json"
ORAP_BENCH_SMOKE=1 cargo bench -p orap-bench --bench scaling --offline

echo "==> scancheck: scan-obfuscation workloads (smoke mode) -> results/BENCH_scan_smoke.json"
ORAP_BENCH_SMOKE=1 cargo bench -p orap-bench --bench scan --offline
# The harness gates on the clean battery, the session-exact seed and the
# three scan mutants; the shape check keeps the exported schema honest
# (unroll geometry, solver stats, kill count).
for field in unroll_depth load_cycles frame_bits conflicts propagations \
             scan_mutants scan_kills; do
  if ! grep -q "\"$field\"" results/BENCH_scan_smoke.json; then
    echo "ERROR: BENCH_scan_smoke.json missing expected field: $field" >&2
    exit 1
  fi
done
if ! grep -q '"scan_kills": 3' results/BENCH_scan_smoke.json; then
  echo "ERROR: BENCH_scan_smoke.json does not report all scan mutants killed" >&2
  exit 1
fi

echo "==> serve smoke: daemon + load harness -> results/BENCH_serve_smoke.json"
SERVE_PORT_FILE="$(mktemp)"
rm -f "$SERVE_PORT_FILE"
cargo run --release --offline -q -p serve --bin serve_daemon -- \
  --workers 2 --announce "$SERVE_PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 150); do
  [ -s "$SERVE_PORT_FILE" ] && break
  sleep 0.2
done
if ! [ -s "$SERVE_PORT_FILE" ]; then
  echo "ERROR: serve_daemon never announced its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
cargo run --release --offline -q -p serve --bin serve_load -- \
  --addr "127.0.0.1:$(cat "$SERVE_PORT_FILE")" --smoke --shutdown
wait "$SERVE_PID"
rm -f "$SERVE_PORT_FILE"
# The smoke run exercises two attack engines over the wire (SAT plus a
# double-DIP leg every eighth session) and must report the uniform
# oracle-query ledger the engine layer meters at the oracle boundary.
for field in sessions_per_sec p99_ns coalesced depth_total \
             oracle_queries_total '"failed": 0'; do
  if ! grep -q "$field" results/BENCH_serve_smoke.json; then
    echo "ERROR: BENCH_serve_smoke.json missing expected field: $field" >&2
    exit 1
  fi
done
if grep -q '"oracle_queries_total": 0[,}]' results/BENCH_serve_smoke.json; then
  echo "ERROR: BENCH_serve_smoke.json reports zero oracle queries" >&2
  exit 1
fi

echo "==> verifying the dependency graph is path-only"
if cargo metadata --format-version 1 --offline \
    | grep -o '"source":"registry[^"]*"' | head -1 | grep -q registry; then
  echo "ERROR: registry dependency found in cargo metadata" >&2
  exit 1
fi

echo "ci.sh: all checks passed"

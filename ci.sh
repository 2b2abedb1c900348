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

# Checked-in results must not change under ci.sh: only the serve smoke
# rewrites its own record. Checked after the last step.
results_sums() {
  for f in results/*.json; do
    [ "$f" = results/BENCH_serve_smoke.json ] || cksum "$f"
  done
}
RESULTS_SUMS="$(results_sums)"

echo "==> cargo build --release (offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q (offline)"
cargo test -q --workspace --offline

echo "==> benchmark smoke tests (offline; its own workspace under benchmark/)"
# Building the benchmark here makes a removed public API it still calls
# fail tier-1 instead of the next benchmark run. A dependency-edge change
# in a workspace crate makes cargo rewrite the benchmark's lockfile, which
# only a benchmark change may do: the checksum is compared after clippy.
BENCH_LOCK_SUM="$(cksum benchmark/Cargo.lock)"
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -D warnings (offline, scoped allows)"
cargo clippy --workspace --all-targets --offline -- -D warnings "${CLIPPY_ALLOW[@]}"

echo "==> benchmark clippy -D warnings (offline; its own workspace under benchmark/)"
CARGO_TARGET_DIR=.bench_build cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
if [ "$(cksum benchmark/Cargo.lock)" != "$BENCH_LOCK_SUM" ]; then
  echo "ERROR: building the benchmark rewrote benchmark/Cargo.lock" >&2
  exit 1
fi

echo "==> cargo doc -D warnings (offline, no deps)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --offline --no-deps --quiet

echo "==> scaling bench (smoke mode; asserts t8 <= t1*5/4, writes no file)"
ORAP_BENCH_SMOKE=1 cargo bench -p orap-bench --bench scaling --offline

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

if [ "$(results_sums)" != "$RESULTS_SUMS" ]; then
  echo "ERROR: ci.sh changed or added checked-in results/*.json files:" >&2
  diff <(echo "$RESULTS_SUMS") <(results_sums) >&2 || true
  exit 1
fi

echo "ci.sh: all checks passed"

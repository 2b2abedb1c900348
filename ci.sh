#!/usr/bin/env bash
# Tier-1 verification, run fully offline (the hermetic-build policy in
# DESIGN.md §5 means dependency resolution never touches a registry).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Checked-in results must not change under ci.sh, and no step may add
# one. Checked after the last step.
results_sums() {
  cksum results/*.json
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

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

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

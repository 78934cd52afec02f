#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, tests, figures, speed gates.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: scripts/check.sh (takes no arguments)" >&2
  exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> kernel suite, optimized (every instantiation this host runs vs the portable panel kernel: the debug build does not vectorise)"
cargo test --release -q -p m3-nn --test prop

echo "==> fault-injection suite"
cargo test -q --test fault_injection

echo "==> service integration suite (crash recovery, retries, shedding)"
cargo test -q --test service_integration

echo "==> tracing suite (span tree, determinism, journal correlation)"
cargo test -q --test tracing

echo "==> cluster suite (sharded fan-out, kill-a-shard lossless failover)"
cargo test -q --test cluster_integration

echo "==> session property suite (delta sequences bit-identical to from-scratch)"
cargo test -q --test session_prop

echo "==> swap suite (registry integrity, shadow gate, rollback, kill-mid-swap)"
cargo test -q -p m3-serve --test swap_integration

echo "==> monitor suite (time-series merge laws, pinned burn-rate transitions, live-service sampling)"
cargo test -q --test monitor_prop

echo "==> benchmark adapter suite (m3_benchmark is a workspace of its own: the root cargo test does not build it)"
cargo test --release -q --manifest-path m3_benchmark/Cargo.toml

echo "==> paper figures at toy scale (repro all --small: every figure and its CI-checked shape claims, written only under target/repro-small/)"
rm -rf target/repro-small
cargo run --release -q -p m3-bench --bin repro -- all --small | grep '^shape:'

echo "==> trace golden-file check (deterministic export must be byte-stable)"
cargo build --release -q
TRACE_TMP="$(mktemp /tmp/m3-trace-golden.XXXXXX.json)"
TRACE_SPEC="$(mktemp /tmp/m3-trace-spec.XXXXXX.json)"
trap 'rm -f "$TRACE_TMP" "$TRACE_SPEC"' EXIT
# The trace records no model values, so the model the figure step trained
# serves: a clean checkout has no assets/ checkpoint.
sed 's#"assets/m3-model.ckpt"#"target/repro-small/m3-model.ckpt"#' \
  tests/golden/estimate_spec.json > "$TRACE_SPEC"
./target/release/m3 estimate "$TRACE_SPEC" \
  --trace-out "$TRACE_TMP" --trace-stride-ns 1000000 --trace-deterministic \
  > /dev/null
if ! diff -q tests/golden/estimate_trace.json "$TRACE_TMP" > /dev/null; then
  echo "trace golden mismatch: tests/golden/estimate_trace.json vs $TRACE_TMP" >&2
  echo "(if the trace format changed intentionally, regenerate the golden" >&2
  echo " with the command above and commit it)" >&2
  diff tests/golden/estimate_trace.json "$TRACE_TMP" | head -20 >&2 || true
  exit 1
fi
echo "trace golden matches"

echo "==> speed gates (gate all: hotpath >=4x forward + decompose_index_40k_min_ms at the flowsim_40k shape + estimate_warm_min_ms all-hit and estimate_prepared_min_ms prepared all-hit rows bit-checked against cold, session >=5x, cluster >=6x at 8 shards, tracing <3% / telemetry <2% / monitor <2% overhead, journal <=1 KiB per completed request; writes seven BENCH_*.json)"
cargo run --release -q -p m3-bench --bin gate -- all
# Which matmul kernel instantiation the forward pass dispatched to here: the
# timings above are not comparable between an avx512, an avx2 and a portable
# host.
echo "hot-path kernel path on this host: $(grep -o '"kernel_path": "[a-z0-9]*"' BENCH_hotpath.json | cut -d'"' -f4)"

echo "==> fault soak (service, cluster, swap, session, monitor, crash schedules on seeds 1-3)"
cargo run --release -q -p m3-serve --bin soak -- all 1 2 3

echo "All checks passed."

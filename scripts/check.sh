#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, tests.
# Usage: scripts/check.sh [--bench]
#   --bench  also run the mean-based telemetry overhead gate (slow and
#            scheduling-sensitive, so off by default).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> kernel suite, optimized (portable vs dispatched panel kernel: the debug build does not vectorise)"
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

echo "==> trace golden-file check (deterministic export must be byte-stable)"
cargo build --release -q
TRACE_TMP="$(mktemp /tmp/m3-trace-golden.XXXXXX.json)"
trap 'rm -f "$TRACE_TMP"' EXIT
./target/release/m3 estimate tests/golden/estimate_spec.json \
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

echo "==> tracing overhead gate (<3% disabled-tracing overhead, writes BENCH_tracing_overhead.json)"
cargo bench -p m3-bench --bench tracing_overhead

echo "==> hot-path kernel gate (>=4x forward reference-vs-pooled, writes BENCH_hotpath.json)"
cargo bench -p m3-bench --bench hotpath
# Which matmul kernel instantiation the forward pass dispatched to here: the
# timings above are not comparable between an avx2 and a portable host.
echo "hot-path kernel path on this host: $(grep -o '"kernel_path": "[a-z0-9]*"' BENCH_hotpath.json | cut -d'"' -f4)"

echo "==> cluster scaling gate (>=6x aggregate throughput at 8 shards, writes BENCH_cluster_scaling.json)"
cargo bench -p m3-bench --bench cluster_scaling

echo "==> session incremental gate (>=5x p50 for a 1%-dirty delta vs full re-estimate, writes BENCH_session_incremental.json)"
cargo bench -p m3-bench --bench session_incremental

echo "==> monitor overhead gate (<2% per-estimate sampling overhead, writes BENCH_monitor_overhead.json)"
cargo bench -p m3-bench --bench monitor_overhead

echo "==> fault soak (service, cluster, swap, session, monitor schedules on seeds 1-3)"
cargo run --release -q -p m3-serve --bin soak -- all 1 2 3

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "==> telemetry overhead gate (<2%, writes BENCH_telemetry_overhead.json)"
  cargo bench -p m3-bench --bench telemetry_overhead
fi

echo "All checks passed."

#!/usr/bin/env bash
# Smoke test: everything a PR must keep green, in one command.
#
#   scripts/smoke.sh
#
# Runs scripts/ci.sh first (the release build, both test lanes, the
# release fixtures, detlint, the clippy mirror, rustfmt, the DAG
# scenario, the results/ drift gate and the benchmark goldens), then only
# the steps it lacks: every paper artifact at Quick fidelity through the
# parallel cell runner, the exporter round trips, the trace and span
# audits, the proactor, resilience and fleet scenario lanes, the fleet
# sweep, the one-tier DAG property test in release, and the kernel
# self-benchmark at Quick fidelity.

set -euo pipefail
cd "$(dirname "$0")/.."

scripts/ci.sh

echo "== artifact smoke (Quick fidelity, parallel runner) =="
cargo run --release -p asyncinv-bench --bin repro_all -- --quick

echo "== observability: traced run + exporter round-trip =="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
cargo run --release -p asyncinv-bench --bin fig04_four_archetypes -- \
    --quick --trace-out "$obs_dir" --metrics-out "$obs_dir"
test -s "$obs_dir/fig04_four_archetypes.trace.jsonl"
test -s "$obs_dir/fig04_four_archetypes.metrics.json"
cargo run --release -p asyncinv-bench --bin trace_audit -- \
    --validate "$obs_dir/fig04_four_archetypes.trace.json"

echo "== trace audit (counters vs trace, all architectures) =="
cargo run --release -p asyncinv-bench --bin trace_audit -- --quick

echo "== span audit (causal span trees, all architectures x balancers) =="
cargo run --release -p asyncinv-bench --bin span_audit -- --quick

echo "== latency breakdown (critical-path phase attribution + span exporter round-trip) =="
cargo run --release -p asyncinv-bench --bin latency_breakdown -- \
    --quick --json "$obs_dir/latency_breakdown.quick.json" --trace-out "$obs_dir"
test -s "$obs_dir/latency_breakdown.quick.json"
cargo run --release -p asyncinv-bench --bin span_audit -- \
    --validate-spans "$obs_dir/latency_breakdown.spans.trace.json"

echo "== proactor: crossings-vs-size sweep (asserts batching + zero write-spin) =="
cargo run --release -p asyncinv-bench --bin proactor_sweep -- --quick

echo "== proactor: checked-in sweep scenario, traced + audited =="
cargo run --release -p asyncinv-bench --bin proactor_sweep -- \
    --quick --scenario scenarios/proactor_sweep.json

echo "== resilience: checked-in fault scenario, traced + audited =="
cargo run --release -p asyncinv-bench --bin resilience -- \
    --quick --scenario scenarios/retry_storm.json

echo "== fleet: checked-in brownout scenario, traced + fleet-audited =="
cargo run --release -p asyncinv-bench --bin fleet -- \
    --quick --scenario scenarios/shard_brownout.json

echo "== fleet: balancer x shard-count x fault sweep, JSON artifact =="
cargo run --release -p asyncinv-bench --bin fleet -- \
    --quick --json results/fleet-sweep.json
test -s results/fleet-sweep.json

echo "== dag: one-tier composition + audits =="
cargo test -q --release --test prop_dag

echo "== kernel bench sweep (quick; asserts runner + fault-plane + spin bit-identity) =="
ASYNCINV_BENCH_OUT="$obs_dir/BENCH_kernel.quick.json" \
    cargo run --release -p asyncinv-bench --bin kernel_bench -- --quick
test -s "$obs_dir/BENCH_kernel.quick.json"

echo "smoke OK"

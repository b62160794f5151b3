#!/usr/bin/env bash
# CI gate: the tier-1 contract plus the static-analysis and schedule-race
# gates, in one short command. This is the subset of scripts/smoke.sh a
# PR must keep green before anything else is worth running.
#
#   scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (release) =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== gate: detlint (determinism + coverage + counter conservation) =="
cargo run --release -p detlint -- check --json results/detlint-report.json

echo "== gate: schedule explorer (enumerated + shuffled interleavings, bitwise) =="
cargo run --release -p asyncinv-bench --bin schedule_explorer -- --quick

echo "== gate: dag scenario (drift check + dag/span audits, both drivers) =="
cargo run --release -p asyncinv-bench --bin dag_study -- \
    --quick --scenario scenarios/dag_social.json

echo "== gate: benchmark tests + seed-1 goldens (every workload's cell digests) =="
cargo test --offline --manifest-path benchmark/Cargo.toml
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT
cargo run --release --offline --manifest-path benchmark/Cargo.toml --bin benchmark -- \
    --repeats 1 --trace 0 --results "$bench_dir/results.json" | tee "$bench_dir/out.txt"
# The binary exits 0 even when cells fail; the verdict is the last line.
tail -n 1 "$bench_dir/out.txt" | grep -q '^{"correct":true,' \
    || { echo "benchmark goldens: cells failed (see above)"; exit 1; }

echo "ci OK"

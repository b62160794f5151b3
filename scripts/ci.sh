#!/usr/bin/env bash
# CI gate: the tier-1 contract plus the static-analysis, formatting,
# scenario, results/ drift and benchmark-golden gates, in one short
# command. This is what a PR must keep green before anything else is
# worth running; scripts/smoke.sh runs it first, then the steps it lacks.
#
#   scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (release) =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

# A bare `cargo test` at the root runs only the root package's tests; the
# workspace members (crates/* and vendor/*, doc tests included) need
# `--workspace`. The root package is excluded because it just ran.
echo "== gate: workspace crate tests (unit, integration and doc tests) =="
cargo test -q --workspace --exclude asyncinv-lab

# The pinned-digest fixtures again in the release profile, the build the
# benchmark and results/ use: debug_assert!s are compiled out there and
# integer arithmetic wraps, so a result that leans on either shows here.
echo "== gate: pinned-digest fixtures (release build) =="
cargo test -q --release --test engine_fixture --test fleet_fixture \
    --test dag_fixture --test rubbos_fixture

echo "== gate: detlint (determinism + coverage + counter conservation) =="
cargo run --release -p detlint -- check --json results/detlint-report.json

# `--no-deps` lints only the packages named, and `-D warnings` fails the
# step on any warning in them, not only on the deny-level determinism
# rules. The vendored stand-ins keep their upstream code and are not
# linted: proptest, serde, serde_derive, serde_json.
echo "== gate: clippy mirror (determinism rules + no warnings in this repository's packages) =="
cargo clippy -q --no-deps --workspace --all-targets \
    --exclude proptest --exclude serde --exclude serde_derive --exclude serde_json \
    -- -D warnings

# Formatting is gated for the packages formatted so far; ROADMAP.md lists
# the rest of the workspace.
echo "== gate: rustfmt (asyncinv-lab, asyncinv-metrics, -fleet, -dag, -simcore, -servers, -bench, -rt, -obs, -cpu, -tcp, -uring, -workload) =="
cargo fmt --check -p asyncinv-lab -p asyncinv-metrics -p asyncinv-fleet -p asyncinv-dag -p asyncinv-simcore \
    -p asyncinv-servers -p asyncinv-bench -p asyncinv-rt -p asyncinv-obs -p asyncinv-cpu -p asyncinv-tcp \
    -p asyncinv-uring -p asyncinv-workload

echo "== gate: dag scenario (drift check + dag/span audits) =="
cargo run --release -p asyncinv-bench --bin dag_study -- \
    --quick --scenario scenarios/dag_social.json

# Each tracked results/<bin>.txt is the stdout of the release bench
# binary of that name at full fidelity; dag_study also rewrites
# results/dag_study.json, and latency_breakdown (whose stdout is not
# tracked) rewrites results/latency_breakdown.json. ASYNCINV_QUICK would
# shrink the runs, so it is cleared.
echo "== gate: results/ drift (every tracked artifact regenerates byte-identical) =="
for f in $(git ls-files 'results/*.txt'); do
    env -u ASYNCINV_QUICK cargo run -q --release -p asyncinv-bench \
        --bin "$(basename "$f" .txt)" > "$f"
done
env -u ASYNCINV_QUICK cargo run -q --release -p asyncinv-bench --bin latency_breakdown > /dev/null
git diff --exit-code -- results/

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

#!/usr/bin/env bash
# Smoke test: everything a PR must keep green, in one command.
#
#   scripts/smoke.sh
#
# Builds release binaries, runs the static-analysis gate (detlint + the
# clippy mirror), runs the full test suite, reproduces every paper
# artifact at Quick fidelity through the parallel cell runner, and checks
# that the Criterion benches still compile.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== static analysis: detlint (determinism + trace-schema coverage) =="
cargo run --release -p detlint -- check --json results/detlint-report.json

# As in scripts/ci.sh: no warnings in this repository's own packages;
# the vendored stand-ins are not linted.
echo "== static analysis: clippy mirror (disallowed methods/types, no warnings) =="
cargo clippy -q --no-deps --workspace --all-targets \
    --exclude bytes --exclude criterion --exclude proptest \
    --exclude serde --exclude serde_derive --exclude serde_json -- -D warnings

echo "== static analysis: rustfmt (asyncinv-metrics, asyncinv-fleet, asyncinv-dag, asyncinv-simcore, asyncinv-servers) =="
cargo fmt --check -p asyncinv-metrics -p asyncinv-fleet -p asyncinv-dag -p asyncinv-simcore -p asyncinv-servers

echo "== tests =="
cargo test -q

# `--workspace`: a bare `cargo test` runs only the root package's tests,
# not those of crates/* and vendor/*.
echo "== workspace crate tests =="
cargo test -q --workspace --exclude asyncinv-lab

# The pinned-digest fixtures again in the release profile, the build the
# benchmark and results/ use: debug_assert!s are compiled out there and
# integer arithmetic wraps, so a result that leans on either shows here.
echo "== pinned-digest fixtures (release build) =="
cargo test -q --release --test engine_fixture --test fleet_fixture \
    --test dag_fixture --test rubbos_fixture

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

echo "== dag: checked-in social-network scenario, traced + audited =="
cargo run --release -p asyncinv-bench --bin dag_study -- \
    --quick --scenario scenarios/dag_social.json

# Same gate as scripts/ci.sh: each tracked results/<bin>.txt is the
# stdout of that release bench binary at full fidelity, and dag_study and
# latency_breakdown rewrite their tracked JSON.
echo "== results/ drift (every tracked artifact regenerates byte-identical) =="
for f in $(git ls-files 'results/*.txt'); do
    env -u ASYNCINV_QUICK cargo run -q --release -p asyncinv-bench \
        --bin "$(basename "$f" .txt)" > "$f"
done
env -u ASYNCINV_QUICK cargo run -q --release -p asyncinv-bench --bin latency_breakdown > /dev/null
git diff --exit-code -- results/

echo "== kernel bench sweep (quick; asserts runner + fault-plane + spin bit-identity) =="
ASYNCINV_BENCH_OUT="$obs_dir/BENCH_kernel.quick.json" \
    cargo run --release -p asyncinv-bench --bin kernel_bench -- --quick
test -s "$obs_dir/BENCH_kernel.quick.json"

echo "== benchmark tests + seed-1 goldens (every workload's cell digests) =="
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml --bin benchmark -- \
    --repeats 1 --trace 0 --results "$obs_dir/benchmark.json" | tee "$obs_dir/benchmark.out"
# The binary exits 0 even when cells fail; the verdict is the last line.
tail -n 1 "$obs_dir/benchmark.out" | grep -q '^{"correct":true,' \
    || { echo "benchmark goldens: cells failed (see above)"; exit 1; }

echo "== benches compile =="
cargo bench --no-run --workspace

echo "smoke OK"

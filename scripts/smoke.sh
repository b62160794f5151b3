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

echo "== static analysis: clippy mirror (disallowed methods/types) =="
cargo clippy -q --workspace --all-targets

echo "== tests =="
cargo test -q

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

echo "== span audit (causal span trees, all architectures x balancers, both drivers) =="
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

echo "== parallel fleet: conservative-sync driver == interleaved, bitwise =="
cargo test -q --release --test prop_parallel

echo "== dag: single-node reduction + driver invariance + audits =="
cargo test -q --release --test prop_dag

echo "== dag: checked-in social-network scenario, traced + audited =="
cargo run --release -p asyncinv-bench --bin dag_study -- \
    --quick --scenario scenarios/dag_social.json

echo "== schedule explorer: enumerated + shuffled interleavings, bitwise =="
cargo run --release -p asyncinv-bench --bin schedule_explorer -- --quick

echo "== kernel bench sweep (quick; asserts runner + parallel-fleet + fault-plane bit-identity) =="
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
cargo bench --no-run

# Opt-in sanitizer lanes: SMOKE_SANITIZERS=1 scripts/smoke.sh. They need
# the nightly toolchain and add minutes of build time, so they are not
# part of the default lane; the schedule explorer above covers the same
# race surface deterministically on every run.
if [[ "${SMOKE_SANITIZERS:-0}" == "1" ]]; then
    host="$(rustc -vV | sed -n 's/host: //p')"
    if rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        echo "== sanitizer lane: ThreadSanitizer on the parallel-driver suite =="
        # A dedicated target dir keeps the instrumented artifacts out of
        # the normal cache; the explicit --target makes RUSTFLAGS apply
        # only to the test crate graph, not build scripts. std itself is
        # not rebuilt (no rust-src in the container), hence the explicit
        # ABI-mismatch override and the suppressions for std's own
        # uninstrumented channel internals (see scripts/tsan.supp).
        RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
            TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
            CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test --release --target "$host" --test prop_parallel
    else
        echo "== sanitizer lane: nightly toolchain not installed, skipping TSan =="
    fi
    if cargo +nightly miri --version >/dev/null 2>&1; then
        echo "== sanitizer lane: Miri on the schedule unit tests =="
        cargo +nightly miri test -p asyncinv-fleet schedule::
    else
        echo "== sanitizer lane: Miri not installed (offline container), skipping =="
    fi
fi

echo "smoke OK"

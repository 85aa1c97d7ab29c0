#!/usr/bin/env bash
# Hermetic verification: the whole workspace must build, test, and format
# cleanly with the network switched off. CARGO_NET_OFFLINE both enforces
# and documents the zero-external-dependency policy (see README.md) — if
# anyone reintroduces a registry dependency, the first cargo command here
# fails immediately instead of silently fetching.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== format =="
cargo fmt --all --check

echo "== build (release, all targets) =="
cargo build --release --workspace
cargo build --workspace --benches --examples

echo "== tests (debug, whole workspace) =="
cargo test --workspace -q

echo "== reproduction experiments (E1-E26, release) =="
cargo run --release -q -p pmorph-bench --bin repro -- >/dev/null

echo "== end-to-end benchmark unit tests (perfbench) =="
# perfbench is its own Cargo workspace (it builds against the crates by
# path), so the workspace test pass above does not reach it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== release-mode sim semantics (past-event clamp path) =="
# The queue's past-event handling differs by build profile (debug
# asserts, release clamps + counts); the debug leg already ran in the
# workspace test pass above, this runs the release leg.
cargo test --release -q -p pmorph-sim

echo "== observability differential suite =="
# Repro stdout must be byte-identical with PMORPH_OBS unset vs =1 at 1
# and 8 threads, and the PMORPH_OBS_JSON sink must emit a parseable
# metrics block per experiment. Also covers the benchcheck CLI hardening
# (null-median rejection, --baseline regression gate).
cargo test -q -p pmorph-bench --test obs_differential --test benchcheck_cli

echo "== trace differential suite + smoke =="
# Same byte-identity contract for PMORPH_OBS_TRACE at 1 and 8 threads,
# plus schema/coverage checks on the written Chrome trace (span events
# from sim, exec, fpga, and serve; >=2 counter tracks; no file when the
# variable is unset).
cargo test -q -p pmorph-bench --test trace_differential
PMORPH_OBS_TRACE="$(pwd)/target/trace.smoke.json" \
    cargo run --release -q -p pmorph-bench --bin repro -- --fast >/dev/null
test -s target/trace.smoke.json

echo "== kernel bench smoke (short budget) =="
# A fast pass over the kernel suite: exercises every tracked workload
# (including the bitsim/ bit-parallel group with its ≥10× speedup and
# lane-masking checks), the allocation-free steady-state check, and
# benchcheck's validation of the JSON artifact — without paying for a
# full baseline run.
# Absolute sink path: cargo runs the bench binary from crates/bench/.
PMORPH_BENCH_MS=20 PMORPH_BENCH_JSON="$(pwd)/target/BENCH_kernel.smoke.json" \
    cargo bench -q -p pmorph-bench --bench kernel >/dev/null
cargo run -q -p pmorph-bench --bin benchcheck -- target/BENCH_kernel.smoke.json

echo "== hierarchical PnR thread matrix (release) =="
# The hier-vs-flat differential and property suites must hold whether
# the pool defaults to one worker or eight — the partitioned PnR shards
# each candidate's regions over pmorph-exec, so this is the determinism
# contract applied to the newest consumer.
for t in 1 8; do
    PMORPH_THREADS="$t" cargo test --release -q -p pmorph-fpga \
        --test pnr_differential --test pnr_properties
done

echo "== polymorphic synthesis suite (thread matrix) =="
# Bi-decomposed circuits must prove every mode personality by exhaustive
# sharded sweeps with bit-identical recovered masks at 1 and 8 workers,
# and the completeness checker must agree with its brute-force oracle.
for t in 1 8; do
    PMORPH_THREADS="$t" cargo test --release -q -p pmorph-synth \
        --test poly_synthesis --test poly_complete_prop
done

echo "== sweep-engine bench smoke (short budget) =="
# Same treatment for the sharded sweep suite: exercises the sharded vs
# flat legs of E18/E19/fig10, the hier-vs-flat PnR search legs, the
# thread1-vs-N bit-identity checks, and the speedup floors, then
# validates the JSON artifact.
PMORPH_BENCH_MS=20 PMORPH_BENCH_JSON="$(pwd)/target/BENCH_sweeps.smoke.json" \
    cargo bench -q -p pmorph-bench --bench sweeps >/dev/null
cargo run -q -p pmorph-bench --bin benchcheck -- target/BENCH_sweeps.smoke.json \
    sweeps/e18_variation/sharded sweeps/e18_variation/flat \
    sweeps/e19_faults/sharded sweeps/fig10_adder/sharded \
    sweeps/seq_pipeline/sharded \
    sweeps/poly_synth/synth sweeps/poly_synth/verify \
    sweeps/pnr_hier/hier sweeps/pnr_hier/flat

echo "== job-server bench smoke (short budget) =="
# End-to-end over live TCP: submit/drain throughput, artifact-cache
# cold vs hit latency, the tracked ≥5× cache-hit speedup check, and the
# clean-drain check, then benchcheck validation.
PMORPH_BENCH_MS=20 PMORPH_BENCH_JSON="$(pwd)/target/BENCH_serve.smoke.json" \
    cargo bench -q -p pmorph-bench --bench serve >/dev/null
cargo run -q -p pmorph-bench --bin benchcheck -- target/BENCH_serve.smoke.json \
    serve/jobs/http_round_trip serve/cache/cold serve/cache/hit

echo "verify: OK"

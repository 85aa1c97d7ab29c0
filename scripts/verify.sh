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

echo "== clippy (deny-level lints fail the gate) =="
# Warnings stay warnings. A deny-by-default lint is an error, and clippy
# stops at the crate that has it, so it would also leave every crate that
# depends on that one unchecked.
cargo clippy --workspace --all-targets

echo "== build (release, all targets) =="
cargo build --release --workspace
cargo build --workspace --benches --examples

echo "== rustdoc (warnings are errors) =="
# A dangling intra-doc link, or public docs linking a private item, is
# only a rustdoc warning; this step makes it fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tests (debug, whole workspace) =="
cargo test --workspace -q

echo "== reproduction experiments (E1-E26, release) =="
cargo run --release -q -p pmorph-bench --bin repro -- >/dev/null

echo "== end-to-end benchmark unit tests (perfbench) =="
# perfbench is its own Cargo workspace (it builds against the crates by
# path), so the workspace test pass above does not reach it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== release-mode sim semantics, bench timer and bit-for-bit oracles =="
# The queue's past-event handling differs by build profile (debug
# asserts, release clamps + counts); the debug leg already ran in the
# workspace test pass above, this runs the release leg. The microbench
# timer's tests run here too: only an optimised build times routines
# faster than a nanosecond per iteration. The device and synth suites
# hold the solvers and the completeness closure to their oracles bit for
# bit, and the core and fpga suites hold the defect sampler's integer
# draw test and the LUT-indexed router and timer to theirs, so they run
# on the optimised build that `repro` and the server ship as well.
cargo test --release -q -p pmorph-sim -p pmorph-util -p pmorph-device -p pmorph-synth \
    -p pmorph-core -p pmorph-fpga

echo "== trace smoke =="
# The observability and trace differential suites (repro stdout
# byte-identical with PMORPH_OBS / PMORPH_OBS_TRACE unset vs set) and the
# benchcheck CLI tests ran in the workspace test pass above, and the two
# differentials run again in release in the thread matrix below. This
# leg only checks that a real repro run writes a non-empty trace file.
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

echo "== thread-matrix suites (PMORPH_THREADS 1 and 8) =="
# The determinism contract under the env-derived worker count: the
# exec, bitsim, PnR, poly-synthesis, serve and obs/trace differential
# suites, the perfbench unit tests and the sweeps bench smoke must hold
# whether the pool defaults to one worker or eight.
for t in 1 8; do
    ./scripts/thread_matrix.sh "$t"
done

echo "== sweep-engine bench smoke (short budget) =="
# Same treatment for the sharded sweep suite at the default worker
# count: exercises the sharded vs serial E18/E19/fig10/seq legs, the
# hier-vs-flat PnR search legs, the thread1-vs-N bit-identity checks,
# and the speedup floors, then validates the JSON artifact.
PMORPH_BENCH_MS=20 PMORPH_BENCH_JSON="$(pwd)/target/BENCH_sweeps.smoke.json" \
    cargo bench -q -p pmorph-bench --bench sweeps >/dev/null
cargo run -q -p pmorph-bench --bin benchcheck -- target/BENCH_sweeps.smoke.json

echo "== job-server bench smoke (short budget) =="
# End-to-end over live TCP: submit/drain throughput, artifact-cache
# cold vs hit latency, the tracked ≥5× cache-hit speedup check, and the
# clean-drain check, then benchcheck validation.
PMORPH_BENCH_MS=20 PMORPH_BENCH_JSON="$(pwd)/target/BENCH_serve.smoke.json" \
    cargo bench -q -p pmorph-bench --bench serve >/dev/null
cargo run -q -p pmorph-bench --bin benchcheck -- target/BENCH_serve.smoke.json

echo "verify: OK"

#!/usr/bin/env bash
# The thread-matrix suites: every differential, property and bench-smoke
# run that must give the same results whether the sweep pool defaults to
# one worker or many. Run it once per worker count:
#
#   ./scripts/thread_matrix.sh 1
#   ./scripts/thread_matrix.sh 8
#
# CI's thread-matrix job and scripts/verify.sh both call it at 1 and 8,
# so this file is the one list of these suites.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <threads>" >&2
    exit 2
fi
export PMORPH_THREADS="$1"
export CARGO_NET_OFFLINE=true

echo "== exec differential suite (PMORPH_THREADS=$PMORPH_THREADS) =="
# the engine's matrix suite, the kernels' differential properties, and
# the experiments' unit tests, where E18's, E19's and Fig. 10's sharded
# runs meet their serial and event-driven oracles
cargo test --release -p pmorph-exec
cargo test --release -p pmorph-bench --lib
cargo test --release -p pmorph-core --test faults_determinism
cargo test --release -p pmorph-sim --test snapshot_prop
cargo test --release -p pmorph-sim --test bitsim_differential
cargo test --release -p pmorph-sim --test bitsim_seq_differential
cargo test --release -p pmorph-sim --test seq_obs

echo "== hierarchical PnR differential suite (PMORPH_THREADS=$PMORPH_THREADS) =="
# hier-vs-flat legality equivalence plus search-result bit-identity
# across worker counts and partition counts, and the search's sweep
# structure (one item per candidate, one sweep per search)
cargo test --release -p pmorph-fpga --test pnr_differential
cargo test --release -p pmorph-fpga --test pnr_obs
cargo test --release -p pmorph-fpga --test pnr_properties

echo "== observability differential suite (PMORPH_THREADS=$PMORPH_THREADS) =="
# repro stdout must not move a byte when metrics are recorded,
# regardless of the worker count the environment dictates
cargo test --release -p pmorph-bench --test obs_differential

echo "== trace differential suite (PMORPH_THREADS=$PMORPH_THREADS) =="
# the same byte-identity contract for the Chrome-trace sink, plus schema
# and subsystem-coverage checks on the written trace
cargo test --release -p pmorph-bench --test trace_differential

echo "== polymorphic synthesis suite (PMORPH_THREADS=$PMORPH_THREADS) =="
# every synthesized circuit's personalities proven by exhaustive sharded
# sweeps, with recovered masks bit-identical across the matrix, plus the
# completeness checker vs its brute-force oracle
cargo test --release -p pmorph-synth --test poly_synthesis
cargo test --release -p pmorph-synth --test poly_complete_prop

echo "== job-server suite (PMORPH_THREADS=$PMORPH_THREADS) =="
# e2e protocol + registry property tests, plus the determinism suite's
# cold/cached byte-identity (the suite also flips PMORPH_THREADS
# internally via EnvGuard; running the whole binary at both matrix
# points covers the server's own pool sizing too)
cargo test --release -p pmorph-serve

echo "== end-to-end benchmark unit tests (PMORPH_THREADS=$PMORPH_THREADS) =="
# perfbench is its own Cargo workspace, so the workspace test runs never
# reach it; its in-process ledger runs the sweeps
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== sweeps bench smoke (PMORPH_THREADS=$PMORPH_THREADS) =="
# Absolute sink path: cargo runs the bench binary from crates/bench/.
PMORPH_BENCH_MS=20 PMORPH_BENCH_JSON="$(pwd)/target/BENCH_sweeps.smoke.json" \
    cargo bench -q -p pmorph-bench --bench sweeps
cargo run -q -p pmorph-bench --bin benchcheck -- target/BENCH_sweeps.smoke.json

#!/usr/bin/env bash
# Regenerate the tracked perf baselines.
#
# Runs the `kernel` bench suite (release/bench profile) with the JSON sink
# pointed at BENCH_kernel.json in the repo root, then the `sweeps` suite
# (sharded sweep engine vs 1-worker runs, hier vs flat PnR) into
# BENCH_sweeps.json, then the `serve` suite (job-server end-to-end
# throughput and artifact-cache cold/hit latency over live TCP) into
# BENCH_serve.json, and validates each artifact with `benchcheck`
# (structure, positive medians, the throughput workloads the suite
# itself declares in the artifact's `required` array, and every recorded
# pass/fail check — allocation-free steady state, the bitsim/ group's
# ≥10× bit-parallel speedup over the scalar levelized sweep and its
# partial-word lane masking for the kernel; bit-identity, the
# core-scaled sharded-vs-serial speedup floor, the polymorphic synthesis
# proof sweeps' thread bit-identity, and the hierarchical PnR's thread
# bit-identity and ≥1.2× search speedup over the flat flow for the
# sweeps; the ≥5× content-addressed cache-hit speedup and clean drain
# for the serve suite).
#
# Budget: PMORPH_BENCH_MS per benchmark (default 300 ms). CI runs a short
# smoke (PMORPH_BENCH_MS=20) via scripts/verify.sh; for a baseline worth
# committing, run this on an idle machine with the default budget or more:
#
#   ./scripts/bench.sh                 # default 300 ms/bench
#   PMORPH_BENCH_MS=1000 ./scripts/bench.sh
#
# Observability overhead gate: the kernel suite runs with PMORPH_OBS
# *unset* (the disabled path), and the fresh artifact is compared against
# the previously tracked BENCH_kernel.json with `benchcheck --baseline` —
# a disabled-path median drifting more than PMORPH_OBS_REGRESS_PCT
# (default 10%) fails the script before the baseline is overwritten. The
# kernel suite itself additionally records the in-process enabled/disabled
# ratio check (kernel/obs_overhead), which benchcheck then enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# The bench suites measure the *disabled* observability path; force the
# gate off even if the caller's shell has it exported.
unset PMORPH_OBS PMORPH_OBS_JSON
# Absolute paths: cargo runs the bench binaries from the crate directory,
# so relative sink paths would land in crates/bench/ instead of the root.
KERNEL_OUT="$(pwd)/${PMORPH_BENCH_JSON:-BENCH_kernel.json}"
SWEEPS_OUT="$(pwd)/${PMORPH_SWEEPS_JSON:-BENCH_sweeps.json}"
SERVE_OUT="$(pwd)/${PMORPH_SERVE_JSON:-BENCH_serve.json}"
OBS_REGRESS_PCT="${PMORPH_OBS_REGRESS_PCT:-10}"

# Stash the tracked kernel baseline before the sink overwrites it, so the
# fresh run can be gated against it.
KERNEL_PREV=""
if [ -f "$KERNEL_OUT" ]; then
    KERNEL_PREV="$(mktemp)"
    cp "$KERNEL_OUT" "$KERNEL_PREV"
fi

echo "== kernel bench suite (budget ${PMORPH_BENCH_MS:-300} ms/bench, obs disabled) =="
PMORPH_BENCH_JSON="$KERNEL_OUT" cargo bench -q -p pmorph-bench --bench kernel

echo "== sweeps bench suite (budget ${PMORPH_BENCH_MS:-300} ms/bench) =="
PMORPH_BENCH_JSON="$SWEEPS_OUT" cargo bench -q -p pmorph-bench --bench sweeps

echo "== serve bench suite (budget ${PMORPH_BENCH_MS:-300} ms/bench) =="
PMORPH_BENCH_JSON="$SERVE_OUT" cargo bench -q -p pmorph-bench --bench serve

echo "== validate $KERNEL_OUT =="
if [ -n "$KERNEL_PREV" ]; then
    echo "   (obs-overhead gate: disabled-path medians within ${OBS_REGRESS_PCT}% of previous baseline)"
    cargo run -q -p pmorph-bench --bin benchcheck -- "$KERNEL_OUT" \
        --baseline "$KERNEL_PREV" --max-regress-pct "$OBS_REGRESS_PCT"
    rm -f "$KERNEL_PREV"
else
    cargo run -q -p pmorph-bench --bin benchcheck -- "$KERNEL_OUT"
fi

echo "== validate $SWEEPS_OUT =="
cargo run -q -p pmorph-bench --bin benchcheck -- "$SWEEPS_OUT"

echo "== validate $SERVE_OUT =="
cargo run -q -p pmorph-bench --bin benchcheck -- "$SERVE_OUT"

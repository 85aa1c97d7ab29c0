//! Thread-matrix differential suite for the sharded sweep engine.
//!
//! Every ported call site (E18 variation Monte-Carlo, E19 defect-yield
//! curves, the Fig. 10 adder vector sweep) is run across the full worker
//! × shard-size matrix and demanded bit-identical to its own 1-worker
//! run (E18's per-sample serial oracle and E19's and Fig. 10's
//! event-driven oracles are unit tests beside the code they check). This
//! is the enforcement arm of the exec determinism contract: result bits
//! may depend only on item index and caller seeds, never on scheduling
//! geometry.
//!
//! Worker counts are pinned with [`SweepConfig::with_workers`] so the
//! matrix is exercised regardless of the `PMORPH_THREADS` the harness
//! happens to run under; the CI thread-matrix leg additionally runs the
//! whole suite at `PMORPH_THREADS={1,8}` to cover the env-derived
//! default path.

use pmorph_bench::experiments::extensions::defect_yield_curves;
use pmorph_bench::experiments::fabric_figs::{fig10_adder_check, fig10_adder_vectors};
use pmorph_device::variation::{run_study_cfg, VariationModel};
use pmorph_exec::SweepConfig;
use pmorph_util::env::EnvGuard;

const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// The worker × shard-size matrix for an `n`-item sweep: shard sizes
/// {1, 7, 64, n} cover one-item shards, odd non-dividing shards, shards
/// larger than most sweeps, and the single-shard (serial-path) extreme.
fn matrix(n: usize) -> Vec<SweepConfig> {
    let mut cfgs = Vec::new();
    for &w in &WORKERS {
        for &s in &[1usize, 7, 64, n.max(1)] {
            cfgs.push(SweepConfig::new().with_workers(w).with_shard_size(s));
        }
    }
    cfgs
}

#[test]
fn e18_variation_study_is_identical_across_the_thread_matrix() {
    let samples = 56;
    for model in [VariationModel::doped_bulk(), VariationModel::undoped_dg()] {
        let serial = SweepConfig::new().with_workers(1);
        let base = run_study_cfg(model, samples, 42, 0.4, 0.6, &serial);
        for cfg in matrix(samples) {
            let got = run_study_cfg(model, samples, 42, 0.4, 0.6, &cfg);
            assert_eq!(
                got, base,
                "E18 diverged at workers={:?} shard={}",
                cfg.workers, cfg.shard_size
            );
        }
    }
}

#[test]
fn e19_defect_yield_curves_are_identical_across_the_thread_matrix() {
    let trials = 6;
    let base = defect_yield_curves(trials, &SweepConfig::new().with_workers(1));
    assert_eq!(base.len(), 3, "three defect rates per curve set");
    for cfg in matrix(trials) {
        let got = defect_yield_curves(trials, &cfg);
        assert_eq!(got, base, "E19 diverged at workers={:?} shard={}", cfg.workers, cfg.shard_size);
    }
}

#[test]
fn fig10_adder_vector_sweep_is_identical_across_the_thread_matrix() {
    let vectors = fig10_adder_vectors(20);
    let base = fig10_adder_check(&vectors, &SweepConfig::new().with_workers(1));
    assert!(base.iter().all(|&ok| ok), "reference adder run must pass every vector");
    for cfg in matrix(vectors.len()) {
        let got = fig10_adder_check(&vectors, &cfg);
        assert_eq!(
            got, base,
            "fig10 diverged at workers={:?} shard={}",
            cfg.workers, cfg.shard_size
        );
    }
}

#[test]
fn env_derived_worker_count_is_differential_too() {
    // The env-default path (`SweepConfig::new()` with no pinned workers
    // resolves `PMORPH_THREADS` at sweep time) covered in-process: the
    // scoped EnvGuard swaps the variable per run and restores it after,
    // no subprocess per thread count. All three converted workloads —
    // E18, E19, fig10 — must match their pinned serial references
    // bit-for-bit under every env-derived worker count.
    let samples = 40;
    let model = VariationModel::doped_bulk();
    let e18_serial =
        run_study_cfg(model, samples, 42, 0.4, 0.6, &SweepConfig::new().with_workers(1));
    let trials = 6;
    let e19_serial = defect_yield_curves(trials, &SweepConfig::new().with_workers(1));
    let vectors = fig10_adder_vectors(20);
    let fig10_serial = fig10_adder_check(&vectors, &SweepConfig::new().with_workers(1));
    for threads in ["1", "3", "8"] {
        let mut guard = EnvGuard::new();
        guard.set("PMORPH_THREADS", threads);
        let e18 = run_study_cfg(model, samples, 42, 0.4, 0.6, &SweepConfig::new());
        assert_eq!(e18, e18_serial, "E18 env-derived run diverged at PMORPH_THREADS={threads}");
        let e19 = defect_yield_curves(trials, &SweepConfig::new());
        assert_eq!(e19, e19_serial, "E19 env-derived run diverged at PMORPH_THREADS={threads}");
        let f10 = fig10_adder_check(&vectors, &SweepConfig::new());
        assert_eq!(f10, fig10_serial, "fig10 env-derived run diverged at PMORPH_THREADS={threads}");
    }
}

#[test]
fn fig10_vectors_match_the_historical_draw_stream() {
    // The pre-drawn vector list must be a pure prefix property: asking
    // for fewer trials yields a prefix of the longer stream (same serial
    // RNG), so scaled runs stay comparable.
    let short = fig10_adder_vectors(5);
    let long = fig10_adder_vectors(20);
    assert_eq!(&long[..5], &short[..]);
    assert!(long.iter().all(|&(a, b)| a < 256 && b < 256));
}

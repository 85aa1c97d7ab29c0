//! # pmorph-exec — deterministic sharded sweep engine
//!
//! Every quantitative claim in the paper comes from a *sweep*: Monte-Carlo
//! threshold variation (§3, E18), defect-tolerance yield curves (E19),
//! multi-vector fabric characterization (Fig. 10, `pmorph_sim::vectors`),
//! and placement scoring in the FPGA baseline. This crate is the one
//! engine they all run on.
//!
//! ## The shard determinism contract
//!
//! [`sweep`] splits an indexed workload `0..n` into fixed-size shards,
//! runs the shards on a scoped worker pool with work-stealing over a
//! shared atomic shard cursor, and returns results **in index order** —
//! the reduction is order-independent under any scheduling, but the
//! output is deterministic. The calling thread is worker 0, so a sweep
//! spawns only `workers − 1` helper threads (none with one worker or one
//! shard). Three rules make the whole stack bit-reproducible:
//!
//! 1. **Results may depend only on the item index** (and the caller's
//!    explicit seeds). A call site that needs randomness derives it per
//!    item — `mix_seed(seed, i)` — never from worker identity, shard
//!    identity, or a stream consumed across items. This is what makes
//!    results identical at any worker count *and any shard size*.
//! 2. **Shard seeds are keyed by shard index, not worker identity.**
//!    [`ShardInfo::seed`] is `mix_seed(config_seed, shard_index)`; it is
//!    scheduling-independent, and auxiliary (diagnostics, per-shard
//!    jitter). Because it changes with the shard geometry, result bits
//!    must never be derived from it.
//! 3. **Per-worker state is reused, never shared.** A [`ShardCtx`] is
//!    built once per worker and carried across the shards that worker
//!    steals — the mechanism that lets a vector sweep clone one compiled
//!    [`Simulator`](../pmorph_sim/struct.Simulator.html) per worker and
//!    `snapshot`/`restore` between vectors instead of rebuilding per
//!    sample. The engine's contract with the context is *restore ≡
//!    fresh*: running an item in a reused context must be bit-identical
//!    to running it in a brand-new one.
//!
//! ## Adding a sweep
//!
//! ```
//! use pmorph_exec::{sweep, SweepConfig};
//! use pmorph_util::rng::{mix_seed, Rng, StdRng};
//!
//! let cfg = SweepConfig::new().with_seed(42);
//! let out = sweep(1000, &cfg, || (), |_, item| {
//!     // rule 1: randomness comes from the item index alone
//!     let mut rng = StdRng::seed_from_u64(mix_seed(42, item.index as u64));
//!     rng.random::<f64>()
//! });
//! assert_eq!(out.results.len(), 1000);
//! // same bits at any worker count or shard size:
//! let serial = sweep(1000, &cfg.clone().with_workers(1).with_shard_size(7), || (), |_, item| {
//!     let mut rng = StdRng::seed_from_u64(mix_seed(42, item.index as u64));
//!     rng.random::<f64>()
//! });
//! assert_eq!(out.results, serial.results);
//! ```
//!
//! For expensive per-worker state, implement [`ShardCtx`] on the state
//! type (or use the blanket `()` impl for stateless sweeps) and build it
//! in the `make_ctx` closure.
//!
//! [`SweepStats`] carries per-shard timing/progress counters and renders
//! a `PMORPH_BENCH_JSON`-compatible record via
//! [`SweepStats::bench_record`] — the mechanism behind the tracked
//! `BENCH_sweeps.json` baseline.

#![warn(missing_docs)]

pub mod stats;
pub mod sweep;

pub use stats::{ShardStat, SweepStats};
pub use sweep::{sweep, ItemCtx, ShardCtx, ShardInfo, SweepConfig, SweepOutcome};

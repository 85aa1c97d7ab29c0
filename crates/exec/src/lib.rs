//! # pmorph-exec — deterministic sharded sweep engine
//!
//! Every quantitative claim in the paper comes from a *sweep*: Monte-Carlo
//! threshold variation (§3, E18), defect-tolerance yield curves (E19),
//! multi-vector fabric characterization (Fig. 10, `pmorph_sim::vectors`),
//! and placement scoring in the FPGA baseline. This crate is the one
//! engine they all run on, and the workspace's only thread pool.
//!
//! ## The shard determinism contract
//!
//! [`sweep`] splits an indexed workload `0..n` into fixed-size shards,
//! runs the shards on worker threads with work-stealing over a shared
//! atomic shard cursor, and returns results **in index order** — the
//! reduction is order-independent under any scheduling, but the output
//! is deterministic. The calling thread is worker 0, so a sweep asks for
//! only `workers − 1` helper threads (none with one worker or one
//! shard). Two rules make the whole stack bit-reproducible:
//!
//! 1. **Results may depend only on the item index** (and the caller's
//!    explicit seeds). The item closure receives the index and nothing
//!    about the shard or worker running it. A call site that needs
//!    randomness derives it per item — `mix_seed(seed, i)` — never from
//!    a stream consumed across items. This is what makes results
//!    identical at any worker count *and any shard size*.
//! 2. **Per-worker state is reused, never shared.** The `make_ctx`
//!    closure builds one context per worker, carried across the shards
//!    that worker steals — the mechanism that lets a vector sweep clone
//!    one compiled
//!    [`Simulator`](../pmorph_sim/struct.Simulator.html) per worker and
//!    `snapshot`/`restore` between vectors instead of rebuilding per
//!    sample. The engine's contract with the context is *restore ≡
//!    fresh*: running an item in a reused context must be bit-identical
//!    to running it in a brand-new one.
//!
//! ## Helper threads
//!
//! Helpers are reused across sweeps. A sweep takes each one from a
//! process-wide park of idle helper threads and spawns a thread only
//! when none is parked, so nested and concurrent sweeps never wait for
//! a helper and cannot deadlock. A helper parks again before it signals
//! that its sweep is done, so a back-to-back sweep finds it parked (the
//! `exec.helpers_spawned` counter shows the spawns); at most a fixed
//! number stay parked, and the rest exit. Once the caller has drained
//! the shard cursor it revokes the helpers that have not started yet
//! and waits only for the ones that did. Every worker runs under
//! `catch_unwind`: the caller waits for every started helper, then
//! resumes the first panic payload, and the park stays usable. None of
//! this reaches results, which still depend only on the item index.
//!
//! ## Adding a sweep
//!
//! ```
//! use pmorph_exec::{sweep, SweepConfig};
//! use pmorph_util::rng::{mix_seed, Rng, StdRng};
//!
//! // rule 1: randomness comes from the item index alone
//! let draw = |_: &mut (), i: usize| StdRng::seed_from_u64(mix_seed(42, i as u64)).random::<f64>();
//! let out = sweep(1000, &SweepConfig::new(), || (), draw);
//! assert_eq!(out.len(), 1000);
//! // same bits at any worker count or shard size, and as a serial loop:
//! let cfg = SweepConfig::new().with_workers(3).with_shard_size(7);
//! assert_eq!(out, sweep(1000, &cfg, || (), draw));
//! assert_eq!(out, (0..1000).map(|i| draw(&mut (), i)).collect::<Vec<_>>());
//! ```
//!
//! Build expensive per-worker state in the `make_ctx` closure (`|| ()`
//! for stateless sweeps). A new sweep gets a differential test against a
//! plain serial loop in test code, run across the worker × shard-size
//! matrix (`tests/differential.rs`). `tests/obs.rs` pins the `exec.*`
//! metrics each sweep records.

#![warn(missing_docs)]

mod park;
mod sweep;

pub use sweep::{sweep, SweepConfig};

//! # pmorph-util
//!
//! Zero-dependency shared infrastructure for the polymorphic-hw
//! workspace. This crate exists so the reproduction builds and tests
//! **fully offline from a bare Rust toolchain**: it replaces every
//! crates-io dependency the workspace previously declared.
//!
//! | module | replaces | contents |
//! |---|---|---|
//! | [`rng`] | `rand` | splitmix64-seeded xoshiro256++, `random`/`random_range`/`shuffle`/normal sampling |
//! | [`json`] | `serde`/`serde_json` | derive-free JSON value, pretty serializer, parser |
//! | [`pool`] | `rayon` (with `pmorph_exec`) | the `PMORPH_THREADS` worker count; the threads live in `pmorph_exec::sweep` |
//! | [`prop`] | `proptest` | seeded property harness, fixed case counts, failing-seed reports |
//! | [`microbench`] | `criterion` | adaptive-batch wall-clock timer with a criterion-shaped API |
//! | [`hash`] | `fnv`/`twox-hash` | streaming FNV-1a 64 for content-addressed cache keys |
//! | [`env`](mod@env) | `temp-env` | scoped, lock-serialised environment overrides for tests |
//!
//! Policy (see README/DESIGN): no crate in this workspace may declare a
//! non-path dependency; `pmorph-util` is the only allowed shared-infra
//! crate, and it depends on `std` alone. Determinism is a correctness
//! requirement — every random stream must come from [`rng::StdRng`] with
//! an explicit seed, and parallel sampling must seed per item via
//! [`rng::mix_seed`] so threading never changes results.

#![warn(missing_docs)]

pub mod env;
pub mod hash;
pub mod json;
pub mod microbench;
pub mod pool;
pub mod prop;
pub mod rng;

//! The sharded sweep engine proper.

use crate::park;
use pmorph_util::pool;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How a sweep is split and scheduled. Results never depend on either
/// knob (see the crate-level determinism contract); they only trade
/// scheduling granularity against per-shard overhead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepConfig {
    /// Items per shard; `0` picks a size automatically (a few shards per
    /// worker, so work-stealing can balance uneven item costs).
    pub shard_size: usize,
    /// Worker threads; `None` uses [`pool::worker_count`] (the
    /// `PMORPH_THREADS` override, else available parallelism).
    pub workers: Option<usize>,
}

impl SweepConfig {
    /// Default configuration: automatic shard size, pool worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the shard size (`0` = automatic).
    pub fn with_shard_size(mut self, size: usize) -> Self {
        self.shard_size = size;
        self
    }

    /// Set an explicit worker count (bypasses `PMORPH_THREADS`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The `(workers, shard size)` this configuration resolves to for
    /// `n` items. The worker count is read once (it may come from the
    /// environment); the shard size is explicit if non-zero, else
    /// `ceil(n / (4 · workers))` so each worker sees a handful of shards
    /// to steal.
    fn resolve(&self, n: usize) -> (usize, usize) {
        let workers = self.workers.unwrap_or_else(pool::worker_count).clamp(1, n.max(1));
        let shard_size =
            if self.shard_size > 0 { self.shard_size } else { n.div_ceil(4 * workers).max(1) };
        (workers, shard_size)
    }
}

/// Run `f` over items `0..n` in fixed-size shards on worker threads,
/// returning one result per item in index order.
///
/// Workers claim shards from a shared atomic cursor (work-stealing:
/// whoever is free takes the next shard), build one `W` each via
/// `make_ctx` on their first shard, and reuse it across the shards they
/// claim. The calling thread is worker 0; the other `workers − 1` (fewer
/// when there are fewer shards) are helper threads taken from a
/// process-wide park of idle helpers, spawned only when none is parked,
/// so a one-worker or one-shard sweep runs inline with no helper at all
/// — same bits either way. Once the caller has drained the cursor it
/// revokes the helpers that have not started yet and waits only for the
/// ones that did, which then park again for the next sweep. A panic in
/// any worker is resumed on the caller after every started helper has
/// finished, and leaves the park usable.
pub fn sweep<W, U, M, F>(n: usize, cfg: &SweepConfig, make_ctx: M, f: F) -> Vec<U>
where
    U: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> U + Sync,
{
    let t0 = Instant::now();
    // Resolved once: the observability gate is process-global and cheap,
    // but the worker loop should not even branch per shard on it.
    let obs_on = pmorph_obs::enabled();
    let trace_on = pmorph_obs::trace::enabled();
    let (workers, shard_size) = cfg.resolve(n);
    let shards = n.div_ceil(shard_size);

    // Lock-free result slots: each index is written by exactly one worker
    // (the one whose claimed shard covers it), so plain `UnsafeCell`
    // writes are race-free.
    struct Slots<U>(Vec<UnsafeCell<Option<U>>>);
    // SAFETY: shared across worker threads, but each cell is written at
    // most once, by the single thread that claimed the covering shard via
    // `fetch_add`; reads happen only after `park::run` returns, which is
    // after every helper that started has finished (worker 0 runs on the
    // caller's thread inside the same call).
    unsafe impl<U: Send> Sync for Slots<U> {}

    let slots: Slots<U> = Slots((0..n).map(|_| UnsafeCell::new(None)).collect());
    let slots_ref = &slots;
    // Each worker's `(busy ns, items)`, handed back once when it runs out
    // of shards — only when the metrics layer is on.
    let loads = Mutex::new(Vec::new());

    let cursor = AtomicUsize::new(0);
    let run_worker = || {
        let mut ctx: Option<W> = None;
        let (mut busy_ns, mut items) = (0u64, 0usize);
        loop {
            // Claim latency: how long the shared-cursor claim takes under
            // contention. Clock reads only when the layer is on — results
            // never depend on them either way.
            let claim_t = obs_on.then(Instant::now);
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= shards {
                break;
            }
            if let Some(t) = claim_t {
                pmorph_obs::histogram!("exec.claim_ns", pmorph_obs::bounds::TIME_NS)
                    .observe(t.elapsed().as_nanos() as u64);
            }
            let (start, end) = (s * shard_size, (s * shard_size + shard_size).min(n));
            let st = Instant::now();
            let ctx = ctx.get_or_insert_with(&make_ctx);
            for i in start..end {
                let out = f(ctx, i);
                // SAFETY: shard `s` (hence index `i`) was claimed
                // exclusively above; `park::run`'s wait for finished
                // helpers orders this write before the caller's reads.
                unsafe { *slots_ref.0[i].get() = Some(out) };
            }
            let shard_ns = st.elapsed().as_nanos() as u64;
            busy_ns += shard_ns;
            items += end - start;
            if obs_on {
                pmorph_obs::histogram!("exec.shard_ns", pmorph_obs::bounds::TIME_NS)
                    .observe(shard_ns);
            }
            if trace_on {
                // On the running thread's own track: helper threads are
                // reused across sweeps, so each keeps one named track.
                pmorph_obs::trace::complete("exec.shard", "exec", st, shard_ns);
                let claimed = cursor.load(Ordering::Relaxed).min(shards);
                pmorph_obs::trace::counter("exec.shards_remaining", (shards - claimed) as f64);
            }
        }
        if obs_on {
            loads.lock().expect("no worker panics holding the lock").push((busy_ns, items));
        }
    };
    // The caller is worker 0; helpers only for the rest, and none past
    // the shard count (a helper with no shard to claim is pure cost).
    let spawned = park::run(workers.min(shards), &run_worker);

    let merge_t = obs_on.then(Instant::now);
    let results = slots
        .0
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect();
    if let Some(t) = merge_t {
        pmorph_obs::span!("exec.sweep.merge").record_ns(t.elapsed().as_nanos() as u64);
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    if trace_on {
        pmorph_obs::trace::complete("exec.sweep", "exec", t0, elapsed_ns);
    }
    if obs_on {
        let mut loads = loads.into_inner().expect("no worker panics holding the lock");
        // Workers never spawned (more workers than shards) count as idle.
        loads.resize(workers, (0, 0));
        obs_flush_sweep(n, shards, elapsed_ns, &loads, spawned);
    }
    results
}

/// Export one completed sweep's diagnostics to the observability layer.
/// Write-only side channel: results are already fixed by the time this
/// runs, so the sweep's bits are identical with the layer on or off.
fn obs_flush_sweep(
    items: usize,
    shards: usize,
    elapsed_ns: u64,
    loads: &[(u64, usize)],
    helpers_spawned: usize,
) {
    pmorph_obs::counter!("exec.sweep.runs").inc();
    pmorph_obs::counter!("exec.helpers_spawned").add(helpers_spawned as u64);
    pmorph_obs::counter!("exec.sweep.items").add(items as u64);
    pmorph_obs::counter!("exec.sweep.shards").add(shards as u64);
    pmorph_obs::span!("exec.sweep").record_ns(elapsed_ns);
    if shards == 0 {
        return;
    }
    // Per-worker load and the steal-imbalance ratio: busiest worker's busy
    // nanoseconds over the mean (1.0 = a perfect split; large values mean
    // the shard size is too coarse for stealing to balance).
    const ITEM_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];
    let h = pmorph_obs::histogram!("exec.worker_items", ITEM_BOUNDS);
    for &(_, wi) in loads {
        h.observe(wi as u64);
    }
    let total: u64 = loads.iter().map(|&(ns, _)| ns).sum();
    let max = loads.iter().map(|&(ns, _)| ns).max().unwrap_or(0);
    if total > 0 {
        let mean = total as f64 / loads.len() as f64;
        pmorph_obs::gauge!("exec.sweep.imbalance").set_max(max as f64 / mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_util::rng::{mix_seed, Rng, StdRng};

    fn seeded_item(seed: u64, i: usize) -> u64 {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
        rng.random::<u64>()
    }

    #[test]
    fn results_land_in_index_order() {
        let cfg = SweepConfig::new().with_workers(4).with_shard_size(3);
        let out = sweep(100, &cfg, || (), |_, i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn bits_identical_across_workers_and_shard_sizes() {
        let reference: Vec<u64> = (0..97).map(|i| seeded_item(7, i)).collect();
        for workers in [1usize, 2, 3, 8] {
            for shard_size in [1usize, 7, 64, 97] {
                let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard_size);
                let out = sweep(97, &cfg, || (), |_, i| seeded_item(7, i));
                assert_eq!(out, reference, "workers={workers} shard_size={shard_size} diverged");
            }
        }
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let cfg = SweepConfig::new().with_workers(8);
        let empty = sweep(0, &cfg, || (), |_, i| i);
        assert!(empty.is_empty());
        let one = sweep(1, &cfg, || (), |_, i| i + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let cfg = SweepConfig::new().with_workers(3).with_shard_size(7);
        sweep(50, &cfg, || (), |_, i| calls[i].fetch_add(1, Ordering::Relaxed));
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1), "one call per index");
    }

    #[test]
    fn contexts_built_at_most_once_per_worker_and_reused() {
        let built = AtomicUsize::new(0);
        let cfg = SweepConfig::new().with_workers(2).with_shard_size(5);
        let seen = sweep(
            60,
            &cfg,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |items_seen, _| {
                *items_seen += 1;
                *items_seen
            },
        );
        assert!(built.load(Ordering::Relaxed) <= 2, "at most one context per worker");
        // 12 shards over at most 2 contexts: one context ran ≥ 6 shards.
        assert!(seen.iter().max() >= Some(&30), "a context carried across shards");
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        // With one worker the sweep runs on the calling thread, so a
        // non-Send-hostile marker observed via thread id must match.
        let caller = std::thread::current().id();
        let cfg = SweepConfig::new().with_workers(1).with_shard_size(4);
        let out = sweep(16, &cfg, || (), |_, _| std::thread::current().id());
        assert!(out.iter().all(|&id| id == caller), "serial path stayed inline");
    }

    #[test]
    fn caller_thread_is_worker_zero() {
        // One single-item shard per worker, each held at a barrier sized
        // to the worker count: all `w` workers must hold a shard at once,
        // so the participants are exactly the worker threads.
        let w = 4;
        let barrier = std::sync::Barrier::new(w);
        let cfg = SweepConfig::new().with_workers(w).with_shard_size(1);
        let out = sweep(
            w,
            &cfg,
            || (),
            |_, _| {
                barrier.wait();
                std::thread::current().id()
            },
        );
        let participants: std::collections::HashSet<_> = out.iter().copied().collect();
        assert_eq!(participants.len(), w, "each worker held one shard");
        assert!(
            participants.contains(&std::thread::current().id()),
            "the calling thread runs as worker 0"
        );
    }

    #[test]
    fn auto_shard_size_gives_stealable_granularity() {
        let cfg = SweepConfig::new().with_workers(4);
        assert_eq!(cfg.resolve(1600).1, 100);
        assert!(cfg.resolve(3).1 >= 1);
    }

    #[test]
    fn nested_sweeps_match_the_serial_double_loop() {
        let inner = SweepConfig::new().with_workers(8).with_shard_size(1);
        let reference: Vec<Vec<u64>> =
            (0..12).map(|i| (0..16).map(|j| seeded_item(i, j)).collect()).collect();
        for workers in [1usize, 2, 8] {
            let outer = SweepConfig::new().with_workers(workers).with_shard_size(1);
            let out = sweep(
                12,
                &outer,
                || (),
                |_, i| sweep(16, &inner, || (), |_, j| seeded_item(i as u64, j)),
            );
            assert_eq!(out, reference, "outer workers={workers} diverged");
        }
    }

    #[test]
    fn sweeps_run_every_item_after_a_panicking_sweep() {
        let cfg = SweepConfig::new().with_workers(4).with_shard_size(1);
        let caught = std::panic::catch_unwind(|| {
            sweep(16, &cfg, || (), |_, i| if i % 5 == 3 { panic!("boom at {i}") } else { i })
        });
        assert!(caught.is_err(), "the panic reached the caller");
        let out = sweep(64, &cfg, || (), |_, i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let cfg = SweepConfig::new().with_workers(2).with_shard_size(1);
        sweep(
            8,
            &cfg,
            || (),
            |_, i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            },
        );
    }
}

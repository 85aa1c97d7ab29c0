//! The sharded sweep engine proper.

use crate::stats::{ShardStat, SweepStats};
use pmorph_util::pool;
use pmorph_util::rng::{mix_seed, StdRng};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How a sweep is split and scheduled. Results never depend on any of
/// these knobs (see the crate-level determinism contract); they only
/// trade scheduling granularity against per-shard overhead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Items per shard; `0` picks a size automatically (a few shards per
    /// worker, so work-stealing can balance uneven item costs).
    pub shard_size: usize,
    /// Worker threads; `None` uses [`pool::worker_count`] (the
    /// `PMORPH_THREADS` override, else available parallelism).
    pub workers: Option<usize>,
    /// Parent seed for the per-shard streams ([`ShardInfo::seed`]).
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { shard_size: 0, workers: None, seed: 0 }
    }
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

    /// Set the parent seed for per-shard streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The worker count this configuration resolves to for `n` items.
    pub fn resolved_workers(&self, n: usize) -> usize {
        self.workers.unwrap_or_else(pool::worker_count).clamp(1, n.max(1))
    }

    /// The shard size this configuration resolves to for `n` items:
    /// explicit if non-zero, else `ceil(n / (4 · workers))` so each
    /// worker sees a handful of shards to steal.
    pub fn resolved_shard_size(&self, n: usize) -> usize {
        if self.shard_size > 0 {
            return self.shard_size;
        }
        let workers = self.resolved_workers(n);
        n.div_ceil(4 * workers).max(1)
    }
}

/// One shard of a sweep: a contiguous index range plus its
/// scheduling-independent seed stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Shard index (`0..shards`).
    pub index: usize,
    /// First item index (inclusive).
    pub start: usize,
    /// One past the last item index.
    pub end: usize,
    /// `mix_seed(config_seed, shard_index)` — keyed by shard index, not
    /// worker identity, so it never depends on scheduling. It *does*
    /// depend on the shard geometry: use it for diagnostics or
    /// shard-local jitter only, never for result bits (rule 2 of the
    /// determinism contract).
    pub seed: u64,
}

impl ShardInfo {
    /// Number of items in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the shard empty? (Never true for shards the engine emits.)
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Per-item view handed to the sweep closure.
#[derive(Copy, Clone, Debug)]
pub struct ItemCtx {
    /// Global item index in `0..n` — the only input result bits may
    /// depend on.
    pub index: usize,
    /// The shard this item was scheduled in.
    pub shard: ShardInfo,
}

impl ItemCtx {
    /// A shard-stream RNG positioned at this item: seeded from
    /// `mix_seed(shard.seed, offset_in_shard)`. Auxiliary only — it
    /// changes with the shard geometry, so result bits must come from
    /// the caller's own `mix_seed(seed, index)` stream instead.
    pub fn shard_rng(&self) -> StdRng {
        StdRng::seed_from_u64(mix_seed(self.shard.seed, (self.index - self.shard.start) as u64))
    }
}

/// Per-worker reusable state for a sweep.
///
/// One value is built per worker (lazily, by the `make_ctx` closure) and
/// reused across every shard that worker steals. Implementations must
/// uphold *restore ≡ fresh*: an item run in a reused context is
/// bit-identical to the same item run in a newly built context. The
/// blanket `()` impl covers stateless sweeps.
pub trait ShardCtx {
    /// Called before each shard the worker runs; reset reusable state
    /// here (e.g. `Simulator::restore` to the post-build snapshot).
    fn begin_shard(&mut self, _shard: &ShardInfo) {}
}

impl ShardCtx for () {}

/// A sweep's results (in item-index order) plus its run statistics.
#[derive(Clone, Debug)]
pub struct SweepOutcome<U> {
    /// One result per item, at its own index — independent of
    /// scheduling, worker count, and shard size (contract rule 1).
    pub results: Vec<U>,
    /// Timing/progress counters; scheduling-dependent, diagnostics only.
    pub stats: SweepStats,
}

/// Run `f` over items `0..n` in fixed-size shards on a scoped worker
/// pool, returning results in index order.
///
/// Workers claim shards from a shared atomic cursor (work-stealing:
/// whoever is free takes the next shard), build one `W` each via
/// `make_ctx`, and reuse it across their shards with
/// [`ShardCtx::begin_shard`] between shards. The calling thread is
/// worker 0; only `workers − 1` scoped helpers are spawned (fewer when
/// there are fewer shards), so a one-worker or one-shard sweep runs
/// inline with no spawn at all — same bits either way.
pub fn sweep<W, U, M, F>(n: usize, cfg: &SweepConfig, make_ctx: M, f: F) -> SweepOutcome<U>
where
    W: ShardCtx,
    U: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &ItemCtx) -> U + Sync,
{
    let t0 = Instant::now();
    // Resolved once: the observability gate is process-global and cheap,
    // but the worker loop should not even branch per shard on it.
    let obs_on = pmorph_obs::enabled();
    let trace_on = pmorph_obs::trace::enabled();
    let workers = cfg.resolved_workers(n);
    let shard_size = cfg.resolved_shard_size(n);
    let shards = if n == 0 { 0 } else { n.div_ceil(shard_size) };
    let shard_at = |s: usize| ShardInfo {
        index: s,
        start: s * shard_size,
        end: (s * shard_size + shard_size).min(n),
        seed: mix_seed(cfg.seed, s as u64),
    };

    let mut stats = SweepStats {
        items: n,
        shards,
        workers,
        shard_size,
        elapsed_ns: 0,
        per_shard: Vec::with_capacity(shards),
    };

    // Lock-free result slots, same construction as `pool::par_map_range`:
    // each index is written by exactly one worker (the one whose claimed
    // shard covers it), so plain `UnsafeCell` writes are race-free.
    struct Slots<U>(Vec<UnsafeCell<Option<U>>>);
    // SAFETY: shared across worker threads, but each cell is written at
    // most once, by the single thread that claimed the covering shard via
    // `fetch_add`; reads happen only after `thread::scope` joins (worker
    // 0 runs on the caller's thread inside the same scope).
    unsafe impl<U: Send> Sync for Slots<U> {}

    let slots: Slots<U> = Slots((0..n).map(|_| UnsafeCell::new(None)).collect());
    let slots_ref = &slots;
    struct StatCells(Vec<UnsafeCell<Option<ShardStat>>>);
    // SAFETY: as above — shard stat `s` is written only by the worker
    // that claimed shard `s`.
    unsafe impl Sync for StatCells {}
    let shard_stats = StatCells((0..shards).map(|_| UnsafeCell::new(None)).collect());
    let shard_stats_ref = &shard_stats;

    let cursor = AtomicUsize::new(0);
    let run_worker = |w: usize| {
        let mut ctx: Option<W> = None;
        loop {
            // Claim latency: how long the shared-cursor claim takes under
            // contention. Clock reads only when the layer is on — results
            // never depend on them either way.
            let claim_t = if obs_on { Some(Instant::now()) } else { None };
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= shards {
                break;
            }
            let shard = shard_at(s);
            if let Some(t) = claim_t {
                pmorph_obs::histogram!("exec.claim_ns", pmorph_obs::bounds::TIME_NS)
                    .observe(t.elapsed().as_nanos() as u64);
            }
            let st = Instant::now();
            let ctx = ctx.get_or_insert_with(&make_ctx);
            ctx.begin_shard(&shard);
            for i in shard.start..shard.end {
                let out = f(ctx, &ItemCtx { index: i, shard });
                // SAFETY: shard `s` (hence index `i`) was claimed
                // exclusively above; the scope join orders this write
                // before the caller's reads.
                unsafe { *slots_ref.0[i].get() = Some(out) };
            }
            let stat = ShardStat {
                index: s,
                start: shard.start,
                end: shard.end,
                worker: w,
                elapsed_ns: st.elapsed().as_nanos(),
            };
            if trace_on {
                // One stable track per logical worker (keyed by worker
                // index, not OS thread: helper threads are fresh every
                // sweep).
                let tid = pmorph_obs::trace::TID_EXEC_BASE + w as u64;
                pmorph_obs::trace::thread_name(tid, &format!("exec worker {w}"));
                pmorph_obs::trace::complete_tid(
                    "exec.shard",
                    "exec",
                    tid,
                    st,
                    stat.elapsed_ns as u64,
                );
                let claimed = cursor.load(Ordering::Relaxed).min(shards);
                pmorph_obs::trace::counter("exec.shards_remaining", (shards - claimed) as f64);
            }
            // SAFETY: same exclusive-claim argument, cell `s`.
            unsafe { *shard_stats_ref.0[s].get() = Some(stat) };
        }
    };
    // The caller is worker 0; spawn helpers only for the rest, and none
    // past the shard count (a helper with no shard to claim is pure cost).
    std::thread::scope(|scope| {
        for w in 1..workers.min(shards) {
            let run_worker = &run_worker;
            scope.spawn(move || run_worker(w));
        }
        run_worker(0);
    });

    let merge_t = if obs_on { Some(Instant::now()) } else { None };
    let results = slots
        .0
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect();
    stats.per_shard = shard_stats
        .0
        .into_iter()
        .map(|c| c.into_inner().expect("worker recorded every shard"))
        .collect();
    if let Some(t) = merge_t {
        pmorph_obs::span!("exec.sweep.merge").record_ns(t.elapsed().as_nanos() as u64);
    }
    stats.elapsed_ns = t0.elapsed().as_nanos();
    if trace_on {
        pmorph_obs::trace::complete("exec.sweep", "exec", t0, stats.elapsed_ns as u64);
    }
    obs_flush_sweep(&stats);
    SweepOutcome { results, stats }
}

/// Export one completed sweep's diagnostics to the observability layer.
/// Write-only side channel: results are already fixed by the time this
/// runs, so the sweep's bits are identical with the layer on or off.
fn obs_flush_sweep(stats: &SweepStats) {
    if !pmorph_obs::enabled() {
        return;
    }
    pmorph_obs::counter!("exec.sweep.runs").inc();
    pmorph_obs::counter!("exec.sweep.items").add(stats.items as u64);
    pmorph_obs::counter!("exec.sweep.shards").add(stats.shards as u64);
    pmorph_obs::span!("exec.sweep").record_ns(stats.elapsed_ns as u64);
    let shard_hist = pmorph_obs::histogram!("exec.shard_ns", pmorph_obs::bounds::TIME_NS);
    for s in &stats.per_shard {
        shard_hist.observe(s.elapsed_ns as u64);
    }
    if stats.workers == 0 || stats.per_shard.is_empty() {
        return;
    }
    // Per-worker load and the steal-imbalance ratio: busiest worker's busy
    // nanoseconds over the mean (1.0 = a perfect split; large values mean
    // the shard size is too coarse for stealing to balance).
    let mut busy_ns = vec![0u128; stats.workers];
    let mut items = vec![0u64; stats.workers];
    for s in &stats.per_shard {
        if let Some(b) = busy_ns.get_mut(s.worker) {
            *b += s.elapsed_ns;
            items[s.worker] += s.items() as u64;
        }
    }
    const ITEM_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];
    let h = pmorph_obs::histogram!("exec.worker_items", ITEM_BOUNDS);
    for &wi in &items {
        h.observe(wi);
    }
    let total: u128 = busy_ns.iter().sum();
    let max = busy_ns.iter().copied().max().unwrap_or(0);
    if total > 0 {
        let mean = total as f64 / stats.workers as f64;
        pmorph_obs::gauge!("exec.sweep.imbalance").set_max(max as f64 / mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_util::rng::Rng;
    use std::sync::atomic::AtomicUsize;

    fn seeded_item(seed: u64, i: usize) -> u64 {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
        rng.random::<u64>()
    }

    #[test]
    fn results_land_in_index_order() {
        let cfg = SweepConfig::new().with_workers(4).with_shard_size(3);
        let out = sweep(100, &cfg, || (), |_, item| item.index * 2);
        assert_eq!(out.results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn bits_identical_across_workers_and_shard_sizes() {
        let reference: Vec<u64> = (0..97).map(|i| seeded_item(7, i)).collect();
        for workers in [1usize, 2, 3, 8] {
            for shard_size in [1usize, 7, 64, 97] {
                let cfg = SweepConfig::new()
                    .with_workers(workers)
                    .with_shard_size(shard_size)
                    .with_seed(7);
                let out = sweep(97, &cfg, || (), |_, item| seeded_item(7, item.index));
                assert_eq!(
                    out.results, reference,
                    "workers={workers} shard_size={shard_size} diverged"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let cfg = SweepConfig::new().with_workers(8);
        let empty = sweep(0, &cfg, || (), |_, item| item.index);
        assert!(empty.results.is_empty());
        assert_eq!(empty.stats.shards, 0);
        let one = sweep(1, &cfg, || (), |_, item| item.index + 41);
        assert_eq!(one.results, vec![41]);
    }

    #[test]
    fn shard_geometry_covers_every_item_exactly_once() {
        let cfg = SweepConfig::new().with_workers(3).with_shard_size(7);
        let out = sweep(50, &cfg, || (), |_, item| item.index);
        assert_eq!(out.stats.shards, 8); // ceil(50/7)
        let mut covered = vec![0usize; 50];
        for s in &out.stats.per_shard {
            for i in s.start..s.end {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "every index in exactly one shard");
    }

    #[test]
    fn contexts_built_at_most_once_per_worker_and_reused() {
        let built = AtomicUsize::new(0);
        struct Ctx<'a> {
            shards_seen: usize,
            _marker: &'a AtomicUsize,
        }
        impl ShardCtx for Ctx<'_> {
            fn begin_shard(&mut self, _shard: &ShardInfo) {
                self.shards_seen += 1;
            }
        }
        let cfg = SweepConfig::new().with_workers(2).with_shard_size(5);
        let out = sweep(
            60,
            &cfg,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                Ctx { shards_seen: 0, _marker: &built }
            },
            |ctx, item| (ctx.shards_seen, item.index),
        );
        assert!(built.load(Ordering::Relaxed) <= 2, "at most one context per worker");
        assert!(out.results.iter().all(|&(seen, _)| seen >= 1), "begin_shard ran before items");
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        // With one worker the sweep runs on the calling thread, so a
        // non-Send-hostile marker observed via thread id must match.
        let caller = std::thread::current().id();
        let cfg = SweepConfig::new().with_workers(1).with_shard_size(4);
        let out = sweep(16, &cfg, || (), |_, _| std::thread::current().id());
        assert!(out.results.iter().all(|&id| id == caller), "serial path stayed inline");
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
        let participants: std::collections::HashSet<_> = out.results.iter().copied().collect();
        assert_eq!(participants.len(), w, "each worker held one shard");
        assert!(
            participants.contains(&std::thread::current().id()),
            "the calling thread runs as worker 0"
        );
    }

    #[test]
    fn shard_seed_keyed_by_shard_index_not_worker() {
        // Same geometry, different worker counts: identical shard seeds.
        let grab = |workers| {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(5).with_seed(99);
            sweep(40, &cfg, || (), |_, item| item.shard.seed).results
        };
        assert_eq!(grab(1), grab(8));
    }

    #[test]
    fn shard_rng_is_deterministic_per_item_within_geometry() {
        let cfg = SweepConfig::new().with_shard_size(8).with_seed(5);
        let draw = |workers: usize| {
            let cfg = cfg.clone().with_workers(workers);
            sweep(32, &cfg, || (), |_, item| item.shard_rng().random::<u64>()).results
        };
        assert_eq!(draw(1), draw(4), "shard stream is scheduling-independent");
    }

    #[test]
    fn auto_shard_size_gives_stealable_granularity() {
        let cfg = SweepConfig::new().with_workers(4);
        assert_eq!(cfg.resolved_shard_size(1600), 100);
        assert!(cfg.resolved_shard_size(3) >= 1);
        let out = sweep(1600, &cfg, || (), |_, item| item.index);
        assert_eq!(out.stats.shards, 16);
        assert_eq!(out.results.len(), 1600);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let cfg = SweepConfig::new().with_workers(2).with_shard_size(1);
        sweep(
            8,
            &cfg,
            || (),
            |_, item| {
                if item.index == 3 {
                    panic!("boom");
                }
                item.index
            },
        );
    }
}

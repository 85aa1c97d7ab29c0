//! The content-addressed artifact cache.
//!
//! Two stores behind one mutex:
//!
//! * **results** — finished job payloads, keyed by the FNV-1a hash of the
//!   job's canonical spec JSON ([`crate::job::JobSpec::cache_key`]). The
//!   *serialized* payload bytes are stored, and the cache-hit path writes
//!   them to the socket verbatim, so a repeat submission returns a
//!   byte-identical response. The canonical spec string is stored next to
//!   the bytes and compared on lookup — an FNV collision degrades to a
//!   miss, never to serving the wrong artifact. Results are held to
//!   [`RESULT_CACHE_BYTES`], counting payload plus canonical bytes, with
//!   least-recently-used eviction: a hit refreshes an entry, so a pool of
//!   hot specs outlives a stream of one-off ones. A payload larger than
//!   the whole budget is not stored; its job still serves it.
//! * **designs** — tech-mapped [`MappedDesign`]s keyed by circuit
//!   generator + size. Shared across job *types*: a `truth_sweep` and a
//!   `place_route` over the same circuit map it once. This is the
//!   "placed-and-routed fabric skips straight to simulation" piece of the
//!   issue, one level down: the expensive mapping stage is reused even
//!   when the final payload differs.
//!
//! Only jobs that are pure functions of their spec land here; failed or
//! cancelled jobs never do (a cancelled run has no payload, and caching a
//! failure would pin a transient error forever).

use pmorph_fpga::MappedDesign;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Byte budget of the result store: 4 MiB, four times the ~1 MB pool of
/// hot payloads the end-to-end benchmark replays.
pub const RESULT_CACHE_BYTES: usize = 4 << 20;

/// One cached job result.
struct CachedResult {
    /// Canonical spec JSON — the full key material behind the hash.
    canonical: String,
    /// Serialized payload bytes, served verbatim on a hit.
    payload: Arc<Vec<u8>>,
    /// Stamp of the last store or hit (its key in `Inner::recency`).
    used: u64,
}

impl CachedResult {
    /// Bytes charged against [`RESULT_CACHE_BYTES`].
    fn bytes(&self) -> usize {
        self.canonical.len() + self.payload.len()
    }
}

#[derive(Default)]
struct Inner {
    results: HashMap<u64, CachedResult>,
    /// Result keys by last-use stamp, least recently used first.
    recency: BTreeMap<u64, u64>,
    /// Last stamp handed out.
    clock: u64,
    result_bytes: usize,
    result_evictions: u64,
    designs: HashMap<u64, Arc<MappedDesign>>,
    result_hits: u64,
    result_misses: u64,
    design_hits: u64,
    design_misses: u64,
}

/// Counter snapshot for the `/metrics` endpoint and the bench checks.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached job results.
    pub results: usize,
    /// Cached mapped designs.
    pub designs: usize,
    /// Result-lookup hits.
    pub result_hits: u64,
    /// Result-lookup misses.
    pub result_misses: u64,
    /// Design-lookup hits.
    pub design_hits: u64,
    /// Design-lookup misses.
    pub design_misses: u64,
    /// Bytes held by cached results (at most [`RESULT_CACHE_BYTES`]).
    pub result_bytes: usize,
    /// Results evicted to stay within [`RESULT_CACHE_BYTES`].
    pub result_evictions: u64,
}

/// The process-wide artifact cache (one per server).
#[derive(Default)]
pub struct ArtifactCache {
    inner: Mutex<Inner>,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Look up a finished payload by content address. `canonical` must be
    /// the spec's canonical JSON; a hash hit whose stored canonical
    /// differs (an FNV collision) is treated as a miss.
    pub fn lookup_result(&self, key: u64, canonical: &str) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock().unwrap();
        let Inner { results, recency, clock, .. } = &mut *inner;
        match results.get_mut(&key) {
            Some(hit) if hit.canonical == canonical => {
                let payload = Arc::clone(&hit.payload);
                recency.remove(&hit.used);
                *clock += 1;
                hit.used = *clock;
                recency.insert(hit.used, key);
                inner.result_hits += 1;
                if pmorph_obs::enabled() {
                    pmorph_obs::counter!("serve.cache.result_hits").add(1);
                    pmorph_obs::trace::counter("serve.cache.result_hits", inner.result_hits as f64);
                }
                Some(payload)
            }
            _ => {
                inner.result_misses += 1;
                if pmorph_obs::enabled() {
                    pmorph_obs::counter!("serve.cache.result_misses").add(1);
                }
                None
            }
        }
    }

    /// Store a finished payload under its content address, then evict
    /// least-recently-used results until the store fits
    /// [`RESULT_CACHE_BYTES`]. First write wins; a concurrent duplicate
    /// (two identical jobs racing to finish) is dropped, which keeps the
    /// "byte-identical repeat" guarantee trivially true. A payload larger
    /// than the budget is not stored.
    pub fn store_result(&self, key: u64, canonical: &str, payload: Arc<Vec<u8>>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.results.contains_key(&key) || canonical.len() + payload.len() > RESULT_CACHE_BYTES
        {
            return;
        }
        inner.clock += 1;
        let entry = CachedResult { canonical: canonical.to_string(), payload, used: inner.clock };
        inner.result_bytes += entry.bytes();
        inner.recency.insert(entry.used, key);
        inner.results.insert(key, entry);
        while inner.result_bytes > RESULT_CACHE_BYTES {
            let (_, oldest) = inner.recency.pop_first().expect("a non-empty store is over budget");
            let evicted = inner.results.remove(&oldest).expect("recency tracks every result");
            inner.result_bytes -= evicted.bytes();
            inner.result_evictions += 1;
        }
    }

    /// Get-or-build the tech-mapped design under `key`. `build` runs
    /// outside the lock, so a slow mapping doesn't stall the server; two
    /// racing builders both map, first store wins, both get the stored
    /// copy's semantics (the mapper is deterministic, so the copies are
    /// equal anyway).
    pub fn design<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<MappedDesign, E>,
    ) -> Result<Arc<MappedDesign>, E> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(hit) = inner.designs.get(&key) {
                let hit = Arc::clone(hit);
                inner.design_hits += 1;
                drop(inner);
                if pmorph_obs::enabled() {
                    pmorph_obs::counter!("serve.cache.design_hits").add(1);
                }
                return Ok(hit);
            }
        }
        let built = Arc::new(build()?);
        let mut inner = self.inner.lock().unwrap();
        inner.design_misses += 1;
        let stored = Arc::clone(inner.designs.entry(key).or_insert_with(|| Arc::clone(&built)));
        drop(inner);
        if pmorph_obs::enabled() {
            pmorph_obs::counter!("serve.cache.design_misses").add(1);
        }
        Ok(stored)
    }

    /// Drop every artifact and reset counters (the bench harness uses
    /// this to measure cold latency repeatedly in one process).
    pub fn clear(&self) {
        *self.inner.lock().unwrap() = Inner::default();
    }

    /// Current sizes and hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            results: inner.results.len(),
            designs: inner.designs.len(),
            result_hits: inner.result_hits,
            result_misses: inner.result_misses,
            design_hits: inner.design_hits,
            design_misses: inner.design_misses,
            result_bytes: inner.result_bytes,
            result_evictions: inner.result_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn result_round_trip_and_collision_guard() {
        let cache = ArtifactCache::new();
        assert_eq!(cache.lookup_result(1, "spec-a"), None);
        cache.store_result(1, "spec-a", payload("payload-a"));
        assert_eq!(
            cache.lookup_result(1, "spec-a").as_deref().map(|b| b.as_slice()),
            Some(b"payload-a".as_slice())
        );
        // Same hash, different canonical bytes: a collision must miss.
        assert_eq!(cache.lookup_result(1, "spec-b"), None);
        let stats = cache.stats();
        assert_eq!((stats.result_hits, stats.result_misses), (1, 2));
    }

    #[test]
    fn first_store_wins() {
        let cache = ArtifactCache::new();
        cache.store_result(7, "spec", payload("first"));
        cache.store_result(7, "spec", payload("second"));
        assert_eq!(
            cache.lookup_result(7, "spec").as_deref().map(|b| b.as_slice()),
            Some(b"first".as_slice())
        );
    }

    /// A payload that, with its canonical spec `spec-<i>`, takes an
    /// eighth of the budget.
    fn eighth(i: usize) -> (String, Arc<Vec<u8>>) {
        let spec = format!("spec-{i:04}");
        let payload = Arc::new(vec![b'x'; RESULT_CACHE_BYTES / 8 - spec.len()]);
        (spec, payload)
    }

    #[test]
    fn results_stay_within_the_byte_budget_and_evict_least_recently_used() {
        let cache = ArtifactCache::new();
        let (old_read, old_unread) = (eighth(0), eighth(1));
        cache.store_result(0, &old_read.0, Arc::clone(&old_read.1));
        cache.store_result(1, &old_unread.0, Arc::clone(&old_unread.1));
        assert!(cache.lookup_result(0, &old_read.0).is_some());
        // fill to the budget, then one more: the unread entry goes first
        // although it was stored after the one that was read
        for i in 2..=8 {
            let (spec, payload) = eighth(i);
            cache.store_result(i as u64, &spec, payload);
            assert!(cache.stats().result_bytes <= RESULT_CACHE_BYTES);
        }
        assert_eq!(cache.stats().result_evictions, 1);
        assert_eq!(cache.lookup_result(1, &old_unread.0), None, "unread entry evicted");
        assert!(cache.lookup_result(0, &old_read.0).is_some(), "re-read entry survives");
        for i in 9..40 {
            let (spec, payload) = eighth(i);
            cache.store_result(i as u64, &spec, payload);
            let stats = cache.stats();
            assert!(stats.result_bytes <= RESULT_CACHE_BYTES, "{stats:?}");
            assert_eq!(stats.result_bytes, stats.results * RESULT_CACHE_BYTES / 8);
        }
    }

    #[test]
    fn a_payload_over_the_budget_is_not_stored() {
        let cache = ArtifactCache::new();
        cache.store_result(1, "small", payload("p"));
        let huge = Arc::new(vec![0u8; RESULT_CACHE_BYTES]);
        cache.store_result(2, "huge", huge);
        assert_eq!(cache.lookup_result(2, "huge"), None);
        assert!(cache.lookup_result(1, "small").is_some(), "nothing was evicted for it");
        let stats = cache.stats();
        assert_eq!((stats.results, stats.result_bytes, stats.result_evictions), (1, 6, 0));
    }

    #[test]
    fn design_builds_once() {
        let cache = ArtifactCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let d = cache
                .design(42, || {
                    builds += 1;
                    Ok::<_, ()>(MappedDesign::default())
                })
                .unwrap();
            assert!(d.luts.is_empty());
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.design_hits, stats.design_misses), (2, 1));
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ArtifactCache::new();
        cache.store_result(1, "s", payload("p"));
        cache.lookup_result(1, "s");
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.lookup_result(1, "s"), None);
    }
}

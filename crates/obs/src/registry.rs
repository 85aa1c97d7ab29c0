//! The lock-free metrics registry.
//!
//! Metric handles are registered once by name (a mutex-guarded cold path)
//! and then shared as `&'static` references; every recording operation is
//! relaxed-atomic and lock-free. The [`counter!`](crate::counter),
//! [`gauge!`](crate::gauge), [`histogram!`](crate::histogram) and
//! [`span!`](crate::span) macros cache the handle per call site so the
//! registry lock is touched once per site per process.
//!
//! Reading happens through [`snapshot`], which captures every registered
//! metric's current value in name order; [`Snapshot::delta_since`] turns
//! two snapshots into the per-phase deltas the run report emits.

use pmorph_util::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Add `n` (no-op while the layer is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one (no-op while the layer is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge (no-op while the layer is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with inclusive (`value <= bound`) upper
/// bounds, Prometheus-style, plus one overflow bucket past the last
/// bound. Bucket bounds are fixed at registration.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last counts observations beyond
    /// every bound.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend strictly");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation (no-op while the layer is disabled). A
    /// value equal to a bound lands in that bound's bucket.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(upper_bound, count)` per bucket; `None` is the overflow bucket.
    pub fn buckets(&self) -> Vec<(Option<u64>, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, c)| (self.bounds.get(i).copied(), c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// A scoped wall-clock timer: total nanoseconds and entry count.
#[derive(Debug, Default)]
pub struct Span {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Span {
    /// Start timing a scope. While the layer is disabled this takes no
    /// clock reading at all; the returned guard's drop is free.
    #[inline]
    pub fn enter(&self) -> SpanGuard<'_> {
        SpanGuard { span: self, start: crate::enabled().then(Instant::now) }
    }

    /// Record an already-measured duration (no-op while disabled).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if crate::enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.total_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Number of completed entries.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across all entries.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

/// RAII guard from [`Span::enter`]; records elapsed time on drop.
pub struct SpanGuard<'a> {
    span: &'a Span,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.span.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// A registered metric handle (registry-internal).
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    Span(&'static Span),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Span(_) => "span",
        }
    }
}

static REGISTRY: Mutex<Vec<(String, Metric)>> = Mutex::new(Vec::new());

/// Take the registry lock, shrugging off poisoning: the guarded Vec is
/// only ever pushed to, so a panicking holder (e.g. the kind-mismatch
/// panic) cannot leave it half-mutated.
fn lock_registry() -> std::sync::MutexGuard<'static, Vec<(String, Metric)>> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Find-or-create under the registry lock. Handles are leaked — each
/// metric name exists once per process, so the leak is bounded by the
/// (static) set of instrumentation sites.
fn intern<T, K, N>(name: &str, kind: K, new: N) -> &'static T
where
    K: Fn(&Metric) -> Option<&'static T>,
    N: FnOnce() -> (&'static T, Metric),
{
    let mut reg = lock_registry();
    if let Some((_, m)) = reg.iter().find(|(n, _)| n == name) {
        return kind(m)
            .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()));
    }
    let (handle, metric) = new();
    reg.push((name.to_string(), metric));
    handle
}

/// Register (or look up) a counter by name.
pub fn counter(name: &str) -> &'static Counter {
    intern(
        name,
        |m| if let Metric::Counter(c) = m { Some(*c) } else { None },
        || {
            let h: &'static Counter = Box::leak(Box::new(Counter::default()));
            (h, Metric::Counter(h))
        },
    )
}

/// Register (or look up) a gauge by name.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(
        name,
        |m| if let Metric::Gauge(g) = m { Some(*g) } else { None },
        || {
            let h: &'static Gauge = Box::leak(Box::new(Gauge::default()));
            (h, Metric::Gauge(h))
        },
    )
}

/// Register (or look up) a histogram by name. Bounds apply on first
/// registration; later lookups return the existing histogram unchanged.
pub fn histogram(name: &str, bounds: &[u64]) -> &'static Histogram {
    intern(
        name,
        |m| if let Metric::Histogram(h) = m { Some(*h) } else { None },
        || {
            let h: &'static Histogram = Box::leak(Box::new(Histogram::new(bounds)));
            (h, Metric::Histogram(h))
        },
    )
}

/// Register (or look up) a span timer by name.
pub fn span(name: &str) -> &'static Span {
    intern(
        name,
        |m| if let Metric::Span(s) = m { Some(*s) } else { None },
        || {
            let h: &'static Span = Box::leak(Box::new(Span::default()));
            (h, Metric::Span(h))
        },
    )
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram totals plus `(upper_bound, count)` buckets
    /// (`None` = overflow).
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Per-bucket `(inclusive upper bound, count)`.
        buckets: Vec<(Option<u64>, u64)>,
    },
    /// Span totals.
    Span {
        /// Completed entries.
        count: u64,
        /// Total nanoseconds.
        total_ns: u64,
    },
}

impl MetricValue {
    /// Is this reading all zeros (no activity)?
    pub fn is_zero(&self) -> bool {
        match self {
            MetricValue::Counter(n) => *n == 0,
            MetricValue::Gauge(v) => *v == 0.0,
            MetricValue::Histogram { count, .. } => *count == 0,
            MetricValue::Span { count, .. } => *count == 0,
        }
    }

    fn to_json(&self) -> Value {
        match self {
            MetricValue::Counter(n) => Value::Num(*n as f64),
            MetricValue::Gauge(v) => Value::Num(*v),
            MetricValue::Histogram { count, sum, buckets } => {
                let mut o = Value::object();
                o.set("count", Value::Num(*count as f64)).set("sum", Value::Num(*sum as f64));
                let mut bs = Value::object();
                for (bound, n) in buckets {
                    let key = match bound {
                        Some(b) => format!("le_{b}"),
                        None => "overflow".to_string(),
                    };
                    bs.set(&key, Value::Num(*n as f64));
                }
                o.set("buckets", bs);
                o
            }
            MetricValue::Span { count, total_ns } => {
                let mut o = Value::object();
                o.set("count", Value::Num(*count as f64))
                    .set("total_ns", Value::Num(*total_ns as f64));
                o
            }
        }
    }
}

/// A name-ordered reading of every registered metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(metric name, value)` sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

/// Read every registered metric. Cheap when nothing is registered (the
/// disabled path registers no metrics unless a handle was interned).
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    let mut entries: Vec<(String, MetricValue)> = reg
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => {
                    MetricValue::Histogram { count: h.count(), sum: h.sum(), buckets: h.buckets() }
                }
                Metric::Span(s) => MetricValue::Span { count: s.count(), total_ns: s.total_ns() },
            };
            (name.clone(), v)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot { entries }
}

impl Snapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The change from `base` to `self`: counters, spans and histogram
    /// buckets subtract (saturating), and entries with zero activity are
    /// dropped. A gauge enters with its later reading only if `base`
    /// lacks it or read it differently. Other metrics absent from `base`
    /// (registered in between) pass through whole.
    pub fn delta_since(&self, base: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .filter_map(|(name, now)| {
                let d = match (now, base.get(name)) {
                    (MetricValue::Counter(n), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(n.saturating_sub(*b))
                    }
                    (
                        MetricValue::Span { count, total_ns },
                        Some(MetricValue::Span { count: bc, total_ns: bns }),
                    ) => MetricValue::Span {
                        count: count.saturating_sub(*bc),
                        total_ns: total_ns.saturating_sub(*bns),
                    },
                    (
                        MetricValue::Histogram { count, sum, buckets },
                        Some(MetricValue::Histogram { count: bc, sum: bs, buckets: bb }),
                    ) => MetricValue::Histogram {
                        count: count.saturating_sub(*bc),
                        sum: sum.saturating_sub(*bs),
                        buckets: buckets
                            .iter()
                            .map(|(bound, n)| {
                                let prev = bb
                                    .iter()
                                    .find(|(b, _)| b == bound)
                                    .map(|(_, p)| *p)
                                    .unwrap_or(0);
                                (*bound, n.saturating_sub(prev))
                            })
                            .collect(),
                    },
                    (MetricValue::Gauge(_), b) => {
                        return (b != Some(now)).then(|| (name.clone(), now.clone()));
                    }
                    (v, _) => v.clone(),
                };
                (!d.is_zero()).then(|| (name.clone(), d))
            })
            .collect();
        Snapshot { entries }
    }

    /// Render as one JSON object: `{"metric.name": value-or-object}`.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        for (name, v) in &self.entries {
            obj.set(name, v.to_json());
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every recording test forces the gate on; nothing in this binary
    // ever forces it off (see lib.rs tests note).

    #[test]
    fn counter_accumulates_and_interns_by_name() {
        crate::force(true);
        let a = counter("test.reg.counter_a");
        let b = counter("test.reg.counter_a");
        assert!(std::ptr::eq(a, b), "same name must intern to the same cell");
        let before = a.get();
        a.inc();
        b.add(4);
        assert_eq!(a.get(), before + 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        counter("test.reg.kind_clash");
        gauge("test.reg.kind_clash");
    }

    #[test]
    fn gauge_set_and_set_max() {
        crate::force(true);
        let g = gauge("test.reg.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5, "set_max must not lower");
        g.set_max(9.0);
        assert_eq!(g.get(), 9.0);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        crate::force(true);
        let h = histogram("test.reg.hist_edges", &[10, 100, 1000]);
        // On-edge values land in the bound's own bucket; bound+1 spills
        // into the next; beyond the last bound goes to overflow.
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.observe(v);
        }
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (Some(10), 2), "0 and 10 are <= 10");
        assert_eq!(buckets[1], (Some(100), 2), "11 and 100");
        assert_eq!(buckets[2], (Some(1000), 2), "101 and 1000");
        assert_eq!(buckets[3].0, None);
        assert_eq!(buckets[3].1, 2, "1001 and u64::MAX overflow");
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn span_guard_records_on_drop() {
        crate::force(true);
        let s = span("test.reg.span");
        let before = s.count();
        {
            let _g = s.enter();
            std::hint::black_box(());
        }
        assert_eq!(s.count(), before + 1);
        s.record_ns(1_000);
        assert!(s.total_ns() >= 1_000);
    }

    #[test]
    fn snapshot_delta_subtracts_and_drops_idle_metrics() {
        crate::force(true);
        let c = counter("test.reg.delta_counter");
        let h = histogram("test.reg.delta_hist", &[50]);
        counter("test.reg.idle_counter"); // registered, never incremented
        c.add(3);
        h.observe(10);
        let base = snapshot();
        c.add(7);
        h.observe(10);
        h.observe(999);
        let delta = snapshot().delta_since(&base);
        assert_eq!(delta.get("test.reg.delta_counter"), Some(&MetricValue::Counter(7)));
        match delta.get("test.reg.delta_hist").unwrap() {
            MetricValue::Histogram { count, sum, buckets } => {
                assert_eq!(*count, 2);
                assert_eq!(*sum, 10 + 999);
                assert_eq!(buckets[0], (Some(50), 1));
                assert_eq!(buckets[1], (None, 1));
            }
            v => panic!("wrong kind: {v:?}"),
        }
        assert!(delta.get("test.reg.idle_counter").is_none(), "idle metrics are dropped");
    }

    #[test]
    fn snapshot_delta_keeps_only_gauges_that_moved() {
        crate::force(true);
        let still = gauge("test.reg.delta_gauge_still");
        let moved = gauge("test.reg.delta_gauge_moved");
        let cleared = gauge("test.reg.delta_gauge_cleared");
        still.set(2.5);
        moved.set(2.5);
        cleared.set(2.5);
        let base = snapshot();
        moved.set(4.0);
        cleared.set(0.0);
        let delta = snapshot().delta_since(&base);
        assert!(delta.get("test.reg.delta_gauge_still").is_none(), "unchanged gauge repeated");
        assert_eq!(delta.get("test.reg.delta_gauge_moved"), Some(&MetricValue::Gauge(4.0)));
        assert_eq!(delta.get("test.reg.delta_gauge_cleared"), Some(&MetricValue::Gauge(0.0)));
    }

    #[test]
    fn snapshot_json_is_name_ordered_object() {
        crate::force(true);
        counter("test.reg.zzz").inc();
        counter("test.reg.aaa").inc();
        let snap = snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let json = snap.to_json().to_string_compact();
        assert!(json.contains("\"test.reg.aaa\""), "{json}");
        assert!(pmorph_util::json::parse(&json).is_ok());
    }
}

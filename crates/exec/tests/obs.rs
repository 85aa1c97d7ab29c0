//! The `exec.*` metrics the benchmark ledger reads, pinned for one sweep
//! of known geometry. Its own process: the metrics gate and registry are
//! process-global, so no other sweep may record between the snapshots.

use pmorph_exec::{sweep, SweepConfig};
use pmorph_obs::MetricValue;

#[test]
fn one_sweep_adds_its_geometry_to_the_exec_metrics() {
    pmorph_obs::force(true);
    let base = pmorph_obs::snapshot();
    // 50 items in shards of 7: ceil(50/7) = 8 shards over 3 workers.
    let cfg = SweepConfig::new().with_workers(3).with_shard_size(7);
    let out = sweep(50, &cfg, || (), |_, i| i);
    assert_eq!(out, (0..50).collect::<Vec<_>>());
    let d = pmorph_obs::snapshot().delta_since(&base);

    let get = |name: &str| d.get(name).cloned().unwrap_or_else(|| panic!("{name} not recorded"));
    // `(count, sum)` of a histogram's observations; a span's entry count.
    let hist = |name: &str| match get(name) {
        MetricValue::Histogram { count, sum, .. } => (count, sum),
        v => panic!("{name}: expected a histogram, got {v:?}"),
    };
    let span = |name: &str| match get(name) {
        MetricValue::Span { count, .. } => count,
        v => panic!("{name}: expected a span, got {v:?}"),
    };
    assert_eq!(get("exec.sweep.runs"), MetricValue::Counter(1));
    assert_eq!(get("exec.sweep.items"), MetricValue::Counter(50));
    assert_eq!(get("exec.sweep.shards"), MetricValue::Counter(8));
    assert_eq!(hist("exec.shard_ns").0, 8, "one shard time per shard");
    assert_eq!(hist("exec.claim_ns").0, 8, "one claim time per claimed shard");
    assert_eq!(hist("exec.worker_items"), (3, 50), "one load per worker, all items");
    assert_eq!(span("exec.sweep"), 1);
    assert_eq!(span("exec.sweep.merge"), 1);
    match get("exec.sweep.imbalance") {
        MetricValue::Gauge(g) => assert!(g >= 1.0, "busiest worker over the mean: {g}"),
        v => panic!("exec.sweep.imbalance: expected a gauge, got {v:?}"),
    }
}

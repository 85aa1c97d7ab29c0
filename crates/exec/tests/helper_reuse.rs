//! Sweep helpers are parked and reused, not spawned per sweep. Its own
//! process: `exec.helpers_spawned` is process-global, so no other sweep
//! may run between the snapshots.

use pmorph_exec::{sweep, SweepConfig};
use pmorph_obs::MetricValue;
use std::sync::Barrier;

#[test]
fn back_to_back_sweeps_reuse_one_helper() {
    pmorph_obs::force(true);
    let base = pmorph_obs::snapshot();
    // Two single-item shards that meet at a 2-party barrier: the caller
    // cannot finish its shard alone, so the helper runs every time.
    let barrier = Barrier::new(2);
    let cfg = SweepConfig::new().with_workers(2).with_shard_size(1);
    for _ in 0..50 {
        let out = sweep(
            2,
            &cfg,
            || (),
            |_, i| {
                barrier.wait();
                i
            },
        );
        assert_eq!(out, vec![0, 1]);
    }
    let d = pmorph_obs::snapshot().delta_since(&base);
    assert_eq!(d.get("exec.sweep.runs"), Some(&MetricValue::Counter(50)));
    assert_eq!(
        d.get("exec.helpers_spawned"),
        Some(&MetricValue::Counter(1)),
        "the first sweep spawns the helper, the other 49 find it parked"
    );
}

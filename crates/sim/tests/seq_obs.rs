//! The sequential kernel's cycle counters, pinned on a shift register
//! whose settle time is known. `sim.bitsim.cycles` counts the logical
//! edges asked for; `sim.bitsim.cycles_evaluated` counts the edges
//! `step_cycles` actually ran. Its own process: the metrics gate and
//! registry are process-global, so no other test may record between the
//! snapshots.

use pmorph_exec::SweepConfig;
use pmorph_obs::MetricValue;
use pmorph_sim::bitsim::{sweep_seq_truth, SeqBitSim};
use pmorph_sim::table::WideMask;
use pmorph_sim::NetlistBuilder;

/// `(sim.bitsim.cycles, sim.bitsim.cycles_evaluated)` added by `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let base = pmorph_obs::snapshot();
    f();
    let d = pmorph_obs::snapshot().delta_since(&base);
    let get = |name: &str| match d.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        None => 0,
        Some(v) => panic!("{name}: expected a counter, got {v:?}"),
    };
    (get("sim.bitsim.cycles"), get("sim.bitsim.cycles_evaluated"))
}

#[test]
fn cycle_counters_split_logical_from_evaluated_edges() {
    pmorph_obs::force(true);

    // A 64-stage shift register settles after 64 edges; the 65th changes
    // nothing, so 65 edges run however many more are asked for, and all
    // of them run when fewer are asked for.
    let mut b = NetlistBuilder::new();
    let din = b.net();
    let clk = b.net();
    let mut prev = din;
    for _ in 0..64 {
        let q = b.net();
        b.dff(prev, clk, None, q);
        prev = q;
    }
    let proto = SeqBitSim::new(b.build()).unwrap();
    let cfg = SweepConfig::new().with_workers(1);
    for (cycles, evaluated, last_tap) in [(10_000, 65, 0b10), (40, 40, 0b00)] {
        let mut masks = Vec::new();
        let counts = counted(|| masks = sweep_seq_truth(&proto, &[din], &[prev], cycles, &cfg));
        assert_eq!(counts, (cycles as u64, evaluated), "(logical, evaluated) edges at {cycles}");
        let expect = WideMask::from_fn(1, |m| last_tap >> m & 1 == 1);
        assert_eq!(masks, vec![Some(expect)], "last tap at {cycles} cycles");
    }
}

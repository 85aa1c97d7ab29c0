//! The sweep structure of the PnR candidate search, pinned through its
//! metrics (the sweep engine's run and item counters, the candidate
//! counter and the region-assembly span): each candidate is one sweep
//! item, and one sweep routes at most 64 candidates. Its own process:
//! the metrics gate and registry are process-global, so no other search
//! may record between the snapshots.

use pmorph_exec::SweepConfig;
use pmorph_fpga::circuits::ripple_adder_gates;
use pmorph_fpga::mapper::{tech_map, MappedDesign};
use pmorph_fpga::pnr::{best_seeded_placement, FpgaTiming};
use pmorph_obs::MetricValue;

const NAMES: [&str; 4] =
    ["exec.sweep.runs", "exec.sweep.items", "fpga.pnr.candidates", "fpga.pnr.stitch"];

/// What one `best_seeded_placement` call adds to each of [`NAMES`]
/// (counter totals, span entry counts), and its partition count.
fn search_adds(
    design: &MappedDesign,
    candidates: usize,
    partitions: usize,
) -> ([u64; 4], Option<usize>) {
    let base = pmorph_obs::snapshot();
    let (_, _, _, stats) = best_seeded_placement(
        design,
        candidates,
        3,
        &FpgaTiming::default(),
        partitions,
        &SweepConfig::new(),
    );
    let d = pmorph_obs::snapshot().delta_since(&base);
    let added = NAMES.map(|name| match d.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        Some(MetricValue::Span { count, .. }) => *count,
        None => 0,
        Some(v) => panic!("{name}: expected a counter or a span, got {v:?}"),
    });
    (added, stats.map(|s| s.partitions))
}

#[test]
fn each_candidate_is_one_sweep_item_in_sweeps_of_at_most_64() {
    pmorph_obs::force(true);
    let adder = |bits| {
        let c = ripple_adder_gates(bits);
        tech_map(&c.netlist, &c.outputs, 4).unwrap()
    };

    // 48 hierarchical candidates fit one sweep, and each assembles its
    // regions once.
    let (added, partitions) = search_adds(&adder(64), 48, 4);
    assert_eq!(partitions, Some(4));
    assert_eq!(added, [1, 48, 48, 48], "{NAMES:?} of a 48-candidate hierarchical search");

    // 200 flat candidates run as ceil(200 / 64) = 4 sweeps.
    let (added, partitions) = search_adds(&adder(8), 200, 1);
    assert_eq!(partitions, None);
    assert_eq!(added, [4, 200, 200, 0], "{NAMES:?} of a 200-candidate flat search");
}

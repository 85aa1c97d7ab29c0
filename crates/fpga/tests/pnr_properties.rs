//! Router invariants under the seeded property harness.
//!
//! These hold for *any* legal router over the channel grid, so they pin
//! the contract rather than the current implementation:
//!
//! * a routed connection is never shorter than the Manhattan distance
//!   between its endpoints (channel segments are unit steps),
//! * `total_wirelength` is exactly `Σ connection_lengths`,
//! * `max_occupancy` is monotone in design size — routing a prefix of
//!   the design's LUTs under the *same held placement* can only reduce
//!   congestion and wirelength.

use pmorph_exec::SweepConfig;
use pmorph_fpga::mapper::MappedDesign;
use pmorph_fpga::pnr::hier::best_seeded_placement_hier;
use pmorph_fpga::pnr::{place, route, FpgaTiming};
use pmorph_fpga::testgen;
use pmorph_util::{prop, prop_assert, prop_assert_eq};

#[test]
fn route_length_dominates_manhattan_distance() {
    prop::check("pnr.route.manhattan_lower_bound", 64, |g| {
        let d = testgen::random_mapped_design(g);
        let mut pnr = place(&d);
        route(&d, &mut pnr).map_err(|e| e.to_string())?;
        // Reconstruct the routed pairs in route order: LUTs by index,
        // inputs in declaration order, LUT-driven connections only.
        let outs: std::collections::HashSet<u32> = d.luts.iter().map(|l| l.output.0).collect();
        let mut i = 0usize;
        for lut in &d.luts {
            let (dx, dy) = pnr.placement[&lut.output.0];
            for inp in lut.inputs.iter().filter(|n| outs.contains(&n.0)) {
                let (sx, sy) = pnr.placement[&inp.0];
                let manhattan = sx.abs_diff(dx) + sy.abs_diff(dy);
                prop_assert!(
                    pnr.connection_lengths[i] >= manhattan,
                    "connection {i}: routed {} < manhattan {manhattan}",
                    pnr.connection_lengths[i]
                );
                i += 1;
            }
        }
        prop_assert_eq!(i, pnr.connection_lengths.len(), "route order reconstruction");
        Ok(())
    });
}

#[test]
fn total_wirelength_is_sum_of_connection_lengths() {
    let t = FpgaTiming::default();
    let cfg = SweepConfig::new().with_workers(1);
    prop::check("pnr.route.wirelength_sum", 64, |g| {
        let d = testgen::random_mapped_design(g);
        let mut flat = place(&d);
        route(&d, &mut flat).map_err(|e| e.to_string())?;
        prop_assert_eq!(
            flat.total_wirelength,
            flat.connection_lengths.iter().sum::<usize>(),
            "flat"
        );
        let (hier, _, _, _) = best_seeded_placement_hier(&d, 1, g.seed, &t, 3, &cfg);
        prop_assert_eq!(
            hier.total_wirelength,
            hier.connection_lengths.iter().sum::<usize>(),
            "hier"
        );
        Ok(())
    });
}

#[test]
fn max_occupancy_is_monotone_in_design_size() {
    prop::check("pnr.route.occupancy_monotone", 64, |g| {
        let d = testgen::random_mapped_design(g);
        let full_placement = place(&d);
        let mut full = full_placement.clone();
        route(&d, &mut full).map_err(|e| e.to_string())?;
        // Route ever-larger prefixes of the LUT list under the held full
        // placement: dropped LUTs leave their driven connections
        // unrouted, so congestion and wirelength can only grow with m.
        let mut prev = (0usize, 0usize);
        for m in [d.luts.len() / 4, d.luts.len() / 2, d.luts.len()] {
            let sub = MappedDesign { luts: d.luts[..m].to_vec(), ..d.clone() };
            let mut pnr = full_placement.clone();
            route(&sub, &mut pnr).map_err(|e| e.to_string())?;
            prop_assert!(
                pnr.max_occupancy >= prev.0 && pnr.total_wirelength >= prev.1,
                "m={m}: occupancy {} < {} or wirelength {} < {}",
                pnr.max_occupancy,
                prev.0,
                pnr.total_wirelength,
                prev.1
            );
            prev = (pnr.max_occupancy, pnr.total_wirelength);
        }
        prop_assert_eq!(prev.0, full.max_occupancy, "full prefix is the full route");
        prop_assert_eq!(prev.1, full.total_wirelength);
        Ok(())
    });
}

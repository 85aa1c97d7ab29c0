//! Router invariants under the seeded property harness:
//!
//! * a routed connection is exactly as long as the Manhattan distance
//!   between its endpoints — the router walks one x-then-y L path of
//!   unit channel segments per connection,
//! * `total_wirelength` is exactly `Σ connection_lengths`,
//! * `max_occupancy` is monotone in design size — routing a prefix of
//!   the design's LUTs under the *same held placement* can only reduce
//!   congestion and wirelength,
//! * the router and timer, which run on LUT-indexed arrays, agree bit
//!   for bit with net-keyed hash-map oracles (one path `Vec` per
//!   connection) on scan, shuffled, searched and partial placements of
//!   designs with LUTs out of order and with loops.

use pmorph_exec::SweepConfig;
use pmorph_fpga::mapper::MappedDesign;
use pmorph_fpga::pnr::hier::best_seeded_placement_hier;
use pmorph_fpga::pnr::{
    best_seeded_placement, critical_path_ps, place, route, FpgaTiming, PnrError, PnrResult,
};
use pmorph_fpga::testgen;
use pmorph_sim::NetId;
use pmorph_util::rng::Rng;
use pmorph_util::{prop, prop_assert, prop_assert_eq};
use std::collections::HashMap;

/// The router and timer as written before they ran on LUT-indexed
/// arrays: net-keyed hash maps, the L path materialized per connection.
mod oracle {
    use super::*;

    /// `(connection lengths, total wirelength, max occupancy)`, or the
    /// first unplaced endpoint net.
    pub fn route(d: &MappedDesign, pnr: &PnrResult) -> Result<(Vec<usize>, usize, usize), NetId> {
        let g = pnr.grid.max(1);
        let mut occ = vec![0usize; g * g * 2];
        let outs: HashMap<u32, ()> = d.luts.iter().map(|l| (l.output.0, ())).collect();
        let (mut lengths, mut total, mut max_occ) = (Vec::new(), 0, 0);
        for lut in &d.luts {
            let &(dx, dy) = pnr.placement.get(&lut.output.0).ok_or(lut.output)?;
            for inp in lut.inputs.iter().filter(|n| outs.contains_key(&n.0)) {
                let &(sx, sy) = pnr.placement.get(&inp.0).ok_or(*inp)?;
                let mut path = Vec::new();
                let (mut x, mut y) = (sx, sy);
                while x != dx {
                    let nx = if dx > x { x + 1 } else { x - 1 };
                    path.push((x.min(nx), y, 0));
                    x = nx;
                }
                while y != dy {
                    let ny = if dy > y { y + 1 } else { y - 1 };
                    path.push((x, y.min(ny), 1));
                    y = ny;
                }
                for &(x, y, dir) in &path {
                    let e = &mut occ[(y * g + x) * 2 + dir];
                    *e += 1;
                    max_occ = max_occ.max(*e);
                }
                lengths.push(path.len());
                total += path.len();
            }
        }
        Ok((lengths, total, max_occ))
    }

    /// Longest path by memoized recursion over net-keyed maps (0.0 while
    /// a LUT is on the stack), one segment for an unplaced endpoint.
    pub fn critical_path_ps(d: &MappedDesign, pnr: &PnrResult, t: &FpgaTiming) -> f64 {
        fn arrival(
            i: usize,
            d: &MappedDesign,
            pnr: &PnrResult,
            t: &FpgaTiming,
            by_out: &HashMap<NetId, usize>,
            memo: &mut HashMap<usize, f64>,
        ) -> f64 {
            if let Some(&a) = memo.get(&i) {
                return a;
            }
            memo.insert(i, 0.0);
            let lut = &d.luts[i];
            let dst = pnr.placement.get(&lut.output.0);
            let mut worst: f64 = 0.0;
            for inp in &lut.inputs {
                if let Some(&j) = by_out.get(inp) {
                    let a = arrival(j, d, pnr, t, by_out, memo);
                    let dist = match (pnr.placement.get(&inp.0), dst) {
                        (Some(&(sx, sy)), Some(&(dx, dy))) => sx.abs_diff(dx) + sy.abs_diff(dy),
                        _ => 1,
                    };
                    worst = worst.max(a + dist as f64 * t.segment_ps);
                }
            }
            memo.insert(i, worst + t.lut_ps);
            worst + t.lut_ps
        }
        let by_out: HashMap<NetId, usize> =
            d.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
        let mut memo = HashMap::new();
        let mut worst: f64 = 0.0;
        for o in &d.outputs {
            if let Some(&i) = by_out.get(o) {
                worst = worst.max(arrival(i, d, pnr, t, &by_out, &mut memo));
            }
        }
        worst
    }
}

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
                prop_assert_eq!(
                    pnr.connection_lengths[i],
                    manhattan,
                    "connection {i}: routed length vs manhattan distance"
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

#[test]
fn router_and_timer_match_their_hash_map_oracles() {
    let t = FpgaTiming::default();
    let cfg = SweepConfig::new().with_workers(1);
    prop::check("pnr.route_time.oracle", 64, |g| {
        let mut d = testgen::random_mapped_design(g);
        // LUTs out of topological order, and loops through the timer's
        // guard: some inputs read any LUT's output, itself included
        if g.bool() {
            d.luts.reverse();
        }
        let outs: Vec<NetId> = d.luts.iter().map(|l| l.output).collect();
        for lut in &mut d.luts {
            if g.in_range(0..8u32) == 0 {
                lut.inputs.push(outs[g.in_range(0..outs.len())]);
            }
        }
        let scan = place(&d);
        // the scan placement's tiles dealt to the LUTs at random
        let mut tiles: Vec<_> = d.luts.iter().map(|l| scan.placement[&l.output.0]).collect();
        g.rng.shuffle(&mut tiles);
        let shuffled = PnrResult {
            placement: d.luts.iter().map(|l| l.output.0).zip(tiles).collect(),
            ..scan.clone()
        };
        let flat = best_seeded_placement(&d, 6, g.seed, &t, 1, &cfg);
        let hier = best_seeded_placement(&d, 4, g.seed, &t, 3, &cfg);
        // the searches' own routes and critical paths, against the oracles
        for (label, (pnr, cp, _, _)) in [("flat search", &flat), ("hier search", &hier)] {
            let want = oracle::route(&d, pnr).map_err(|n| format!("{label}: unplaced {n:?}"))?;
            let got = (pnr.connection_lengths.clone(), pnr.total_wirelength, pnr.max_occupancy);
            prop_assert_eq!(got, want, "{label}: route");
            let want = oracle::critical_path_ps(&d, pnr, &t);
            prop_assert_eq!(cp.to_bits(), want.to_bits(), "{label}: critical path");
        }
        // some LUT tiles dropped: route names the first missing endpoint,
        // and the timer counts one segment for it
        let mut partial = shuffled.clone();
        for l in &d.luts {
            if g.in_range(0..8u32) == 0 {
                partial.placement.remove(&l.output.0);
            }
        }
        let placements = [("scan", scan), ("shuffled", shuffled), ("partial", partial)];
        for (label, held) in placements.into_iter().chain([("flat", flat.0), ("hier", hier.0)]) {
            let unrouted =
                PnrResult { grid: held.grid, placement: held.placement, ..PnrResult::default() };
            let mut pnr = unrouted.clone();
            let got = route(&d, &mut pnr)
                .map(|()| (pnr.connection_lengths, pnr.total_wirelength, pnr.max_occupancy));
            let want = oracle::route(&d, &unrouted).map_err(|net| PnrError::Unplaced { net });
            prop_assert_eq!(got, want, "{label}: route");
            let got = critical_path_ps(&d, &unrouted, &t);
            let want = oracle::critical_path_ps(&d, &unrouted, &t);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{label}: critical path");
        }
        Ok(())
    });
}

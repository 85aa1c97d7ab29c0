//! Hierarchical-vs-flat PnR differential suite.
//!
//! The hierarchical flow (`fpga::pnr::hier`) is *not* bit-equal to the
//! flat reference — partitioning changes the placement by design — so
//! the differential contract is **legality equivalence**: on the same
//! design, both flows place every LUT injectively inside their grid and
//! route exactly the same set of LUT-driven connections, with
//! self-consistent wirelength/occupancy accounting. On top of that the
//! hierarchical flow must honour the exec determinism contract: result
//! bits depend only on `(design, partitions, seed, candidate)`, never on
//! worker count or shard size.
//!
//! Worker counts are pinned per-run via `SweepConfig::with_workers`, so
//! the {1, 2, 8} matrix is exercised regardless of the harness
//! environment; one test additionally swaps `PMORPH_THREADS` itself
//! (CI runs the whole binary at `PMORPH_THREADS={1,8}` to cover the
//! env-derived default path end to end).

use pmorph_exec::SweepConfig;
use pmorph_fpga::mapper::MappedDesign;
use pmorph_fpga::pnr::hier::best_seeded_placement_hier;
use pmorph_fpga::pnr::{place_and_route, FpgaTiming, PnrResult};
use pmorph_fpga::testgen;
use pmorph_util::env::EnvGuard;
use pmorph_util::{prop, prop_assert, prop_assert_eq};

/// LUT-driven connections of a design (what `route` must route).
fn lut_driven_connections(d: &MappedDesign) -> usize {
    let outs: std::collections::HashSet<u32> = d.luts.iter().map(|l| l.output.0).collect();
    d.luts.iter().flat_map(|l| &l.inputs).filter(|n| outs.contains(&n.0)).count()
}

/// The legality contract both flows must satisfy.
fn assert_legal(d: &MappedDesign, pnr: &PnrResult, label: &str) -> Result<(), String> {
    prop_assert_eq!(pnr.placement.len(), d.luts.len(), "{label}: every LUT placed");
    let mut tiles: Vec<_> = pnr.placement.values().collect();
    tiles.sort_unstable();
    tiles.dedup();
    prop_assert_eq!(tiles.len(), d.luts.len(), "{label}: placement injective");
    prop_assert!(
        pnr.placement.values().all(|&(x, y)| x < pnr.grid && y < pnr.grid),
        "{label}: placement inside the grid"
    );
    prop_assert_eq!(
        pnr.connection_lengths.len(),
        lut_driven_connections(d),
        "{label}: every LUT-driven connection routed"
    );
    prop_assert_eq!(
        pnr.total_wirelength,
        pnr.connection_lengths.iter().sum::<usize>(),
        "{label}: wirelength is the sum of its parts"
    );
    if pnr.total_wirelength > 0 {
        prop_assert!(pnr.max_occupancy >= 1, "{label}: routed segments occupy channels");
    }
    Ok(())
}

#[test]
fn hier_and_flat_agree_on_legality() {
    let t = FpgaTiming::default();
    let cfg = SweepConfig::new().with_workers(1);
    prop::check("pnr.hier_vs_flat.legality", 48, |g| {
        let d = testgen::random_mapped_design(g);
        let (flat, flat_cp) = place_and_route(&d, &t);
        assert_legal(&d, &flat, "flat")?;
        prop_assert!(flat_cp > 0.0, "flat critical path");
        for p in [2usize, 3, 5] {
            let (pnr, cp, _, stats) = best_seeded_placement_hier(&d, 1, g.seed, &t, p, &cfg);
            assert_legal(&d, &pnr, "hier")?;
            prop_assert!(cp > 0.0, "hier critical path at p={p}");
            prop_assert_eq!(
                stats.local_nets + stats.boundary_nets,
                flat.connection_lengths.len(),
                "hier routes exactly the flat connection set at p={p}"
            );
        }
        Ok(())
    });
}

#[test]
fn hier_is_bit_identical_across_workers_and_partitions() {
    let t = FpgaTiming::default();
    prop::check("pnr.hier.worker_invariance", 48, |g| {
        let d = testgen::random_mapped_design(g);
        for p in [2usize, 5] {
            let serial = SweepConfig::new().with_workers(1);
            let (refr, ref_cp, _, ref_stats) =
                best_seeded_placement_hier(&d, 1, g.seed, &t, p, &serial);
            for workers in [2usize, 8] {
                for shard in [1usize, 3] {
                    let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard);
                    let (got, cp, _, stats) =
                        best_seeded_placement_hier(&d, 1, g.seed, &t, p, &cfg);
                    let tag = format!("p={p} w={workers} s={shard}");
                    prop_assert_eq!(&got.placement, &refr.placement, "placement {tag}");
                    prop_assert_eq!(
                        &got.connection_lengths,
                        &refr.connection_lengths,
                        "lengths {tag}"
                    );
                    prop_assert_eq!(got.max_occupancy, refr.max_occupancy, "occupancy {tag}");
                    prop_assert!(cp == ref_cp, "critical path {tag}: {cp} vs {ref_cp}");
                    prop_assert_eq!(&stats, &ref_stats, "stats {tag}");
                }
            }
        }
        Ok(())
    });
}

#[test]
fn hier_candidate_search_is_worker_invariant() {
    let t = FpgaTiming::default();
    prop::check("pnr.hier.search_worker_invariance", 16, |g| {
        let d = testgen::random_mapped_design(g);
        let (refr, ref_cp, ref_winner, _) =
            best_seeded_placement_hier(&d, 4, g.seed, &t, 3, &SweepConfig::new().with_workers(1));
        for workers in [2usize, 8] {
            let cfg = SweepConfig::new().with_workers(workers);
            let (got, cp, winner, _) = best_seeded_placement_hier(&d, 4, g.seed, &t, 3, &cfg);
            prop_assert_eq!(winner, ref_winner, "winner at w={workers}");
            prop_assert!(cp == ref_cp, "critical path at w={workers}");
            prop_assert_eq!(&got.placement, &refr.placement, "placement at w={workers}");
        }
        Ok(())
    });
}

#[test]
fn env_derived_worker_count_does_not_change_bits() {
    // `SweepConfig::new()` resolves `PMORPH_THREADS` at sweep time; the
    // scoped guard swaps the variable per run and restores it after.
    // This is the only test in the binary that mutates the environment —
    // every other test pins workers explicitly.
    let t = FpgaTiming::default();
    let d = testgen::grid_design(16, 16, 0xD1FF);
    let (refr, ref_cp, _, _) =
        best_seeded_placement_hier(&d, 1, 7, &t, 4, &SweepConfig::new().with_workers(1));
    for threads in ["1", "2", "8"] {
        let mut guard = EnvGuard::new();
        guard.set("PMORPH_THREADS", threads);
        let (got, cp, _, _) = best_seeded_placement_hier(&d, 1, 7, &t, 4, &SweepConfig::new());
        assert_eq!(got.placement, refr.placement, "PMORPH_THREADS={threads}");
        assert_eq!(got.connection_lengths, refr.connection_lengths);
        assert_eq!(got.max_occupancy, refr.max_occupancy);
        assert!(cp == ref_cp, "critical path at PMORPH_THREADS={threads}");
    }
}

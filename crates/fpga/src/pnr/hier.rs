//! Hierarchical placement.
//!
//! The flat flow in the parent module scan-places one ordering over one
//! square grid — fine for hundreds of LUTs, hopeless for the fabric
//! sizes the paper's density claim implies (>10⁹ cells/cm²). This module
//! places the classic way, after Kastrup's hybrid-CPU synthesis pipeline
//! (partition → per-block place → stitch), where the stitch needs no
//! step of its own (see below):
//!
//! 1. **Partition** the LUT connectivity graph into region-sized blocks
//!    by deterministic seeded recursive bipartitioning with FM-style
//!    positive-gain refinement (min-cut: fewer crossing connections ⇒
//!    fewer long routes between regions).
//! 2. **Lay the regions out** on a region grid, heavily coupled
//!    partitions in adjacent regions.
//! 3. **Place each candidate region by region**: candidate `c`
//!    scan-places each partition's BFS ordering, shuffled for `c > 0`,
//!    onto its region's sub-grid.
//!
//! Routing, timing and the candidate fold are the parent module's one
//! search, one sweep item per candidate. An L path between two tiles of
//! one region never leaves the region, so one route of the assembled
//! placement lays the same segments as routing each region on its own
//! and then the connections between regions.
//!
//! Legality is the same contract as the flat flow (every LUT-driven
//! connection routed, placement injective, occupancy accounted); the
//! *result* differs from flat — the differential suite checks legality
//! equivalence, not bit equality, between the two paths.
//!
//! Beyond scale, the hierarchy is what makes the seeded placement
//! *search* affordable: a shuffled flat candidate scatters connected
//! LUTs across the whole die (average route ~grid-sized), while a
//! hierarchical candidate only shuffles within regions — perturbations
//! stay region-local, so every candidate routes region-sized wire.

use super::{bfs_order, FpgaTiming, PnrResult};
use crate::mapper::{Lut, MappedDesign};
use pmorph_exec::SweepConfig;
use pmorph_sim::NetId;
use pmorph_util::rng::{mix_seed, Rng, StdRng};
use std::collections::HashMap;

/// LUT count at which [`super::best_seeded_placement`]'s auto mode
/// switches from the flat single-block flow to the hierarchical path.
/// Chosen so the serve benchmark set's largest circuits (a 64-bit ripple
/// adder maps to 192 LUTs) already take the scalable path.
pub const HIER_LUT_THRESHOLD: usize = 128;

/// Target LUTs per partition in auto mode: regions of ~64 LUTs place on
/// an 8×8 sub-grid, small enough that intra-region routes stay short.
pub const TARGET_REGION_LUTS: usize = 64;

/// The partition count auto mode resolves to for a design of `luts`
/// LUTs: `1` (flat) below [`HIER_LUT_THRESHOLD`], else one region per
/// [`TARGET_REGION_LUTS`].
pub fn auto_partitions(luts: usize) -> usize {
    if luts < HIER_LUT_THRESHOLD {
        1
    } else {
        luts.div_ceil(TARGET_REGION_LUTS).max(2)
    }
}

/// Diagnostics of one hierarchical run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Partitions actually used (after clamping to the LUT count).
    pub partitions: usize,
    /// Connections crossing a partition boundary.
    pub boundary_nets: usize,
}

/// A min-cut partitioning of a design's LUTs.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// LUT index → partition id (`0..partitions`).
    pub part_of: Vec<u32>,
    /// Partition id → member LUT indices, ascending.
    pub members: Vec<Vec<usize>>,
}

impl Partitioning {
    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.members.len()
    }

    /// Connections whose driver and sink LUTs land in different
    /// partitions (the cut the bipartitioner minimizes).
    pub fn cut_connections(&self, design: &MappedDesign) -> usize {
        let by_out: HashMap<NetId, usize> =
            design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
        let mut cut = 0;
        for (i, lut) in design.luts.iter().enumerate() {
            for inp in &lut.inputs {
                if let Some(&j) = by_out.get(inp) {
                    if self.part_of[i] != self.part_of[j] {
                        cut += 1;
                    }
                }
            }
        }
        cut
    }
}

/// Partition the design's LUT graph into exactly `partitions` blocks
/// (clamped to the LUT count) by recursive seeded bipartitioning.
///
/// Each bisection starts from a connectivity-contiguous split (the BFS
/// placement ordering, so tightly coupled cones start on one side) and
/// runs an FM-style refinement pass: nodes are visited in descending
/// stale-gain order (ties broken by a `mix_seed`-derived key, then
/// index) and moved across the cut when their *recomputed* gain is
/// positive and the balance slack allows. Everything is keyed by LUT
/// index and the seed — never by thread identity — so the partitioning
/// is deterministic on every host.
pub fn partition(design: &MappedDesign, partitions: usize, seed: u64) -> Partitioning {
    let n = design.luts.len();
    let p = partitions.clamp(1, n.max(1));
    let mut part_of = vec![0u32; n];
    if p > 1 {
        // Weighted adjacency (parallel connections collapse into edge
        // weight), built once and shared by every bisection level.
        let by_out: HashMap<NetId, usize> =
            design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
        let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for (i, lut) in design.luts.iter().enumerate() {
            for inp in &lut.inputs {
                if let Some(&j) = by_out.get(inp) {
                    if i != j {
                        bump_edge(&mut adj[i], j);
                        bump_edge(&mut adj[j], i);
                    }
                }
            }
        }
        // Recursive bisection over (member set, parts wanted, base id),
        // with flat LUT-indexed scratch planes reused across every level
        // (hashing per-node state here dominated the whole flow before).
        let order = bfs_order(design);
        let mut side = vec![false; n];
        let mut in_set = vec![false; n];
        let mut stack: Vec<(Vec<usize>, usize, u32)> = vec![(order, p, 0)];
        while let Some((nodes, parts, base)) = stack.pop() {
            if parts <= 1 {
                for &i in &nodes {
                    part_of[i] = base;
                }
                continue;
            }
            let left_parts = parts.div_ceil(2);
            let (left, right) = bisect(
                &nodes,
                &adj,
                left_parts,
                parts,
                mix_seed(seed, base as u64),
                &mut side,
                &mut in_set,
            );
            stack.push((right, parts - left_parts, base + left_parts as u32));
            stack.push((left, left_parts, base));
        }
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); p];
    for (i, &pt) in part_of.iter().enumerate() {
        members[pt as usize].push(i);
    }
    Partitioning { part_of, members }
}

fn bump_edge(edges: &mut Vec<(usize, u32)>, to: usize) {
    match edges.iter_mut().find(|(j, _)| *j == to) {
        Some((_, w)) => *w += 1,
        None => edges.push((to, 1)),
    }
}

/// One seeded FM-style bisection of `nodes` (given in a connectivity-
/// contiguous order): split so the left side will host `left_parts` of
/// `parts` leaf partitions, then refine the cut. `side`/`in_set` are
/// LUT-indexed scratch planes; `in_set` is restored to all-false before
/// returning.
fn bisect(
    nodes: &[usize],
    adj: &[Vec<(usize, u32)>],
    left_parts: usize,
    parts: usize,
    seed: u64,
    side: &mut [bool],
    in_set: &mut [bool],
) -> (Vec<usize>, Vec<usize>) {
    let n = nodes.len();
    // Proportional target, kept feasible: each side must end with at
    // least one node per leaf partition it will host.
    let target_left = (n * left_parts / parts).clamp(left_parts, n - (parts - left_parts));
    for &i in nodes {
        in_set[i] = true;
    }
    // Initial split along the inherited BFS ordering: both halves stay
    // connectivity-contiguous bands, so recursion yields geometrically
    // coherent partitions (growing connected blobs instead was tried —
    // the complement side fragments at deeper levels and the resulting
    // partition graph places much worse than contiguous bands).
    for (k, &i) in nodes.iter().enumerate() {
        side[i] = k < target_left;
    }
    let mut left_size = target_left;
    let slack = (n / 16).max(1);

    // Moving `i` across the cut gains (external − internal) edge weight.
    let gain = |i: usize, side: &[bool], in_set: &[bool]| -> i64 {
        let my = side[i];
        let mut g = 0i64;
        for &(j, w) in &adj[i] {
            if !in_set[j] {
                continue;
            }
            if side[j] == my {
                g -= w as i64;
            } else {
                g += w as i64;
            }
        }
        g
    };

    // One refinement pass: stale-gain ordering, recomputed-gain moves.
    // (A second pass was measured to recover <1% more cut for ~50% more
    // partitioning time — not worth it at this refinement strength.)
    let mut ranked: Vec<(i64, u64, usize)> =
        nodes.iter().map(|&i| (gain(i, side, in_set), mix_seed(seed, i as u64), i)).collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    for &(_, _, i) in &ranked {
        let my = side[i];
        // Balance feasibility for moving `i` off side `my`.
        let feasible = if my {
            left_size > target_left.saturating_sub(slack) && left_size > left_parts
        } else {
            left_size < (target_left + slack).min(n - (parts - left_parts))
        };
        if !feasible {
            continue;
        }
        if gain(i, side, in_set) > 0 {
            side[i] = !my;
            if my {
                left_size -= 1;
            } else {
                left_size += 1;
            }
        }
    }

    let mut left = Vec::with_capacity(left_size);
    let mut right = Vec::with_capacity(n - left_size);
    for &i in nodes {
        if side[i] {
            left.push(i);
        } else {
            right.push(i);
        }
        in_set[i] = false;
    }
    (left, right)
}

/// Geometry of the hierarchical fabric: regions on a near-square region
/// grid, each a `region_side × region_side` sub-grid of tiles, with
/// partitions assigned to region slots by connectivity so that heavily
/// coupled partitions sit in adjacent regions (boundary routes stay
/// short — assigning slots by partition id makes the critical path
/// track the *id* numbering instead of the netlist).
struct RegionLayout {
    region_side: usize,
    grid: usize,
    /// Partition id → region tile origin.
    origins: Vec<(usize, usize)>,
}

impl RegionLayout {
    fn new(design: &MappedDesign, parts: &Partitioning) -> RegionLayout {
        let p = parts.partitions().max(1);
        let biggest = parts.members.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let region_side = (biggest as f64).sqrt().ceil() as usize;
        let region_cols = (p as f64).sqrt().ceil() as usize;
        let region_rows = p.div_ceil(region_cols);
        let side = region_cols.max(region_rows);

        // Partition-level connectivity: weight = crossing connections.
        let by_out: HashMap<NetId, usize> =
            design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
        let mut pw: Vec<Vec<(usize, u32)>> = vec![Vec::new(); p];
        for (i, lut) in design.luts.iter().enumerate() {
            for inp in &lut.inputs {
                if let Some(&j) = by_out.get(inp) {
                    let (a, b) = (parts.part_of[i] as usize, parts.part_of[j] as usize);
                    if a != b {
                        bump_edge(&mut pw[a], b);
                        bump_edge(&mut pw[b], a);
                    }
                }
            }
        }

        // Greedy constructive placement of partitions onto the slot
        // grid: seed the heaviest partition at the center, then place
        // the unplaced partition most attached to the placed set at the
        // free slot minimizing weighted Manhattan distance to its placed
        // neighbours. All ties break on the smaller index — fully
        // deterministic, no thread or hash-order dependence.
        let mut slot_of: Vec<Option<(usize, usize)>> = vec![None; p];
        let mut free: Vec<(usize, usize)> =
            (0..side * side).map(|s| (s % side, s / side)).collect();
        let mut attach: Vec<u64> = vec![0; p];
        let degree = |k: usize| -> u64 { pw[k].iter().map(|&(_, w)| w as u64).sum() };
        let mut placed = 0usize;
        while placed < p {
            let pick = if placed == 0 {
                (0..p).max_by_key(|&k| (degree(k), std::cmp::Reverse(k))).unwrap()
            } else {
                (0..p)
                    .filter(|&k| slot_of[k].is_none())
                    .max_by_key(|&k| (attach[k], std::cmp::Reverse(k)))
                    .unwrap()
            };
            let dist = |(x, y): (usize, usize), (ox, oy): (usize, usize)| -> u64 {
                (x.abs_diff(ox) + y.abs_diff(oy)) as u64
            };
            let center = (side / 2, side / 2);
            let (fi, _) = free
                .iter()
                .enumerate()
                .min_by_key(|&(fi, &slot)| {
                    let cost: u64 = pw[pick]
                        .iter()
                        .filter_map(|&(nb, w)| slot_of[nb].map(|s| w as u64 * dist(slot, s)))
                        .sum();
                    // Pull toward the center when unconstrained so
                    // disconnected partitions don't scatter to corners.
                    (cost, dist(slot, center), fi)
                })
                .unwrap();
            let slot = free.swap_remove(fi);
            slot_of[pick] = Some(slot);
            for &(nb, w) in &pw[pick] {
                attach[nb] += w as u64;
            }
            placed += 1;
        }

        let origins = slot_of
            .into_iter()
            .map(|s| {
                let (sx, sy) = s.expect("every partition got a slot");
                (sx * region_side, sy * region_side)
            })
            .collect();
        RegionLayout { region_side, grid: region_side * side, origins }
    }

    /// Tile origin of partition `k`'s region.
    fn origin(&self, k: usize) -> (usize, usize) {
        self.origins[k]
    }
}

/// Everything about a partitioning that candidates share, computed once
/// per search: the region layout, each partition's base BFS ordering
/// (as LUT output nets) and the search's [`HierStats`].
struct HierContext {
    layout: RegionLayout,
    orders: Vec<Vec<u32>>,
    stats: HierStats,
}

fn prepare(design: &MappedDesign, partitions: usize, seed: u64) -> HierContext {
    let parts = partition(design, partitions, seed);
    let layout = RegionLayout::new(design, &parts);
    let by_out: HashMap<NetId, usize> =
        design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();

    // A LUT exports when its output leaves the partition (feeds another
    // region or is a design output) — those seed the local BFS ordering.
    let mut exports = vec![false; design.luts.len()];
    for &o in &design.outputs {
        if let Some(&i) = by_out.get(&o) {
            exports[i] = true;
        }
    }
    let mut boundary_nets = 0;
    for (i, lut) in design.luts.iter().enumerate() {
        for inp in &lut.inputs {
            if let Some(&j) = by_out.get(inp) {
                if parts.part_of[i] != parts.part_of[j] {
                    exports[j] = true;
                    boundary_nets += 1;
                }
            }
        }
    }

    let orders = parts
        .members
        .iter()
        .map(|m| {
            let sub = sub_design(design, m, &exports);
            bfs_order(&sub).into_iter().map(|i| sub.luts[i].output.0).collect()
        })
        .collect();
    let stats = HierStats { partitions: parts.partitions(), boundary_nets };
    HierContext { layout, orders, stats }
}

/// The extracted sub-design of one partition: member LUTs (in ascending
/// index order) with the partition's exports as local outputs. Inputs
/// driven by other partitions are left dangling on purpose, so its BFS
/// ordering follows only the partition's own connections.
fn sub_design(design: &MappedDesign, members: &[usize], exports: &[bool]) -> MappedDesign {
    let luts: Vec<Lut> = members.iter().map(|&i| design.luts[i].clone()).collect();
    let outputs: Vec<NetId> =
        members.iter().filter(|&&i| exports[i]).map(|&i| design.luts[i].output).collect();
    MappedDesign { luts, outputs, ..MappedDesign::default() }
}

/// One hierarchical candidate's placement: slot `s` of partition `k`'s
/// ordering lands at `(s % side, s / side)` of `k`'s region. Candidate
/// `0` uses each partition's BFS ordering; candidate `c > 0` shuffles
/// partition `k`'s with `mix_seed(mix_seed(seed, k), c)` — keyed by
/// partition index and candidate only (contract rule 1). Records the
/// assembly as the `fpga.pnr.stitch` span.
fn hier_candidate(ctx: &HierContext, seed: u64, candidate: usize) -> PnrResult {
    let stitch_t = pmorph_obs::enabled().then(std::time::Instant::now);
    let rs = ctx.layout.region_side;
    let mut placement = HashMap::new();
    for (k, base) in ctx.orders.iter().enumerate() {
        let mut order = base.clone();
        if candidate > 0 {
            let mut rng =
                StdRng::seed_from_u64(mix_seed(mix_seed(seed, k as u64), candidate as u64));
            rng.shuffle(&mut order);
        }
        let (ox, oy) = ctx.layout.origin(k);
        for (slot, net) in order.into_iter().enumerate() {
            placement.insert(net, (ox + slot % rs, oy + slot / rs));
        }
    }
    pmorph_obs::counter!("fpga.pnr.partitions").add(ctx.stats.partitions as u64);
    pmorph_obs::counter!("fpga.pnr.boundary_nets").add(ctx.stats.boundary_nets as u64);
    if let Some(t0) = stitch_t {
        let ns = t0.elapsed().as_nanos() as u64;
        pmorph_obs::span!("fpga.pnr.stitch").record_ns(ns);
        pmorph_obs::trace::complete("fpga.pnr.stitch", "fpga", t0, ns);
    }
    PnrResult { grid: ctx.layout.grid, placement, ..PnrResult::default() }
}

/// Seeded placement-candidate search on the hierarchical flow: the
/// partitioning and region layout are computed once, candidate `c`
/// varies each partition's ordering, and the parent module's search
/// routes, times and folds the candidates, sharded across `cfg`'s
/// workers like the flat search's. Candidate 0 alone is the plain
/// hierarchical place-and-route.
pub fn best_seeded_placement_hier(
    design: &MappedDesign,
    candidates: usize,
    seed: u64,
    timing: &FpgaTiming,
    partitions: usize,
    cfg: &SweepConfig,
) -> (PnrResult, f64, usize, HierStats) {
    let ctx = prepare(design, partitions, seed);
    let (pnr, cp, winner) =
        super::search(design, candidates, timing, cfg, |c| hier_candidate(&ctx, seed, c));
    (pnr, cp, winner, ctx.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;

    fn design_400() -> MappedDesign {
        testgen::grid_design(20, 20, 0xA11CE)
    }

    #[test]
    fn auto_partitions_threshold() {
        assert_eq!(auto_partitions(0), 1);
        assert_eq!(auto_partitions(HIER_LUT_THRESHOLD - 1), 1);
        assert!(auto_partitions(HIER_LUT_THRESHOLD) >= 2);
        assert_eq!(auto_partitions(640), 10);
    }

    #[test]
    fn partitioning_is_a_balanced_cover() {
        let d = design_400();
        for p in [2usize, 3, 7] {
            let parts = partition(&d, p, 5);
            assert_eq!(parts.partitions(), p);
            let total: usize = parts.members.iter().map(Vec::len).sum();
            assert_eq!(total, d.luts.len(), "every LUT in exactly one partition");
            for (k, m) in parts.members.iter().enumerate() {
                assert!(!m.is_empty(), "partition {k} empty at p={p}");
                assert!(m.windows(2).all(|w| w[0] < w[1]), "members ascending");
                for &i in m {
                    assert_eq!(parts.part_of[i], k as u32);
                }
            }
            // Balance: no partition more than ~2x the even share.
            let biggest = parts.members.iter().map(Vec::len).max().unwrap();
            assert!(biggest <= 2 * d.luts.len().div_ceil(p), "p={p}: biggest {biggest}");
        }
    }

    #[test]
    fn refinement_beats_a_round_robin_cut() {
        // The grid fabric is overwhelmingly local, so a min-cut split
        // must beat the worst-case striped assignment by a wide margin.
        let d = design_400();
        let parts = partition(&d, 4, 9);
        let cut = parts.cut_connections(&d);
        let striped = Partitioning {
            part_of: (0..d.luts.len()).map(|i| (i % 4) as u32).collect(),
            members: (0..4).map(|k| (0..d.luts.len()).filter(|i| i % 4 == k).collect()).collect(),
        };
        let striped_cut = striped.cut_connections(&d);
        assert!(cut * 2 < striped_cut, "min-cut {cut} vs striped {striped_cut}");
    }

    #[test]
    fn hier_result_is_legal_and_timed() {
        let d = design_400();
        let t = FpgaTiming::default();
        let (pnr, cp, _, stats) = best_seeded_placement_hier(&d, 1, 3, &t, 7, &SweepConfig::new());
        assert_eq!(pnr.placement.len(), d.luts.len());
        // Injective placement within the region grid.
        let mut tiles: Vec<_> = pnr.placement.values().collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), d.luts.len(), "two LUTs share a tile");
        assert!(pnr.placement.values().all(|&(x, y)| x < pnr.grid && y < pnr.grid));
        // Every LUT-driven connection routed, totals consistent.
        let (flat, _) = super::super::place_and_route(&d, &t);
        assert_eq!(pnr.connection_lengths.len(), flat.connection_lengths.len());
        assert_eq!(pnr.total_wirelength, pnr.connection_lengths.iter().sum::<usize>());
        assert_eq!(stats.boundary_nets, partition(&d, 7, 3).cut_connections(&d));
        assert!(stats.boundary_nets > 0, "a 7-way split of a connected fabric has a cut");
        assert!(cp > 0.0);
    }

    #[test]
    fn candidate_search_never_loses_to_candidate_zero() {
        let d = design_400();
        let t = FpgaTiming::default();
        let cfg = SweepConfig::new();
        let (_, base_cp, _, base_stats) = best_seeded_placement_hier(&d, 1, 11, &t, 6, &cfg);
        let (_, cp, winner, stats) = best_seeded_placement_hier(&d, 5, 11, &t, 6, &cfg);
        assert!(cp <= base_cp, "search {cp} vs candidate-0 {base_cp}");
        assert!(winner < 5);
        assert_eq!(stats.partitions, base_stats.partitions);
    }

    #[test]
    fn dispatcher_follows_the_requested_partition_count() {
        let d = design_400();
        let t = FpgaTiming::default();
        let cfg = SweepConfig::new();
        let auto = auto_partitions(d.luts.len());
        assert!(auto > 1, "400 LUTs is past the threshold");
        // 0 resolves to auto mode: the hierarchical search
        let via_dispatch = super::super::best_seeded_placement(&d, 3, 21, &t, 0, &cfg);
        let direct = best_seeded_placement_hier(&d, 3, 21, &t, auto, &cfg);
        assert_eq!(via_dispatch.0.placement, direct.0.placement);
        assert_eq!(via_dispatch.1, direct.1);
        assert_eq!(via_dispatch.2, direct.2);
        assert_eq!(via_dispatch.3, Some(direct.3));
        // 1 forces the flat search, whatever the size
        let flat = super::super::best_seeded_placement(&d, 3, 21, &t, 1, &cfg);
        let direct = super::super::best_seeded_placement_flat(&d, 3, 21, &t, &cfg);
        assert_eq!(
            (flat.0.placement, flat.1, flat.2, flat.3),
            (direct.0.placement, direct.1, direct.2, None)
        );
        // an explicit split stays hierarchical even when clamped to one
        // region: the path follows the request, not the clamped count
        let tiny = testgen::grid_design(1, 1, 3);
        let clamped =
            super::super::best_seeded_placement(&tiny, 2, 1, &t, tiny.luts.len() + 3, &cfg);
        assert_eq!(clamped.3.map(|s| s.partitions), Some(tiny.luts.len()));
    }
}

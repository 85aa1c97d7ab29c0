//! Placement, global routing and timing for the baseline FPGA.
//!
//! Deliberately simple but *real*: CLBs go onto a near-square grid
//! (deterministic scan order after a connectivity-driven ordering pass);
//! every LUT input connection is routed as a 2-pin net along one
//! x-then-y L path through the channel grid, counting per-segment
//! occupancy without steering around it; timing is longest-path with LUT
//! delay plus per-segment routing delay. The routing delay carries the §2.1
//! scaling law — segmented interconnect stops tracking gate speed as λ
//! shrinks — so the same code yields both the absolute comparisons (E12)
//! and the scaling study (E14).

use crate::mapper::MappedDesign;
use pmorph_exec::{sweep, SweepConfig};
use pmorph_sim::NetId;
use pmorph_util::rng::{mix_seed, Rng, StdRng};
use std::collections::{HashMap, VecDeque};

pub mod hier;

/// Routing failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PnrError {
    /// A connection endpoint (driver or sink of a LUT-driven net) has no
    /// entry in the placement — routing it is impossible, and silently
    /// skipping it would under-report wirelength and leave the design
    /// electrically open.
    Unplaced {
        /// The net whose endpoint is missing from the placement.
        net: NetId,
    },
}

impl std::fmt::Display for PnrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PnrError::Unplaced { net } => {
                write!(f, "connection endpoint net {} has no placement", net.0)
            }
        }
    }
}

impl std::error::Error for PnrError {}

/// Placement + routing result.
#[derive(Clone, Debug, Default)]
pub struct PnrResult {
    /// Grid side (tiles).
    pub grid: usize,
    /// LUT output net → tile (x, y).
    pub placement: HashMap<u32, (usize, usize)>,
    /// Routed wirelength per connection (channel segments).
    pub connection_lengths: Vec<usize>,
    /// Maximum channel-segment occupancy seen.
    pub max_occupancy: usize,
    /// Total wirelength (segments).
    pub total_wirelength: usize,
}

/// Timing parameters at the reference node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FpgaTiming {
    /// LUT + local mux delay (ps).
    pub lut_ps: f64,
    /// Per-channel-segment routed delay (switch + wire RC) (ps).
    pub segment_ps: f64,
}

impl Default for FpgaTiming {
    fn default() -> Self {
        FpgaTiming { lut_ps: 45.0, segment_ps: 80.0 }
    }
}

impl FpgaTiming {
    /// Scale to a relative feature size: gates track λ, segmented global
    /// interconnect only improves as √λ (De Dinechin [18], §2.1).
    pub fn scaled(&self, lambda_rel: f64) -> FpgaTiming {
        FpgaTiming {
            lut_ps: self.lut_ps * lambda_rel,
            segment_ps: self.segment_ps * lambda_rel.sqrt(),
        }
    }
}

/// Place a mapped design: connectivity-aware ordering (BFS from the first
/// output cone) then scan placement on the smallest square grid.
pub fn place(design: &MappedDesign) -> PnrResult {
    place_with_order(design, &bfs_order(design))
}

/// The deterministic connectivity-driven LUT ordering: BFS over fanin
/// edges from the output cones, stragglers appended in index order.
fn bfs_order(design: &MappedDesign) -> Vec<usize> {
    let by_out: HashMap<NetId, usize> =
        design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
    let mut order = Vec::with_capacity(design.luts.len());
    let mut seen = vec![false; design.luts.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &o in &design.outputs {
        if let Some(&i) = by_out.get(&o) {
            if !seen[i] {
                seen[i] = true;
                queue.push_back(i);
            }
        }
    }
    while let Some(i) = queue.pop_front() {
        order.push(i);
        for inp in &design.luts[i].inputs {
            if let Some(&j) = by_out.get(inp) {
                if !seen[j] {
                    seen[j] = true;
                    queue.push_back(j);
                }
            }
        }
    }
    for (i, seen_i) in seen.iter().enumerate() {
        if !seen_i {
            order.push(i);
        }
    }
    order
}

/// Scan placement of an explicit LUT ordering onto the smallest square
/// grid (slot `k` of `order` lands at `(k % grid, k / grid)`).
fn place_with_order(design: &MappedDesign, order: &[usize]) -> PnrResult {
    let grid = (design.luts.len().max(1) as f64).sqrt().ceil() as usize;
    let mut placement = HashMap::new();
    for (slot, &lut_idx) in order.iter().enumerate() {
        placement.insert(design.luts[lut_idx].output.0, (slot % grid, slot / grid));
    }
    PnrResult { grid, placement, ..PnrResult::default() }
}

/// Seeded placement-candidate search, the one PnR entry point.
/// Candidate 0 is the deterministic BFS placement ([`place`] on the flat
/// path, each partition's BFS ordering on the hierarchical one);
/// candidate `k > 0` shuffles those orderings, seeded by `seed` and `k`
/// alone. The winner is the argmin of `(critical path, total
/// wirelength, candidate index)` — a total order, so the result is
/// deterministic at any worker count or shard size, and never worse
/// than candidate 0.
///
/// `partitions` is the serve spec's field: `0` resolves to
/// [`hier::auto_partitions`], `1` runs the flat single-block search
/// ([`best_seeded_placement_flat`]), and more runs the hierarchical
/// search ([`hier::best_seeded_placement_hier`]) with that many regions,
/// clamped to the LUT count, which also returns its [`hier::HierStats`].
pub fn best_seeded_placement(
    design: &MappedDesign,
    candidates: usize,
    seed: u64,
    timing: &FpgaTiming,
    partitions: usize,
    cfg: &SweepConfig,
) -> (PnrResult, f64, usize, Option<hier::HierStats>) {
    let partitions = match partitions {
        0 => hier::auto_partitions(design.luts.len()),
        p => p,
    };
    if partitions > 1 {
        let (pnr, cp, winner, stats) =
            hier::best_seeded_placement_hier(design, candidates, seed, timing, partitions, cfg);
        return (pnr, cp, winner, Some(stats));
    }
    let (pnr, cp, winner) = best_seeded_placement_flat(design, candidates, seed, timing, cfg);
    (pnr, cp, winner, None)
}

/// The flat (single-block) seeded placement search: candidate `c > 0`
/// scan-places the BFS ordering shuffled with `mix_seed(seed, c)`. The
/// hierarchical search is held to it for legality only
/// (`pnr_differential.rs`); their results differ by design.
#[doc(hidden)]
pub fn best_seeded_placement_flat(
    design: &MappedDesign,
    candidates: usize,
    seed: u64,
    timing: &FpgaTiming,
    cfg: &SweepConfig,
) -> (PnrResult, f64, usize) {
    let base_order = bfs_order(design);
    search(design, candidates, timing, cfg, |c| {
        let mut order = base_order.clone();
        if c > 0 {
            // candidate seed keyed by candidate index alone (contract
            // rule 1), never by shard/worker identity
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, c as u64));
            rng.shuffle(&mut order);
        }
        place_with_order(design, &order)
    })
}

/// The most candidates one sweep of [`search`] routes, so a search holds
/// at most this many routed candidates at once whatever its size. 64 is
/// the most any benchmark `place_route` spec asks for, so those searches
/// stay one sweep each.
const SEARCH_BLOCK: usize = 64;

/// The search both flows run. Each candidate is one sweep item:
/// `place(c)` lays it out, [`route`] routes it and [`critical_path_ps`]
/// times it. Blocks of up to [`SEARCH_BLOCK`] candidates fold in index
/// order: a candidate replaces the incumbent only when strictly better
/// under `(cp, wirelength, index)`, a strict total order, so the winner
/// is the same at any worker count, shard size or block split, and the
/// fold also counts how often the search improved on candidate 0. Adds
/// the `fpga.pnr.candidates`/`improvements` counters and records the
/// `fpga.pnr.search` span.
fn search(
    design: &MappedDesign,
    candidates: usize,
    timing: &FpgaTiming,
    cfg: &SweepConfig,
    place: impl Fn(usize) -> PnrResult + Sync,
) -> (PnrResult, f64, usize) {
    let candidates = candidates.max(1);
    let obs_t0 = pmorph_obs::enabled().then(std::time::Instant::now);
    let mut improvements = 0u64;
    let mut best: Option<(usize, PnrResult, f64)> = None;
    for start in (0..candidates).step_by(SEARCH_BLOCK) {
        let block = sweep(
            (candidates - start).min(SEARCH_BLOCK),
            cfg,
            || (),
            |_, k| {
                let mut pnr = place(start + k);
                route(design, &mut pnr).expect("every candidate places every LUT");
                let cp = critical_path_ps(design, &pnr, timing);
                (pnr, cp)
            },
        );
        for (i, (pnr, cp)) in (start..).zip(block) {
            let beats = |(bi, bp, bc): &(usize, PnrResult, f64)| {
                let wl = pnr.total_wirelength.cmp(&bp.total_wirelength);
                cp.total_cmp(bc).then(wl).then(i.cmp(bi)).is_lt()
            };
            if best.as_ref().is_none_or(beats) {
                improvements += best.is_some() as u64;
                best = Some((i, pnr, cp));
            }
        }
    }
    pmorph_obs::counter!("fpga.pnr.candidates").add(candidates as u64);
    pmorph_obs::counter!("fpga.pnr.improvements").add(improvements);
    if let Some(t0) = obs_t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        pmorph_obs::span!("fpga.pnr.search").record_ns(ns);
        pmorph_obs::trace::complete("fpga.pnr.search", "fpga", t0, ns);
    }
    let (winner, pnr, cp) = best.expect("at least one candidate");
    (pnr, cp, winner)
}

/// Route every LUT-input connection through the channel grid along one
/// fixed x-then-y L path, counting the occupancy of each segment it
/// uses (congestion is reported, not avoided). Channel segments:
/// horizontal between `(x,y)-(x+1,y)` (`dir 0`), vertical between
/// `(x,y)-(x,y+1)` (`dir 1`), counted in one dense `grid × grid × 2`
/// plane.
///
/// Every LUT-driven connection must have both endpoints placed: a
/// missing entry is a [`PnrError::Unplaced`] naming the offending net,
/// not a silent skip (which used to under-report wirelength and leave
/// the design electrically open).
pub fn route(design: &MappedDesign, pnr: &mut PnrResult) -> Result<(), PnrError> {
    let g = pnr.grid.max(1);
    let mut occ = vec![0usize; g * g * 2];
    let by_out: HashMap<u32, ()> = design.luts.iter().map(|l| (l.output.0, ())).collect();
    for lut in &design.luts {
        let Some(&dst) = pnr.placement.get(&lut.output.0) else {
            return Err(PnrError::Unplaced { net: lut.output });
        };
        for inp in &lut.inputs {
            if !by_out.contains_key(&inp.0) {
                continue; // primary input: assume perimeter injection
            }
            let Some(&src) = pnr.placement.get(&inp.0) else {
                return Err(PnrError::Unplaced { net: *inp });
            };
            if src == dst {
                pnr.connection_lengths.push(0);
                continue;
            }
            // the L path, charging occupancy along it
            let mut len = 0;
            for (x, y, dir) in l_path(src, dst) {
                let e = &mut occ[(y * g + x) * 2 + dir as usize];
                *e += 1;
                pnr.max_occupancy = pnr.max_occupancy.max(*e);
                len += 1;
            }
            pnr.connection_lengths.push(len);
            pnr.total_wirelength += len;
        }
    }
    Ok(())
}

/// Channel segments along the L-shaped (x-then-y) `src`→`dst` route.
fn l_path(src: (usize, usize), dst: (usize, usize)) -> Vec<(usize, usize, u8)> {
    let mut segs = Vec::new();
    walk_path(src, dst, |x, y, dir| segs.push((x, y, dir)));
    segs
}

/// Visit the segments of the L-shaped (x-then-y) `src`→`dst` route in
/// order without materializing them.
fn walk_path(
    (sx, sy): (usize, usize),
    (dx, dy): (usize, usize),
    mut f: impl FnMut(usize, usize, u8),
) {
    let (mut x, mut y) = (sx, sy);
    while x != dx {
        let nx = if dx > x { x + 1 } else { x - 1 };
        f(x.min(nx), y, 0u8);
        x = nx;
    }
    while y != dy {
        let ny = if dy > y { y + 1 } else { y - 1 };
        f(x, y.min(ny), 1u8);
        y = ny;
    }
}

/// Longest combinational path delay of a routed design (ps).
///
/// Iterative DFS with an explicit frame stack — fabric-scale designs
/// (10⁴+ LUTs with long carry-style chains) would overflow the thread
/// stack under the naive recursion this replaces. The traversal order
/// and the 0.0 loop-guard semantics (FF boundaries break real loops)
/// are exactly the recursion's, so the result bits are unchanged.
pub fn critical_path_ps(design: &MappedDesign, pnr: &PnrResult, timing: &FpgaTiming) -> f64 {
    let by_out: HashMap<NetId, usize> =
        design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
    let mut memo: HashMap<usize, f64> = HashMap::new();
    // DFS frames: Enter marks the loop guard and schedules children in
    // input order (pushed reversed onto the LIFO stack); Exit folds the
    // memoized child arrivals exactly as the recursion's return did.
    enum Frame {
        Enter(usize),
        Exit(usize),
    }
    let arrival = |root: usize, memo: &mut HashMap<usize, f64>| -> f64 {
        let mut stack = vec![Frame::Enter(root)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(i) => {
                    if memo.contains_key(&i) {
                        continue;
                    }
                    memo.insert(i, 0.0); // loop guard
                    stack.push(Frame::Exit(i));
                    for inp in design.luts[i].inputs.iter().rev() {
                        if let Some(&j) = by_out.get(inp) {
                            stack.push(Frame::Enter(j));
                        }
                    }
                }
                Frame::Exit(i) => {
                    let lut = &design.luts[i];
                    let dst = pnr.placement.get(&lut.output.0);
                    let mut worst: f64 = 0.0;
                    for inp in &lut.inputs {
                        if let Some(&j) = by_out.get(inp) {
                            let src = pnr.placement.get(&inp.0);
                            let dist = match (src, dst) {
                                (Some(&(sx, sy)), Some(&(dx, dy))) => {
                                    sx.abs_diff(dx) + sy.abs_diff(dy)
                                }
                                _ => 1,
                            };
                            worst = worst.max(memo[&j] + dist as f64 * timing.segment_ps);
                        }
                    }
                    memo.insert(i, worst + timing.lut_ps);
                }
            }
        }
        memo[&root]
    };
    let mut worst: f64 = 0.0;
    for &o in &design.outputs {
        if let Some(&i) = by_out.get(&o) {
            worst = worst.max(arrival(i, &mut memo));
        }
    }
    worst
}

/// One-call flow: place, route, and report `(pnr, critical path ps)`.
pub fn place_and_route(design: &MappedDesign, timing: &FpgaTiming) -> (PnrResult, f64) {
    let mut pnr = place(design);
    route(design, &mut pnr).expect("place() covers every LUT");
    let cp = critical_path_ps(design, &pnr, timing);
    (pnr, cp)
}

/// Smallest channel width that routes the design without oversubscribed
/// segments — the VPR-style metric (route once; the max occupancy *is*
/// the minimum W for this congestion-unaware router).
pub fn min_channel_width(design: &MappedDesign) -> usize {
    let mut pnr = place(design);
    route(design, &mut pnr).expect("place() covers every LUT");
    pnr.max_occupancy.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{tech_map, verify_mapping};
    use pmorph_sim::NetlistBuilder;

    fn tree_design(width: usize) -> MappedDesign {
        let mut b = NetlistBuilder::new();
        let ins: Vec<_> = (0..width).map(|i| b.net(format!("i{i}"))).collect();
        let mut level = ins;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(b.and(&[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        let out = level[0];
        let nl = b.build();
        let d = tech_map(&nl, &[out], 4).unwrap();
        assert!(verify_mapping(&nl, &d, 5, 20));
        d
    }

    #[test]
    fn placement_covers_all_luts() {
        let d = tree_design(32);
        let pnr = place(&d);
        assert_eq!(pnr.placement.len(), d.luts.len());
        assert!(pnr.grid * pnr.grid >= d.luts.len());
    }

    #[test]
    fn routing_produces_finite_wirelength() {
        let d = tree_design(32);
        let mut pnr = place(&d);
        route(&d, &mut pnr).unwrap();
        assert!(pnr.total_wirelength > 0);
        assert!(pnr.max_occupancy >= 1);
    }

    #[test]
    fn missing_placement_is_a_structured_error() {
        // Regression: `route` used to silently skip connections whose
        // endpoint was absent from the placement, under-reporting
        // wirelength. It must now name the unplaced net.
        let d = tree_design(16);

        // Drop a *driver* (some LUT output that feeds another LUT).
        let inner = d
            .luts
            .iter()
            .flat_map(|l| &l.inputs)
            .find(|n| d.luts.iter().any(|l| l.output == **n))
            .copied()
            .expect("tree has internal nets");
        let mut pnr = place(&d);
        pnr.placement.remove(&inner.0);
        assert_eq!(route(&d, &mut pnr), Err(PnrError::Unplaced { net: inner }));

        // Drop a *sink* (a LUT's own output tile).
        let sink = d.luts[0].output;
        let mut pnr = place(&d);
        pnr.placement.remove(&sink.0);
        assert_eq!(route(&d, &mut pnr), Err(PnrError::Unplaced { net: sink }));

        let msg = PnrError::Unplaced { net: sink }.to_string();
        assert!(msg.contains(&sink.0.to_string()), "{msg}");
    }

    #[test]
    fn critical_path_grows_with_tree_depth() {
        let t = FpgaTiming::default();
        let small = {
            let d = tree_design(4);
            place_and_route(&d, &t).1
        };
        let large = {
            let d = tree_design(64);
            place_and_route(&d, &t).1
        };
        assert!(large > small, "{small} vs {large}");
    }

    #[test]
    fn min_channel_width_reported() {
        let small = min_channel_width(&tree_design(8));
        let big = min_channel_width(&tree_design(64));
        assert!(small >= 1);
        assert!(big >= small, "bigger designs need at least as many tracks");
        // within the default architecture's channel budget
        assert!(big <= crate::arch::FpgaArch::default().channel_width);
    }

    #[test]
    fn seeded_search_candidate_zero_is_the_unseeded_flow() {
        let d = tree_design(32);
        let t = FpgaTiming::default();
        let (base_pnr, base_cp) = place_and_route(&d, &t);
        let (pnr, cp, idx, stats) =
            best_seeded_placement(&d, 1, 0xF1A5, &t, 0, &SweepConfig::new());
        assert_eq!(stats, None, "32 LUTs stay on the flat path");
        assert_eq!(idx, 0, "single candidate must be the BFS ordering");
        assert_eq!(cp, base_cp);
        assert_eq!(pnr.placement, base_pnr.placement);
        assert_eq!(pnr.total_wirelength, base_pnr.total_wirelength);
    }

    #[test]
    fn seeded_search_is_deterministic_across_workers_and_shards() {
        let d = tree_design(64);
        let t = FpgaTiming::default();
        let reference =
            best_seeded_placement(&d, 12, 7, &t, 0, &SweepConfig::new().with_workers(1));
        for workers in [1usize, 2, 3, 8] {
            for shard in [1usize, 3, 12] {
                let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard);
                let got = best_seeded_placement(&d, 12, 7, &t, 0, &cfg);
                assert_eq!(got.2, reference.2, "winner index w={workers} s={shard}");
                assert_eq!(got.1, reference.1, "critical path w={workers} s={shard}");
                assert_eq!(got.0.placement, reference.0.placement, "w={workers} s={shard}");
                assert_eq!(got.0.total_wirelength, reference.0.total_wirelength);
            }
        }
    }

    #[test]
    fn seeded_search_never_loses_to_the_unseeded_flow() {
        let t = FpgaTiming::default();
        for width in [16usize, 48] {
            let d = tree_design(width);
            let (_, base_cp) = place_and_route(&d, &t);
            let (_, cp, _, _) = best_seeded_placement(&d, 8, 0xBEEF, &t, 0, &SweepConfig::new());
            assert!(cp <= base_cp, "width {width}: seeded {cp} vs baseline {base_cp}");
        }
    }

    #[test]
    fn scaling_hurts_routing_more_than_logic() {
        let t = FpgaTiming::default();
        let shrunk = t.scaled(0.25);
        assert!((shrunk.lut_ps / t.lut_ps - 0.25).abs() < 1e-9);
        assert!((shrunk.segment_ps / t.segment_ps - 0.5).abs() < 1e-9);
        // routed fraction of delay grows as we scale
        let d = tree_design(32);
        let (pnr, _) = place_and_route(&d, &t);
        let before = critical_path_ps(&d, &pnr, &t);
        let after = critical_path_ps(&d, &pnr, &shrunk);
        // frequency gain is < 4x even though gates sped up 4x
        let gain = before / after;
        assert!(gain < 4.0, "wire-limited gain {gain}");
        assert!(gain > 1.5, "still some gain {gain}");
    }
}

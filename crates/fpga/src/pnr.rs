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
//!
//! A placement search builds the design's LUT graph once. Each candidate
//! is placed into a LUT-indexed slot vector and routed and timed in
//! per-worker scratch, so a candidate allocates nothing; only the
//! winner's [`PnrResult`], with its net-keyed placement map, is built.
//! [`route`] and [`critical_path_ps`] take a [`PnrResult`] and run the
//! same router and timer.

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
    /// interconnect only improves as √λ (De Dinechin \[18\], §2.1).
    pub fn scaled(&self, lambda_rel: f64) -> FpgaTiming {
        FpgaTiming {
            lut_ps: self.lut_ps * lambda_rel,
            segment_ps: self.segment_ps * lambda_rel.sqrt(),
        }
    }
}

/// A tile `(x, y)` of the grid.
type Tile = (usize, usize);

/// The LUT connectivity of a mapped design, built once per search and
/// read by every ordering, partitioning, routing and timing pass: for
/// each LUT, the LUTs that drive its inputs, in input order (inputs no
/// LUT drives are left out), and the LUTs that drive the design's
/// outputs, in output order. LUT outputs are distinct nets, as
/// `tech_map` makes them, so a LUT index stands for its output net.
struct LutGraph {
    /// `fanin[fanin_start[i]..fanin_start[i + 1]]` drive LUT `i`.
    fanin_start: Vec<usize>,
    fanin: Vec<usize>,
    /// The LUTs driving the design's outputs, in output order.
    outputs: Vec<usize>,
}

impl LutGraph {
    fn new(design: &MappedDesign) -> LutGraph {
        let by_out: HashMap<NetId, usize> =
            design.luts.iter().enumerate().map(|(i, l)| (l.output, i)).collect();
        let mut fanin_start = Vec::with_capacity(design.luts.len() + 1);
        let mut fanin = Vec::new();
        fanin_start.push(0);
        for lut in &design.luts {
            fanin.extend(lut.inputs.iter().filter_map(|n| by_out.get(n).copied()));
            fanin_start.push(fanin.len());
        }
        let outputs = design.outputs.iter().filter_map(|o| by_out.get(o).copied()).collect();
        LutGraph { fanin_start, fanin, outputs }
    }

    /// Number of LUTs.
    fn len(&self) -> usize {
        self.fanin_start.len() - 1
    }

    /// The LUTs driving LUT `i`'s inputs, in input order.
    fn fanin(&self, i: usize) -> &[usize] {
        &self.fanin[self.fanin_start[i]..self.fanin_start[i + 1]]
    }

    /// The deterministic connectivity-driven LUT ordering: BFS over fanin
    /// edges from the output cones, stragglers appended in index order.
    fn bfs_order(&self) -> Vec<usize> {
        let mut seen = vec![false; self.len()];
        self.bfs(self.outputs.iter().copied(), 0..self.len(), |_| true, &mut seen)
    }

    /// BFS over fanin edges from `roots`, following only the LUTs `keep`
    /// accepts, then the `members` it did not reach, in their order.
    /// `seen` marks the LUTs already ordered.
    fn bfs(
        &self,
        roots: impl Iterator<Item = usize>,
        members: impl Iterator<Item = usize> + Clone,
        keep: impl Fn(usize) -> bool,
        seen: &mut [bool],
    ) -> Vec<usize> {
        let mut order = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for i in roots {
            if !seen[i] {
                seen[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in self.fanin(i) {
                if keep(j) && !seen[j] {
                    seen[j] = true;
                    queue.push_back(j);
                }
            }
        }
        for i in members {
            if !seen[i] {
                seen[i] = true;
                order.push(i);
            }
        }
        order
    }
}

/// Side of the smallest square grid that holds `luts` tiles.
fn grid_side(luts: usize) -> usize {
    (luts.max(1) as f64).sqrt().ceil() as usize
}

/// Scan-place `order` onto the `side`-wide grid at `origin`: slot `k`
/// lands at `origin + (k % side, k / side)`.
fn scan_place(order: &[usize], side: usize, (ox, oy): Tile, pos: &mut [Option<Tile>]) {
    for (slot, &i) in order.iter().enumerate() {
        pos[i] = Some((ox + slot % side, oy + slot / side));
    }
}

/// The BFS ordering scan-placed on the smallest square grid.
fn bfs_placement(graph: &LutGraph) -> (usize, Vec<Option<Tile>>) {
    let grid = grid_side(graph.len());
    let mut pos = vec![None; graph.len()];
    scan_place(&graph.bfs_order(), grid, (0, 0), &mut pos);
    (grid, pos)
}

/// The placement map of a LUT-indexed slot vector, keyed by output net;
/// unplaced LUTs are left out.
fn placement_map(design: &MappedDesign, pos: &[Option<Tile>]) -> HashMap<u32, Tile> {
    design.luts.iter().zip(pos).filter_map(|(l, p)| Some((l.output.0, (*p)?))).collect()
}

/// The slot vector of a placement map: each LUT's output-net tile.
fn slots(design: &MappedDesign, placement: &HashMap<u32, Tile>) -> Vec<Option<Tile>> {
    design.luts.iter().map(|l| placement.get(&l.output.0).copied()).collect()
}

/// Place a mapped design: connectivity-aware ordering (BFS from the first
/// output cone) then scan placement on the smallest square grid.
pub fn place(design: &MappedDesign) -> PnrResult {
    let (grid, pos) = bfs_placement(&LutGraph::new(design));
    PnrResult { grid, placement: placement_map(design, &pos), ..PnrResult::default() }
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
    let graph = LutGraph::new(design);
    let base_order = graph.bfs_order();
    let grid = grid_side(graph.len());
    let problem = Problem { design, graph: &graph, grid, timing };
    search(&problem, candidates, cfg, false, |c, pos, order| {
        order.clear();
        order.extend_from_slice(&base_order);
        if c > 0 {
            // candidate seed keyed by candidate index alone (contract
            // rule 1), never by shard/worker identity
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, c as u64));
            rng.shuffle(order);
        }
        scan_place(order, grid, (0, 0), pos);
    })
}

/// What one search places and scores: the design, its LUT graph, the
/// side of the grid its candidates land on, and the timing model.
struct Problem<'a> {
    design: &'a MappedDesign,
    graph: &'a LutGraph,
    grid: usize,
    timing: &'a FpgaTiming,
}

/// One worker's reusable candidate state: the LUT-indexed slot vector a
/// candidate is placed into, an ordering buffer to shuffle, the router's
/// occupancy plane and the timer's planes.
struct Scratch {
    pos: Vec<Option<Tile>>,
    order: Vec<usize>,
    occ: Vec<u32>,
    timer: Timer,
}

/// The search both flows run, over one [`LutGraph`]. Each candidate is
/// one sweep item in per-worker [`Scratch`]: `place(c, pos, order)`
/// writes every LUT's tile into `pos` (with `order` as a buffer), the
/// router walks it into the occupancy plane and the timer times it, and
/// the item returns `(wirelength, cp)`. The items fold in index order: a
/// candidate replaces the incumbent only when strictly better under
/// `(cp, wirelength, index)`, a strict total order, so the winner is the
/// same at any worker count or shard size, and the fold also counts how
/// often the search improved on candidate 0. Only the winner's
/// [`PnrResult`] is built, by placing it again. With `stitch`, each
/// item's placement is recorded as the `fpga.pnr.stitch` span (the
/// hierarchical region assembly). Adds the `fpga.pnr.candidates`/
/// `improvements` counters and records the `fpga.pnr.search` span.
fn search(
    problem: &Problem,
    candidates: usize,
    cfg: &SweepConfig,
    stitch: bool,
    place: impl Fn(usize, &mut [Option<Tile>], &mut Vec<usize>) + Sync,
) -> (PnrResult, f64, usize) {
    let Problem { design, graph, grid, timing } = *problem;
    let candidates = candidates.max(1);
    let obs_t0 = pmorph_obs::enabled().then(std::time::Instant::now);
    let scratch = || Scratch {
        pos: vec![None; graph.len()],
        order: Vec::with_capacity(graph.len()),
        occ: Vec::new(),
        timer: Timer::default(),
    };
    let scores = sweep(candidates, cfg, scratch, |s, c| {
        let stitch_t = (stitch && pmorph_obs::enabled()).then(std::time::Instant::now);
        place(c, &mut s.pos, &mut s.order);
        if let Some(t0) = stitch_t {
            let ns = t0.elapsed().as_nanos() as u64;
            pmorph_obs::span!("fpga.pnr.stitch").record_ns(ns);
            pmorph_obs::trace::complete("fpga.pnr.stitch", "fpga", t0, ns);
        }
        let (wirelength, _) = route_slots(graph, grid, &s.pos, &mut s.occ, |_| {});
        (wirelength, critical_path(graph, &s.pos, timing, &mut s.timer))
    });
    let mut improvements = 0u64;
    let mut best: Option<(usize, usize, f64)> = None;
    for (i, (wl, cp)) in scores.into_iter().enumerate() {
        let beats = |&(bi, bwl, bc): &(usize, usize, f64)| {
            cp.total_cmp(&bc).then(wl.cmp(&bwl)).then(i.cmp(&bi)).is_lt()
        };
        if best.as_ref().is_none_or(beats) {
            improvements += best.is_some() as u64;
            best = Some((i, wl, cp));
        }
    }
    let (winner, _, cp) = best.expect("at least one candidate");
    let mut s = scratch();
    place(winner, &mut s.pos, &mut s.order);
    let pnr = routed(design, graph, grid, &s.pos);
    pmorph_obs::counter!("fpga.pnr.candidates").add(candidates as u64);
    pmorph_obs::counter!("fpga.pnr.improvements").add(improvements);
    if let Some(t0) = obs_t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        pmorph_obs::span!("fpga.pnr.search").record_ns(ns);
        pmorph_obs::trace::complete("fpga.pnr.search", "fpga", t0, ns);
    }
    (pnr, cp, winner)
}

/// The full [`PnrResult`] of a complete slot vector: its placement map
/// and its route, connection by connection.
fn routed(design: &MappedDesign, graph: &LutGraph, grid: usize, pos: &[Option<Tile>]) -> PnrResult {
    let mut connection_lengths = Vec::with_capacity(graph.fanin.len());
    let (total_wirelength, max_occupancy) =
        route_slots(graph, grid, pos, &mut Vec::new(), |len| connection_lengths.push(len));
    PnrResult {
        grid,
        placement: placement_map(design, pos),
        connection_lengths,
        max_occupancy,
        total_wirelength,
    }
}

/// Route every LUT-input connection through the channel grid along one
/// fixed x-then-y L path, counting the occupancy of each segment it
/// uses (congestion is reported, not avoided). Channel segments:
/// horizontal between `(x,y)-(x+1,y)` (`dir 0`), vertical between
/// `(x,y)-(x,y+1)` (`dir 1`), counted in one dense `grid × grid × 2`
/// plane. Appends each connection's length to `connection_lengths` and
/// adds to `total_wirelength` and `max_occupancy`.
///
/// Every LUT-driven connection must have both endpoints placed: the
/// first missing entry, taking LUTs in index order and each LUT's own
/// tile before its inputs', is a [`PnrError::Unplaced`] naming the
/// offending net, not a silent skip (which used to under-report
/// wirelength and leave the design electrically open). Entries for nets
/// that are no LUT's output are ignored.
pub fn route(design: &MappedDesign, pnr: &mut PnrResult) -> Result<(), PnrError> {
    let graph = LutGraph::new(design);
    let pos = slots(design, &pnr.placement);
    for i in 0..graph.len() {
        for j in std::iter::once(i).chain(graph.fanin(i).iter().copied()) {
            if pos[j].is_none() {
                return Err(PnrError::Unplaced { net: design.luts[j].output });
            }
        }
    }
    let lengths = &mut pnr.connection_lengths;
    let (wirelength, occupancy) =
        route_slots(&graph, pnr.grid, &pos, &mut Vec::new(), |len| lengths.push(len));
    pnr.total_wirelength += wirelength;
    pnr.max_occupancy = pnr.max_occupancy.max(occupancy);
    Ok(())
}

/// The one router: walk every connection of a complete slot vector, LUTs
/// in index order and each LUT's inputs in input order, into the
/// occupancy plane `occ` (cleared first), handing each connection's
/// length to `conn`. Returns `(total wirelength, max occupancy)`.
fn route_slots(
    graph: &LutGraph,
    grid: usize,
    pos: &[Option<Tile>],
    occ: &mut Vec<u32>,
    mut conn: impl FnMut(usize),
) -> (usize, usize) {
    let g = grid.max(1);
    occ.clear();
    occ.resize(g * g * 2, 0);
    let (mut total, mut max_occupancy) = (0, 0);
    for (i, dst) in pos.iter().enumerate() {
        let dst = dst.expect("every LUT placed");
        for &j in graph.fanin(i) {
            let src = pos[j].expect("every LUT placed");
            let mut len = 0;
            walk_path(src, dst, |x, y, dir| {
                let e = &mut occ[(y * g + x) * 2 + dir as usize];
                *e += 1;
                max_occupancy = max_occupancy.max(*e);
                len += 1;
            });
            conn(len);
            total += len;
        }
    }
    (total, max_occupancy as usize)
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

/// Longest combinational path delay of a routed design (ps). A
/// connection with an unplaced endpoint counts one segment.
pub fn critical_path_ps(design: &MappedDesign, pnr: &PnrResult, timing: &FpgaTiming) -> f64 {
    let graph = LutGraph::new(design);
    critical_path(&graph, &slots(design, &pnr.placement), timing, &mut Timer::default())
}

/// DFS frames: Enter marks the loop guard and schedules children in
/// input order (pushed reversed onto the LIFO stack); Exit folds the
/// memoized child arrivals.
enum Frame {
    Enter(usize),
    Exit(usize),
}

/// The timer's LUT-indexed planes and frame stack, reused across calls.
#[derive(Default)]
struct Timer {
    memo: Vec<f64>,
    seen: Vec<bool>,
    frames: Vec<Frame>,
}

/// The one timer: the longest arrival over the design's output LUTs.
///
/// Iterative DFS with an explicit frame stack — fabric-scale designs
/// (10⁴+ LUTs with long carry-style chains) would overflow the thread
/// stack under a naive recursion. A LUT's arrival is 0.0 while it is on
/// the stack (the loop guard: FF boundaries break real loops), and an
/// already-entered child is not scheduled again, since entering it
/// would do nothing.
fn critical_path(
    graph: &LutGraph,
    pos: &[Option<Tile>],
    timing: &FpgaTiming,
    t: &mut Timer,
) -> f64 {
    t.memo.resize(graph.len(), 0.0);
    t.seen.clear();
    t.seen.resize(graph.len(), false);
    let mut worst: f64 = 0.0;
    for &root in &graph.outputs {
        t.frames.push(Frame::Enter(root));
        while let Some(frame) = t.frames.pop() {
            match frame {
                Frame::Enter(i) => {
                    if t.seen[i] {
                        continue;
                    }
                    t.seen[i] = true;
                    t.memo[i] = 0.0; // loop guard
                    t.frames.push(Frame::Exit(i));
                    for &j in graph.fanin(i).iter().rev() {
                        if !t.seen[j] {
                            t.frames.push(Frame::Enter(j));
                        }
                    }
                }
                Frame::Exit(i) => {
                    let mut arrival: f64 = 0.0;
                    for &j in graph.fanin(i) {
                        let dist = match (pos[j], pos[i]) {
                            (Some((sx, sy)), Some((dx, dy))) => sx.abs_diff(dx) + sy.abs_diff(dy),
                            _ => 1,
                        };
                        arrival = arrival.max(t.memo[j] + dist as f64 * timing.segment_ps);
                    }
                    t.memo[i] = arrival + timing.lut_ps;
                }
            }
        }
        worst = worst.max(t.memo[root]);
    }
    worst
}

/// One-call flow: place, route, and report `(pnr, critical path ps)`.
pub fn place_and_route(design: &MappedDesign, timing: &FpgaTiming) -> (PnrResult, f64) {
    let graph = LutGraph::new(design);
    let (grid, pos) = bfs_placement(&graph);
    let cp = critical_path(&graph, &pos, timing, &mut Timer::default());
    (routed(design, &graph, grid, &pos), cp)
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
        let ins: Vec<_> = (0..width).map(|_| b.net()).collect();
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

//! Feed-through routing: signals travel by re-driving cells as wire.
//!
//! The fabric has no routing channels; "interconnect" is just a block whose
//! product lines buffer their inputs straight through (paper §4: the
//! driver "provides a buffer that will allow any output line to be used as
//! a data feed-through from an adjacent cell"). This module automates
//! that: a breadth-first search over free blocks configures a minimal
//! chain of feed-through blocks carrying a set of lanes from one boundary
//! to another, including 90° turns.

use crate::tile::{ft, MapError, PortLoc};
use pmorph_core::{BlockConfig, Edge, Fabric};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// A block already configured as a feed-through by this router. Later
/// routes may *share* it — ride extra lanes through — provided they enter
/// and leave on the same edges and use disjoint lanes (a feed-through
/// block has six independent product lines).
#[derive(Clone, Debug, PartialEq, Eq)]
struct RouteBlock {
    entry: Edge,
    exit: Edge,
    lanes: BTreeSet<usize>,
}

/// Occupancy tracker for placement + routing over one fabric.
#[derive(Clone, Debug, Default)]
pub struct Router {
    occupied: HashSet<(usize, usize)>,
    shared: HashMap<(usize, usize), RouteBlock>,
}

impl Router {
    /// Fresh router with everything free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark a single block occupied (not shareable).
    pub fn occupy(&mut self, x: usize, y: usize) {
        self.occupied.insert((x, y));
        self.shared.remove(&(x, y));
    }

    /// Mark a tile footprint occupied.
    pub fn occupy_all(&mut self, blocks: &[(usize, usize)]) {
        for &(x, y) in blocks {
            self.occupy(x, y);
        }
    }

    /// May a route enter this block via `entry`, leave via `exit`, and
    /// carry `lanes`? True for free blocks, and for feed-through blocks
    /// this router already placed with the same orientation and disjoint
    /// lanes.
    fn traversable(&self, x: usize, y: usize, entry: Edge, exit: Edge, lanes: &[usize]) -> bool {
        if self.occupied.contains(&(x, y)) {
            return false;
        }
        match self.shared.get(&(x, y)) {
            None => true,
            Some(rb) => {
                rb.entry == entry && rb.exit == exit && lanes.iter().all(|l| !rb.lanes.contains(l))
            }
        }
    }

    /// Route `lanes` from the boundary identified by `src` to the boundary
    /// identified by `dst`. `src` must name the boundary on which the
    /// signal is already driven (e.g. a tile's output port); `dst` names
    /// the boundary that must end up carrying it (e.g. another tile's
    /// input port, or a perimeter lane). Lane indices are preserved
    /// end-to-end.
    ///
    /// Returns the chain of blocks configured as feed-throughs (possibly
    /// empty if the two ports already share a boundary).
    pub fn route(
        &mut self,
        fabric: &mut Fabric,
        src: PortLoc,
        dst: PortLoc,
        lanes: &[usize],
    ) -> Result<Vec<(usize, usize)>, MapError> {
        let pairs: Vec<(usize, usize)> = lanes.iter().map(|&l| (l, l)).collect();
        self.route_mapped(fabric, src, dst, &pairs)
    }

    /// Like [`Router::route`] but with per-lane remapping: each
    /// `(src_lane, dst_lane)` pair is picked up from `src_lane` on the
    /// source boundary and delivered on `dst_lane` at the destination
    /// (the first feed-through block performs the lane shuffle — a block
    /// may read any column into any product line).
    pub fn route_mapped(
        &mut self,
        fabric: &mut Fabric,
        src: PortLoc,
        dst: PortLoc,
        pairs: &[(usize, usize)],
    ) -> Result<Vec<(usize, usize)>, MapError> {
        let (w, h) = (fabric.width(), fabric.height());
        let src_b = boundary_key(w, h, &src);
        let dst_b = boundary_key(w, h, &dst);
        if src_b == dst_b {
            if pairs.iter().any(|(s, d)| s != d) {
                // a lane shuffle needs at least one block to pass through
                return Err(MapError::OutOfRoom);
            }
            return Ok(Vec::new());
        }
        // BFS over blocks. Entering a block from boundary B via edge E, we
        // may exit on any other edge, provided the block is traversable
        // for our lane set (free, or an existing feed-through with the
        // same orientation and disjoint lanes). Goal: a block adjacent to
        // dst whose exit boundary is dst.
        let dst_lanes: Vec<usize> = pairs.iter().map(|&(_, d)| d).collect();
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        struct State {
            x: usize,
            y: usize,
            entry: Edge,
        }
        let mut queue = VecDeque::new();
        let mut parents: HashMap<State, Option<State>> = HashMap::new();
        // Seeds: the (up to two) blocks flanking the source boundary.
        for (bx, by, entry) in boundary_blocks(w, h, src_b) {
            if !self.occupied.contains(&(bx, by)) {
                let s = State { x: bx, y: by, entry };
                if parents.insert(s, None).is_none() {
                    queue.push_back(s);
                }
            }
        }
        let mut goal: Option<(State, Edge)> = None;
        'bfs: while let Some(s) = queue.pop_front() {
            for exit in Edge::ALL {
                if exit == s.entry {
                    continue;
                }
                if !self.traversable(s.x, s.y, s.entry, exit, &dst_lanes) {
                    continue;
                }
                let b = block_boundary(w, h, s.x, s.y, exit);
                if b == dst_b {
                    goal = Some((s, exit));
                    break 'bfs;
                }
                // Step into the neighbour across `exit`.
                if let Some((nx, ny)) = neighbour(w, h, s.x, s.y, exit) {
                    if !self.occupied.contains(&(nx, ny)) {
                        let ns = State { x: nx, y: ny, entry: exit.opposite() };
                        if let std::collections::hash_map::Entry::Vacant(e) = parents.entry(ns) {
                            e.insert(Some(s));
                            queue.push_back(ns);
                        }
                    }
                }
            }
        }
        let (goal, goal_exit) = goal.ok_or(MapError::OutOfRoom)?;
        // Walk back, collecting the chain.
        let mut chain = Vec::new();
        let mut cur = Some(goal);
        while let Some(s) = cur {
            chain.push(s);
            cur = parents[&s];
        }
        chain.reverse();
        // Configure each block in the chain: input = entry edge, output =
        // edge toward the next block (or dst for the last). Blocks this
        // router already configured as feed-throughs are *extended* with
        // the new lanes rather than reset.
        let mut placed = Vec::new();
        for (i, s) in chain.iter().enumerate() {
            let exit = if i + 1 < chain.len() { chain[i + 1].entry.opposite() } else { goal_exit };
            let lane_pairs: Vec<(usize, usize)> = if i == 0 {
                pairs.to_vec() // lane shuffle happens on entry
            } else {
                pairs.iter().map(|&(_, d)| (d, d)).collect()
            };
            match self.shared.get_mut(&(s.x, s.y)) {
                Some(rb) => {
                    debug_assert!(rb.entry == s.entry && rb.exit == exit);
                    let cfg = fabric.block_mut(s.x, s.y);
                    for &(src_lane, dst_lane) in &lane_pairs {
                        ft(cfg, dst_lane, src_lane);
                        rb.lanes.insert(dst_lane);
                    }
                }
                None => {
                    let cfg = fabric.block_mut(s.x, s.y);
                    *cfg = BlockConfig::flowing(s.entry, exit);
                    for &(src_lane, dst_lane) in &lane_pairs {
                        ft(cfg, dst_lane, src_lane);
                    }
                    self.shared.insert(
                        (s.x, s.y),
                        RouteBlock {
                            entry: s.entry,
                            exit,
                            lanes: lane_pairs.iter().map(|&(_, d)| d).collect(),
                        },
                    );
                }
            }
            placed.push((s.x, s.y));
        }
        Ok(placed)
    }
}

/// Canonical key of the boundary a port sits on: horizontal boundaries are
/// `(0, x, y)`, vertical `(1, x, y)` in boundary coordinates.
fn boundary_key(_w: usize, _h: usize, p: &PortLoc) -> (u8, usize, usize) {
    match p.edge {
        Edge::West => (1, p.x, p.y),
        Edge::East => (1, p.x + 1, p.y),
        Edge::North => (0, p.x, p.y),
        Edge::South => (0, p.x, p.y + 1),
    }
}

/// Boundary of a block's edge, in the same key space.
fn block_boundary(w: usize, h: usize, x: usize, y: usize, edge: Edge) -> (u8, usize, usize) {
    boundary_key(w, h, &PortLoc::new(x, y, edge, 0))
}

/// Blocks flanking a boundary, with the edge through which the boundary is
/// seen from each block.
fn boundary_blocks(w: usize, h: usize, key: (u8, usize, usize)) -> Vec<(usize, usize, Edge)> {
    let mut out = Vec::new();
    match key {
        (1, bx, y) => {
            // vertical boundary bx between column bx-1 and bx
            if bx < w {
                out.push((bx, y, Edge::West));
            }
            if bx > 0 {
                out.push((bx - 1, y, Edge::East));
            }
        }
        (0, x, by) => {
            if by < h {
                out.push((x, by, Edge::North));
            }
            if by > 0 {
                out.push((x, by - 1, Edge::South));
            }
        }
        _ => unreachable!(),
    }
    out
}

fn neighbour(w: usize, h: usize, x: usize, y: usize, edge: Edge) -> Option<(usize, usize)> {
    match edge {
        Edge::West if x > 0 => Some((x - 1, y)),
        Edge::East if x + 1 < w => Some((x + 1, y)),
        Edge::North if y > 0 => Some((x, y - 1)),
        Edge::South if y + 1 < h => Some((x, y + 1)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    /// Drive the src boundary, check the dst boundary follows.
    fn check_path(fabric: &Fabric, src: PortLoc, dst: PortLoc, lanes: &[usize]) {
        let elab = elaborate(fabric, &FabricTiming::default());
        for pattern in 0..(1u64 << lanes.len()) {
            let mut sim = Simulator::new(elab.netlist.clone());
            for (i, &lane) in lanes.iter().enumerate() {
                let p = PortLoc { lane, ..src };
                sim.drive(p.net(&elab), Logic::from_bool(pattern >> i & 1 == 1));
            }
            sim.settle(1_000_000).unwrap();
            for (i, &lane) in lanes.iter().enumerate() {
                let p = PortLoc { lane, ..dst };
                assert_eq!(
                    sim.value(p.net(&elab)),
                    Logic::from_bool(pattern >> i & 1 == 1),
                    "lane {lane} pattern {pattern:b}"
                );
            }
        }
    }

    #[test]
    fn straight_route_west_to_east() {
        let mut fabric = Fabric::new(4, 1);
        let mut router = Router::new();
        let src = PortLoc::new(0, 0, Edge::West, 0);
        let dst = PortLoc::new(3, 0, Edge::East, 0);
        let path = router.route(&mut fabric, src, dst, &[0, 3]).unwrap();
        assert_eq!(path.len(), 4, "four feed-through blocks");
        check_path(&fabric, src, dst, &[0, 3]);
    }

    #[test]
    fn l_shaped_route_with_turn() {
        let mut fabric = Fabric::new(3, 3);
        let mut router = Router::new();
        let src = PortLoc::new(0, 0, Edge::West, 2);
        let dst = PortLoc::new(2, 2, Edge::South, 2);
        router.route(&mut fabric, src, dst, &[2]).unwrap();
        check_path(&fabric, src, dst, &[2]);
    }

    #[test]
    fn route_around_obstacle() {
        let mut fabric = Fabric::new(3, 3);
        let mut router = Router::new();
        // Wall down the middle column except the bottom row.
        router.occupy(1, 0);
        router.occupy(1, 1);
        let src = PortLoc::new(0, 0, Edge::West, 1);
        let dst = PortLoc::new(2, 0, Edge::East, 1);
        let path = router.route(&mut fabric, src, dst, &[1]).unwrap();
        assert!(path.len() > 3, "must detour: {path:?}");
        assert!(path.contains(&(1, 2)), "through the gap: {path:?}");
        check_path(&fabric, src, dst, &[1]);
    }

    #[test]
    fn fully_blocked_route_fails() {
        let mut fabric = Fabric::new(3, 1);
        let mut router = Router::new();
        router.occupy(1, 0);
        let src = PortLoc::new(0, 0, Edge::West, 0);
        let dst = PortLoc::new(2, 0, Edge::East, 0);
        assert_eq!(router.route(&mut fabric, src, dst, &[0]), Err(MapError::OutOfRoom));
    }

    #[test]
    fn same_boundary_is_empty_route() {
        let mut fabric = Fabric::new(2, 1);
        let mut router = Router::new();
        // East of block 0 == West of block 1: same boundary.
        let src = PortLoc::new(0, 0, Edge::East, 0);
        let dst = PortLoc::new(1, 0, Edge::West, 0);
        assert_eq!(router.route(&mut fabric, src, dst, &[0]), Ok(Vec::new()));
    }

    #[test]
    fn routed_ring_oscillates() {
        // Close a feedback loop entirely inside the fabric: an inverter
        // block at (1,0) whose output routes around the array back to its
        // own input boundary — the "logic cells as interconnect"
        // polymorphism closing feedback. The loop must rejoin on an
        // *interior* boundary (only a block can drive one), so the
        // inverter sits one column in from the perimeter.
        let mut fabric = Fabric::new(3, 2);
        {
            // Inverting NAND at (1,0): W→E, out = (in·en)'. The enable on
            // lane 1 starts the ring deterministically.
            let b = fabric.block_mut(1, 0);
            *b = BlockConfig::flowing(Edge::West, Edge::East);
            b.set_term(0, &[0, 1]);
            b.drivers[0] = pmorph_core::OutMode::Buf;
        }
        let mut router = Router::new();
        router.occupy(1, 0);
        // Route east of (1,0) → around the south row → back east into
        // west of (1,0).
        let src = PortLoc::new(1, 0, Edge::East, 0);
        let dst = PortLoc::new(1, 0, Edge::West, 0);
        let path = router.route(&mut fabric, src, dst, &[0]).unwrap();
        assert_eq!(path.len(), 5, "around the ring: {path:?}");
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        let en = PortLoc::new(1, 0, Edge::West, 1).net(&elab);
        sim.drive(en, Logic::L0);
        sim.settle(1_000_000).unwrap();
        sim.drive(en, Logic::L1);
        let out = PortLoc::new(1, 0, Edge::East, 0).net(&elab);
        sim.watch(out);
        sim.run_until(20_000, 10_000_000).unwrap();
        let toggles = sim.trace(out).iter().filter(|(_, v)| v.is_definite()).count();
        assert!(toggles > 10, "in-fabric feedback loop oscillates: {toggles}");
    }
}

//! Muller C-elements: behavioural and fabric-mapped (paper §4.1).
//!
//! The C-element (`c = a·b + a·c' + b·c'`) is the workhorse of
//! asynchronous control. On the fabric it is an SR formulation of the same
//! function — set when `a·b`, reset when `ā·b̄`, hold otherwise — realised
//! as a cross-coupled NAND pair closed through a block's `lfb` lines, in
//! exactly the style the paper prescribes ("small asynchronous state
//! machines of a form that is directly supported by the array
//! organization").

use pmorph_core::{BlockConfig, Edge, Fabric, InputSource, OutMode, OutputDest};
use pmorph_synth::tile::{ft, ft_inv, MapError, PortLoc};

/// Ports of the fabric-mapped C-element (3 blocks, W→E).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CElementPorts {
    /// First input.
    pub a: PortLoc,
    /// Second input.
    pub b: PortLoc,
    /// Output.
    pub c: PortLoc,
    /// Complemented output.
    pub cn: PortLoc,
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// Map a Muller C-element at `(x, y)`: 3 blocks flowing W→E.
///
/// West lanes of block `x`: `0 = a`, `1 = b`.
/// East lanes of block `x+2`: `2 = c`, `3 = c̄`.
pub fn c_element(fabric: &mut Fabric, x: usize, y: usize) -> Result<CElementPorts, MapError> {
    if x + 2 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    // A: S̄ = (a·b)', plus complement rails.
    {
        let blk = fabric.block_mut(x, y);
        *blk = BlockConfig::flowing(Edge::West, Edge::East);
        blk.set_term(0, &[0, 1]);
        blk.drivers[0] = OutMode::Buf; // lane0 = S̄
        ft_inv(blk, 1, 0); // lane1 = ā
        ft_inv(blk, 2, 1); // lane2 = b̄
    }
    // B: pass S̄, compute R̄ = (ā·b̄)'.
    {
        let blk = fabric.block_mut(x + 1, y);
        *blk = BlockConfig::flowing(Edge::West, Edge::East);
        ft(blk, 0, 0); // lane0 = S̄
        blk.set_term(1, &[1, 2]);
        blk.drivers[1] = OutMode::Buf; // lane1 = R̄
    }
    // C: SR core on lfb + buffered outputs.
    {
        let blk = fabric.block_mut(x + 2, y);
        *blk = BlockConfig::flowing(Edge::West, Edge::East);
        blk.inputs[2] = InputSource::Lfb0; // c
        blk.inputs[3] = InputSource::Lfb1; // c̄
        blk.set_term(0, &[0, 3]); // c = (S̄·c̄)'
        blk.drivers[0] = OutMode::Buf;
        blk.dests[0] = OutputDest::Lfb0;
        blk.set_term(1, &[1, 2]); // c̄ = (R̄·c)'
        blk.drivers[1] = OutMode::Buf;
        blk.dests[1] = OutputDest::Lfb1;
        ft(blk, 2, 2); // lane2 = c
        ft(blk, 3, 3); // lane3 = c̄
    }
    Ok(CElementPorts {
        a: PortLoc::new(x, y, Edge::West, 0),
        b: PortLoc::new(x, y, Edge::West, 1),
        c: PortLoc::new(x + 2, y, Edge::East, 2),
        cn: PortLoc::new(x + 2, y, Edge::East, 3),
        footprint: (0..3).map(|i| (x + i, y)).collect(),
    })
}

/// Ports of the resettable C-element tile (3 blocks, W→E).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CElementRPorts {
    /// First input.
    pub a: PortLoc,
    /// Second input.
    pub b: PortLoc,
    /// Active-low reset (forces `c = 0`).
    pub reset_n: PortLoc,
    /// Output.
    pub c: PortLoc,
    /// Complemented output.
    pub cn: PortLoc,
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// A C-element with an asynchronous active-low reset — required whenever
/// the element sits in a feedback ring that cannot reach the both-low
/// reset condition from a cold (unknown) start.
///
/// West lanes of block `x`: `0 = a`, `1 = b`, `2 = r̄`.
pub fn c_element_resettable(
    fabric: &mut Fabric,
    x: usize,
    y: usize,
) -> Result<CElementRPorts, MapError> {
    if x + 2 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    // A: S̄ = (a·b·r̄)' (reset also blocks setting), complements, r̄ rail.
    {
        let blk = fabric.block_mut(x, y);
        *blk = BlockConfig::flowing(Edge::West, Edge::East);
        blk.set_term(0, &[0, 1, 2]);
        blk.drivers[0] = OutMode::Buf; // lane0 = S̄
        ft_inv(blk, 1, 0); // lane1 = ā
        ft_inv(blk, 2, 1); // lane2 = b̄
        ft(blk, 4, 2); // lane4 = r̄
    }
    // B: pass S̄, compute R̄ = (ā·b̄)', pass r̄.
    {
        let blk = fabric.block_mut(x + 1, y);
        *blk = BlockConfig::flowing(Edge::West, Edge::East);
        ft(blk, 0, 0);
        blk.set_term(1, &[1, 2]);
        blk.drivers[1] = OutMode::Buf; // lane1 = R̄
        ft(blk, 4, 4);
    }
    // C: SR core with reset folded into the q̄ gate:
    //    c̄ = (R̄·c·r̄)' → r̄ = 0 forces c̄ = 1 → c = (S̄·c̄)' = (1·1)' = 0.
    {
        let blk = fabric.block_mut(x + 2, y);
        *blk = BlockConfig::flowing(Edge::West, Edge::East);
        blk.inputs[2] = InputSource::Lfb0; // c
        blk.inputs[3] = InputSource::Lfb1; // c̄
        blk.set_term(0, &[0, 3]); // c = (S̄·c̄)'
        blk.drivers[0] = OutMode::Buf;
        blk.dests[0] = OutputDest::Lfb0;
        blk.set_term(1, &[1, 2, 4]); // c̄ = (R̄·c·r̄)'
        blk.drivers[1] = OutMode::Buf;
        blk.dests[1] = OutputDest::Lfb1;
        ft(blk, 2, 2); // lane2 = c
        ft(blk, 3, 3); // lane3 = c̄
    }
    Ok(CElementRPorts {
        a: PortLoc::new(x, y, Edge::West, 0),
        b: PortLoc::new(x, y, Edge::West, 1),
        reset_n: PortLoc::new(x, y, Edge::West, 2),
        c: PortLoc::new(x + 2, y, Edge::East, 2),
        cn: PortLoc::new(x + 2, y, Edge::East, 3),
        footprint: (0..3).map(|i| (x + i, y)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    const SETTLE: u64 = 1_000_000;

    #[test]
    fn fabric_c_element_truth_and_hold() {
        let mut fabric = Fabric::new(3, 1);
        let p = c_element(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        let (a, b, c, cn) = (p.a.net(&elab), p.b.net(&elab), p.c.net(&elab), p.cn.net(&elab));
        // initialise: both low → output low
        sim.drive(a, Logic::L0);
        sim.drive(b, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(c), Logic::L0);
        assert_eq!(sim.value(cn), Logic::L1);
        // one input high: hold low
        sim.drive(a, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(c), Logic::L0, "a alone holds");
        // both high: set
        sim.drive(b, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(c), Logic::L1, "both high sets");
        // one drops: hold high
        sim.drive(a, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(c), Logic::L1, "b alone holds high");
        // both low: clear
        sim.drive(b, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(c), Logic::L0, "both low clears");
    }

    #[test]
    fn resettable_c_element_resets_from_unknown_feedback() {
        let mut fabric = Fabric::new(3, 1);
        let p = c_element_resettable(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        // inputs deliberately left X (undriven b), reset asserted
        sim.drive(p.a.net(&elab), Logic::L0);
        sim.drive(p.reset_n.net(&elab), Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(p.c.net(&elab)), Logic::L0, "reset forces 0 through X");
        // release reset, run the normal protocol
        sim.drive(p.reset_n.net(&elab), Logic::L1);
        sim.drive(p.b.net(&elab), Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(p.c.net(&elab)), Logic::L0);
        sim.drive(p.a.net(&elab), Logic::L1);
        sim.drive(p.b.net(&elab), Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(p.c.net(&elab)), Logic::L1, "sets after release");
        // async reset mid-operation
        sim.drive(p.reset_n.net(&elab), Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(p.c.net(&elab)), Logic::L0, "reset dominates");
    }

    #[test]
    fn fabric_matches_behavioural_c_element() {
        // Drive the same random monotonic sequence into the fabric tile
        // and the kernel's behavioural C-element; outputs must agree after
        // every settle.
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let mut fabric = Fabric::new(3, 1);
        let p = c_element(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());

        let mut bnl = pmorph_sim::NetlistBuilder::new();
        let ba = bnl.net();
        let bb = bnl.net();
        let bc = bnl.celement(ba, bb);
        let bref = bnl.build();
        let mut bsim = Simulator::new(bref);

        let mut rng = StdRng::seed_from_u64(99);
        let (mut va, mut vb) = (false, false);
        // start from the all-low state
        for (n, v) in [(p.a.net(&elab), Logic::L0), (p.b.net(&elab), Logic::L0)] {
            sim.drive(n, v);
        }
        bsim.drive(ba, Logic::L0);
        bsim.drive(bb, Logic::L0);
        sim.settle(SETTLE).unwrap();
        bsim.settle(SETTLE).unwrap();
        for _ in 0..40 {
            if rng.random::<bool>() {
                va = !va;
                sim.drive(p.a.net(&elab), Logic::from_bool(va));
                bsim.drive(ba, Logic::from_bool(va));
            } else {
                vb = !vb;
                sim.drive(p.b.net(&elab), Logic::from_bool(vb));
                bsim.drive(bb, Logic::from_bool(vb));
            }
            sim.settle(SETTLE).unwrap();
            bsim.settle(SETTLE).unwrap();
            assert_eq!(
                sim.value(p.c.net(&elab)),
                bsim.value(bc),
                "fabric vs behavioural divergence at a={va} b={vb}"
            );
        }
    }
}

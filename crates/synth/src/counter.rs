//! Synchronous binary counter: the classic LUT+FF composition (toggle
//! flip-flops with a ripple enable chain), built entirely from the Fig. 9
//! tiles. Register feedback and the enable chain use elaboration-time
//! stitches (see DESIGN.md §5 on two-operand joins).
//!
//! Per bit `i`:
//!
//! ```text
//! d_i     = q_i ⊕ en_i          (XOR tile)
//! en_0    = 1,  en_{i+1} = en_i · q_i   (AND tile)
//! ```

use crate::lut::{lut3, LutPorts};
use crate::seq::{dff, DffPorts};
use crate::tile::{MapError, PortLoc};
use pmorph_core::{elaborate::elaborate, Elaborated, Fabric, FabricTiming};
use pmorph_sim::{Logic, NetId, Simulator, WideMask};

/// A built counter: fabric region plus the stitch list.
#[derive(Clone, Debug)]
pub struct Counter {
    /// Bit count.
    pub n: usize,
    /// Configured fabric.
    pub fabric: Fabric,
    /// Per-bit XOR tiles.
    xors: Vec<LutPorts>,
    /// Per-bit enable-chain AND tiles (bit 0 has none).
    ands: Vec<Option<LutPorts>>,
    /// Per-bit flip-flops.
    ffs: Vec<DffPorts>,
}

/// Runtime handle.
pub struct CounterSim {
    /// The simulator.
    pub sim: Simulator,
    clk: Vec<NetId>,
    reset_n: Vec<NetId>,
    q: Vec<NetId>,
}

impl Counter {
    /// Build an `n`-bit counter (each bit is one row: XOR tile, DFF tile,
    /// AND tile → 11 blocks per row).
    pub fn build(n: usize) -> Result<Self, MapError> {
        assert!((1..=8).contains(&n));
        let mut fabric = Fabric::new(12, n);
        let xor2 = WideMask::from_fn(2, |m| m.count_ones() % 2 == 1);
        let and2 = WideMask::var(2, 0).and(&WideMask::var(2, 1));
        let mut xors = Vec::new();
        let mut ands = Vec::new();
        let mut ffs = Vec::new();
        for i in 0..n {
            let x = lut3(&mut fabric, 0, i, &xor2)?;
            let f = dff(&mut fabric, 3, i)?;
            xors.push(x);
            ffs.push(f);
            ands.push(if i + 1 < n { Some(lut3(&mut fabric, 8, i, &and2)?) } else { None });
        }
        Ok(Counter { n, fabric, xors, ands, ffs })
    }

    /// Elaborate and stitch: XOR output → DFF.D (abutting boundary but
    /// different lane, so stitched), Q → XOR input 0 and AND input 0,
    /// enable chain en_{i+1} = AND_i output.
    pub fn elaborate(&self, timing: &FabricTiming) -> CounterSim {
        let mut elab: Elaborated = elaborate(&self.fabric, timing);
        let hop = timing.block_hop_ps();
        let one = elab.one;
        let stitch_port = |elab: &mut Elaborated, from: NetId, to: PortLoc, d: u64| {
            let t = to.net(elab);
            elab.stitch(from, t, d);
        };
        for i in 0..self.n {
            let xor_out = self.xors[i].output.net(&elab);
            stitch_port(&mut elab, xor_out, self.ffs[i].d, hop);
            let q = self.ffs[i].q.net(&elab);
            stitch_port(&mut elab, q, self.xors[i].inputs[0], hop);
            if let Some(a) = &self.ands[i] {
                stitch_port(&mut elab, q, a.inputs[0], hop);
            }
            // enable input of the XOR (and of the AND chain)
            let en: NetId = if i == 0 {
                one
            } else {
                self.ands[i - 1].as_ref().expect("chain").output.net(&elab)
            };
            stitch_port(&mut elab, en, self.xors[i].inputs[1], hop);
            if let Some(a) = &self.ands[i] {
                stitch_port(&mut elab, en, a.inputs[1], hop);
            }
        }
        let clk = self.ffs.iter().map(|f| f.clk.net(&elab)).collect();
        let reset_n = self.ffs.iter().map(|f| f.reset_n.net(&elab)).collect();
        let q = self.ffs.iter().map(|f| f.q.net(&elab)).collect();
        CounterSim { sim: Simulator::new(elab.netlist.clone()), clk, reset_n, q }
    }

    /// Blocks used.
    pub fn footprint_blocks(&self) -> usize {
        self.xors.iter().map(|t| t.footprint.len()).sum::<usize>()
            + self.ffs.iter().map(|t| t.footprint.len()).sum::<usize>()
            + self.ands.iter().flatten().map(|t| t.footprint.len()).sum::<usize>()
    }
}

impl CounterSim {
    const SETTLE: u64 = 30_000_000;

    /// Clear to zero.
    pub fn reset(&mut self) {
        for i in 0..self.clk.len() {
            self.sim.drive(self.clk[i], Logic::L0);
            self.sim.drive(self.reset_n[i], Logic::L0);
        }
        self.sim.settle(Self::SETTLE).expect("reset settles");
        for &r in &self.reset_n {
            self.sim.drive(r, Logic::L1);
        }
        self.sim.settle(Self::SETTLE).expect("release settles");
    }

    /// One clock; returns the new count.
    pub fn tick(&mut self) -> Option<u64> {
        for &c in &self.clk {
            self.sim.drive(c, Logic::L1);
        }
        self.sim.settle(Self::SETTLE).expect("capture settles");
        for &c in &self.clk {
            self.sim.drive(c, Logic::L0);
        }
        self.sim.settle(Self::SETTLE).expect("low settles");
        self.read()
    }

    /// Present count.
    pub fn read(&self) -> Option<u64> {
        pmorph_sim::logic::to_u64(&self.q.iter().map(|&q| self.sim.value(q)).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_bit_counter_counts_and_wraps() {
        let counter = Counter::build(3).unwrap();
        let mut sim = counter.elaborate(&FabricTiming::default());
        sim.reset();
        assert_eq!(sim.read(), Some(0));
        for expect in [1u64, 2, 3, 4, 5, 6, 7, 0, 1, 2] {
            assert_eq!(sim.tick(), Some(expect), "count to {expect}");
        }
    }

    #[test]
    fn five_bit_counter_long_run() {
        let counter = Counter::build(5).unwrap();
        let mut sim = counter.elaborate(&FabricTiming::default());
        sim.reset();
        for i in 1..=40u64 {
            assert_eq!(sim.tick(), Some(i % 32), "tick {i}");
        }
    }

    #[test]
    fn reset_mid_count() {
        let counter = Counter::build(3).unwrap();
        let mut sim = counter.elaborate(&FabricTiming::default());
        sim.reset();
        sim.tick();
        sim.tick();
        sim.tick();
        assert_eq!(sim.read(), Some(3));
        sim.reset();
        assert_eq!(sim.read(), Some(0));
        assert_eq!(sim.tick(), Some(1));
    }

    #[test]
    fn footprint_accounting() {
        let counter = Counter::build(4).unwrap();
        // 4 XOR tiles (3) + 4 DFF tiles (5) + 3 AND tiles (3)
        assert_eq!(counter.footprint_blocks(), 4 * 3 + 4 * 5 + 3 * 3);
    }
}

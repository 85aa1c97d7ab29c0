//! The Fig. 10 accumulator: ripple adder + flip-flop register + feedback.
//!
//! Layout per bit (rows `2i`, `2i+1`):
//!
//! ```text
//! col 0        cols 1..=5
//! [product ]
//! [combine ] → [dff A][dff B][dff C][dff D][dff E]   (sum → D, Q → a rail)
//! ```
//!
//! The adder's sum tap abuts the flip-flop's D input directly (same
//! boundary); the register's Q/Q̄ return to the bit's `a`/`ā` rails through
//! [`pmorph_core::Elaborated::stitch`] connections standing in for the
//! return-path feed-through blocks (see the routed-ring test in
//! [`crate::route`] for the pure-fabric demonstration of such loops).

use crate::adder::{ripple_adder, AdderPorts};
use crate::seq::{dff, DffPorts};
use crate::tile::MapError;
use pmorph_core::{elaborate::elaborate, Fabric, FabricTiming};
use pmorph_sim::{Logic, NetId, Simulator};

/// A built accumulator: fabric plus port directory.
#[derive(Clone, Debug)]
pub struct Accumulator {
    /// Bit width.
    pub n: usize,
    /// The configured fabric.
    pub fabric: Fabric,
    /// Adder ports.
    pub adder: AdderPorts,
    /// Per-bit register ports.
    pub regs: Vec<DffPorts>,
}

/// Elaborated accumulator with resolved nets, ready to clock.
pub struct AccumulatorSim {
    /// Bit width.
    pub n: usize,
    /// The simulator.
    pub sim: Simulator,
    /// Addend rails `(b, b̄)` per bit.
    pub b: Vec<(NetId, NetId)>,
    /// Per-bit clock nets (drive together).
    pub clk: Vec<NetId>,
    /// Per-bit reset nets (drive together).
    pub reset_n: Vec<NetId>,
    /// Register outputs (the accumulator value).
    pub q: Vec<NetId>,
}

impl Accumulator {
    /// Build an `n`-bit accumulator tile set in a fresh fabric.
    pub fn build(n: usize) -> Result<Self, MapError> {
        let mut fabric = Fabric::new(6, 2 * n);
        let adder = ripple_adder(&mut fabric, 0, 0, n)?;
        let mut regs = Vec::with_capacity(n);
        for i in 0..n {
            regs.push(dff(&mut fabric, 1, 2 * i + 1)?);
        }
        Ok(Accumulator { n, fabric, adder, regs })
    }

    /// Elaborate, stitch the feedback paths, and wrap in a simulator.
    pub fn elaborate(&self, timing: &FabricTiming) -> AccumulatorSim {
        let mut elab = elaborate(&self.fabric, timing);
        // Feedback: Q → a rail, Q̄ → ā rail (return path ≈ 6 blocks).
        let return_delay = timing.block_hop_ps() * 6;
        for i in 0..self.n {
            let q = self.regs[i].q.net(&elab);
            let qn = self.regs[i].qn.net(&elab);
            let a = self.adder.a[i].0.net(&elab);
            let an = self.adder.a[i].1.net(&elab);
            elab.stitch(q, a, return_delay);
            elab.stitch(qn, an, return_delay);
        }
        let b = self.adder.b.iter().map(|(p, n)| (p.net(&elab), n.net(&elab))).collect();
        let clk = self.regs.iter().map(|r| r.clk.net(&elab)).collect();
        let reset_n = self.regs.iter().map(|r| r.reset_n.net(&elab)).collect();
        let q = self.regs.iter().map(|r| r.q.net(&elab)).collect();
        let mut sim = Simulator::new(elab.netlist.clone());
        // Carry-in of bit 0 is constant zero.
        sim.drive(self.adder.cin.0.net(&elab), Logic::L0);
        sim.drive(self.adder.cin.1.net(&elab), Logic::L1);
        AccumulatorSim { n: self.n, sim, b, clk, reset_n, q }
    }

    /// Total blocks the accumulator occupies.
    pub fn footprint_blocks(&self) -> usize {
        self.adder.footprint.len() + self.regs.iter().map(|r| r.footprint.len()).sum::<usize>()
    }
}

impl AccumulatorSim {
    const SETTLE: u64 = 20_000_000;

    /// Apply reset (clock low, clear registers).
    pub fn reset(&mut self) {
        for i in 0..self.n {
            self.sim.drive(self.clk[i], Logic::L0);
            self.sim.drive(self.reset_n[i], Logic::L0);
        }
        self.set_addend(0);
        self.sim.settle(Self::SETTLE).expect("reset settles");
        for i in 0..self.n {
            self.sim.drive(self.reset_n[i], Logic::L1);
        }
        self.sim.settle(Self::SETTLE).expect("reset release settles");
    }

    /// Drive the addend rails.
    pub fn set_addend(&mut self, value: u64) {
        for i in 0..self.n {
            let bit = value >> i & 1 == 1;
            self.sim.drive(self.b[i].0, Logic::from_bool(bit));
            self.sim.drive(self.b[i].1, Logic::from_bool(!bit));
        }
    }

    /// One accumulate cycle: `acc += value`. Returns the new value.
    pub fn step(&mut self, value: u64) -> Option<u64> {
        self.set_addend(value);
        self.sim.settle(Self::SETTLE).expect("combinational settle");
        for i in 0..self.n {
            self.sim.drive(self.clk[i], Logic::L1);
        }
        self.sim.settle(Self::SETTLE).expect("capture settle");
        for i in 0..self.n {
            self.sim.drive(self.clk[i], Logic::L0);
        }
        self.sim.settle(Self::SETTLE).expect("clock-low settle");
        self.read()
    }

    /// Present accumulator value, `None` if any bit is undefined.
    pub fn read(&self) -> Option<u64> {
        let bits: Vec<Logic> = self.q.iter().map(|&q| self.sim.value(q)).collect();
        pmorph_sim::logic::to_u64(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_accumulator_counts() {
        let acc = Accumulator::build(4).unwrap();
        let mut sim = acc.elaborate(&FabricTiming::default());
        sim.reset();
        assert_eq!(sim.read(), Some(0), "cleared");
        let mut model = 0u64;
        for add in [1, 2, 3, 5, 7, 15, 1, 1] {
            model = (model + add) & 0xF;
            assert_eq!(sim.step(add), Some(model), "after +{add}");
        }
    }

    #[test]
    fn eight_bit_accumulator_random_walk() {
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let acc = Accumulator::build(8).unwrap();
        let mut sim = acc.elaborate(&FabricTiming::default());
        sim.reset();
        let mut rng = StdRng::seed_from_u64(0xACC);
        let mut model = 0u64;
        for _ in 0..12 {
            let add = rng.random::<u64>() & 0xFF;
            model = (model + add) & 0xFF;
            assert_eq!(sim.step(add), Some(model), "+{add}");
        }
    }

    #[test]
    fn footprint_matches_layout() {
        let acc = Accumulator::build(4).unwrap();
        // 2 blocks/bit adder + 5 blocks/bit register
        assert_eq!(acc.footprint_blocks(), 4 * 2 + 4 * 5);
    }
}

//! Benchmark circuit generators shared by the utilisation and comparison
//! studies (gate-level netlists, every gate ≤ 4 inputs so the mapper's K
//! bound holds).

use pmorph_sim::{NetId, Netlist, NetlistBuilder};

/// A generated benchmark circuit.
pub struct Circuit {
    /// Descriptive name.
    pub name: &'static str,
    /// The netlist.
    pub netlist: Netlist,
    /// Primary outputs.
    pub outputs: Vec<NetId>,
    /// Equivalent polymorphic-fabric block count (from the corresponding
    /// `pmorph-synth` tile), for the area comparisons.
    pub pmorph_blocks: usize,
}

/// n-bit ripple-carry adder from 2-input NAND/XOR primitives
/// (combinational: every CLB's FF slot will idle).
pub fn ripple_adder_gates(n: usize) -> Circuit {
    let mut b = NetlistBuilder::new();
    let a: Vec<_> = (0..n).map(|_| b.net()).collect();
    let bb: Vec<_> = (0..n).map(|_| b.net()).collect();
    let mut carry = b.net();
    let mut outputs = Vec::new();
    for i in 0..n {
        let axb = b.xor(&[a[i], bb[i]]);
        let s = b.xor(&[axb, carry]);
        let t1 = b.and(&[a[i], bb[i]]);
        let t2 = b.and(&[axb, carry]);
        let c = b.or(&[t1, t2]);
        outputs.push(s);
        carry = c;
    }
    outputs.push(carry);
    Circuit {
        name: "ripple_adder",
        netlist: b.build(),
        outputs,
        // fabric: one cell pair per bit (Fig. 10)
        pmorph_blocks: 2 * n,
    }
}

/// n-bit shift register (FF-dominated: most CLB LUT slots idle).
pub fn shift_register(n: usize) -> Circuit {
    let mut b = NetlistBuilder::new();
    let din = b.net();
    let clk = b.net();
    let mut prev = din;
    let mut outputs = Vec::new();
    for _ in 0..n {
        let q = b.net();
        b.dff(prev, clk, None, q);
        prev = q;
        outputs.push(q);
    }
    Circuit {
        name: "shift_register",
        netlist: b.build(),
        outputs,
        // fabric: one 5-block DFF tile per stage
        pmorph_blocks: 5 * n,
    }
}

/// Parity tree over n inputs (LUT-rich, no state).
pub fn parity_tree(n: usize) -> Circuit {
    let mut b = NetlistBuilder::new();
    let mut level: Vec<_> = (0..n).map(|_| b.net()).collect();
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(b.xor(&[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let out = level[0];
    Circuit {
        name: "parity_tree",
        netlist: b.build(),
        outputs: vec![out],
        // fabric: XOR2 = one LUT pair (4 cubes fit 6 terms) per node,
        // mapped pairwise: (n-1) XORs × 2 blocks + polarity
        pmorph_blocks: (n - 1) * 2 + n.div_ceil(3),
    }
}

/// Mixed datapath: registered 4-bit counter-ish pipeline (LUT+FF pairs).
pub fn registered_pipeline(stages: usize) -> Circuit {
    let mut b = NetlistBuilder::new();
    let clk = b.net();
    let x0 = b.net();
    let x1 = b.net();
    let mut d0 = x0;
    let mut d1 = x1;
    let mut outputs = Vec::new();
    for _ in 0..stages {
        let g0 = b.xor(&[d0, d1]);
        let g1 = b.and(&[d0, d1]);
        let q0 = b.net();
        let q1 = b.net();
        b.dff(g0, clk, None, q0);
        b.dff(g1, clk, None, q1);
        d0 = q0;
        d1 = q1;
        outputs = vec![q0, q1];
    }
    Circuit {
        name: "registered_pipeline",
        netlist: b.build(),
        outputs,
        // fabric: per stage ≈ 2 LUT pairs + 2 DFF tiles
        pmorph_blocks: stages * (2 * 2 + 2 * 5),
    }
}

/// The full benchmark suite at representative sizes.
pub fn suite() -> Vec<Circuit> {
    vec![ripple_adder_gates(8), shift_register(16), parity_tree(16), registered_pipeline(4)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{pack, tech_map};

    #[test]
    fn suite_maps_cleanly() {
        for c in suite() {
            let d = tech_map(&c.netlist, &c.outputs, 4)
                .unwrap_or_else(|e| panic!("{} failed to map: {e}", c.name));
            assert!(!d.luts.is_empty() || !d.ffs.is_empty(), "{}", c.name);
        }
    }

    #[test]
    fn adder_wastes_ff_slots() {
        let c = ripple_adder_gates(8);
        let d = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        let s = pack(&d);
        assert_eq!(s.both, 0, "no FFs at all");
        assert!(s.wasted_fraction() > 0.5);
    }

    #[test]
    fn shift_register_wastes_lut_slots() {
        let c = shift_register(16);
        let d = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        let s = pack(&d);
        assert_eq!(s.ff_only, 16, "every FF rides a CLB without logic");
    }

    #[test]
    fn pipeline_packs_both() {
        let c = registered_pipeline(4);
        let d = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        let s = pack(&d);
        assert!(s.both > 0, "LUT+FF pairs pack together: {s:?}");
    }
}

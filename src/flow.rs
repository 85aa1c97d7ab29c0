//! The automatic cross-backend flow: any combinational gate netlist →
//! K-LUT network (via the FPGA technology mapper) → polymorphic-fabric
//! tiles, placed and connected without hand layout.
//!
//! This closes the loop the paper leaves implicit: the *same* circuit
//! drives both the conventional-FPGA backend (`pmorph-fpga`) and the
//! fabric backend, so every comparison (area, configuration bits, delay)
//! is between two executable implementations of one design.
//!
//! Each mapped LUT's table goes through the general mapper
//! ([`pmorph_synth::mapk::map_function`]), stacked one tree below the
//! last, so a LUT with ≤ 3 inputs becomes one 3-block `lut3` tile and a
//! 4-input LUT a Shannon pair of `lut3` tiles plus a mux tile.
//!
//! Net connections between tiles use [`pmorph_core::Elaborated::stitch`]
//! (see DESIGN.md §5 on joins), applied by the mapper's own
//! [`elaborate_stitched`]; primary inputs are driven at every consuming
//! tile's boundary taps.

use pmorph_core::{Elaborated, Fabric, FabricTiming};
use pmorph_fpga::MappedDesign;
use pmorph_sim::{Logic, NetId, WideMask};
use pmorph_synth::mapk::{elaborate_stitched, fabric_size_for, map_function};
use pmorph_synth::tile::{MapError, PortLoc};
use std::collections::HashMap;

/// A LUT network mapped onto the fabric.
pub struct FabricDesign {
    /// The configured fabric.
    pub fabric: Fabric,
    /// Original-netlist net → fabric output port of the tile computing it.
    pub outputs: HashMap<u32, PortLoc>,
    /// Original primary-input net → every fabric port it must drive.
    pub input_taps: HashMap<u32, Vec<PortLoc>>,
    /// Pending tile-to-tile connections, applied at elaboration.
    pub stitches: Vec<(PortLoc, PortLoc)>,
    /// Fabric blocks spent (tiles only; stitches stand in for routing).
    pub blocks_used: usize,
}

/// Blocks in one `lut3` tile: polarity, product and sum.
const TILE_BLOCKS: usize = 3;

/// Map a (combinational) K≤4-LUT design onto a fresh fabric.
pub fn map_design_to_fabric(design: &MappedDesign) -> Result<FabricDesign, MapError> {
    // One Shannon tree per LUT, stacked row after row (a 0-input LUT is
    // padded to one variable below).
    let rows: usize = design.luts.iter().map(|l| fabric_size_for(l.inputs.len().max(1)).1).sum();
    let mut fabric = Fabric::new(fabric_size_for(1).0, rows.max(1));
    let mut outputs = HashMap::new();
    let mut stitches = Vec::new();
    let mut blocks_used = 0;

    // Tile placement. `pending` records (tile input port, source net) so
    // sources mapped later still connect.
    let mut pending: Vec<(PortLoc, NetId)> = Vec::new();
    let mut row = 0;
    for lut in &design.luts {
        assert!(lut.inputs.len() <= 4, "tech map was run with K ≤ 4");
        // degenerate 0-input LUTs keep the historical 1-var padded shape
        let padded;
        let tt = if lut.inputs.is_empty() {
            padded = WideMask::from_fn(1, |m| m == 0 && lut.truth.get(0));
            &padded
        } else {
            &lut.truth
        };
        let mapped = map_function(&mut fabric, row, tt)?;
        row += fabric_size_for(tt.vars()).1;
        blocks_used += TILE_BLOCKS * mapped.tiles;
        stitches.extend(mapped.stitches);
        for (ports, &src) in mapped.var_ports.iter().zip(&lut.inputs) {
            pending.extend(ports.iter().map(|&p| (p, src)));
        }
        outputs.insert(lut.output.0, mapped.output);
    }
    // Resolve pending connections: internal nets become stitches, primary
    // inputs become taps.
    let mut input_taps: HashMap<u32, Vec<PortLoc>> = HashMap::new();
    for (port, src) in pending {
        if let Some(&producer) = outputs.get(&src.0) {
            stitches.push((producer, port));
        } else {
            input_taps.entry(src.0).or_default().push(port);
        }
    }
    Ok(FabricDesign { fabric, outputs, input_taps, stitches, blocks_used })
}

impl FabricDesign {
    /// Elaborate and apply the stitches.
    pub fn elaborate(&self, timing: &FabricTiming) -> Elaborated {
        elaborate_stitched(&self.fabric, &self.stitches, timing)
    }

    /// Evaluate one input assignment (original-netlist input net → value),
    /// returning the value of an original output net.
    pub fn eval(
        &self,
        elab: &Elaborated,
        assignment: &HashMap<u32, bool>,
        output: NetId,
    ) -> Option<bool> {
        let mut sim = pmorph_sim::Simulator::new(elab.netlist.clone());
        for (net, ports) in &self.input_taps {
            let v = *assignment.get(net)?;
            for p in ports {
                sim.drive(p.net(elab), Logic::from_bool(v));
            }
        }
        sim.settle(20_000_000).ok()?;
        let port = self.outputs.get(&output.0)?;
        sim.value(port.net(elab)).to_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_fpga::{circuits, tech_map, verify_mapping};
    use pmorph_util::rng::Rng;
    use pmorph_util::rng::StdRng;

    /// The cross-backend oracle: tech-map a gate netlist, auto-map the LUT
    /// network onto the fabric, and compare both backends against the
    /// original event-driven netlist on random vectors.
    fn check_circuit(c: &circuits::Circuit, vectors: usize, seed: u64) {
        let design = tech_map(&c.netlist, &c.outputs, 4).expect("fpga maps");
        assert!(verify_mapping(&c.netlist, &design, seed, 8), "fpga backend sane");
        let fd = map_design_to_fabric(&design).expect("fabric maps");
        let elab = fd.elaborate(&FabricTiming::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..vectors {
            let assignment: HashMap<u32, bool> =
                design.inputs.iter().map(|n| (n.0, rng.random())).collect();
            // reference: simulate the original gate netlist
            let mut sim = pmorph_sim::Simulator::new(c.netlist.clone());
            for (net, v) in &assignment {
                sim.drive(NetId(*net), Logic::from_bool(*v));
            }
            sim.settle(5_000_000).unwrap();
            for &o in &c.outputs {
                let want = sim.value(o).to_bool();
                let got = fd.eval(&elab, &assignment, o);
                assert_eq!(got, want, "{} output {o:?}", c.name);
            }
        }
    }

    #[test]
    fn parity_tree_cross_backend() {
        check_circuit(&circuits::parity_tree(8), 12, 0xF1);
    }

    #[test]
    fn ripple_adder_gates_cross_backend() {
        check_circuit(&circuits::ripple_adder_gates(3), 12, 0xF2);
    }

    #[test]
    fn four_input_luts_shannon_split() {
        // parity_tree(16) maps with genuine 4-input LUTs, exercising the
        // Shannon path.
        let c = circuits::parity_tree(16);
        let design = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        assert!(design.luts.iter().any(|l| l.inputs.len() == 4), "want at least one 4-LUT");
        check_circuit(&c, 8, 0xF3);
    }

    #[test]
    fn block_accounting_reported() {
        let c = circuits::parity_tree(8);
        let design = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        let fd = map_design_to_fabric(&design).unwrap();
        assert!(fd.blocks_used >= 3 * design.luts.len().min(fd.blocks_used));
        assert!(!fd.input_taps.is_empty());
    }
}

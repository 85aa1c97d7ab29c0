//! General function mapping: any function of up to six variables onto the
//! fabric, by Shannon decomposition into 3-LUT tiles joined by 2:1
//! multiplexer tiles (a mux is itself a 3-variable function, so the whole
//! tree is built from one tile type — very much in the fabric's
//! "primitives, not solutions" spirit).
//!
//! ## The join constraint
//!
//! A block reads exactly one input edge, so a mux tile's two data operands
//! must arrive *bundled on one boundary* — but they come from two
//! different subtrees. In this conservative single-input-edge geometry the
//! bundle can only be formed by a block both signals already pass through,
//! which recurses forever: **two-operand joins need either a second input
//! edge or tri-state lane convergence**, neither of which the paper
//! specifies. We therefore deliver mux operands through
//! [`pmorph_core::Elaborated::stitch`] connections (the same stand-in used
//! for the accumulator's register return paths) and report the stitch
//! count, so the cost of the simplification is visible in every result.

use crate::lut::{lut3, LutPorts};
use crate::tile::{MapError, PortLoc};
use pmorph_core::{elaborate::elaborate, Elaborated, Fabric, FabricTiming};
use pmorph_sim::table::WideMask;

/// Result of mapping an arbitrary function.
#[derive(Clone, Debug)]
pub struct MappedFunction {
    /// Number of variables.
    pub vars: usize,
    /// Output port of the root tile.
    pub output: PortLoc,
    /// For each variable, every input port it must drive (one per
    /// consuming tile).
    pub var_ports: Vec<Vec<PortLoc>>,
    /// 3-LUT tiles spent (leaves + muxes).
    pub tiles: usize,
    /// Pending operand connections `(from, to)` applied at elaboration.
    pub stitches: Vec<(PortLoc, PortLoc)>,
}

impl MappedFunction {
    /// Elaborate the host fabric and apply the operand stitches.
    pub fn elaborate(&self, fabric: &Fabric, timing: &FabricTiming) -> Elaborated {
        elaborate_stitched(fabric, &self.stitches, timing)
    }
}

/// Elaborate `fabric` and apply pending `(from, to)` connections, each
/// one block hop long — how every mapping that defers its operand joins
/// to [`pmorph_core::Elaborated::stitch`] is turned into a netlist.
pub fn elaborate_stitched(
    fabric: &Fabric,
    stitches: &[(PortLoc, PortLoc)],
    timing: &FabricTiming,
) -> Elaborated {
    let mut elab = elaborate(fabric, timing);
    let hop = timing.block_hop_ps();
    for (from, to) in stitches {
        let f = from.net(&elab);
        let t = to.net(&elab);
        elab.stitch(f, t, hop);
    }
    elab
}

/// Rows per tile slot.
const ROW_PITCH: usize = 1;
/// A lut3 tile is 3 blocks wide; one spare column on the right.
const TILE_W: usize = 3;

struct MapCtx<'a> {
    fabric: &'a mut Fabric,
    var_ports: Vec<Vec<PortLoc>>,
    tiles: usize,
    stitches: Vec<(PortLoc, PortLoc)>,
    next_row: usize,
}

impl MapCtx<'_> {
    fn place_lut(&mut self, tt: &WideMask) -> Result<LutPorts, MapError> {
        let row = self.next_row;
        self.next_row += ROW_PITCH;
        let ports = lut3(self.fabric, 0, row, tt)?;
        self.tiles += 1;
        Ok(ports)
    }

    /// Map `tt` over the (global) variable list `vars`.
    fn map_rec(&mut self, tt: &WideMask, vars: &[usize]) -> Result<PortLoc, MapError> {
        if tt.vars() <= 3 {
            let ports = self.place_lut(tt)?;
            for (local, port) in ports.inputs.iter().enumerate() {
                self.var_ports[vars[local]].push(*port);
            }
            Ok(ports.output)
        } else {
            let split = tt.vars() - 1;
            let global_split = vars[split];
            let f0 = tt.cofactor(split, false);
            let f1 = tt.cofactor(split, true);
            let o0 = self.map_rec(&f0, &vars[..split])?;
            let o1 = self.map_rec(&f1, &vars[..split])?;
            // mux(a, b, s) = s̄·a + s·b over local inputs (0, 1, 2)
            let mux = |m: u64| if m >> 2 & 1 == 1 { m >> 1 & 1 == 1 } else { m & 1 == 1 };
            let ports = self.place_lut(&WideMask::from_fn(3, mux))?;
            self.stitches.push((o0, ports.inputs[0]));
            self.stitches.push((o1, ports.inputs[1]));
            self.var_ports[global_split].push(ports.inputs[2]);
            Ok(ports.output)
        }
    }
}

/// Fabric dimensions adequate for mapping an `n`-variable function: one
/// tile row per node of the Shannon tree.
pub fn fabric_size_for(n: usize) -> (usize, usize) {
    assert!(n <= 6);
    let leaves = 1usize << n.saturating_sub(3);
    let nodes = 2 * leaves - 1;
    (TILE_W + 1, nodes * ROW_PITCH)
}

/// Map an arbitrary ≤6-variable function into `fabric`, one tile row per
/// tree node from row `row` down: the fabric must have at least
/// [`fabric_size_for`] free width and height from there.
pub fn map_function(
    fabric: &mut Fabric,
    row: usize,
    tt: &WideMask,
) -> Result<MappedFunction, MapError> {
    let n = tt.vars();
    if n > 6 {
        return Err(MapError::TooManyVars { needed: n, available: 6 });
    }
    let (w, h) = fabric_size_for(n);
    if fabric.width() < w || fabric.height() < row + h {
        return Err(MapError::OutOfRoom);
    }
    let mut ctx = MapCtx {
        fabric,
        var_ports: vec![Vec::new(); n.max(1)],
        tiles: 0,
        stitches: Vec::new(),
        next_row: row,
    };
    let vars: Vec<usize> = (0..n).collect();
    let output = ctx.map_rec(tt, &vars)?;
    Ok(MappedFunction {
        vars: n,
        output,
        var_ports: ctx.var_ports,
        tiles: ctx.tiles,
        stitches: ctx.stitches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_sim::{Logic, Simulator};

    fn parity(n: usize) -> WideMask {
        WideMask::from_fn(n, |m| m.count_ones() % 2 == 1)
    }

    /// Exhaustively check a mapped function against its truth table.
    fn verify(tt: &WideMask) {
        let (w, h) = fabric_size_for(tt.vars());
        let mut fabric = Fabric::new(w, h);
        let mapped = map_function(&mut fabric, 0, tt)
            .unwrap_or_else(|e| panic!("{}-var map failed: {e}", tt.vars()));
        let elab = mapped.elaborate(&fabric, &FabricTiming::default());
        for m in 0..(1u64 << tt.vars()) {
            let mut sim = Simulator::new(elab.netlist.clone());
            for (v, ports) in mapped.var_ports.iter().enumerate() {
                for p in ports {
                    sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
                }
            }
            sim.settle(2_000_000).unwrap();
            assert_eq!(
                sim.value(mapped.output.net(&elab)),
                Logic::from_bool(tt.get(m)),
                "f({:b}) bits={:#x} n={}",
                m,
                tt.as_u64(),
                tt.vars()
            );
        }
    }

    #[test]
    fn four_variable_functions() {
        verify(&parity(4));
        verify(&WideMask::from_fn(4, |m| m.count_ones() >= 2));
        verify(&WideMask::from_u64(4, 0xBEEF));
    }

    #[test]
    fn five_variable_functions() {
        verify(&parity(5));
        verify(&WideMask::from_fn(5, |m| m % 5 == 0));
    }

    #[test]
    fn six_variable_functions() {
        verify(&parity(6));
        verify(&WideMask::from_fn(6, |m| (m * 2654435761) % 7 < 3));
    }

    #[test]
    fn random_five_var_functions() {
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x5A5A);
        for _ in 0..4 {
            verify(&WideMask::from_u64(5, rng.random::<u64>()));
        }
    }

    #[test]
    fn small_functions_single_tile_no_stitches() {
        let (w, h) = fabric_size_for(3);
        let mut fabric = Fabric::new(w, h);
        let mapped =
            map_function(&mut fabric, 0, &WideMask::from_fn(3, |m| m.count_ones() >= 2)).unwrap();
        assert_eq!(mapped.tiles, 1);
        assert!(mapped.stitches.is_empty());
    }

    #[test]
    fn zero_variable_constants_map_onto_one_tile() {
        for tt in [WideMask::zero(0), WideMask::ones(0)] {
            verify(&tt);
            let (w, h) = fabric_size_for(0);
            let mapped = map_function(&mut Fabric::new(w, h), 0, &tt).unwrap();
            assert_eq!((mapped.tiles, mapped.stitches.len()), (1, 0));
        }
    }

    #[test]
    fn tile_and_stitch_counts_match_tree_shape() {
        let (w, h) = fabric_size_for(6);
        let mut fabric = Fabric::new(w, h);
        let mapped = map_function(&mut fabric, 0, &parity(6)).unwrap();
        // 8 leaves + (4 + 2 + 1) muxes; 2 stitches per mux
        assert_eq!(mapped.tiles, 15);
        assert_eq!(mapped.stitches.len(), 14);
    }

    #[test]
    fn too_small_fabric_rejected() {
        let mut fabric = Fabric::new(3, 3);
        assert!(matches!(map_function(&mut fabric, 0, &parity(5)), Err(MapError::OutOfRoom)));
    }
}

//! LUT tiles: the paper's Fig. 9 mapping, mechanised.
//!
//! A 3-LUT occupies **two cells** — one block of product terms, one block
//! forming their NAND (the sum) — exactly as the paper lays it out, with
//! the complemented input rails (`x x̄ y ȳ z z̄`) generated by an upstream
//! *polarity* cell (Fig. 9's "interconnect and clock logic" cell plays the
//! same role for the clock).
//!
//! NAND-NAND realisation: product block term `t` computes
//! `(l₁·l₂·…)'`; the sum block NANDs those lines, giving the SOP directly.

use crate::qm::{minimize, Sop};
use crate::tile::{MapError, PortLoc};
use pmorph_core::{Edge, Fabric, OutMode, LANES};
use pmorph_sim::table::WideMask;

/// Ports of a mapped LUT tile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LutPorts {
    /// Uncomplemented variable inputs (west side of the polarity block).
    pub inputs: Vec<PortLoc>,
    /// Function output.
    pub output: PortLoc,
    /// Blocks occupied, as `(x, y)`.
    pub footprint: Vec<(usize, usize)>,
}

/// Configure a **polarity block** at `(x, y)`: west lanes `0..k` carry
/// variables, east lanes `2v`/`2v+1` carry `x_v`/`x̄_v`. Supports `k ≤ 3`.
pub fn polarity_block(fabric: &mut Fabric, x: usize, y: usize, k: usize) {
    assert!(k <= 3, "a polarity block doubles at most 3 rails");
    let b = fabric.block_mut(x, y);
    *b = pmorph_core::BlockConfig::flowing(Edge::West, Edge::East);
    for v in 0..k {
        b.set_term(2 * v, &[v]);
        b.drivers[2 * v] = OutMode::Inv; // lane 2v = x_v
        b.set_term(2 * v + 1, &[v]);
        b.drivers[2 * v + 1] = OutMode::Buf; // lane 2v+1 = x̄_v
    }
}

/// Map a cover onto a **product block + sum block** pair starting at
/// `(x, y)` (flowing W→E). The pair's west lanes must carry the polarity
/// rails `x x̄ y ȳ z z̄`. Returns the output port (east of the sum block,
/// lane 0).
pub fn lut3_core(fabric: &mut Fabric, x: usize, y: usize, sop: &Sop) -> Result<PortLoc, MapError> {
    if sop.cubes.len() > LANES {
        return Err(MapError::TooManyTerms { needed: sop.cubes.len(), available: LANES });
    }
    if x + 1 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    // Product block.
    {
        let b = fabric.block_mut(x, y);
        *b = pmorph_core::BlockConfig::flowing(Edge::West, Edge::East);
        for (t, cube) in sop.cubes.iter().enumerate() {
            let cols: Vec<usize> = cube
                .literal_list()
                .into_iter()
                .map(|(v, pos)| {
                    debug_assert!(v < 3, "lut3 literal out of range");
                    if pos {
                        2 * v
                    } else {
                        2 * v + 1
                    }
                })
                .collect();
            b.set_term(t, &cols);
            b.drivers[t] = OutMode::Buf; // east lane t = (product)'
        }
    }
    // Sum block: NAND of the product lines = OR of products.
    {
        let b = fabric.block_mut(x + 1, y);
        *b = pmorph_core::BlockConfig::flowing(Edge::West, Edge::East);
        let cols: Vec<usize> = (0..sop.cubes.len()).collect();
        b.set_term(0, &cols);
        b.drivers[0] = OutMode::Buf;
    }
    Ok(PortLoc::new(x + 1, y, Edge::East, 0))
}

/// Map an arbitrary ≤3-variable function as a complete 3-block tile:
/// polarity + product + sum (the paper's two LUT cells plus the rail cell).
pub fn lut3(fabric: &mut Fabric, x: usize, y: usize, tt: &WideMask) -> Result<LutPorts, MapError> {
    if tt.vars() > 3 {
        return Err(MapError::TooManyVars { needed: tt.vars(), available: 3 });
    }
    if x + 2 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    polarity_block(fabric, x, y, tt.vars());
    let sop = minimize(tt);
    let output = lut3_core(fabric, x + 1, y, &sop)?;
    Ok(LutPorts {
        inputs: (0..tt.vars()).map(|v| PortLoc::new(x, y, Edge::West, v)).collect(),
        output,
        footprint: vec![(x, y), (x + 1, y), (x + 2, y)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    /// Exhaustively verify a mapped LUT against its truth table.
    fn check_lut(tt: &WideMask) {
        let mut fabric = Fabric::new(4, 1);
        let ports = lut3(&mut fabric, 0, 0, tt).expect("maps");
        let elab = elaborate(&fabric, &FabricTiming::default());
        for m in 0..(1u64 << tt.vars()) {
            let mut sim = Simulator::new(elab.netlist.clone());
            for (v, p) in ports.inputs.iter().enumerate() {
                sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
            }
            sim.settle(200_000).unwrap();
            assert_eq!(
                sim.value(ports.output.net(&elab)),
                Logic::from_bool(tt.get(m)),
                "tt {:08b} minterm {m}",
                tt.as_u64()
            );
        }
    }

    #[test]
    fn fig9_lut_x_or_y_or_z() {
        // The paper's example: 3-LUT computing x + y + z.
        let tt = WideMask::var(3, 0).or(&WideMask::var(3, 1)).or(&WideMask::var(3, 2));
        check_lut(&tt);
    }

    #[test]
    fn lut_parity_and_majority() {
        check_lut(&WideMask::from_fn(3, |m| m.count_ones() % 2 == 1));
        check_lut(&WideMask::from_fn(3, |m| m.count_ones() >= 2));
    }

    #[test]
    fn lut_constants() {
        check_lut(&WideMask::zero(3));
        check_lut(&WideMask::ones(3));
    }

    #[test]
    fn exhaustive_all_two_var_functions() {
        for bits in 0..16u64 {
            check_lut(&WideMask::from_u64(2, bits));
        }
    }

    #[test]
    fn sample_of_three_var_functions() {
        // A spread of 3-var functions (every 11th code) — full 256 sweep
        // lives in the integration tests.
        for bits in (0..256u64).step_by(11) {
            check_lut(&WideMask::from_u64(3, bits));
        }
    }

    #[test]
    fn too_small_fabric_rejected() {
        let mut fabric = Fabric::new(2, 1);
        let err = lut3(&mut fabric, 0, 0, &WideMask::from_fn(3, |m| m.count_ones() % 2 == 1))
            .unwrap_err();
        assert_eq!(err, MapError::OutOfRoom);
    }
}

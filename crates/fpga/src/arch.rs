//! Island-style FPGA architecture parameters and configuration accounting.
//!
//! The paper's §2 frames its argument against the conventional FPGA: a
//! grid of CLBs (Fig. 1 shows the XC5200's — 4-LUT, D flip-flop, carry
//! multiplexers) embedded in segmented routing whose configuration bits
//! dominate area ("as a first order approximation, FPGA area is
//! proportional to the number of configuration bits required to control
//! the routing switches" \[1\], \[24\]). This module implements exactly that
//! accounting so the comparison benches work from the same arithmetic.

/// Architecture parameters of the baseline island-style FPGA.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FpgaArch {
    /// LUT input count (K).
    pub lut_k: usize,
    /// Routing tracks per channel (W).
    pub channel_width: usize,
    /// Fraction of tracks a logic input pin can reach (Fc_in).
    pub fc_in: f64,
    /// Fraction of tracks the output pin can reach (Fc_out).
    pub fc_out: f64,
    /// Programmable switches per track in a switch box (disjoint = 6).
    pub sb_switches_per_track: usize,
    /// λ² of silicon per configuration bit (DeHon's area model \[1\]).
    pub lambda2_per_config_bit: f64,
}

impl Default for FpgaArch {
    /// A generic 4-LUT island FPGA tuned to reproduce the literature
    /// numbers the paper cites: several hundred config bits per tile and
    /// ≈600 Kλ² per routed 4-LUT.
    fn default() -> Self {
        FpgaArch {
            lut_k: 4,
            channel_width: 32,
            fc_in: 1.0,
            fc_out: 0.5,
            sb_switches_per_track: 6,
            lambda2_per_config_bit: 1660.0,
        }
    }
}

impl FpgaArch {
    /// Configuration bits in the logic part of a CLB: LUT truth table,
    /// FF/latch mode + init + clock enable polarity, output muxes and
    /// carry-chain control (Fig. 1's M1–M3 and DFF controls).
    pub fn logic_bits_per_clb(&self) -> usize {
        (1 << self.lut_k) + 9
    }

    /// Configuration bits in a tile's routing: connection boxes for each
    /// LUT input and the output, plus the tile's share of one switch box.
    pub fn routing_bits_per_tile(&self) -> usize {
        let cb_in = (self.lut_k as f64 * self.fc_in * self.channel_width as f64) as usize;
        let cb_out = (self.fc_out * self.channel_width as f64) as usize;
        let sb = self.sb_switches_per_track * self.channel_width;
        cb_in + cb_out + sb
    }

    /// Total configuration bits per tile — the paper's "several hundred
    /// bits required by typical CLB structures and their associated
    /// interconnects".
    pub fn bits_per_tile(&self) -> usize {
        self.logic_bits_per_clb() + self.routing_bits_per_tile()
    }

    /// Tile area (λ²) under the bits-proportional model.
    pub fn tile_area_lambda2(&self) -> f64 {
        self.bits_per_tile() as f64 * self.lambda2_per_config_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_tile_is_several_hundred() {
        let a = FpgaArch::default();
        let bits = a.bits_per_tile();
        assert!((200..=800).contains(&bits), "paper says 'several hundred', model gives {bits}");
    }

    #[test]
    fn tile_area_near_600k_lambda2() {
        let a = FpgaArch::default();
        let area = a.tile_area_lambda2();
        assert!(
            (400_000.0..=800_000.0).contains(&area),
            "DeHon's ~600Kλ² estimate, model gives {area}"
        );
    }

    #[test]
    fn routing_dominates_logic() {
        // The paper's §2.2 point: total area is dominated by routing
        // configuration, not logic.
        let a = FpgaArch::default();
        assert!(a.routing_bits_per_tile() > 4 * a.logic_bits_per_clb());
    }

    #[test]
    fn wider_channels_cost_more_bits() {
        let narrow = FpgaArch { channel_width: 16, ..FpgaArch::default() };
        let wide = FpgaArch { channel_width: 64, ..FpgaArch::default() };
        assert!(wide.bits_per_tile() > 2 * narrow.bits_per_tile());
    }
}

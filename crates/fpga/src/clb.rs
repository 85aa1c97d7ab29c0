//! Functional model of the baseline CLB (paper Fig. 1, after the XC5200).
//!
//! One configurable logic block: a 4-input LUT, a D flip-flop with clock
//! enable and clear, and the output multiplexers that choose between the
//! combinational and registered outputs (the figure's M1–M3). Unlike the
//! abstract mapper view in [`crate::mapper`], this is a *bit-accurate*
//! functional model with a configuration image — the FPGA-side counterpart
//! of `pmorph-core`'s 128-bit block config — so the utilisation study's
//! "unused components still exist" point can be shown on a concrete cell.

use pmorph_sim::Logic;

/// Output-mux selection (Fig. 1's M2): combinational or registered.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OutputSel {
    /// Drive the LUT output.
    #[default]
    Lut,
    /// Drive the flip-flop output.
    Ff,
}

/// D-input selection (M1): LUT output or the direct-in pin.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DinSel {
    /// Register the LUT output.
    #[default]
    Lut,
    /// Register the bypass (DI) pin.
    Direct,
}

/// Configuration of one CLB: 16 LUT bits + mux/FF controls.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct ClbConfig {
    /// LUT truth table (bit `i` = output for input minterm `i`).
    pub lut: u16,
    /// FF data source.
    pub din_sel: DinSel,
    /// Block output source.
    pub out_sel: OutputSel,
    /// Clock-enable active (when false the FF never loads).
    pub ce_used: bool,
    /// FF clear polarity: clear when the CLR pin is high.
    pub clr_enable: bool,
}

/// Number of configuration bits this functional model consumes — matches
/// the `logic_bits_per_clb` accounting in [`crate::arch`] within the
/// mux/control budget.
pub const CLB_CONFIG_BITS: usize = 16 + 5;

impl ClbConfig {
    /// Pack into bits (LUT little-endian, then controls).
    pub fn encode(&self) -> u32 {
        let mut v = self.lut as u32;
        v |= (matches!(self.din_sel, DinSel::Direct) as u32) << 16;
        v |= (matches!(self.out_sel, OutputSel::Ff) as u32) << 17;
        v |= (self.ce_used as u32) << 18;
        v |= (self.clr_enable as u32) << 19;
        v
    }

    /// Unpack.
    pub fn decode(v: u32) -> Self {
        ClbConfig {
            lut: (v & 0xFFFF) as u16,
            din_sel: if v >> 16 & 1 == 1 { DinSel::Direct } else { DinSel::Lut },
            out_sel: if v >> 17 & 1 == 1 { OutputSel::Ff } else { OutputSel::Lut },
            ce_used: v >> 18 & 1 == 1,
            clr_enable: v >> 19 & 1 == 1,
        }
    }
}

/// Runtime state of a CLB instance.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Clb {
    /// Configuration image.
    pub config: ClbConfig,
    /// Flip-flop state.
    ff: bool,
    last_clk: bool,
}

/// Input pins of the CLB for one evaluation.
#[derive(Copy, Clone, Debug, Default)]
pub struct ClbInputs {
    /// LUT inputs F1–F4 (minterm bit order).
    pub f: [bool; 4],
    /// Direct data-in pin.
    pub di: bool,
    /// Clock.
    pub clk: bool,
    /// Clock enable.
    pub ce: bool,
    /// Asynchronous clear.
    pub clr: bool,
}

impl Clb {
    /// Fresh CLB with a configuration.
    pub fn new(config: ClbConfig) -> Self {
        Clb { config, ff: false, last_clk: false }
    }

    /// LUT output for the present inputs.
    pub fn lut_out(&self, inputs: &ClbInputs) -> bool {
        let idx =
            inputs.f.iter().enumerate().fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
        self.config.lut >> idx & 1 == 1
    }

    /// Evaluate one step (call on every input change; clocking happens on
    /// the rising edge of `clk`). Returns the block output.
    pub fn eval(&mut self, inputs: &ClbInputs) -> bool {
        if self.config.clr_enable && inputs.clr {
            self.ff = false;
        } else if inputs.clk && !self.last_clk && (!self.config.ce_used || inputs.ce) {
            self.ff = match self.config.din_sel {
                DinSel::Lut => self.lut_out(inputs),
                DinSel::Direct => inputs.di,
            };
        }
        self.last_clk = inputs.clk;
        match self.config.out_sel {
            OutputSel::Lut => self.lut_out(inputs),
            OutputSel::Ff => self.ff,
        }
    }

    /// Which of the three major components a configuration actually uses —
    /// the §2.2 utilisation view of a single cell.
    pub fn components_used(&self) -> (bool, bool, bool) {
        let lut_used = self.config.lut != 0 && self.config.lut != u16::MAX
            || matches!(self.config.din_sel, DinSel::Lut);
        let ff_used = matches!(self.config.out_sel, OutputSel::Ff);
        let carry_used = false; // our flows never use the carry mux
        (lut_used, ff_used, carry_used)
    }

    /// Logic-level adapter used by mixed simulations.
    pub fn eval_logic(&mut self, f: [Logic; 4], clk: Logic, clr: Logic) -> Option<Logic> {
        let mut ins = ClbInputs::default();
        for (i, v) in f.iter().enumerate() {
            ins.f[i] = v.to_bool()?;
        }
        ins.clk = clk.to_bool()?;
        ins.clr = clr.to_bool()?;
        Some(Logic::from_bool(self.eval(&ins)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trip() {
        let cfg = ClbConfig {
            lut: 0xBEEF,
            din_sel: DinSel::Direct,
            out_sel: OutputSel::Ff,
            ce_used: true,
            clr_enable: true,
        };
        assert_eq!(ClbConfig::decode(cfg.encode()), cfg);
    }

    #[test]
    fn lut_mode_implements_any_function() {
        for lut in [0x8000u16, 0x6996, 0xFFFE, 0x0001] {
            let mut clb = Clb::new(ClbConfig { lut, ..ClbConfig::default() });
            for m in 0..16usize {
                let mut ins = ClbInputs::default();
                for i in 0..4 {
                    ins.f[i] = m >> i & 1 == 1;
                }
                assert_eq!(clb.eval(&ins), lut >> m & 1 == 1, "lut {lut:#06x} m {m}");
            }
        }
    }

    #[test]
    fn registered_mode_captures_on_edge() {
        let mut clb = Clb::new(ClbConfig {
            lut: 0x8000, // AND4
            out_sel: OutputSel::Ff,
            clr_enable: true,
            ..ClbConfig::default()
        });
        let mut ins = ClbInputs { f: [true; 4], ..ClbInputs::default() };
        assert!(!clb.eval(&ins), "not clocked yet");
        ins.clk = true;
        assert!(clb.eval(&ins), "captured AND=1 on rising edge");
        ins.f = [false; 4];
        assert!(clb.eval(&ins), "holds while clk high");
        ins.clk = false;
        assert!(clb.eval(&ins), "holds after falling edge");
        ins.clr = true;
        assert!(!clb.eval(&ins), "async clear");
    }

    #[test]
    fn clock_enable_gates_capture() {
        let mut clb = Clb::new(ClbConfig {
            lut: 0xFFFF,
            out_sel: OutputSel::Ff,
            ce_used: true,
            ..ClbConfig::default()
        });
        let mut ins = ClbInputs { f: [true; 4], ce: false, ..ClbInputs::default() };
        ins.clk = true;
        assert!(!clb.eval(&ins), "CE low blocks the edge");
        ins.clk = false;
        clb.eval(&ins);
        ins.ce = true;
        ins.clk = true;
        assert!(clb.eval(&ins), "CE high lets the edge through");
    }

    #[test]
    fn direct_in_bypasses_lut() {
        let mut clb = Clb::new(ClbConfig {
            lut: 0x0000,
            din_sel: DinSel::Direct,
            out_sel: OutputSel::Ff,
            ..ClbConfig::default()
        });
        let mut ins = ClbInputs { di: true, ..ClbInputs::default() };
        ins.clk = true;
        assert!(clb.eval(&ins), "DI captured even though LUT is constant 0");
    }

    #[test]
    fn utilisation_view() {
        let comb = Clb::new(ClbConfig { lut: 0x6996, ..ClbConfig::default() });
        let (l, f, c) = comb.components_used();
        assert!(l && !f && !c, "combinational config wastes FF + carry");
        let reg = Clb::new(ClbConfig {
            lut: 0,
            din_sel: DinSel::Direct,
            out_sel: OutputSel::Ff,
            ..ClbConfig::default()
        });
        let (l2, f2, _) = reg.components_used();
        assert!(!l2 && f2, "register-only config wastes the LUT");
    }
}

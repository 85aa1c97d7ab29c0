//! Device-level configurable gates: the 2-NAND of Fig. 4 and the
//! inverting / non-inverting / open-circuit driver of Fig. 5.
//!
//! Each complementary pair in the NAND has its *own* back-gate bias
//! (the black squares in the paper's figure). Biasing a pair to the
//! transparent extreme removes its input from the product; biasing it to
//! the disabled extreme forces the output high — giving the enhanced
//! function set `{(A·B)', Ā, B̄, 1, 0}` from one four-transistor gate.
//!
//! Everything here is solved at the *voltage* level with nested bisection
//! on the monotone EKV currents, then classified back to logic — the
//! digital fabric in `pmorph-core` relies on exactly this classification
//! being clean (rail-to-rail, no ambiguous levels).
//!
//! Both NAND bisections stop as soon as their bracket has closed to
//! adjacent floats, the closed-bracket rule of [`crate::bisect`]. From
//! then on every remaining step would recompute the same midpoint, so
//! the early return is the exact f64 the full step count gives.

use crate::bisect::bisect;
use crate::leaf::Trit;
use crate::mosfet::DgMosfet;
use crate::vtc::ConfigurableInverter;

/// Fraction of VDD below/above which a solved node is called 0/1.
const LOGIC_LO_FRAC: f64 = 0.15;
const LOGIC_HI_FRAC: f64 = 0.85;

/// The boolean function a configured 2-NAND realises (paper Fig. 4's table).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NandOutput {
    /// `(A·B)'` — both inputs active.
    NandAB,
    /// `Ā` — input B transparent.
    NotA,
    /// `B̄` — input A transparent.
    NotB,
    /// Constant 1 — a pair disabled.
    ConstOne,
    /// Constant 0 — both pairs transparent.
    ConstZero,
    /// Degenerate or analogue-ambiguous configuration.
    Other,
}

/// Device-level configurable 2-input NAND: series NMOS stack, parallel
/// PMOS pair, one back-gate bias per input pair.
#[derive(Copy, Clone, Debug)]
pub struct ConfigurableNand {
    /// NMOS prototype (both stack devices).
    pub nmos: DgMosfet,
    /// PMOS prototype (both parallel devices).
    pub pmos: DgMosfet,
    /// Supply (V).
    pub vdd: f64,
}

impl Default for ConfigurableNand {
    fn default() -> Self {
        ConfigurableNand { nmos: DgMosfet::nmos(), pmos: DgMosfet::pmos(), vdd: 1.0 }
    }
}

impl ConfigurableNand {
    /// Current through the series NMOS stack for a candidate output
    /// voltage: balances the internal node `v_mid` (strictly monotone, so
    /// bisection), then returns the stack current.
    fn series_current(&self, va: f64, vb: f64, vga: f64, vgb: f64, vout: f64) -> f64 {
        // Stack: vout — [NMOS_A gate=va bias=vga] — v_mid — [NMOS_B gate=vb
        // bias=vgb] — GND. g(v_mid) = I_B(v_mid) − I_A(v_mid) is increasing.
        let g = |vmid: f64| {
            self.nmos.current(vb, 0.0, vmid, vgb) - self.nmos.current(va, vmid, vout, vga)
        };
        let vmid = bisect(0.0, vout.max(1e-12), 60, |vmid| g(vmid) > 0.0);
        self.nmos.current(vb, 0.0, vmid, vgb)
    }

    /// Solve the static output voltage for inputs `(va, vb)` under
    /// per-input back-gate biases `(vga, vgb)`.
    pub fn solve_vout(&self, va: f64, vb: f64, vga: f64, vgb: f64) -> f64 {
        let h = |vout: f64| {
            self.series_current(va, vb, vga, vgb, vout)
                - self.pmos.current(va, self.vdd, vout, vga)
                - self.pmos.current(vb, self.vdd, vout, vgb)
        };
        bisect(0.0, self.vdd, 70, |vout| h(vout) > 0.0)
    }

    /// Logic value of a solved node, if unambiguous.
    pub fn quantize(&self, v: f64) -> Option<bool> {
        if v <= self.vdd * LOGIC_LO_FRAC {
            Some(false)
        } else if v >= self.vdd * LOGIC_HI_FRAC {
            Some(true)
        } else {
            None
        }
    }

    /// Evaluate the gate digitally for boolean inputs under trit biases.
    /// Returns `None` if the solved output is not a clean rail.
    pub fn eval_logic(&self, a: bool, b: bool, cfg_a: Trit, cfg_b: Trit) -> Option<bool> {
        let v = self.solve_vout(
            if a { self.vdd } else { 0.0 },
            if b { self.vdd } else { 0.0 },
            cfg_a.bias(),
            cfg_b.bias(),
        );
        self.quantize(v)
    }

    /// Classify the boolean function realised by a bias configuration by
    /// sweeping all four input combinations (the paper's Fig. 4 table).
    pub fn classify(&self, cfg_a: Trit, cfg_b: Trit) -> NandOutput {
        let mut tt = [false; 4];
        for (i, (a, b)) in
            [(false, false), (true, false), (false, true), (true, true)].into_iter().enumerate()
        {
            match self.eval_logic(a, b, cfg_a, cfg_b) {
                Some(v) => tt[i] = v,
                None => return NandOutput::Other,
            }
        }
        match tt {
            [true, true, true, false] => NandOutput::NandAB,
            [true, false, true, false] => NandOutput::NotA,
            [true, true, false, false] => NandOutput::NotB,
            [true, true, true, true] => NandOutput::ConstOne,
            [false, false, false, false] => NandOutput::ConstZero,
            _ => NandOutput::Other,
        }
    }
}

/// Driver operating modes (paper Fig. 5 plus the pass-transistor case the
/// text describes for neighbour connections).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DriverMode {
    /// Output = complement of input (one active stage).
    Inverting,
    /// Output = input (two cascaded active stages).
    NonInverting,
    /// Output floats: both output devices biased off.
    OpenCircuit,
    /// Simple pass connection to the neighbouring cell (both pass devices
    /// stuck on).
    Pass,
}

/// Resolved driver output: a solved voltage or a verified high-impedance.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum DriverOut {
    /// Actively driven node voltage (V).
    Voltage(f64),
    /// Both output devices cut off (leakage below the Z threshold).
    HighZ,
}

/// Digital classification of a driver output node. The three cases are
/// *physically distinct* and downstream logic must not conflate them:
/// `HighZ` is a verified open circuit (safe to wire-OR on a shared lane),
/// while `Ambiguous` is an actively driven mid-rail voltage — contention
/// or a broken stage — which corrupts anything it touches. The old
/// `Option<Option<bool>>` encoding collapsed both to "no value" one
/// `.flatten()` away.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DriverLevel {
    /// Actively driven to a clean rail.
    Driven(bool),
    /// Verified high-impedance (Z): both output devices cut off.
    HighZ,
    /// Driven but analogue-ambiguous (X): the solved voltage sits between
    /// the logic thresholds.
    Ambiguous,
}

impl DriverLevel {
    /// The rail value when cleanly driven (`None` for both X and Z — only
    /// use where that distinction genuinely does not matter).
    pub fn driven(self) -> Option<bool> {
        match self {
            DriverLevel::Driven(v) => Some(v),
            DriverLevel::HighZ | DriverLevel::Ambiguous => None,
        }
    }
}

impl std::fmt::Display for DriverLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverLevel::Driven(true) => write!(f, "1"),
            DriverLevel::Driven(false) => write!(f, "0"),
            DriverLevel::HighZ => write!(f, "Z"),
            DriverLevel::Ambiguous => write!(f, "X"),
        }
    }
}

/// Device-level model of the Fig. 5 configurable driver: an input stage and
/// an output stage, each a complementary pair with independent back-gate
/// biases.
#[derive(Copy, Clone, Debug)]
pub struct ConfigurableDriver {
    /// The underlying complementary pair model (both stages identical).
    pub stage: ConfigurableInverter,
    /// Current below which a cut-off output is declared high-impedance (A).
    pub z_current_threshold: f64,
}

impl Default for ConfigurableDriver {
    fn default() -> Self {
        ConfigurableDriver { stage: ConfigurableInverter::default(), z_current_threshold: 1e-8 }
    }
}

impl ConfigurableDriver {
    /// Solve the driver output for an input voltage under a mode.
    pub fn output(&self, vin: f64, mode: DriverMode) -> DriverOut {
        match mode {
            DriverMode::Inverting => DriverOut::Voltage(self.stage.solve_vout(vin, 0.0)),
            DriverMode::NonInverting => {
                let mid = self.stage.solve_vout(vin, 0.0);
                DriverOut::Voltage(self.stage.solve_vout(mid, 0.0))
            }
            DriverMode::OpenCircuit => {
                // NMOS back-gate at −2 V and PMOS at +2 V push both
                // thresholds past the rail; verify the residual drive is
                // below the Z threshold at the worst-case input.
                let worst = self
                    .stage
                    .nmos
                    .current(self.stage.vdd, 0.0, self.stage.vdd, -2.0)
                    .max(self.stage.pmos.current(0.0, self.stage.vdd, 0.0, 2.0));
                debug_assert!(
                    worst < self.z_current_threshold,
                    "open-circuit leakage {worst} exceeds Z threshold"
                );
                DriverOut::HighZ
            }
            DriverMode::Pass => {
                // Complementary pass pair, both stuck on: full-swing wire.
                DriverOut::Voltage(vin)
            }
        }
    }

    /// Digital view of the driver: a rail, a verified Hi-Z, or an
    /// analogue-ambiguous mid-rail level — kept as three distinct cases.
    pub fn eval_logic(&self, input: bool, mode: DriverMode) -> DriverLevel {
        let vin = if input { self.stage.vdd } else { 0.0 };
        match self.output(vin, mode) {
            DriverOut::HighZ => DriverLevel::HighZ,
            DriverOut::Voltage(v) => {
                if v <= self.stage.vdd * LOGIC_LO_FRAC {
                    DriverLevel::Driven(false)
                } else if v >= self.stage.vdd * LOGIC_HI_FRAC {
                    DriverLevel::Driven(true)
                } else {
                    DriverLevel::Ambiguous
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_active_mode_truth_table() {
        let g = ConfigurableNand::default();
        assert_eq!(g.eval_logic(false, false, Trit::Zero, Trit::Zero), Some(true));
        assert_eq!(g.eval_logic(true, false, Trit::Zero, Trit::Zero), Some(true));
        assert_eq!(g.eval_logic(false, true, Trit::Zero, Trit::Zero), Some(true));
        assert_eq!(g.eval_logic(true, true, Trit::Zero, Trit::Zero), Some(false));
    }

    #[test]
    fn fig4_mode_table() {
        let g = ConfigurableNand::default();
        assert_eq!(g.classify(Trit::Zero, Trit::Zero), NandOutput::NandAB);
        assert_eq!(g.classify(Trit::Zero, Trit::Plus), NandOutput::NotA);
        assert_eq!(g.classify(Trit::Plus, Trit::Zero), NandOutput::NotB);
        assert_eq!(g.classify(Trit::Minus, Trit::Minus), NandOutput::ConstOne);
        assert_eq!(g.classify(Trit::Plus, Trit::Plus), NandOutput::ConstZero);
    }

    #[test]
    fn disabled_pair_dominates() {
        // One pair disabled forces the output high regardless of the other.
        let g = ConfigurableNand::default();
        assert_eq!(g.classify(Trit::Minus, Trit::Zero), NandOutput::ConstOne);
        assert_eq!(g.classify(Trit::Zero, Trit::Minus), NandOutput::ConstOne);
        assert_eq!(g.classify(Trit::Minus, Trit::Plus), NandOutput::ConstOne);
    }

    #[test]
    fn nand_output_levels_rail_to_rail() {
        let g = ConfigurableNand::default();
        let hi = g.solve_vout(0.0, 1.0, 0.0, 0.0);
        let lo = g.solve_vout(1.0, 1.0, 0.0, 0.0);
        assert!(hi > 0.9, "logic-1 level {hi}");
        assert!(lo < 0.1, "logic-0 level {lo}");
    }

    #[test]
    fn fig5_driver_modes() {
        let d = ConfigurableDriver::default();
        assert_eq!(d.eval_logic(true, DriverMode::Inverting), DriverLevel::Driven(false));
        assert_eq!(d.eval_logic(false, DriverMode::Inverting), DriverLevel::Driven(true));
        assert_eq!(d.eval_logic(true, DriverMode::NonInverting), DriverLevel::Driven(true));
        assert_eq!(d.eval_logic(false, DriverMode::NonInverting), DriverLevel::Driven(false));
        assert_eq!(d.eval_logic(true, DriverMode::OpenCircuit), DriverLevel::HighZ);
        assert_eq!(d.eval_logic(false, DriverMode::OpenCircuit), DriverLevel::HighZ);
        assert_eq!(d.eval_logic(true, DriverMode::Pass), DriverLevel::Driven(true));
    }

    #[test]
    fn ambiguous_and_highz_are_distinct() {
        // A depletion-mode pull-up (negative V_T0) conducts even at
        // vin = VDD, perfectly contending with the default NMOS: the
        // solved output sits at VDD/2 — an X, not a Z. The old
        // Option<Option<bool>> return collapsed this onto Hi-Z after the
        // `.flatten()` every call site reached for.
        let broken = ConfigurableDriver {
            stage: ConfigurableInverter {
                pmos: DgMosfet { vt0: -0.75, ..DgMosfet::pmos() },
                ..ConfigurableInverter::default()
            },
            ..ConfigurableDriver::default()
        };
        let x = broken.eval_logic(true, DriverMode::Inverting);
        // Z from a healthy driver: a −0.75 V depletion pull-up cannot be
        // cut off even at the +2 V configuration extreme (the open-circuit
        // leakage assert correctly fires), which is rather the point — an
        // X-producing stage and a Z-producing stage are different devices.
        let z = ConfigurableDriver::default().eval_logic(true, DriverMode::OpenCircuit);
        assert_eq!(x, DriverLevel::Ambiguous, "contended node must classify as X");
        assert_eq!(z, DriverLevel::HighZ, "open circuit must classify as Z");
        assert_ne!(x, z, "X and Z must never compare equal");
        // both are "not a clean rail", which is all `.driven()` may erase
        assert_eq!(x.driven(), None);
        assert_eq!(z.driven(), None);
        assert_eq!(format!("{x}/{z}"), "X/Z");
        // the undamaged half of the curve still drives cleanly
        assert_eq!(broken.eval_logic(false, DriverMode::Inverting), DriverLevel::Driven(true));
    }

    #[test]
    fn open_circuit_leakage_below_threshold() {
        let d = ConfigurableDriver::default();
        let n_leak = d.stage.nmos.current(1.0, 0.0, 1.0, -2.0);
        let p_leak = d.stage.pmos.current(0.0, 1.0, 0.0, 2.0);
        assert!(n_leak < d.z_current_threshold, "n {n_leak}");
        assert!(p_leak < d.z_current_threshold, "p {p_leak}");
    }
}

//! Configurable-inverter voltage-transfer-curve solver (paper Fig. 3).
//!
//! A complementary DG pair with a shared back-gate configuration voltage
//! `V_G2` forms the paper's *configurable inverter*. Sweeping `V_G2` moves
//! the switching point across the whole logic range; at the extremes the
//! output sticks at a rail — which is precisely how a leaf cell is turned
//! into "interconnect" (stuck-on), "nothing" (stuck-off) or "logic"
//! (active). This module solves the static transfer curve by bisection on
//! the monotone current-balance equation.
//!
//! Both bisections stop early under the two exit rules of
//! [`crate::bisect`], and neither rule moves a bit of any result. A
//! bracket that has closed to adjacent floats would keep yielding the
//! same midpoint, so the solve returns it at once. The switching
//! threshold only asks whether `V_out(V_in) > VDD/2`, and the solved
//! `V_out` never leaves its current bracket. So each inner solve stops
//! with "no" once the bracket's top is at or below `VDD/2`, and with
//! "yes" once its bottom is above it.

use crate::bisect::{bisect, bisect_until};
use crate::mosfet::DgMosfet;

/// One sample of a voltage transfer curve.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VtcPoint {
    /// Input voltage (V).
    pub vin: f64,
    /// Output voltage (V).
    pub vout: f64,
}

/// Static behaviour classification of a configured inverter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InverterBehaviour {
    /// Output switches through the supply midpoint: a working inverter.
    Active,
    /// Output pinned near VDD for every input (pull-down disabled).
    StuckHigh,
    /// Output pinned near ground for every input (pull-up disabled).
    StuckLow,
}

/// A complementary DG pair with a shared back-gate configuration voltage.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ConfigurableInverter {
    /// Pull-down device.
    pub nmos: DgMosfet,
    /// Pull-up device.
    pub pmos: DgMosfet,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl Default for ConfigurableInverter {
    fn default() -> Self {
        ConfigurableInverter { nmos: DgMosfet::nmos(), pmos: DgMosfet::pmos(), vdd: 1.0 }
    }
}

impl ConfigurableInverter {
    /// Solve the static output voltage for input `vin` under back-gate bias
    /// `vg2` (shared by both devices) — the paper's single-configuration-
    /// voltage arrangement.
    pub fn solve_vout(&self, vin: f64, vg2: f64) -> f64 {
        self.solve_vout_biased(vin, vg2, vg2)
    }

    /// Solve the static output voltage with *independent* back-gate biases
    /// on the pull-down (`vg_n`) and pull-up (`vg_p`) — needed by the Fig. 5
    /// driver, whose open-circuit mode cuts both devices off at once.
    /// Bisection on `I_N(V_out) − I_P(V_out)`, strictly increasing in
    /// `V_out`.
    pub fn solve_vout_biased(&self, vin: f64, vg_n: f64, vg_p: f64) -> f64 {
        self.solve_vout_until(vin, vg_n, vg_p, |_, _| false)
    }

    /// [`Self::solve_vout_biased`], stopped early once `settled(lo, hi)`
    /// holds for the current output bracket.
    fn solve_vout_until(
        &self,
        vin: f64,
        vg_n: f64,
        vg_p: f64,
        settled: impl FnMut(f64, f64) -> bool,
    ) -> f64 {
        let f = |vout: f64| {
            self.nmos.current(vin, 0.0, vout, vg_n) - self.pmos.current(vin, self.vdd, vout, vg_p)
        };
        // f(0) ≤ 0 (no NMOS current, PMOS sourcing), f(VDD) ≥ 0.
        bisect_until(0.0, self.vdd, 80, |vout| f(vout) > 0.0, settled)
    }

    /// Whether `solve_vout(vin, vg2) > level`, decided as soon as the
    /// output bracket lies wholly on one side of `level`.
    fn vout_above(&self, vin: f64, vg2: f64, level: f64) -> bool {
        self.solve_vout_until(vin, vg2, vg2, |lo, hi| hi <= level || lo > level) > level
    }

    /// Sample the full transfer curve with `points` samples.
    pub fn vtc(&self, vg2: f64, points: usize) -> Vec<VtcPoint> {
        assert!(points >= 2);
        (0..points)
            .map(|i| {
                let vin = self.vdd * i as f64 / (points - 1) as f64;
                VtcPoint { vin, vout: self.solve_vout(vin, vg2) }
            })
            .collect()
    }

    /// Input voltage at which the output crosses VDD/2, if it does.
    /// (Bisection on the monotonically falling V_out(V_in).)
    pub fn switching_threshold(&self, vg2: f64) -> Option<f64> {
        let mid = self.vdd / 2.0;
        let hi0 = self.solve_vout(0.0, vg2);
        let lo1 = self.solve_vout(self.vdd, vg2);
        if hi0 < mid || lo1 > mid {
            return None; // output never crosses the midpoint: stuck
        }
        Some(bisect(0.0, self.vdd, 60, |m| !self.vout_above(m, vg2, mid)))
    }

    /// Classify the configured behaviour (the trichotomy of Fig. 3).
    pub fn behaviour(&self, vg2: f64) -> InverterBehaviour {
        match self.switching_threshold(vg2) {
            Some(_) => InverterBehaviour::Active,
            None => {
                if self.solve_vout(0.0, vg2) > self.vdd / 2.0 {
                    InverterBehaviour::StuckHigh
                } else {
                    InverterBehaviour::StuckLow
                }
            }
        }
    }

    /// Output logic swing under bias: `(min V_out, max V_out)` over the
    /// input range. Active configurations should span nearly rail-to-rail.
    pub fn swing(&self, vg2: f64) -> (f64, f64) {
        let v0 = self.solve_vout(0.0, vg2);
        let v1 = self.solve_vout(self.vdd, vg2);
        (v0.min(v1), v0.max(v1))
    }

    /// Worst-case static (short-circuit + leakage) current at the two
    /// logic input levels — complementary operation keeps this near the
    /// device leakage floor, the paper's static-power argument.
    pub fn static_current(&self, vg2: f64) -> f64 {
        let at = |vin: f64| {
            let vout = self.solve_vout(vin, vg2);
            self.nmos.current(vin, 0.0, vout, vg2).abs()
        };
        at(0.0).max(at(self.vdd))
    }

    /// Small-signal voltage gain `|dV_out/dV_in|` at input `vin`.
    pub fn gain(&self, vin: f64, vg2: f64) -> f64 {
        let h = 1e-4;
        ((self.solve_vout(vin + h, vg2) - self.solve_vout(vin - h, vg2)) / (2.0 * h)).abs()
    }

    /// Unity-gain input levels `(V_IL, V_IH)` — the classic noise-margin
    /// boundaries where `|dV_out/dV_in| = 1`. Returns `None` for stuck
    /// configurations (gain never reaches one).
    pub fn unity_gain_points(&self, vg2: f64) -> Option<(f64, f64)> {
        const STEPS: usize = 400;
        let mut vil = None;
        let mut vih = None;
        let mut prev_gain = self.gain(0.0, vg2);
        for k in 1..=STEPS {
            let vin = self.vdd * k as f64 / STEPS as f64;
            let g = self.gain(vin, vg2);
            if vil.is_none() && prev_gain < 1.0 && g >= 1.0 {
                vil = Some(vin);
            }
            if vil.is_some() && prev_gain >= 1.0 && g < 1.0 {
                vih = Some(vin);
            }
            prev_gain = g;
        }
        match (vil, vih) {
            (Some(l), Some(h)) => Some((l, h)),
            _ => None,
        }
    }

    /// Static noise margins `(NM_L, NM_H)` from the unity-gain points:
    /// `NM_L = V_IL − V_OL`, `NM_H = V_OH − V_IH`.
    pub fn noise_margins(&self, vg2: f64) -> Option<(f64, f64)> {
        let (vil, vih) = self.unity_gain_points(vg2)?;
        let voh = self.solve_vout(0.0, vg2);
        let vol = self.solve_vout(self.vdd, vg2);
        Some((vil - vol, voh - vih))
    }

    /// Peak small-signal gain over the input range — the regeneration
    /// figure the paper's §1 worries nano-devices may lack ("low gain").
    pub fn peak_gain(&self, vg2: f64) -> f64 {
        (0..=200).map(|k| self.gain(self.vdd * k as f64 / 200.0, vg2)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bisect::tests::{evals_of, fixed_count};

    /// Oracle for the output solve: 80 fixed halvings, no early exit.
    fn fixed_count_vout(inv: &ConfigurableInverter, vin: f64, vg2: f64) -> f64 {
        fixed_count(0.0, inv.vdd, 80, |vout| {
            inv.nmos.current(vin, 0.0, vout, vg2) - inv.pmos.current(vin, inv.vdd, vout, vg2) > 0.0
        })
    }

    /// Oracle for the switching threshold: 60 fixed halvings, each over a
    /// full 80-step output solve.
    pub(crate) fn fixed_count_threshold(inv: &ConfigurableInverter, vg2: f64) -> Option<f64> {
        let mid = inv.vdd / 2.0;
        if fixed_count_vout(inv, 0.0, vg2) < mid || fixed_count_vout(inv, inv.vdd, vg2) > mid {
            return None;
        }
        let (mut lo, mut hi) = (0.0, inv.vdd);
        for _ in 0..60 {
            let m = 0.5 * (lo + hi);
            if fixed_count_vout(inv, m, vg2) > mid {
                lo = m;
            } else {
                hi = m;
            }
        }
        Some(0.5 * (lo + hi))
    }

    #[test]
    fn solves_match_the_fixed_count_loops_bit_for_bit() {
        let inv = ConfigurableInverter::default();
        for k in 0..=30 {
            let vg2 = -1.5 + 0.1 * k as f64;
            for j in 0..=20 {
                let vin = j as f64 / 20.0;
                let (got, want) = (inv.solve_vout(vin, vg2), fixed_count_vout(&inv, vin, vg2));
                assert_eq!(got.to_bits(), want.to_bits(), "vin {vin} vg2 {vg2}");
            }
        }
        // E1's bias sweep: two stuck configurations and three active ones
        for vg2 in [-1.5, -0.5, 0.0, 0.5, 1.5] {
            assert_eq!(
                inv.switching_threshold(vg2).map(f64::to_bits),
                fixed_count_threshold(&inv, vg2).map(f64::to_bits),
                "vg2 {vg2}"
            );
        }
    }

    #[test]
    fn the_output_solve_stops_once_its_bracket_closes() {
        let n = evals_of(|| ConfigurableInverter::default().solve_vout(0.5, 0.0));
        assert!(n < 80, "{n} predicate evaluations");
    }

    #[test]
    fn active_inverter_switches_near_midpoint() {
        let inv = ConfigurableInverter::default();
        let th = inv.switching_threshold(0.0).expect("active at zero bias");
        assert!((th - 0.5).abs() < 0.1, "threshold {th} should be near VDD/2");
        let (lo, hi) = inv.swing(0.0);
        assert!(lo < 0.05 && hi > 0.95, "rail-to-rail swing, got ({lo},{hi})");
    }

    #[test]
    fn vtc_monotone_decreasing_when_active() {
        let inv = ConfigurableInverter::default();
        let curve = inv.vtc(0.0, 41);
        for w in curve.windows(2) {
            assert!(w[1].vout <= w[0].vout + 1e-9, "VTC must fall: {w:?}");
        }
    }

    #[test]
    fn bias_sweeps_switching_point_like_fig3() {
        let inv = ConfigurableInverter::default();
        // Moderate biases move the threshold monotonically down as VG2 rises.
        let t_neg = inv.switching_threshold(-0.5).unwrap();
        let t_zero = inv.switching_threshold(0.0).unwrap();
        let t_pos = inv.switching_threshold(0.5).unwrap();
        assert!(t_neg > t_zero && t_zero > t_pos, "{t_neg} > {t_zero} > {t_pos}");
    }

    #[test]
    fn extreme_bias_sticks_rails_like_fig3() {
        let inv = ConfigurableInverter::default();
        assert_eq!(inv.behaviour(-1.5), InverterBehaviour::StuckHigh);
        assert_eq!(inv.behaviour(1.5), InverterBehaviour::StuckLow);
        assert_eq!(inv.behaviour(0.0), InverterBehaviour::Active);
    }

    #[test]
    fn stuck_high_output_really_high_for_all_inputs() {
        let inv = ConfigurableInverter::default();
        for p in inv.vtc(-1.5, 11) {
            assert!(p.vout > 0.9, "stuck-high violated at vin={}: {}", p.vin, p.vout);
        }
        for p in inv.vtc(1.5, 11) {
            assert!(p.vout < 0.1, "stuck-low violated at vin={}: {}", p.vin, p.vout);
        }
    }

    #[test]
    fn noise_margins_positive_and_symmetric_at_zero_bias() {
        let inv = ConfigurableInverter::default();
        let (nml, nmh) = inv.noise_margins(0.0).expect("active");
        assert!(nml > 0.1 && nmh > 0.1, "NM ({nml}, {nmh})");
        assert!((nml - nmh).abs() < 0.1, "symmetric pair: ({nml}, {nmh})");
    }

    #[test]
    fn peak_gain_exceeds_unity_when_active() {
        let inv = ConfigurableInverter::default();
        assert!(inv.peak_gain(0.0) > 2.0, "restoring logic needs gain > 1");
        // stuck configurations have no regeneration
        assert!(inv.peak_gain(-1.5) < 1.0);
        assert_eq!(inv.unity_gain_points(-1.5), None);
    }

    #[test]
    fn bias_erodes_noise_margins_before_killing_the_gate() {
        let inv = ConfigurableInverter::default();
        let (nml0, nmh0) = inv.noise_margins(0.0).unwrap();
        let (nml1, nmh1) = inv.noise_margins(0.6).unwrap();
        // positive bias shifts the threshold down: low margin shrinks
        assert!(nml1 < nml0, "{nml1} < {nml0}");
        assert!(nmh1 > nmh0 - 0.05, "high margin holds or grows");
    }

    #[test]
    fn static_current_stays_near_leakage() {
        let inv = ConfigurableInverter::default();
        let i_static = inv.static_current(0.0);
        let i_on = inv.nmos.current(1.0, 0.0, 1.0, 0.0);
        assert!(i_static < i_on * 1e-2, "complementary operation: {i_static} vs {i_on}");
    }
}

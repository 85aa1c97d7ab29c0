//! Configurable-inverter voltage-transfer-curve solver (paper Fig. 3).
//!
//! A complementary DG pair with a shared back-gate configuration voltage
//! `V_G2` forms the paper's *configurable inverter*. Sweeping `V_G2` moves
//! the switching point across the whole logic range; at the extremes the
//! output sticks at a rail — which is precisely how a leaf cell is turned
//! into "interconnect" (stuck-on), "nothing" (stuck-off) or "logic"
//! (active). This module solves the static transfer curve by bisection on
//! the monotone current-balance equation. Each output solve fixes both
//! devices' gates, sources and back gates, so it takes their channels
//! (`DgMosfet::channel`) once and pays only the drain-dependent term per
//! step.
//!
//! Both bisections stop early under the exit rules of `crate::bisect`,
//! and no rule moves a bit of any result. A bracket that has closed to
//! adjacent floats would keep yielding the same midpoint, so the solve
//! returns it at once. The switching threshold only asks on which side
//! of `VDD/2` an output lies: in its two stuck checks (`V_out(0) <
//! VDD/2`, `V_out(VDD) > VDD/2`) and in each inner solve of its bisection
//! on `V_in`. The solved `V_out` never leaves its current bracket, so the
//! `<` check stops as soon as the bracket lies wholly on one side of
//! `VDD/2` (the settled rule). `VDD/2` is the first midpoint of the
//! output bracket `[0, VDD]`, so every `>` question goes to the
//! first-midpoint rule instead: one evaluation when the output is at or
//! below `VDD/2`, and otherwise two unless it lies within a few ulps of
//! `VDD/2`. The inner solves of the threshold's late steps, whose output
//! has converged on `VDD/2`, gain most. The rule's walk depends only on
//! the bracket, so a threshold finds it once for all its questions.
//!
//! The noise margins and the peak gain read one [`GainScan`]: the gain
//! `|(V_out(V_in + h) − V_out(V_in − h))/(2h)|` at `GAIN_STEPS + 1`
//! evenly spaced inputs. The peak's grid `vdd·k/200` is the scan's even
//! samples `vdd·2k/400` to the bit (doubling is exact, and both
//! quotients round the same rational), so the peak reads those.
//!
//! The scan decides each gain instead of solving it. The unity-gain
//! points read only the side of 1.0 on which each gain lies, and the
//! peak is the largest even-sample gain, so only that one value is
//! needed exactly. Each sample holds its two output solves as resumable
//! `crate::bisect::Bisection`s and halves the wider bracket at a time.
//! Bounds on its gain follow from the bracket ends alone: rounded
//! subtraction is monotone in each operand, and so is rounded division
//! by the positive constant `2h`, so the float difference of the two
//! final answers lies between the rounded differences of the ends, and
//! its quotient between theirs. No monotonicity of the device model is
//! assumed. A sample stops as soon as its bounds lie wholly on one side
//! of 1.0. Every evaluation it makes is one the full solve makes at the
//! same midpoint, so the decided side is the full solve's. For the peak,
//! an even sample whose upper bound lies below another's lower bound
//! cannot hold the maximum and is dropped; the rest run, highest upper
//! bound first, until they end or fall below the best gain found.

use crate::bisect::{bisect, bisect_until, Bisection, FirstMidpoint};
use crate::mosfet::{Channel, DgMosfet};

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
        let balance = self.balance(vin, vg_n, vg_p);
        bisect_until(0.0, self.vdd, OUTPUT_STEPS, |vout| balance.root_below(vout), settled)
    }

    /// The output solve's question at input `vin`, with both devices'
    /// channels taken once.
    fn balance(&self, vin: f64, vg_n: f64, vg_p: f64) -> Balance {
        Balance {
            pull_down: self.nmos.channel(vin, 0.0, vg_n),
            pull_up: self.pmos.channel(vin, self.vdd, vg_p),
        }
    }

    /// `crate::bisect`'s first-midpoint rule over the output bracket
    /// `[0, VDD]`, whose first midpoint is `VDD/2`.
    fn above_half(&self) -> FirstMidpoint {
        FirstMidpoint::new(0.0, self.vdd, OUTPUT_STEPS)
    }

    /// Whether `solve_vout(vin, vg2) > VDD/2`, decided by `half`, the rule
    /// from [`Self::above_half`].
    fn vout_above(&self, half: &FirstMidpoint, vin: f64, vg2: f64) -> bool {
        let balance = self.balance(vin, vg2, vg2);
        half.above(|vout| balance.root_below(vout))
    }

    /// Whether `solve_vout(vin, vg2) < level`, decided as soon as the
    /// output bracket lies wholly on one side of `level`.
    fn vout_below(&self, vin: f64, vg2: f64, level: f64) -> bool {
        self.solve_vout_until(vin, vg2, vg2, |lo, hi| hi < level || lo >= level) < level
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

    /// Whether the output never crosses VDD/2: already low at input 0 or
    /// still high at input VDD. V_out(V_in) falls monotonically, so
    /// otherwise it crosses exactly once.
    fn stuck(&self, half: &FirstMidpoint, vg2: f64) -> bool {
        self.vout_below(0.0, vg2, self.vdd / 2.0) || self.vout_above(half, self.vdd, vg2)
    }

    /// Input voltage at which the output crosses VDD/2, if it does.
    /// (Bisection on the monotonically falling V_out(V_in).)
    pub fn switching_threshold(&self, vg2: f64) -> Option<f64> {
        let half = self.above_half();
        if self.stuck(&half, vg2) {
            return None;
        }
        Some(bisect(0.0, self.vdd, 60, |m| !self.vout_above(&half, m, vg2)))
    }

    /// Classify the configured behaviour (the trichotomy of Fig. 3):
    /// active exactly when [`Self::switching_threshold`] is `Some`,
    /// decided by its two stuck checks without bisecting for the
    /// threshold.
    pub fn behaviour(&self, vg2: f64) -> InverterBehaviour {
        let half = self.above_half();
        if !self.stuck(&half, vg2) {
            InverterBehaviour::Active
        } else if self.vout_above(&half, 0.0, vg2) {
            InverterBehaviour::StuckHigh
        } else {
            InverterBehaviour::StuckLow
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

    /// The small-signal gain `|dV_out/dV_in|` at the `GAIN_STEPS + 1`
    /// inputs `vdd·k/GAIN_STEPS`, the one sweep behind the noise margins
    /// and the peak gain. Each gain is decided, not solved: only its side
    /// of 1.0 is found, and the exact value of the even samples' largest
    /// (the module doc says why that is exact).
    pub fn gain_scan(&self, vg2: f64) -> GainScan {
        let (mut vil, mut vih) = (None, None);
        let mut prev_at_least_one = false;
        let mut peak = PeakSearch { best: 0.0, candidates: Vec::new() };
        for k in 0..=GAIN_STEPS {
            let vin = self.vdd * k as f64 / GAIN_STEPS as f64;
            let mut sample = GainSample::new(self, vin, vg2);
            let (lo, hi) = sample.refine_until(|lo, hi| lo >= 1.0 || hi < 1.0);
            let at_least_one = lo >= 1.0;
            if k > 0 {
                if vil.is_none() && !prev_at_least_one && at_least_one {
                    vil = Some(vin);
                }
                if vil.is_some() && prev_at_least_one && !at_least_one {
                    vih = Some(vin);
                }
            }
            prev_at_least_one = at_least_one;
            if k % 2 == 0 {
                peak.offer(sample, lo, hi);
            }
        }
        GainScan { inv: *self, vg2, unity: vil.zip(vih), peak: peak.finish() }
    }
}

/// Halvings of the output solve's bracket `[0, VDD]`.
const OUTPUT_STEPS: u32 = 80;

/// Intervals in the [`GainScan`] input grid over `[0, VDD]`. Even, so
/// that every second sample is the peak gain's grid of `GAIN_STEPS / 2`
/// intervals.
const GAIN_STEPS: usize = 400;

/// Half the input step of the gain's central difference (V).
const GAIN_H: f64 = 1e-4;

/// The output solve's question at a candidate `V_out`: does the
/// pull-down out-drive the pull-up there? `f(0) ≤ 0` (no NMOS current,
/// PMOS sourcing) and `f(VDD) ≥ 0`.
#[derive(Copy, Clone, Debug)]
struct Balance {
    pull_down: Channel,
    pull_up: Channel,
}

impl Balance {
    fn root_below(&self, vout: f64) -> bool {
        self.pull_down.current(vout) - self.pull_up.current(vout) > 0.0
    }
}

/// An output solve that can stop and resume: the bisection over
/// `[0, VDD]` and its question.
#[derive(Copy, Clone, Debug)]
struct OutputSolve {
    bisection: Bisection,
    balance: Balance,
}

impl OutputSolve {
    /// Bounds on the solve's final answer: the bracket, or the answer
    /// itself once the solve has ended.
    fn bounds(&self) -> (f64, f64) {
        if self.bisection.ended() {
            let v = self.bisection.answer();
            (v, v)
        } else {
            let (lo, hi) = self.bisection.bracket();
            (lo.min(hi), lo.max(hi))
        }
    }

    fn width(&self) -> f64 {
        let (lo, hi) = self.bounds();
        hi - lo
    }

    fn step(&mut self) -> bool {
        let balance = self.balance;
        self.bisection.step(|vout| balance.root_below(vout))
    }
}

/// The two output solves behind one gain sample, at `V_in ± GAIN_H`.
#[derive(Copy, Clone, Debug)]
struct GainSample {
    up: OutputSolve,
    down: OutputSolve,
}

impl GainSample {
    fn new(inv: &ConfigurableInverter, vin: f64, vg2: f64) -> Self {
        let solve = |vin| OutputSolve {
            bisection: Bisection::new(0.0, inv.vdd, OUTPUT_STEPS),
            balance: inv.balance(vin, vg2, vg2),
        };
        GainSample { up: solve(vin + GAIN_H), down: solve(vin - GAIN_H) }
    }

    /// Bounds `(lo, hi)` on the float gain `|(v_up − v_down)/(2h)|` of the
    /// two final answers, both that gain once both solves have ended.
    fn bounds(&self) -> (f64, f64) {
        let ((up_lo, up_hi), (down_lo, down_hi)) = (self.up.bounds(), self.down.bounds());
        let two_h = 2.0 * GAIN_H;
        let (lo, hi) = ((up_lo - down_hi) / two_h, (up_hi - down_lo) / two_h);
        if lo >= 0.0 {
            (lo.abs(), hi.abs())
        } else if hi <= 0.0 {
            (hi.abs(), lo.abs())
        } else {
            (0.0, hi.max(-lo))
        }
    }

    /// Halve the wider bracket until `decided(lo, hi)` holds for the gain
    /// bounds or both solves have ended, and return the bounds.
    fn refine_until(&mut self, decided: impl Fn(f64, f64) -> bool) -> (f64, f64) {
        loop {
            let (lo, hi) = self.bounds();
            if decided(lo, hi) {
                return (lo, hi);
            }
            let (wider, other) = if self.up.width() >= self.down.width() {
                (&mut self.up, &mut self.down)
            } else {
                (&mut self.down, &mut self.up)
            };
            if !wider.step() && !other.step() {
                return (lo, hi);
            }
        }
    }
}

/// The even samples that may hold the peak gain, and the best lower
/// bound on it so far. A sample whose upper bound lies below some
/// gain's lower bound cannot be the maximum, so it is dropped.
struct PeakSearch {
    best: f64,
    /// Samples whose upper bound reaches `best`, with that bound.
    candidates: Vec<(GainSample, f64)>,
}

impl PeakSearch {
    /// Take an even sample whose gain lies in `[lo, hi]`.
    fn offer(&mut self, sample: GainSample, lo: f64, hi: f64) {
        if hi < self.best {
            return;
        }
        if lo > self.best {
            self.best = lo;
            self.candidates.retain(|&(_, hi)| hi >= lo);
        }
        self.candidates.push((sample, hi));
    }

    /// The largest gain, bit for bit `fold(0.0, f64::max)` over every
    /// even sample's full-solve gain. The candidates run, highest upper
    /// bound first, until both solves end or the upper bound falls below
    /// the best gain found.
    fn finish(self) -> f64 {
        let PeakSearch { mut best, mut candidates } = self;
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut peak = 0.0;
        for (mut sample, hi) in candidates {
            if hi < best {
                break;
            }
            let (gain, hi) = sample.refine_until(|_, hi| hi < best);
            if hi >= best {
                // both solves ended: `gain` is the sample's gain
                peak = f64::max(peak, gain);
                best = best.max(gain);
            }
        }
        peak
    }
}

/// Small-signal gain sampled across the input range under one bias,
/// from [`ConfigurableInverter::gain_scan`]: the unity-gain points and
/// the peak gain, decided in the scan.
#[derive(Clone, Debug)]
pub struct GainScan {
    inv: ConfigurableInverter,
    vg2: f64,
    unity: Option<(f64, f64)>,
    peak: f64,
}

impl GainScan {
    /// Unity-gain input levels `(V_IL, V_IH)` — the classic noise-margin
    /// boundaries where `|dV_out/dV_in|` crosses one, to the grid's
    /// resolution: `V_IL` is the first sample whose gain reaches 1.0
    /// after one below it, and `V_IH` the last after it whose gain falls
    /// below 1.0 after one at or above it. Returns `None` for stuck
    /// configurations (gain never reaches one).
    pub fn unity_gain_points(&self) -> Option<(f64, f64)> {
        self.unity
    }

    /// Static noise margins `(NM_L, NM_H)` from the unity-gain points:
    /// `NM_L = V_IL − V_OL`, `NM_H = V_OH − V_IH`.
    pub fn noise_margins(&self) -> Option<(f64, f64)> {
        let (vil, vih) = self.unity_gain_points()?;
        let voh = self.inv.solve_vout(0.0, self.vg2);
        let vol = self.inv.solve_vout(self.inv.vdd, self.vg2);
        Some((vil - vol, voh - vih))
    }

    /// Peak small-signal gain over the input range — the regeneration
    /// figure the paper's §1 worries nano-devices may lack ("low gain") —
    /// read from every second sample, a grid of `GAIN_STEPS / 2`
    /// intervals.
    pub fn peak_gain(&self) -> f64 {
        self.peak
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bisect::tests::{evals_of, fixed_count};
    use crate::thermal::ThermalCorner;
    use pmorph_util::rng::{Rng, StdRng};

    impl ConfigurableInverter {
        /// Oracle: the small-signal voltage gain `|dV_out/dV_in|` at input
        /// `vin`, from two full output solves.
        fn gain(&self, vin: f64, vg2: f64) -> f64 {
            let h = 1e-4;
            ((self.solve_vout(vin + h, vg2) - self.solve_vout(vin - h, vg2)) / (2.0 * h)).abs()
        }
    }

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

    /// Oracle for the classification: the fixed-count threshold, and the
    /// full `V_out(0)` solve for the stuck side.
    fn fixed_count_behaviour(inv: &ConfigurableInverter, vg2: f64) -> InverterBehaviour {
        match fixed_count_threshold(inv, vg2) {
            Some(_) => InverterBehaviour::Active,
            None if fixed_count_vout(inv, 0.0, vg2) > inv.vdd / 2.0 => InverterBehaviour::StuckHigh,
            None => InverterBehaviour::StuckLow,
        }
    }

    /// The bias at which `V_out(vin)` sits within 1e-9 of `VDD/2`, found
    /// by bisecting `vg2` over `[lo, hi]`. `V_out` falls as `vg2` rises
    /// (the pull-down strengthens, the pull-up weakens).
    fn bias_at_mid_output(inv: &ConfigurableInverter, vin: f64, lo: f64, hi: f64) -> f64 {
        let mid = inv.vdd / 2.0;
        let (mut lo, mut hi) = (lo, hi);
        for _ in 0..200 {
            let vg2 = 0.5 * (lo + hi);
            let vout = inv.solve_vout(vin, vg2);
            if (vout - mid).abs() < 1e-9 {
                return vg2;
            }
            if vout > mid {
                lo = vg2;
            } else {
                hi = vg2;
            }
        }
        panic!("no bias in [{lo}, {hi}] puts V_out({vin}) at VDD/2");
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
        let check = |vg2: f64| {
            let got = inv.switching_threshold(vg2);
            let want = fixed_count_threshold(&inv, vg2);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "vg2 {vg2}");
            assert_eq!(inv.behaviour(vg2), fixed_count_behaviour(&inv, vg2), "vg2 {vg2}");
            got.is_some()
        };
        // E1's bias sweep: two stuck configurations and three active ones
        for vg2 in [-1.5, -0.5, 0.0, 0.5, 1.5] {
            check(vg2);
        }
        // biases that put one stuck check's output within 1e-9 of VDD/2,
        // and biases just either side of them
        for (vin, lo, hi) in [(0.0, 0.0, 3.0), (inv.vdd, -3.0, 0.0)] {
            let edge = bias_at_mid_output(&inv, vin, lo, hi);
            let active: Vec<bool> =
                [0.0, 1e-12, -1e-12, 1e-6, -1e-6].iter().map(|d| check(edge + d)).collect();
            // the stuck check flips within a micro-volt of the edge
            assert!(active.contains(&true) && active.contains(&false), "{edge}: {active:?}");
        }
    }

    /// Oracle: the 401-point unity-gain loop the gain scan replaced.
    fn unity_gain_points_loop(inv: &ConfigurableInverter, vg2: f64) -> Option<(f64, f64)> {
        const STEPS: usize = 400;
        let mut vil = None;
        let mut vih = None;
        let mut prev_gain = inv.gain(0.0, vg2);
        for k in 1..=STEPS {
            let vin = inv.vdd * k as f64 / STEPS as f64;
            let g = inv.gain(vin, vg2);
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

    /// Oracle: the noise margins from [`unity_gain_points_loop`].
    fn noise_margins_loop(inv: &ConfigurableInverter, vg2: f64) -> Option<(f64, f64)> {
        let (vil, vih) = unity_gain_points_loop(inv, vg2)?;
        let voh = inv.solve_vout(0.0, vg2);
        let vol = inv.solve_vout(inv.vdd, vg2);
        Some((vil - vol, voh - vih))
    }

    /// Oracle: the 201-point peak-gain loop the gain scan replaced.
    fn peak_gain_loop(inv: &ConfigurableInverter, vg2: f64) -> f64 {
        (0..=200).map(|k| inv.gain(inv.vdd * k as f64 / 200.0, vg2)).fold(0.0, f64::max)
    }

    #[test]
    fn the_gain_scan_matches_the_separate_loops_bit_for_bit() {
        let bits = |p: Option<(f64, f64)>| p.map(|(a, b)| (a.to_bits(), b.to_bits()));
        let base = ConfigurableInverter::default();
        // E23's corners at its bias, then the default inverter across Fig. 3
        let mut cases: Vec<(ConfigurableInverter, f64)> = [250.0, 300.0, 350.0, 400.0]
            .into_iter()
            .map(|t| (ThermalCorner { temperature_k: t }.inverter(&base), 0.0))
            .collect();
        cases.extend((0..=12).map(|k| (base, -1.5 + 0.25 * k as f64)));
        let mut stuck = 0;
        for (inv, vg2) in cases {
            let scan = inv.gain_scan(vg2);
            let unity = scan.unity_gain_points();
            assert_eq!(bits(unity), bits(unity_gain_points_loop(&inv, vg2)), "{inv:?} {vg2}");
            assert_eq!(bits(scan.noise_margins()), bits(noise_margins_loop(&inv, vg2)));
            assert_eq!(scan.peak_gain().to_bits(), peak_gain_loop(&inv, vg2).to_bits());
            if inv.behaviour(vg2) != InverterBehaviour::Active {
                assert_eq!(unity, None, "stuck at vg2 {vg2} yet unity-gain points");
                stuck += 1;
            }
        }
        assert!(stuck >= 2, "the sweep must reach both stuck extremes");
    }

    /// A random inverter: supply, and each device's threshold, slope
    /// factor and back-gate coupling, drawn from wide ranges.
    fn random_inverter(rng: &mut StdRng) -> ConfigurableInverter {
        let mut device = |base: DgMosfet| DgMosfet {
            vt0: rng.random_range(0.05..0.5),
            n: rng.random_range(1.0..2.0),
            gamma: rng.random_range(0.2..0.7),
            ..base
        };
        let (nmos, pmos) = (device(DgMosfet::nmos()), device(DgMosfet::pmos()));
        ConfigurableInverter { nmos, pmos, vdd: rng.random_range(0.5..1.5) }
    }

    #[test]
    fn the_decided_gain_scan_matches_the_per_sample_oracles_bit_for_bit() {
        let bits = |p: Option<(f64, f64)>| p.map(|(a, b)| (a.to_bits(), b.to_bits()));
        let base = ConfigurableInverter::default();
        let mut cases: Vec<(ConfigurableInverter, f64)> = [250.0, 300.0, 350.0, 400.0]
            .into_iter()
            .map(|t| (ThermalCorner { temperature_k: t }.inverter(&base), 0.0))
            .collect();
        cases.extend((0..=12).map(|k| (base, -1.5 + 0.25 * k as f64)));
        let mut rng = StdRng::seed_from_u64(0x6a1_5ca9);
        cases.extend((0..600).map(|_| (random_inverter(&mut rng), rng.random_range(-1.5..1.5))));
        let (mut active, mut stuck) = (0, 0);
        for (inv, vg2) in cases {
            let scan = inv.gain_scan(vg2);
            let unity = unity_gain_points_loop(&inv, vg2);
            assert_eq!(bits(scan.unity_gain_points()), bits(unity), "{inv:?} vg2 {vg2}");
            let margins = unity.map(|(vil, vih)| {
                (vil - inv.solve_vout(inv.vdd, vg2), inv.solve_vout(0.0, vg2) - vih)
            });
            assert_eq!(bits(scan.noise_margins()), bits(margins), "{inv:?} vg2 {vg2}");
            let peak = peak_gain_loop(&inv, vg2);
            assert_eq!(scan.peak_gain().to_bits(), peak.to_bits(), "{inv:?} vg2 {vg2}");
            if inv.behaviour(vg2) == InverterBehaviour::Active {
                active += 1;
            } else {
                stuck += 1;
            }
        }
        assert!(active >= 100 && stuck >= 100, "{active} active and {stuck} stuck inverters");
    }

    #[test]
    fn e23_corners_take_at_most_50000_evaluations() {
        let base = ConfigurableInverter::default();
        let n = evals_of(|| {
            for t in [250.0, 300.0, 350.0, 400.0] {
                let scan = ThermalCorner { temperature_k: t }.inverter(&base).gain_scan(0.0);
                assert!(scan.noise_margins().is_some() && scan.peak_gain() > 1.0);
            }
        });
        assert!(n <= 50_000, "{n} predicate evaluations for E23's four corners");
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
        let (nml, nmh) = inv.gain_scan(0.0).noise_margins().expect("active");
        assert!(nml > 0.1 && nmh > 0.1, "NM ({nml}, {nmh})");
        assert!((nml - nmh).abs() < 0.1, "symmetric pair: ({nml}, {nmh})");
    }

    #[test]
    fn peak_gain_exceeds_unity_when_active() {
        let inv = ConfigurableInverter::default();
        assert!(inv.gain_scan(0.0).peak_gain() > 2.0, "restoring logic needs gain > 1");
        // stuck configurations have no regeneration
        let stuck = inv.gain_scan(-1.5);
        assert!(stuck.peak_gain() < 1.0);
        assert_eq!(stuck.unity_gain_points(), None);
    }

    #[test]
    fn bias_erodes_noise_margins_before_killing_the_gate() {
        let inv = ConfigurableInverter::default();
        let (nml0, nmh0) = inv.gain_scan(0.0).noise_margins().unwrap();
        let (nml1, nmh1) = inv.gain_scan(0.6).noise_margins().unwrap();
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

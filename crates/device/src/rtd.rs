//! Resonant-tunnelling-diode models and the multi-valued RTD-RAM cell.
//!
//! The paper's configuration mechanism (its Fig. 6, after van der Wagt's
//! tunnelling SRAM [34]) stores a multi-valued state on the node between
//! two series RTDs: every crossing of the upper diode's load line with the
//! lower diode's characteristic on mutually-restoring slopes is a stable
//! memory state. The negative-differential-resistance (NDR) regions between
//! resonance peaks create one extra stable state per peak — three states
//! from a double-peak stack (our bias trit), nine from Seabaugh's
//! multi-peak memory [36].
//!
//! The resonance is modelled as a Breit–Wigner (Lorentzian) transmission
//! peak with a `tanh` turn-on plus an exponential excess-current term:
//!
//! ```text
//! I(V) = Σ_k Ip_k · tanh(V/V_on) / (1 + ((V − Vp_k)/w_k)²)  +  I₀(e^{V/V_d} − 1)
//! ```
//!
//! anti-symmetric for negative bias. Write dynamics integrate
//! `C·dV/dt = I_top − I_bot + I_write` with RK4.

use crate::bisect::bisect;

/// One resonance peak.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Peak {
    /// Peak voltage (V).
    pub vp: f64,
    /// Peak current (A).
    pub ip: f64,
    /// Resonance half-width (V).
    pub width: f64,
}

/// A resonant tunnelling diode.
#[derive(Clone, Debug, PartialEq)]
pub struct Rtd {
    /// Resonance peaks, ascending in voltage.
    pub peaks: Vec<Peak>,
    /// Excess (thermionic/defect) saturation current (A).
    pub excess_i0: f64,
    /// Excess-current exponential scale (V).
    pub excess_vd: f64,
    /// Turn-on scale for the tanh factor (V).
    pub v_on: f64,
}

impl Rtd {
    /// Double-peak RTD used for the three-state configuration cell.
    pub fn double_peak() -> Self {
        Rtd {
            peaks: vec![
                Peak { vp: 0.20, ip: 1e-6, width: 0.05 },
                Peak { vp: 0.50, ip: 1e-6, width: 0.05 },
            ],
            excess_i0: 1e-9,
            excess_vd: 0.15,
            v_on: 0.05,
        }
    }

    /// Multi-peak RTD in the style of Seabaugh's nine-state memory [36]:
    /// `n` evenly spaced resonances.
    pub fn multi_peak(n: usize) -> Self {
        Rtd {
            peaks: (0..n)
                .map(|k| Peak { vp: 0.20 + 0.30 * k as f64, ip: 1e-6, width: 0.05 })
                .collect(),
            excess_i0: 1e-9,
            excess_vd: 0.5,
            v_on: 0.05,
        }
    }

    /// Uniformly scale every current parameter (device area scaling). The
    /// paper's 2012-roadmap RTDs run at 10–50 pA peak current; equilibrium
    /// *voltages* are invariant under this scaling, only currents change.
    pub fn scaled(mut self, k: f64) -> Self {
        for p in &mut self.peaks {
            p.ip *= k;
        }
        self.excess_i0 *= k;
        self
    }

    /// Static current at bias `v` (A); odd-symmetric.
    pub fn current(&self, v: f64) -> f64 {
        if v < 0.0 {
            return -self.current(-v);
        }
        let mut i = self.excess_i0 * ((v / self.excess_vd).exp() - 1.0);
        let turn_on = (v / self.v_on).tanh();
        for p in &self.peaks {
            let x = (v - p.vp) / p.width;
            i += p.ip * turn_on / (1.0 + x * x);
        }
        i
    }

    /// Numeric dI/dV (A/V).
    pub fn conductance(&self, v: f64) -> f64 {
        let h = 1e-5;
        (self.current(v + h) - self.current(v - h)) / (2.0 * h)
    }

    /// Peak-to-valley current ratio of the first resonance — a key device
    /// figure of merit (paper cites Si interband diodes just reaching
    /// useful PVRs [37, 38]).
    pub fn pvr(&self) -> f64 {
        let p0 = &self.peaks[0];
        let i_peak = self.current(p0.vp);
        let valley_end = self.peaks.get(1).map(|p| p.vp).unwrap_or(p0.vp + 4.0 * p0.width);
        // scan for minimum between the first peak and the next
        let mut i_valley = f64::INFINITY;
        for k in 0..=200 {
            let v = p0.vp + (valley_end - p0.vp) * k as f64 / 200.0;
            i_valley = i_valley.min(self.current(v));
        }
        i_peak / i_valley
    }
}

/// An equilibrium of the series stack.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Equilibrium {
    /// Storage-node voltage (V).
    pub vn: f64,
    /// True if restoring (stable memory state).
    pub stable: bool,
}

/// Two identical RTDs in series between `vdd` and ground; the node between
/// them is the storage node.
#[derive(Clone, Debug, PartialEq)]
pub struct RtdStack {
    /// The diode model (both devices).
    pub rtd: Rtd,
    /// Stack supply (V).
    pub vdd: f64,
    /// Storage-node capacitance (F).
    pub c_node: f64,
}

impl RtdStack {
    /// Construct a stack.
    pub fn new(rtd: Rtd, vdd: f64) -> Self {
        RtdStack { rtd, vdd, c_node: 1e-15 }
    }

    /// Net current *into* the storage node at voltage `vn` (A), plus an
    /// external write current.
    #[inline]
    pub fn node_current(&self, vn: f64, i_ext: f64) -> f64 {
        self.rtd.current(self.vdd - vn) - self.rtd.current(vn) + i_ext
    }

    /// Locate all equilibria by fine scan + bisection refinement, and
    /// classify stability by the sign of d(node_current)/dVn (negative =
    /// restoring = stable).
    pub fn equilibria(&self) -> Vec<Equilibrium> {
        const STEPS: usize = 4000;
        let mut out = Vec::new();
        let f = |v: f64| self.node_current(v, 0.0);
        let mut prev_v = 0.0;
        let mut prev_f = f(prev_v);
        for k in 1..=STEPS {
            let v = self.vdd * k as f64 / STEPS as f64;
            let fv = f(v);
            if prev_f == 0.0 || prev_f.signum() != fv.signum() {
                // refine by bisection
                let vn = bisect(prev_v, v, 60, |mid| f(mid).signum() != prev_f.signum());
                let h = self.vdd / STEPS as f64;
                let slope = (f(vn + h) - f(vn - h)) / (2.0 * h);
                let eq = Equilibrium { vn, stable: slope < 0.0 };
                // Degenerate (tangential) crossings at symmetric points can
                // be detected twice by the scan; merge near-duplicates.
                match out.last() {
                    Some(Equilibrium { vn: prev, .. }) if (vn - prev).abs() < self.vdd * 2e-3 => {}
                    _ => out.push(eq),
                }
            }
            prev_v = v;
            prev_f = fv;
        }
        out
    }

    /// Stable storage voltages, ascending.
    pub fn stable_states(&self) -> Vec<f64> {
        self.equilibria().into_iter().filter(|e| e.stable).map(|e| e.vn).collect()
    }

    /// One RK4 step of the node ODE.
    fn rk4_step(&self, vn: f64, i_ext: f64, dt: f64) -> f64 {
        let f = |v: f64| self.node_current(v, i_ext) / self.c_node;
        let k1 = f(vn);
        let k2 = f(vn + 0.5 * dt * k1);
        let k3 = f(vn + 0.5 * dt * k2);
        let k4 = f(vn + dt * k3);
        vn + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    }

    /// Integrate the node from `vn0` under external current `i_ext` for
    /// `t_total` seconds with step `dt`, returning the final voltage.
    pub fn integrate(&self, vn0: f64, i_ext: f64, t_total: f64, dt: f64) -> f64 {
        let steps = (t_total / dt).ceil() as usize;
        let mut vn = vn0;
        for _ in 0..steps {
            vn = self.rk4_step(vn, i_ext, dt);
            vn = vn.clamp(-0.5, self.vdd + 0.5);
        }
        vn
    }

    /// Relax the node to its attracting stable state (no external current).
    pub fn relax(&self, vn0: f64) -> f64 {
        let mut vn = vn0;
        let dt = 1e-12;
        for _ in 0..200_000 {
            let next = self.rk4_step(vn, 0.0, dt);
            if (next - vn).abs() < 1e-9 {
                return next;
            }
            vn = next.clamp(-0.5, self.vdd + 0.5);
        }
        vn
    }
}

/// A complete multi-valued RAM cell: stack + current node state, with
/// write/read/retention semantics (paper Fig. 6).
#[derive(Clone, Debug, PartialEq)]
pub struct RtdRamCell {
    /// The storage stack.
    pub stack: RtdStack,
    /// Cached stable-state voltages, ascending.
    levels: Vec<f64>,
    /// Present storage-node voltage.
    vn: f64,
}

impl RtdRamCell {
    /// Build a cell and verify it offers at least `min_levels` states.
    pub fn with_stack(stack: RtdStack, min_levels: usize) -> Self {
        let levels = stack.stable_states();
        assert!(
            levels.len() >= min_levels,
            "stack offers only {} stable states (need {min_levels}): {:?}",
            levels.len(),
            levels
        );
        let vn = levels[levels.len() / 2];
        RtdRamCell { stack, levels, vn }
    }

    /// The standard three-state configuration cell (double-peak RTDs).
    pub fn three_state() -> Self {
        Self::with_stack(RtdStack::new(Rtd::double_peak(), 0.9), 3)
    }

    /// A nine-state cell after Seabaugh [36] (eight-peak RTDs).
    pub fn nine_state() -> Self {
        Self::with_stack(RtdStack::new(Rtd::multi_peak(8), 2.7), 9)
    }

    /// Number of distinct storable levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Stable voltage of level `k`.
    pub fn level_voltage(&self, k: usize) -> f64 {
        self.levels[k]
    }

    /// Present stored level: nearest stable state to the node voltage.
    pub fn read(&self) -> usize {
        self.levels
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - self.vn).abs().partial_cmp(&(b.1 - self.vn).abs()).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }

    /// Write level `k`: slew the node into the target basin with a strong
    /// word-line current pulse, then let the stack's own NDR restore it.
    pub fn write(&mut self, k: usize) {
        assert!(k < self.levels.len(), "no such level");
        let target = self.levels[k];
        let i_write = 5e-6_f64.max(10.0 * self.stack.rtd.peaks[0].ip);
        let dt = 1e-13;
        // Slew toward the target with a sign-correct pulse, tracking until
        // we are within the basin (close to the stable point).
        for _ in 0..2_000_000 {
            if (self.vn - target).abs() < 0.01 {
                break;
            }
            let i = if target > self.vn { i_write } else { -i_write };
            self.vn = self.stack.rk4_step(self.vn, i, dt);
        }
        self.vn = self.stack.relax(self.vn);
    }

    /// Disturb the node by `dv` volts and relax — models read-disturb /
    /// alpha-strike retention. Returns the level afterwards.
    pub fn perturb_and_relax(&mut self, dv: f64) -> usize {
        self.vn = (self.vn + dv).clamp(0.0, self.stack.vdd);
        self.vn = self.stack.relax(self.vn);
        self.read()
    }

    /// Static standby current drawn by the stack in its present state (A).
    pub fn standby_current(&self) -> f64 {
        self.stack.rtd.current(self.vn).abs()
    }

    /// Noise margin of the present state: distance to the nearest unstable
    /// boundary (V).
    pub fn noise_margin(&self) -> f64 {
        self.stack
            .equilibria()
            .iter()
            .filter(|e| !e.stable)
            .map(|e| (e.vn - self.vn).abs())
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtd_has_ndr_region() {
        let rtd = Rtd::double_peak();
        let g_at_peak_exit = rtd.conductance(0.30);
        assert!(g_at_peak_exit < 0.0, "NDR after first peak, got {g_at_peak_exit}");
        assert!(rtd.conductance(0.10) > 0.0, "positive slope before peak");
    }

    #[test]
    fn rtd_pvr_reasonable() {
        let pvr = Rtd::double_peak().pvr();
        assert!(pvr > 3.0, "PVR {pvr} too low for a memory cell");
    }

    #[test]
    fn rtd_antisymmetric() {
        let rtd = Rtd::double_peak();
        for v in [0.1, 0.3, 0.7] {
            assert!((rtd.current(v) + rtd.current(-v)).abs() < 1e-18);
        }
    }

    #[test]
    fn three_state_stack_has_three_stable_states() {
        let stack = RtdStack::new(Rtd::double_peak(), 0.9);
        let stable = stack.stable_states();
        assert_eq!(stable.len(), 3, "states: {stable:?}");
        // symmetric about vdd/2
        assert!((stable[1] - 0.45).abs() < 0.02, "middle state near vdd/2: {stable:?}");
        assert!((stable[0] + stable[2] - 0.9).abs() < 0.02, "outer states symmetric: {stable:?}");
    }

    #[test]
    fn equilibria_alternate_stability() {
        let stack = RtdStack::new(Rtd::double_peak(), 0.9);
        let eq = stack.equilibria();
        assert!(eq.len() >= 5, "3 stable + 2 unstable minimum: {eq:?}");
        for w in eq.windows(2) {
            assert_ne!(w[0].stable, w[1].stable, "stability must alternate: {eq:?}");
        }
        assert!(eq.first().unwrap().stable && eq.last().unwrap().stable);
    }

    #[test]
    fn write_read_all_levels() {
        let mut cell = RtdRamCell::three_state();
        for k in [0, 2, 1, 0, 1, 2] {
            cell.write(k);
            assert_eq!(cell.read(), k, "write/read level {k}");
        }
    }

    #[test]
    fn retention_under_small_perturbation() {
        let mut cell = RtdRamCell::three_state();
        for k in 0..3 {
            cell.write(k);
            let margin = cell.noise_margin();
            assert!(margin > 0.02, "level {k} margin {margin}");
            let after = cell.perturb_and_relax(margin * 0.5);
            assert_eq!(after, k, "state {k} must survive half-margin disturb");
        }
    }

    #[test]
    fn large_disturb_flips_state() {
        let mut cell = RtdRamCell::three_state();
        cell.write(0);
        let after = cell.perturb_and_relax(0.4);
        assert_ne!(after, 0, "0.4V strike must escape the basin");
    }

    #[test]
    fn nine_state_cell() {
        let cell = RtdRamCell::nine_state();
        assert!(cell.level_count() >= 9, "levels: {}", cell.level_count());
    }

    #[test]
    fn scaled_device_preserves_equilibria() {
        let full = RtdStack::new(Rtd::double_peak(), 0.9);
        let pico = RtdStack::new(Rtd::double_peak().scaled(3e-5), 0.9);
        let a = full.stable_states();
        let b = pico.stable_states();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "equilibria invariant under current scaling");
        }
    }

    #[test]
    fn scaled_standby_current_in_picoamp_range() {
        // Roadmap-scaled RTDs: 30 pA peak current (paper: 10–50 pA).
        let rtd = Rtd::double_peak().scaled(30e-12 / 1e-6);
        let stack = RtdStack::new(rtd, 0.9);
        let mut cell = RtdRamCell::with_stack(stack, 3);
        cell.write(1);
        let i = cell.standby_current();
        assert!(i < 50e-12, "standby {i} A should be tens of pA");
    }
}

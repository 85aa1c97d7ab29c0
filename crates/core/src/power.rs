//! Activity-based power estimation (paper §4.1).
//!
//! > "The power consumed by global clock generation and distribution is
//! > already a major issue … the removal of the global clock will, on its
//! > own, result in significant power savings."
//!
//! Dynamic CMOS power is `α·C·V²·f` — proportional to signal *activity*.
//! The event kernel counts every net toggle, so a configured design's
//! dynamic energy over a simulated interval is simply
//! `toggles × (C_node · V_DD²)`, and the clocked-vs-clockless comparison
//! (study E20) reduces to comparing toggle counts at matched work.

use pmorph_sim::{SimStats, Simulator};

/// Electrical constants for energy accounting.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PowerModel {
    /// Switched capacitance per net toggle (F). A leaf-cell output plus
    /// its local lane at the projected node is a few tens of attofarads.
    pub c_node_f: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Static leakage per instantiated leaf cell (W) — complementary
    /// operation keeps this at the device leakage floor (§3).
    pub leak_per_cell_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel { c_node_f: 50e-18, vdd: 1.0, leak_per_cell_w: 30e-12 * 0.9 }
    }
}

/// Energy/power breakdown of a simulation interval.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PowerReport {
    /// Net toggles observed.
    pub toggles: u64,
    /// Simulated interval (ps).
    pub interval_ps: u64,
    /// Dynamic energy (J).
    pub dynamic_j: f64,
    /// Average dynamic power (W).
    pub dynamic_w: f64,
    /// Static power for the given cell count (W).
    pub static_w: f64,
}

impl PowerModel {
    /// Energy of a single toggle (J): `C·V²` (full swing charge+discharge
    /// averaged to one CV² per transition pair; we charge per transition
    /// at CV²/2 each and report the conventional αCV² form).
    pub fn energy_per_toggle_j(&self) -> f64 {
        0.5 * self.c_node_f * self.vdd * self.vdd
    }

    /// Report for a completed simulation window.
    pub fn report(&self, stats: SimStats, interval_ps: u64, active_cells: usize) -> PowerReport {
        let dynamic_j = stats.net_toggles as f64 * self.energy_per_toggle_j();
        let seconds = interval_ps as f64 * 1e-12;
        PowerReport {
            toggles: stats.net_toggles,
            interval_ps,
            dynamic_j,
            dynamic_w: if seconds > 0.0 { dynamic_j / seconds } else { 0.0 },
            static_w: active_cells as f64 * self.leak_per_cell_w,
        }
    }

    /// Convenience: report straight from a simulator over its elapsed time.
    pub fn report_from(&self, sim: &Simulator, active_cells: usize) -> PowerReport {
        self.report(sim.stats(), sim.time(), active_cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_sim::{Logic, NetlistBuilder};

    #[test]
    fn idle_clocked_circuit_burns_clock_power() {
        // A free-running clock into a DFF whose D never changes: the data
        // is idle but the clock net toggles forever.
        let mut b = NetlistBuilder::new();
        let clk = b.net();
        let d = b.net();
        let q = b.net();
        b.clock(clk, 100, 10);
        b.dff(d, clk, None, q);
        let nl = b.build();
        let mut sim = Simulator::new(nl);
        sim.drive(d, Logic::L0);
        sim.run_until(100_000, 10_000_000).unwrap();
        let report = PowerModel::default().report_from(&sim, 10);
        // ~1000 clock edges in 100 ns
        assert!(report.toggles > 500, "clock toggles: {}", report.toggles);
        assert!(report.dynamic_w > 0.0);
    }

    #[test]
    fn idle_async_circuit_burns_nothing() {
        // A micro-pipeline-style handshake circuit with no tokens: after
        // initialisation, zero toggles.
        let mut b = NetlistBuilder::new();
        let r = b.net();
        let a = b.net();
        let c = b.celement(r, a);
        let _ = c;
        let nl = b.build();
        let mut sim = Simulator::new(nl);
        sim.drive(r, Logic::L0);
        sim.drive(a, Logic::L0);
        sim.settle(10_000).unwrap();
        let before = sim.stats().net_toggles;
        sim.run_until(100_000, 10_000_000).unwrap();
        let after = sim.stats().net_toggles;
        assert_eq!(before, after, "no events, no dynamic power");
    }

    #[test]
    fn energy_accounting_arithmetic() {
        let m = PowerModel::default();
        let stats = SimStats { net_toggles: 1000, ..SimStats::default() };
        let r = m.report(stats, 1_000_000, 100);
        assert!((r.dynamic_j - 1000.0 * m.energy_per_toggle_j()).abs() < 1e-30);
        // 1000 toggles * 25 aJ over 1 µs = 25 nW
        assert!((r.dynamic_w - r.dynamic_j / 1e-6).abs() < 1e-12);
        assert!((r.static_w - 100.0 * m.leak_per_cell_w).abs() < 1e-20);
    }
}

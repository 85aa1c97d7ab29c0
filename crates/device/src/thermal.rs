//! Temperature dependence of the device models.
//!
//! Two first-order effects matter for the fabric's operating window:
//!
//! * the **thermal voltage** `φt = kT/q` grows linearly with T, degrading
//!   subthreshold slope (more off-state leakage, softer rails),
//! * the **threshold voltage** falls roughly 1 mV/K (band-gap narrowing +
//!   Fermi-level shift).
//!
//! The RTD's peak-to-valley ratio also erodes with temperature (thermionic
//! excess current rises as `exp(−E_a/kT)`), which is why the paper leans
//! on the recently-demonstrated *room-temperature* Si tunnel diodes
//! [37, 38]. This module rebuilds the device set at a given temperature so
//! the margin studies can sweep it.

use crate::mosfet::DgMosfet;
use crate::rtd::Rtd;
use crate::vtc::ConfigurableInverter;

/// Boltzmann / charge: φt per kelvin (V/K).
pub const PHI_T_PER_K: f64 = 8.617e-5;
/// Reference temperature (K).
pub const T_REF: f64 = 300.0;
/// Threshold temperature coefficient (V/K, magnitude).
pub const DVT_DT: f64 = 1.0e-3;
/// RTD excess-current activation scale: fractional valley-current growth
/// per kelvin above reference.
pub const RTD_VALLEY_TC: f64 = 0.02;

/// A temperature-adjusted device corner.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ThermalCorner {
    /// Absolute temperature (K).
    pub temperature_k: f64,
}

impl ThermalCorner {
    /// Room-temperature reference corner.
    pub fn room() -> Self {
        ThermalCorner { temperature_k: T_REF }
    }

    /// Thermal voltage at this corner (V).
    pub fn phi_t(&self) -> f64 {
        PHI_T_PER_K * self.temperature_k
    }

    /// Re-derive a MOSFET at this temperature: lower |V_T|, softer
    /// subthreshold slope (the model's `n` absorbs the φt growth since the
    /// EKV expressions use the reference φt internally).
    pub fn mosfet(&self, base: &DgMosfet) -> DgMosfet {
        let dt = self.temperature_k - T_REF;
        DgMosfet {
            vt0: (base.vt0 - DVT_DT * dt).max(0.0),
            n: base.n * self.phi_t() / (PHI_T_PER_K * T_REF),
            ..*base
        }
    }

    /// An inverter rebuilt at this corner.
    pub fn inverter(&self, base: &ConfigurableInverter) -> ConfigurableInverter {
        ConfigurableInverter {
            nmos: self.mosfet(&base.nmos),
            pmos: self.mosfet(&base.pmos),
            vdd: base.vdd,
        }
    }

    /// An RTD rebuilt at this corner: excess (valley) current grows
    /// exponentially with temperature, eroding the PVR.
    pub fn rtd(&self, base: &Rtd) -> Rtd {
        let dt = self.temperature_k - T_REF;
        Rtd { excess_i0: base.excess_i0 * (RTD_VALLEY_TC * dt).exp(), ..base.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtd::RtdStack;

    #[test]
    fn hot_devices_leak_more() {
        let base = DgMosfet::nmos();
        let hot = ThermalCorner { temperature_k: 400.0 }.mosfet(&base);
        assert!(hot.leakage(1.0, 0.0) > 10.0 * base.leakage(1.0, 0.0));
    }

    #[test]
    fn hot_inverter_keeps_working_but_loses_margin() {
        let base = ConfigurableInverter::default();
        let room = ThermalCorner::room().inverter(&base);
        let hot = ThermalCorner { temperature_k: 400.0 }.inverter(&base);
        let (nml_r, nmh_r) = room.gain_scan(0.0).noise_margins().expect("room active");
        let (nml_h, nmh_h) = hot.gain_scan(0.0).noise_margins().expect("hot still active");
        assert!(
            nml_h + nmh_h < nml_r + nmh_r,
            "total margin shrinks: {:.3} vs {:.3}",
            nml_h + nmh_h,
            nml_r + nmh_r
        );
    }

    #[test]
    fn rtd_pvr_erodes_with_temperature() {
        let base = Rtd::double_peak();
        let room = ThermalCorner::room().rtd(&base);
        let hot = ThermalCorner { temperature_k: 400.0 }.rtd(&base);
        assert!((room.pvr() - base.pvr()).abs() < 1e-9, "room corner is identity");
        // the first valley sits where resonance tails still dominate the
        // thermionic term, so erosion is visible but not catastrophic here
        assert!(hot.pvr() < base.pvr() * 0.85, "{} vs {}", hot.pvr(), base.pvr());
    }

    #[test]
    fn memory_survives_moderate_heat_dies_eventually() {
        let base = Rtd::double_peak();
        let warm = ThermalCorner { temperature_k: 350.0 }.rtd(&base);
        let warm_states = RtdStack::new(warm, 0.9).stable_states();
        assert_eq!(warm_states.len(), 3, "3 states at 350K: {warm_states:?}");
        let scorching = ThermalCorner { temperature_k: 600.0 }.rtd(&base);
        let hot_states = RtdStack::new(scorching, 0.9).stable_states();
        assert!(hot_states.len() < 3, "NDR washed out at 600K: {hot_states:?}");
    }

    #[test]
    fn room_corner_is_identity_for_mosfets() {
        let base = DgMosfet::nmos();
        let same = ThermalCorner::room().mosfet(&base);
        assert!((same.vt0 - base.vt0).abs() < 1e-12);
        assert!((same.n - base.n).abs() < 1e-12);
    }
}

//! # pmorph-device — compact device models for the polymorphic platform
//!
//! The paper's enabling technology is a complementary pair of fully-depleted
//! double-gate (FD-DG) SOI MOSFETs whose **back gates** are biased from a
//! vertically-stacked resonant-tunneling-diode (RTD) multi-valued memory.
//! Shifting the back-gate bias moves the pair's thresholds so the same four
//! transistors act as an inverter, a stuck-high node, a stuck-low node, or a
//! disconnected (high-impedance) node — the "polymorphism" of the title.
//!
//! This crate reproduces that mechanism with analytic compact models rather
//! than the authors' (unavailable) SPICE decks:
//!
//! * [`mosfet`] — an EKV-style single-expression DG MOSFET model with
//!   back-gate threshold modulation (Fig. 2 of the paper),
//! * [`vtc`] — the configurable-inverter voltage-transfer-curve solver that
//!   regenerates Fig. 3,
//! * [`gates`] — device-level configurable 2-NAND (Fig. 4) and the
//!   inverting / non-inverting / open-circuit driver (Fig. 5),
//! * [`rtd`] — RTD I–V with negative differential resistance, series-stack
//!   multi-stable storage, and the RTD-RAM leaf-cell memory (Fig. 6),
//! * [`leaf`] — the leaf cell tying a stored trit to a back-gate bias and a
//!   digital behaviour mode consumed by `pmorph-core`,
//! * [`variation`] — Monte-Carlo threshold-variation study (undoped DG
//!   channel vs doped bulk, §3),
//! * [`tech`] — technology bookkeeping: density and configuration-plane
//!   static power claims (§3).

mod bisect;
pub mod dynamics;
pub mod gates;
pub mod leaf;
pub mod mosfet;
pub mod rtd;
pub mod tech;
pub mod thermal;
pub mod variation;
pub mod vtc;

pub use dynamics::{extract_timing, ExtractedTiming, SwitchingModel};
pub use gates::{
    ConfigurableDriver, ConfigurableNand, DriverLevel, DriverMode, DriverOut, NandOutput,
};
pub use leaf::{CellMode, LeafCell, Trit};
pub use mosfet::{DgMosfet, Polarity};
pub use rtd::{Equilibrium, Peak, Rtd, RtdRamCell, RtdStack};
pub use tech::Technology;
pub use thermal::ThermalCorner;
pub use variation::{run_study, VariationModel, VariationStudy};
pub use vtc::{ConfigurableInverter, InverterBehaviour, VtcPoint};

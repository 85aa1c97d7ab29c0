//! # pmorph-synth — mapping logic onto the polymorphic fabric
//!
//! The paper lays its circuits out by hand (Figs. 9, 10, 12); this crate
//! mechanises the flow so *any* small function, state element or datapath
//! can be mapped, placed and routed onto a [`pmorph_core::Fabric`] and
//! proven equivalent to its specification by simulation:
//!
//! * [`qm`] — Quine–McCluskey two-level minimisation into the ≤6 product
//!   terms a block offers,
//! * [`tile`] — port addressing and feed-through helpers shared by the
//!   generators,
//! * [`lut`] — the Fig. 9 3-LUT tile (polarity rails + product block +
//!   sum block),
//! * [`seq`] — transparent latch and edge-triggered flip-flop built from
//!   cross-coupled NAND terms closed through `lfb` lines (Fig. 9's DFF),
//! * [`adder`] — the Fig. 10 five-term full adder, one bit per cell pair,
//!   ripple carry on abutted lanes,
//! * [`accumulator`] — adder + register + feedback (Fig. 10's datapath),
//! * [`serial`] — bit-serial adder for the §5 serial-vs-parallel study,
//! * [`route`] — BFS feed-through routing, including in-fabric feedback
//!   rings ("cells as interconnect"),
//! * [`poly`] — polymorphic-logic synthesis: mode-selected truth tables
//!   ([`PolyTruth`]), bi-decomposition onto mode-configurable NAND cells
//!   ([`poly::synthesize`]), and gate-set completeness checking
//!   ([`poly::is_complete`]), with every personality proven by exhaustive
//!   bitsim sweeps.

pub mod accumulator;
pub mod adder;
pub mod counter;
pub mod hazard;
pub mod lut;
pub mod mapk;
pub mod poly;
pub mod qm;
pub mod register;
pub mod route;
pub mod seq;
pub mod serial;
pub mod tile;

pub use accumulator::{Accumulator, AccumulatorSim};
pub use adder::{ripple_adder, AdderPorts, TERMS_PER_BIT};
pub use counter::{Counter, CounterSim};
pub use hazard::{
    hazard_free_cover, is_hazard_free, make_hazard_free, static1_hazards, try_hazard_free_cover,
    Hazard,
};
pub use lut::{lut3, lut3_core, polarity_block, LutPorts};
pub use mapk::{fabric_size_for, map_function, MappedFunction};
pub use poly::{PolyError, PolyNetlist, PolyTruth};
pub use qm::{
    minimize, prime_implicants, try_minimize, try_prime_implicants, Cube, Sop, QM_MAX_VARS,
};
pub use register::{shift_register, ShiftRegisterPorts};
pub use route::Router;
pub use seq::{d_latch, dff, DffPorts, LatchPorts};
pub use serial::{serial_vs_parallel, BitSerialAdder};
pub use tile::{ft, ft_inv, MapError, PortLoc};

//! # pmorph-sim — event-driven four-valued logic simulation substrate
//!
//! The polymorphic hardware platform of Beckett (IPDPS 2003) is evaluated in
//! the paper at the device level only; to *execute* configured fabrics —
//! including the asynchronous, feedback-rich circuits of §4.1 — we need a
//! digital simulator. This crate provides one:
//!
//! * [`Logic`] — a four-valued signal algebra (`0`, `1`, `X`, `Z`) with the
//!   usual resolution semantics for multi-driver (tri-state) nets,
//! * [`Netlist`] / [`NetlistBuilder`] — a net count plus a flat component
//!   list (NAND, NOR, inverters, tri-state drivers, Muller C-elements,
//!   behavioural flip-flops/latches, clock and stimulus generators), its
//!   [`Connectivity`] derived where it is read; a component is
//!   evaluated value by value through the one [`Component::evaluate_into`],
//! * [`Simulator`] — a deterministic event-driven kernel with per-driver
//!   inertial delay, oscillation detection and waveform probes,
//! * [`vcd`] — Value-Change-Dump export for external waveform viewers, the
//!   one exporter of the kernel's watched-net change logs, under names the
//!   caller gives,
//! * [`vectors`] — exhaustive/functional test-vector helpers used by the
//!   mapping flows to prove fabric configurations equivalent to their
//!   specification truth tables.
//!
//! The kernel is the substrate every other crate elaborates into: the fabric
//! (`pmorph-core`), the synthesis macros (`pmorph-synth`), the asynchronous
//! library (`pmorph-async`) and the baseline FPGA model (`pmorph-fpga`).

pub mod bitsim;
pub mod builder;
pub mod engine;
pub mod levelized;
pub mod logic;
pub mod measure;
pub mod netlist;
mod queue;
pub mod table;
pub mod timing;
pub mod vcd;
pub mod vectors;

pub use bitsim::{sweep_seq_truth, BitSim, SeqBitSim, SeqState};
pub use builder::NetlistBuilder;
pub use engine::{SimError, SimSnapshot, SimStats, Simulator};
pub use levelized::{LevelizeError, Levelized};
pub use logic::Logic;
pub use netlist::{CompId, CompState, Component, Connectivity, DriveMode, NetId, Netlist, PortRef};
pub use table::WideMask;

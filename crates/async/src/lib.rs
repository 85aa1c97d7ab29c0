//! # pmorph-async — asynchronous building blocks on the polymorphic fabric
//!
//! §4.1 of the paper argues the fine-grained fabric is a natural host for
//! asynchronous and GALS design: C-elements, event-controlled storage and
//! arbiters are "small asynchronous state machines of a form that is
//! directly supported by the array organization". This crate builds all of
//! them:
//!
//! * [`celement`] — Muller C-element mapped onto fabric blocks (SR-NAND
//!   core on `lfb` lines), cross-checked against the kernel's behavioural
//!   model,
//! * [`micropipeline`] — Sutherland's two-phase FIFO (Fig. 11): C-element
//!   control spine, matched delays, event-controlled data latches, plus a
//!   free-running ring for cycle-time measurement,
//! * [`ecse`](mod@ecse) — the Fig. 12 event-controlled storage element mapped onto
//!   six fabric blocks,
//! * [`handshake`] — four-phase Muller pipelines and protocol checkers
//!   that audit simulated traces,
//! * [`arbiter`] — metastability physics: resolution-time and MTBF models
//!   for arbiters and synchronizers,
//! * [`gals`] — pausible clocks and a two-domain GALS system with
//!   two-flop synchronizers over an asynchronous FIFO.

pub mod arbiter;
pub mod asm;
pub mod celement;
pub mod dualrail;
pub mod ecse;
pub mod gals;
pub mod handshake;
pub mod micropipeline;

pub use arbiter::{Arbitration, MetastabilityModel};
pub use asm::{synth_asm, AsmError, AsmPorts, AsmSpec};
pub use celement::{c_element, c_element_resettable, CElementPorts, CElementRPorts};
pub use dualrail::{completion_detector, dims_and, dims_or, dims_xor, dr_not, DualRail};
pub use ecse::{ecse, EcsePorts};
pub use gals::{pausible_clock, GalsSystem};
pub use handshake::{
    check_four_phase, check_two_phase, muller_pipeline, MullerPipeline, Violation,
};
pub use micropipeline::{measure_cycle_time, Micropipeline, PipelineHarness};

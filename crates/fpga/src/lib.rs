//! # pmorph-fpga — the conventional-FPGA baseline
//!
//! Every comparative claim in the paper's §2/§4 is *against* the
//! conventional island-style FPGA: configuration bits per function,
//! λ²-per-LUT area, interconnect-limited frequency scaling, and CLB
//! component under-utilisation. This crate implements that baseline so
//! the claim benches compare two executable models rather than a model
//! and a straw man:
//!
//! * [`arch`] — CLB + segmented-routing architecture and the
//!   bits-proportional area model (DeHon \[1\]); the CLB's configuration
//!   bits (E11) are counted here,
//! * [`mapper`] — greedy cone-growing K-LUT technology mapper with
//!   random-vector equivalence checking, plus CLB packing statistics for
//!   the §2.2 utilisation study (E15); a CLB is modelled by these two
//!   views, not by a separate cell-level simulation,
//! * [`pnr`] — deterministic placement, L-path global routing over the
//!   channel grid with per-segment occupancy counts, and longest-path
//!   timing with the §2.1 O(λ^½) interconnect scaling law,
//! * [`circuits`] — benchmark circuit generators shared by the studies.

pub mod arch;
pub mod circuits;
pub mod mapper;
pub mod pnr;
#[doc(hidden)]
pub mod testgen;

pub use arch::FpgaArch;
pub use circuits::{parity_tree, registered_pipeline, ripple_adder_gates, shift_register, Circuit};
pub use mapper::{pack, tech_map, verify_mapping, FpgaMapError, Lut, MappedDesign, PackStats};
pub use pnr::hier::HierStats;
pub use pnr::{
    best_seeded_placement, critical_path_ps, place, place_and_route, route, FpgaTiming, PnrError,
    PnrResult,
};

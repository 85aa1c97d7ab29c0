//! # pmorph-core — the polymorphic cell fabric
//!
//! This crate is the paper's primary contribution rendered executable: a
//! rectangular array of **6-input × 6-output NAND blocks** (Fig. 7) built
//! from polymorphic leaf cells, tiled with abutted, driver-decoupled edges
//! (Fig. 8), configured through a 128-bit multi-valued RAM per block, and
//! elaborated into `pmorph-sim` netlists for functional and timing
//! simulation.
//!
//! Architecture, in the paper's terms:
//!
//! * a **leaf cell** is a complementary DG pair + RTD RAM (modelled in
//!   `pmorph-device`); its digital abstraction is
//!   [`pmorph_device::CellMode`] — active / stuck-on / stuck-off;
//! * a **block** ([`config::BlockConfig`]) owns a 6×6 crosspoint matrix of
//!   leaf cells forming six NAND product lines, six configurable 3-state
//!   output drivers (Fig. 5), two local-feedback (`lfb`) lines, and
//!   edge-select configuration that sets the direction of logic flow;
//! * a **fabric** ([`array::Fabric`]) tiles blocks so each block's output
//!   edge abuts a neighbour's input edge — *all* interconnect is local; a
//!   signal travels by being re-driven through cells configured as
//!   interconnect (driver in buffer/pass mode), which is exactly the
//!   "logic cells as wire" polymorphism of the title;
//! * [`elaborate`] turns a configured fabric into a flat gate netlist whose
//!   behaviour and timing run on the event-driven kernel — the one
//!   behavioural view of a block (the zero-delay Fig. 7 model it is held
//!   to lives in the root crate's tests);
//! * [`area`] and [`delay`] carry the analytic models behind the paper's
//!   area (≈400 λ²/LUT-pair), configuration (128 bits/block), density and
//!   O(λ^½)-scaling claims.
//!
//! ## Geometry interpretation
//!
//! Fig. 8 shows adjacent cells rotated by 90° so outputs abut inputs. We
//! model the underlying hardware capability: every block boundary carries
//! six shared lanes; each block *configures* which edge it reads
//! (input-edge select) and which edge its drivers push (output-edge
//! select). The paper's checkerboard rotation is then simply the default
//! configuration pattern, while feed-throughs, turns and fan-out arise
//! from other local configurations — matching the text's remark that the
//! I/O direction of each cell "depend\[s\] on whether a particular
//! connection is configured or not".

pub mod area;
pub mod array;
pub mod config;
pub mod delay;
pub mod elaborate;
pub mod faults;
pub mod power;
pub mod render;

pub use area::AreaModel;
pub use array::Fabric;
pub use config::{BlockConfig, Edge, InputSource, OutMode, OutputDest, LANES};
pub use delay::FabricTiming;
pub use elaborate::Elaborated;
pub use faults::{Defect, DefectMap, DefectPatch};
pub use power::{PowerModel, PowerReport};

pub use pmorph_device::{CellMode, Trit};

//! Test code shared by the simulator's integration suites: the reference
//! component evaluator and the pre-CSR heap engine built on it, kept as
//! the production evaluator's and event kernel's reference semantics,
//! and the random netlist and stimulus generators the property suites
//! draw from. Each suite uses a different subset of it.
#![allow(dead_code)]

pub mod reference;
pub mod testgen;

//! Test code shared by the simulator's integration suites: the pre-CSR
//! heap engine kept as the event kernel's reference semantics, and the
//! random netlist and stimulus generators the property suites draw from.
//! Each suite uses a different subset of it.
#![allow(dead_code)]

pub mod reference;
pub mod testgen;

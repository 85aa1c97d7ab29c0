//! Test code shared by the root integration suites: the behavioural
//! model of one configured NAND block (Fig. 7), kept as the oracle that
//! the elaborated fabric netlist is held to.

pub mod block;

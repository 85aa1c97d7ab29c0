//! Levelized zero-delay evaluation of combinational netlists.
//!
//! The event-driven kernel is the reference semantics; for *exhaustive*
//! combinational sweeps (mapping equivalence checks over 2^n vectors) a
//! topologically-ordered single-pass evaluator is much faster. This module
//! levelizes a pure-combinational netlist once, then evaluates vectors
//! with no queue, no allocation, and no delays — and the property tests
//! pin it to the event-driven kernel's settled values.

use crate::logic::Logic;
use crate::netlist::{Component, NetId, Netlist};

/// Levelization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelizeError {
    /// The netlist has a combinational cycle through this net.
    Cycle(NetId),
    /// A component kind with state or self-scheduling is present; carries
    /// the offending kind's name (`dff`, `latch`, `tribuf`, …).
    NotCombinational(&'static str),
    /// A net has more than one driver (tri-state buses need the full
    /// kernel's resolution semantics).
    MultipleDrivers(NetId),
    /// A flip-flop control net (`"clock"` or `"reset"`) is driven by
    /// logic. The sequential bit-parallel kernel models one virtual
    /// common clock edge per `step_cycle`, so gated clocks and computed
    /// resets need the full event-driven engine.
    DrivenControl(&'static str, NetId),
}

impl std::fmt::Display for LevelizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LevelizeError::Cycle(n) => write!(f, "combinational cycle through net {n:?}"),
            LevelizeError::NotCombinational(k) => {
                write!(f, "not combinational: component kind `{k}`")
            }
            LevelizeError::MultipleDrivers(n) => write!(f, "net {n:?} has multiple drivers"),
            LevelizeError::DrivenControl(what, n) => {
                write!(f, "dff {what} net {n:?} is driven by logic (must be a primary input)")
            }
        }
    }
}

impl std::error::Error for LevelizeError {}

/// A levelized combinational circuit: components in topological order.
#[derive(Debug)]
pub struct Levelized {
    pub(crate) netlist: Netlist,
    /// Component indices in evaluation order.
    pub(crate) order: Vec<u32>,
    /// Output net of each ordered component (all accepted kinds are
    /// single-output), so `eval` never queries `outputs()`.
    pub(crate) out_net: Vec<u32>,
    /// Net-value buffer reused across `eval` calls.
    values: Vec<Logic>,
}

impl Levelized {
    /// Levelize. Accepts only combinational components (gates, buffers,
    /// constants), single-driver nets, and an acyclic topology.
    pub fn new(netlist: Netlist) -> Result<Self, LevelizeError> {
        for comp in &netlist.comps {
            match comp {
                Component::Nand { .. }
                | Component::Nor { .. }
                | Component::And { .. }
                | Component::Or { .. }
                | Component::Xor { .. }
                | Component::Inv { .. }
                | Component::Buf { .. }
                | Component::Const { .. } => {}
                other => return Err(LevelizeError::NotCombinational(other.kind_name())),
            }
        }
        let conn = netlist.connectivity();
        // Kahn's algorithm over components. A component's in-degree counts
        // each distinct driven net it reads once — a fan-out row lists a
        // reader once even if it reads the net twice (e.g. NAND(x, x)), so
        // each driven net decrements it once.
        let n = netlist.comp_count();
        let mut indegree = vec![0usize; n];
        for i in 0..netlist.net_count() {
            let net = NetId(i as u32);
            match conn.drivers(net).len() {
                0 => {}
                1 => conn.fanout(net).iter().for_each(|r| indegree[r.0 as usize] += 1),
                _ => return Err(LevelizeError::MultipleDrivers(net)),
            }
        }
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < ready.len() {
            let c = ready[head];
            head += 1;
            order.push(c);
            for out in netlist.comps[c as usize].outputs() {
                for &reader in conn.fanout(out) {
                    indegree[reader.0 as usize] -= 1;
                    if indegree[reader.0 as usize] == 0 {
                        ready.push(reader.0);
                    }
                }
            }
        }
        let first_output = |c: usize| netlist.comps[c].outputs().next().expect("one output");
        if order.len() != n {
            // find a component still blocked and report its output
            let blocked = (0..n).find(|&i| indegree[i] > 0).unwrap();
            return Err(LevelizeError::Cycle(first_output(blocked)));
        }
        let out_net = order.iter().map(|&c| first_output(c as usize).0).collect();
        let values = vec![Logic::X; netlist.net_count()];
        Ok(Levelized { netlist, order, out_net, values })
    }

    /// Evaluate one input assignment. `inputs` pairs nets with values;
    /// undriven nets not listed read as `X`. Returns the full net-value
    /// vector (index by `NetId`), borrowed from an internal buffer that is
    /// reused across calls — the sweep loop allocates nothing per vector.
    pub fn eval(&mut self, inputs: &[(NetId, Logic)]) -> &[Logic] {
        self.values.fill(Logic::X);
        for &(n, v) in inputs {
            self.values[n.0 as usize] = v;
        }
        let mut out = [Logic::Z; crate::netlist::MAX_OUTPUTS];
        for (k, &c) in self.order.iter().enumerate() {
            // components here are stateless; evaluate_into reads values only
            self.netlist.comps[c as usize].evaluate_into(&self.values, &mut out);
            self.values[self.out_net[k] as usize] = out[0];
        }
        &self.values
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::engine::Simulator;
    use pmorph_util::rng::Rng;
    use pmorph_util::rng::StdRng;

    #[test]
    fn matches_event_driven_kernel_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(0x1EE7);
        for trial in 0..10 {
            let mut b = NetlistBuilder::new();
            let inputs: Vec<NetId> = (0..5).map(|_| b.net()).collect();
            let mut nets = inputs.clone();
            for _ in 0..15 {
                let x = nets[rng.random_range(0..nets.len())];
                let y = nets[rng.random_range(0..nets.len())];
                let n = match rng.random_range(0..4) {
                    0 => b.nand(&[x, y]),
                    1 => b.or(&[x, y]),
                    2 => b.xor(&[x, y]),
                    _ => b.inv(x),
                };
                nets.push(n);
            }
            let nl = b.build();
            let mut lev = Levelized::new(nl.clone()).expect("acyclic");
            for vector in 0..32u64 {
                let assignment: Vec<(NetId, Logic)> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| (n, Logic::from_bool(vector >> i & 1 == 1)))
                    .collect();
                let fast = lev.eval(&assignment);
                let mut sim = Simulator::new(nl.clone());
                for &(n, v) in &assignment {
                    sim.drive(n, v);
                }
                sim.settle(1_000_000).unwrap();
                for (i, &v) in fast.iter().enumerate() {
                    assert_eq!(
                        v,
                        sim.value(NetId(i as u32)),
                        "trial {trial} vector {vector} net {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut b = NetlistBuilder::new();
        let a = b.net();
        let x = b.net();
        let y = b.net();
        b.nand_into(&[a, y], x);
        b.inv_into(x, y);
        let err = Levelized::new(b.build()).unwrap_err();
        assert!(matches!(err, LevelizeError::Cycle(_)));
    }

    #[test]
    fn stateful_component_rejected() {
        let mut b = NetlistBuilder::new();
        let d = b.net();
        let clk = b.net();
        let q = b.net();
        b.dff(d, clk, None, q);
        assert!(matches!(Levelized::new(b.build()), Err(LevelizeError::NotCombinational(_))));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = NetlistBuilder::new();
        let a = b.net();
        let y = b.net();
        b.inv_into(a, y);
        b.inv_into(a, y);
        assert!(matches!(Levelized::new(b.build()), Err(LevelizeError::MultipleDrivers(_))));
    }
}

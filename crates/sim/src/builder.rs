//! Ergonomic netlist construction.
//!
//! [`NetlistBuilder`] wraps [`Netlist`] with a default delay and one-call
//! gate constructors that make their own output nets, so elaboration code
//! in the fabric and FPGA crates reads like a structural HDL.

use crate::logic::Logic;
use crate::netlist::{CompId, Component, DriveMode, NetId, Netlist};

/// Default combinational gate delay in picoseconds.
pub const DEFAULT_GATE_DELAY: u64 = 10;

/// Builder over [`Netlist`] with a per-builder default delay.
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    netlist: Netlist,
    default_delay: u64,
}

impl NetlistBuilder {
    /// New builder with the default 10 ps gate delay.
    pub fn new() -> Self {
        Self { netlist: Netlist::new(), default_delay: DEFAULT_GATE_DELAY }
    }

    /// Override the default delay applied by the gate helpers.
    pub fn with_default_delay(mut self, delay_ps: u64) -> Self {
        self.default_delay = delay_ps;
        self
    }

    /// The default delay currently applied by gate helpers.
    pub fn default_delay(&self) -> u64 {
        self.default_delay
    }

    /// Add a net.
    pub fn net(&mut self) -> NetId {
        self.netlist.add_net()
    }

    /// Raw component insertion with explicit delay.
    pub fn comp(&mut self, comp: Component, delay_ps: u64) -> CompId {
        self.netlist.add_comp(comp, delay_ps)
    }

    /// N-input NAND into a fresh net.
    pub fn nand(&mut self, inputs: &[NetId]) -> NetId {
        let output = self.net();
        self.nand_into(inputs, output);
        output
    }

    /// N-input NAND into an existing net.
    pub fn nand_into(&mut self, inputs: &[NetId], output: NetId) -> CompId {
        self.netlist
            .add_comp(Component::Nand { inputs: inputs.to_vec(), output }, self.default_delay)
    }

    /// N-input AND into a fresh net.
    pub fn and(&mut self, inputs: &[NetId]) -> NetId {
        let output = self.net();
        self.netlist
            .add_comp(Component::And { inputs: inputs.to_vec(), output }, self.default_delay);
        output
    }

    /// N-input OR into a fresh net.
    pub fn or(&mut self, inputs: &[NetId]) -> NetId {
        let output = self.net();
        self.netlist
            .add_comp(Component::Or { inputs: inputs.to_vec(), output }, self.default_delay);
        output
    }

    /// N-input XOR into a fresh net.
    pub fn xor(&mut self, inputs: &[NetId]) -> NetId {
        let output = self.net();
        self.netlist
            .add_comp(Component::Xor { inputs: inputs.to_vec(), output }, self.default_delay);
        output
    }

    /// Inverter into a fresh net.
    pub fn inv(&mut self, input: NetId) -> NetId {
        let output = self.net();
        self.inv_into(input, output);
        output
    }

    /// Inverter into an existing net.
    pub fn inv_into(&mut self, input: NetId, output: NetId) -> CompId {
        self.netlist.add_comp(Component::Inv { input, output }, self.default_delay)
    }

    /// Buffer into an existing net with explicit delay — the builder's
    /// delay-line primitive (used for micropipeline matched delays).
    pub fn delay_into(&mut self, input: NetId, output: NetId, delay_ps: u64) -> CompId {
        self.netlist.add_comp(Component::Buf { input, output }, delay_ps)
    }

    /// Tri-state driver onto a (possibly shared) net.
    pub fn tribuf_into(
        &mut self,
        input: NetId,
        enable: NetId,
        output: NetId,
        mode: DriveMode,
    ) -> CompId {
        self.netlist.add_comp(Component::TriBuf { input, enable, output, mode }, self.default_delay)
    }

    /// Constant driver onto an existing net.
    pub fn constant(&mut self, value: Logic, output: NetId) -> CompId {
        self.netlist.add_comp(Component::Const { value, output }, 1)
    }

    /// Behavioural Muller C-element into a fresh net.
    pub fn celement(&mut self, a: NetId, b: NetId) -> NetId {
        let output = self.net();
        self.netlist
            .add_comp(Component::CElement { a, b, output, state: Logic::L0 }, self.default_delay);
        output
    }

    /// Behavioural DFF.
    pub fn dff(&mut self, d: NetId, clk: NetId, reset_n: Option<NetId>, q: NetId) -> CompId {
        self.netlist.add_comp(
            Component::Dff { d, clk, reset_n, q, last_clk: Logic::X, state: Logic::L0 },
            self.default_delay,
        )
    }

    /// Behavioural transparent-high latch.
    pub fn latch(&mut self, d: NetId, en: NetId, q: NetId) -> CompId {
        self.netlist.add_comp(Component::Latch { d, en, q, state: Logic::L0 }, self.default_delay)
    }

    /// Free-running clock.
    pub fn clock(&mut self, output: NetId, half_period: u64, phase: u64) -> CompId {
        self.netlist.add_comp(Component::Clock { output, half_period, phase, value: Logic::L0 }, 1)
    }

    /// Waveform player; `events` must have strictly increasing times.
    pub fn stimulus(&mut self, output: NetId, events: Vec<(u64, Logic)>) -> CompId {
        debug_assert!(events.windows(2).all(|w| w[0].0 < w[1].0), "stimulus times must increase");
        self.netlist.add_comp(Component::Stimulus { output, events, next: 0 }, 1)
    }

    /// Finish building.
    pub fn build(self) -> Netlist {
        self.netlist
    }

    /// Peek at the netlist mid-build (e.g. for size accounting).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn builds_xor_from_nands() {
        // classic 4-NAND XOR
        let mut b = NetlistBuilder::new();
        let x = b.net();
        let y = b.net();
        let t = b.nand(&[x, y]);
        let u = b.nand(&[x, t]);
        let v = b.nand(&[y, t]);
        let z = b.nand(&[u, v]);
        let nl = b.build();
        for (vx, vy) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut sim = Simulator::new(nl.clone());
            sim.drive(x, Logic::from_bool(vx));
            sim.drive(y, Logic::from_bool(vy));
            sim.settle(10_000).unwrap();
            assert_eq!(sim.value(z), Logic::from_bool(vx ^ vy), "{vx}^{vy}");
        }
    }
}

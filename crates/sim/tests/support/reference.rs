//! The simulator's reference semantics, kept in test code and frozen:
//! the closure-based component evaluator [`evaluate`] and the pre-CSR
//! heap-scheduled event kernel [`ReferenceSimulator`] built on it.
//!
//! [`evaluate`] is the component semantics written case by case, apart
//! from the production `Component::evaluate_into`; the differential
//! suite (`differential.rs`) compares the two on every component kind,
//! with four-valued inputs and carried state. [`ReferenceSimulator`] is
//! the original `engine.rs` event loop: per-net driver scans and a
//! global `BinaryHeap<Reverse<Event>>` with lazy version-cancellation,
//! built on the public netlist API only. The production
//! `pmorph_sim::Simulator` must stay bit-identical to it — the same
//! suite runs random netlists on both and asserts equal traces, values
//! and event counts. It carries none of the fast-path statistics.

use pmorph_sim::netlist::{CompId, Component, DriveMode, NetId, Netlist, PortRef};
use pmorph_sim::{Logic, SimError, SimStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Evaluate `comp` against current net values, returning `(port, value)`
/// pairs for each output. `read` maps a net to its resolved value.
/// Stateful components update their state here.
pub fn evaluate<F: Fn(NetId) -> Logic>(comp: &mut Component, read: F) -> Vec<(u8, Logic)> {
    match comp {
        Component::Nand { inputs, .. } => {
            vec![(0, Logic::nand_all(inputs.iter().map(|&n| read(n))))]
        }
        Component::Nor { inputs, .. } => {
            let mut acc = Logic::L0;
            for &n in inputs.iter() {
                acc = acc.or(read(n));
            }
            vec![(0, acc.not())]
        }
        Component::And { inputs, .. } => {
            let mut acc = Logic::L1;
            for &n in inputs.iter() {
                acc = acc.and(read(n));
            }
            vec![(0, acc)]
        }
        Component::Or { inputs, .. } => {
            let mut acc = Logic::L0;
            for &n in inputs.iter() {
                acc = acc.or(read(n));
            }
            vec![(0, acc)]
        }
        Component::Xor { inputs, .. } => {
            let mut acc = Logic::L0;
            for &n in inputs.iter() {
                acc = acc.xor(read(n));
            }
            vec![(0, acc)]
        }
        Component::Inv { input, .. } => vec![(0, read(*input).not())],
        Component::Buf { input, .. } => vec![(0, read(*input).input())],
        Component::TriBuf { input, enable, mode, .. } => {
            let v = match read(*enable).input() {
                Logic::L1 => {
                    let i = read(*input).input();
                    match mode {
                        DriveMode::NonInverting => i,
                        DriveMode::Inverting => i.not(),
                    }
                }
                Logic::L0 => Logic::Z,
                _ => Logic::X,
            };
            vec![(0, v)]
        }
        Component::Const { value, .. } => vec![(0, *value)],
        Component::CElement { a, b, state, .. } => {
            let (va, vb) = (read(*a).input(), read(*b).input());
            // Switch only on a definite consensus; anything else —
            // mixed inputs *or* unknowns — holds the present state.
            // (Real C-elements power up into a defined state via their
            // keeper; modelling X-propagation here would deadlock every
            // cold-started handshake ring.)
            let next = match (va, vb) {
                (Logic::L1, Logic::L1) => Logic::L1,
                (Logic::L0, Logic::L0) => Logic::L0,
                _ => *state,
            };
            *state = next;
            vec![(0, next)]
        }
        Component::Dff { d, clk, reset_n, last_clk, state, .. } => {
            let c = read(*clk).input();
            let rising = *last_clk == Logic::L0 && c == Logic::L1;
            *last_clk = c;
            if let Some(r) = reset_n {
                if read(*r).input() == Logic::L0 {
                    *state = Logic::L0;
                    return vec![(0, *state)];
                }
            }
            if rising {
                *state = read(*d).input();
            }
            vec![(0, *state)]
        }
        Component::Latch { d, en, state, .. } => {
            match read(*en).input() {
                Logic::L1 => *state = read(*d).input(),
                Logic::L0 => {}
                _ => *state = Logic::X,
            }
            vec![(0, *state)]
        }
        Component::Clock { value, .. } => vec![(0, *value)],
        Component::Stimulus { events, next, .. } => {
            // Value most recently played; before the first event the
            // output is X (undriven stimulus is unknown, not Z, to make
            // forgotten initialisation loudly visible).
            let v = if *next == 0 { Logic::X } else { events[*next - 1].1 };
            vec![(0, v)]
        }
        Component::Mutex { r1, r2, g1: _, g2: _, owner } => {
            let (a, b) = (read(*r1).input(), read(*r2).input());
            match *owner {
                1 if a != Logic::L1 => *owner = 0,
                2 if b != Logic::L1 => *owner = 0,
                _ => {}
            }
            if *owner == 0 {
                if a == Logic::L1 {
                    *owner = 1;
                } else if b == Logic::L1 {
                    *owner = 2;
                }
            }
            vec![(0, Logic::from_bool(*owner == 1)), (1, Logic::from_bool(*owner == 2))]
        }
    }
}

/// Per-net connectivity built one `Vec` per net, apart from the production
/// `Netlist::connectivity` (the differential suite holds the two equal):
/// each net's readers, a component listed once however often it reads the
/// net, and its `(component, port)` drivers, both in component order.
pub fn net_lists(netlist: &Netlist) -> (Vec<Vec<CompId>>, Vec<Vec<PortRef>>) {
    let n = netlist.net_count();
    let (mut fanout, mut drivers) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for (i, comp) in netlist.comps.iter().enumerate() {
        let cid = CompId(i as u32);
        for net in comp.inputs() {
            fanout[net.0 as usize].push(cid);
        }
        for (p, net) in comp.outputs().enumerate() {
            drivers[net.0 as usize].push(PortRef { comp: cid, port: p as u8 });
        }
    }
    fanout.iter_mut().for_each(Vec::dedup);
    (fanout, drivers)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: u64,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    key: EventKey,
    slot: u32,
    value: Logic,
    version: u32,
    generator: Option<CompId>,
    forced: bool,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    value: Logic,
    version: u32,
    pending: Option<(u64, Logic)>,
}

/// The original heap-scheduled simulator; see the module docs.
pub struct ReferenceSimulator {
    netlist: Netlist,
    fanout: Vec<Vec<CompId>>,
    drivers: Vec<Vec<PortRef>>,
    values: Vec<Logic>,
    slots: Vec<Slot>,
    external_slot: Vec<u32>,
    slot_net: Vec<NetId>,
    comp_slot_base: Vec<u32>,
    queue: BinaryHeap<Reverse<Event>>,
    time: u64,
    seq: u64,
    stats: SimStats,
    traces: Vec<Option<Vec<(u64, Logic)>>>,
    dirty_nets: Vec<u32>,
    dirty_comps: Vec<u32>,
    comp_dirty_flag: Vec<bool>,
    net_dirty_flag: Vec<bool>,
}

impl ReferenceSimulator {
    pub fn new(netlist: Netlist) -> Self {
        let n_nets = netlist.net_count();
        let n_comps = netlist.comp_count();

        let mut comp_slot_base = Vec::with_capacity(n_comps + 1);
        let mut slot_net = Vec::new();
        comp_slot_base.push(0u32);
        for comp in &netlist.comps {
            for out in comp.outputs() {
                slot_net.push(out);
            }
            comp_slot_base.push(slot_net.len() as u32);
        }
        let mut external_slot = Vec::with_capacity(n_nets);
        for i in 0..n_nets {
            external_slot.push(slot_net.len() as u32);
            slot_net.push(NetId(i as u32));
        }

        let (fanout, drivers) = net_lists(&netlist);
        let mut sim = ReferenceSimulator {
            fanout,
            drivers,
            values: vec![Logic::Z; n_nets],
            slots: vec![Slot::default(); slot_net.len()],
            external_slot,
            slot_net,
            comp_slot_base,
            queue: BinaryHeap::new(),
            time: 0,
            seq: 0,
            stats: SimStats::default(),
            traces: vec![None; n_nets],
            dirty_nets: Vec::new(),
            dirty_comps: Vec::new(),
            comp_dirty_flag: vec![false; n_comps],
            net_dirty_flag: vec![false; n_nets],
            netlist,
        };
        for s in &mut sim.slots {
            s.value = Logic::Z;
        }
        for c in 0..n_comps {
            if sim.netlist.comps[c].is_generator() {
                let values = &sim.values;
                let outs = evaluate(&mut sim.netlist.comps[c], |n| values[n.0 as usize]);
                for (port, value) in outs {
                    let slot = sim.comp_slot_base[c] + port as u32;
                    sim.slots[slot as usize].value = value;
                    let net = sim.slot_net[slot as usize];
                    sim.values[net.0 as usize] = sim.resolve_net(net);
                }
            }
        }
        for c in 0..n_comps {
            sim.mark_comp_dirty(c as u32);
        }
        sim.eval_dirty_comps();
        for c in 0..n_comps {
            if sim.netlist.comps[c].is_generator() {
                sim.arm_generator(CompId(c as u32));
            }
        }
        sim
    }

    pub fn time(&self) -> u64 {
        self.time
    }

    pub fn stats(&self) -> SimStats {
        self.stats
    }

    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.0 as usize]
    }

    pub fn watch(&mut self, net: NetId) {
        let t = self.time;
        let v = self.values[net.0 as usize];
        self.traces[net.0 as usize].get_or_insert_with(Vec::new).push((t, v));
    }

    pub fn trace(&self, net: NetId) -> &[(u64, Logic)] {
        self.traces[net.0 as usize].as_deref().unwrap_or(&[])
    }

    pub fn drive(&mut self, net: NetId, value: Logic) {
        self.drive_at(net, value, self.time);
    }

    pub fn drive_at(&mut self, net: NetId, value: Logic, time: u64) {
        assert!(time >= self.time, "cannot schedule in the past");
        let slot = self.external_slot[net.0 as usize];
        let key = EventKey { time, seq: self.seq };
        self.seq += 1;
        self.queue.push(Reverse(Event {
            key,
            slot,
            value,
            version: 0,
            generator: None,
            forced: true,
        }));
    }

    pub fn run_until(&mut self, deadline: u64, max_events: u64) -> Result<(), SimError> {
        let mut budget = max_events;
        #[allow(clippy::while_let_loop)] // borrow of queue must end before step
        loop {
            let next_time = match self.queue.peek() {
                Some(Reverse(ev)) => ev.key.time,
                None => break,
            };
            if next_time > deadline {
                break;
            }
            if budget == 0 {
                return Err(SimError::EventLimit { events: self.stats.events, time: self.time });
            }
            let spent = self.step_one_timestamp();
            budget = budget.saturating_sub(spent);
        }
        self.time = self.time.max(deadline);
        Ok(())
    }

    pub fn settle(&mut self, max_events: u64) -> Result<u64, SimError> {
        let mut budget = max_events;
        while !self.queue.is_empty() {
            if budget == 0 {
                return Err(SimError::EventLimit { events: self.stats.events, time: self.time });
            }
            let spent = self.step_one_timestamp();
            budget = budget.saturating_sub(spent);
        }
        Ok(self.time)
    }

    fn step_one_timestamp(&mut self) -> u64 {
        let t = match self.queue.peek() {
            Some(Reverse(ev)) => ev.key.time,
            None => return 0,
        };
        self.time = t;
        let mut applied = 0u64;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.key.time != t {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            let slot = &mut self.slots[ev.slot as usize];
            if !ev.forced {
                if ev.version != slot.version {
                    continue;
                }
                slot.pending = None;
            }
            applied += 1;
            self.stats.events += 1;
            if slot.value != ev.value {
                slot.value = ev.value;
                let net = self.slot_net[ev.slot as usize];
                if !self.net_dirty_flag[net.0 as usize] {
                    self.net_dirty_flag[net.0 as usize] = true;
                    self.dirty_nets.push(net.0);
                }
            }
            if let Some(g) = ev.generator {
                self.arm_generator(g);
            }
        }
        let dirty_nets = std::mem::take(&mut self.dirty_nets);
        for n in &dirty_nets {
            self.net_dirty_flag[*n as usize] = false;
            let resolved = self.resolve_net(NetId(*n));
            if resolved != self.values[*n as usize] {
                self.values[*n as usize] = resolved;
                self.stats.net_toggles += 1;
                if let Some(tr) = &mut self.traces[*n as usize] {
                    tr.push((t, resolved));
                }
                for f in 0..self.fanout[*n as usize].len() {
                    let cid = self.fanout[*n as usize][f];
                    self.mark_comp_dirty(cid.0);
                }
            }
        }
        self.dirty_nets = dirty_nets;
        self.dirty_nets.clear();
        self.eval_dirty_comps();
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
        applied.max(1)
    }

    fn resolve_net(&self, net: NetId) -> Logic {
        let mut acc = self.slots[self.external_slot[net.0 as usize] as usize].value;
        for d in &self.drivers[net.0 as usize] {
            let slot = self.comp_slot_base[d.comp.0 as usize] + d.port as u32;
            acc = acc.resolve(self.slots[slot as usize].value);
        }
        acc
    }

    fn mark_comp_dirty(&mut self, comp: u32) {
        if !self.comp_dirty_flag[comp as usize] {
            self.comp_dirty_flag[comp as usize] = true;
            self.dirty_comps.push(comp);
        }
    }

    fn eval_dirty_comps(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty_comps);
        dirty.sort_unstable();
        let now = self.time;
        for c in &dirty {
            self.comp_dirty_flag[*c as usize] = false;
            if self.netlist.comps[*c as usize].is_generator() {
                continue;
            }
            self.stats.evals += 1;
            let values = &self.values;
            let outputs = evaluate(&mut self.netlist.comps[*c as usize], |n| values[n.0 as usize]);
            let delay = self.netlist.delays[*c as usize].max(1);
            for (port, value) in outputs {
                let slot = self.comp_slot_base[*c as usize] + port as u32;
                self.schedule(slot, value, now + delay, None);
            }
        }
        dirty.clear();
        self.dirty_comps = dirty;
    }

    fn arm_generator(&mut self, comp: CompId) {
        let now = self.time;
        if let Some((t, port, value)) = self.netlist.comps[comp.0 as usize].next_generated(now) {
            let slot = self.comp_slot_base[comp.0 as usize] + port as u32;
            let slot_ref = &mut self.slots[slot as usize];
            slot_ref.version = slot_ref.version.wrapping_add(1);
            slot_ref.pending = Some((t, value));
            let key = EventKey { time: t.max(now), seq: self.seq };
            self.seq += 1;
            self.queue.push(Reverse(Event {
                key,
                slot,
                value,
                version: slot_ref.version,
                generator: Some(comp),
                forced: false,
            }));
        }
    }

    fn schedule(&mut self, slot: u32, value: Logic, time: u64, generator: Option<CompId>) {
        let s = &mut self.slots[slot as usize];
        match s.pending {
            Some((_, pv)) if pv == value => return,
            Some(_) => {
                s.version = s.version.wrapping_add(1);
                if value == s.value {
                    s.pending = None;
                    return;
                }
            }
            None => {
                if value == s.value {
                    return;
                }
                s.version = s.version.wrapping_add(1);
            }
        }
        s.pending = Some((time, value));
        let key = EventKey { time, seq: self.seq };
        self.seq += 1;
        self.queue.push(Reverse(Event {
            key,
            slot,
            value,
            version: s.version,
            generator,
            forced: false,
        }));
    }
}

//! Deterministic event-driven simulation kernel.
//!
//! Time is measured in integer picoseconds. Every component output owns a
//! *driver slot*; a net's value is the wired resolution of its slots plus one
//! implicit external slot used by [`Simulator::drive`] for primary inputs.
//! Scheduling uses single-pending-event inertial delay per slot: a glitch
//! shorter than a component's propagation delay is swallowed, exactly as the
//! fabric's RC-limited local links would swallow it.
//!
//! Determinism: events are ordered by `(time, sequence)`; components made
//! dirty within one timestep are evaluated in ascending id order. Two runs of
//! the same netlist with the same stimulus produce identical traces.
//!
//! ## Kernel layout
//!
//! [`Simulator::new`] takes the netlist's derived CSR (compressed sparse
//! row) connectivity, [`Netlist::connectivity`], and keeps its rows: the
//! fan-out rows (`net → comps reading`) as they are, and the driver rows
//! with the `(comp, port) → slot` arithmetic pre-applied — so the
//! steady-state event loop touches only contiguous flat arrays. Component
//! evaluation goes through the in-place
//! [`crate::netlist::Component::evaluate_into`] writing into a fixed
//! `[Logic; MAX_OUTPUTS]` scratch, net resolution takes a two-read fast path
//! for the dominant single-driver case, and scheduling runs on the calendar
//! queue in `crate::queue`. After warm-up the loop performs no heap
//! allocation (asserted by the `kernel` benchmark's counting allocator).
//! The pre-CSR heap-scheduled kernel survives in test code as the
//! `ReferenceSimulator` of the sim crate's integration-test support, and
//! the `differential` property suite pins the two to bit-identical
//! traces.

use crate::logic::Logic;
use crate::netlist::{CompId, CompState, Connectivity, NetId, Netlist, MAX_OUTPUTS};
use crate::queue::{Event, EventKey, EventQueue, QueueCounters};
use std::time::Instant;

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted before the queue drained — almost
    /// always an oscillating combinational loop (e.g. an odd NAND ring).
    EventLimit {
        /// Events actually applied over the simulator's lifetime when it
        /// gave up (from [`SimStats::events`], not the budget).
        events: u64,
        /// Simulation time reached.
        time: u64,
    },
    /// An exhaustive sweep was asked to tabulate more bits than the
    /// configured ceiling (`outputs · 2^vars > limit_bits`, or more than
    /// [`crate::vectors::MAX_SWEEP_VARS`] swept inputs). Typed — rather
    /// than an `assert!` — so mapping flows can degrade gracefully on
    /// oversized cuts.
    SweepTooLarge {
        /// Swept input count requested.
        vars: usize,
        /// Output count requested.
        outputs: usize,
        /// The table-size ceiling in bits that was exceeded.
        limit_bits: u64,
    },
    /// An exhaustive sweep was asked of a netlist the bit-parallel kernel
    /// cannot levelize (state, a combinational cycle, a multi-driven
    /// net); the error names the offending component kind or net.
    NotLevelizable(crate::levelized::LevelizeError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventLimit { events, time } => write!(
                f,
                "event budget exhausted after {events} events at t={time}ps \
                 (oscillating feedback loop?)"
            ),
            SimError::SweepTooLarge { vars, outputs, limit_bits } => write!(
                f,
                "exhaustive sweep of {outputs} output(s) over {vars} input(s) \
                 exceeds the {limit_bits}-bit table ceiling"
            ),
            SimError::NotLevelizable(e) => {
                write!(f, "exhaustive sweep needs a levelizable netlist: {e}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Run statistics, exposed for the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total events applied.
    pub events: u64,
    /// Total component evaluations.
    pub evals: u64,
    /// Net value changes observed.
    pub net_toggles: u64,
    /// High-water mark of the event queue.
    pub max_queue: usize,
    /// Net resolutions served by the single-driver two-read fast path.
    pub resolve_fast_hits: u64,
    /// Events scheduled into the calendar queue's near-future wheel.
    pub wheel_events: u64,
    /// Events that fell beyond the wheel window into the sorted overflow.
    pub overflow_events: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    value: Logic,
    version: u32,
    pending: Option<(u64, Logic)>,
}

/// Opaque saved simulator state: net/slot values, component state, the
/// pending event set and the time/sequence counters. Captured by
/// [`Simulator::snapshot`] and reapplied by [`Simulator::restore`], which
/// reproduces the saved state bit-exactly — the vector-sweep paths use this
/// to reset one simulator instead of re-elaborating the netlist per vector.
/// Waveform probes ([`Simulator::watch`] traces) are *not* part of a
/// snapshot; restore leaves them untouched.
#[derive(Clone, Debug)]
pub struct SimSnapshot {
    values: Vec<Logic>,
    slots: Vec<Slot>,
    comp_states: Vec<CompState>,
    events: Vec<Event>,
    time: u64,
    seq: u64,
    stats: SimStats,
}

/// The event-driven simulator. Owns the netlist (components carry state).
pub struct Simulator {
    netlist: Netlist,
    /// Resolved value of each net.
    values: Vec<Logic>,
    /// Driver slots: one per component output port, then one external slot
    /// per net (for primary-input stimulus).
    slots: Vec<Slot>,
    /// CSR fan-out: components reading net `n` are
    /// `fanout[fanout_off[n]..fanout_off[n+1]]` (deduplicated).
    fanout_off: Vec<u32>,
    fanout: Vec<CompId>,
    /// CSR driver slots: slot indices driving net `n` are
    /// `driver_slot[driver_off[n]..driver_off[n+1]]`, with the
    /// `comp_slot_base + port` arithmetic pre-applied.
    driver_off: Vec<u32>,
    driver_slot: Vec<u32>,
    /// Slot index of each net's external driver.
    external_slot: Vec<u32>,
    /// slot -> net it drives.
    slot_net: Vec<NetId>,
    /// (comp, port) -> slot, laid out as comp-major prefix sums.
    comp_slot_base: Vec<u32>,
    queue: EventQueue,
    time: u64,
    seq: u64,
    stats: SimStats,
    /// Per-net recorded transitions, for watched nets only.
    traces: Vec<Option<Vec<(u64, Logic)>>>,
    /// Scratch buffers reused across steps (allocation-free hot loop).
    dirty_nets: Vec<u32>,
    dirty_comps: Vec<u32>,
    comp_dirty_flag: Vec<bool>,
    net_dirty_flag: Vec<bool>,
}

impl Simulator {
    /// Build a simulator. All slots start at `Z`, all nets at the resolution
    /// of their (empty) drivers; every component is evaluated once at t=0 so
    /// constants and initial gate outputs propagate, and generators arm
    /// their first event.
    pub fn new(netlist: Netlist) -> Self {
        let n_nets = netlist.net_count();
        let n_comps = netlist.comp_count();

        let mut comp_slot_base = Vec::with_capacity(n_comps + 1);
        let mut slot_net = Vec::new();
        comp_slot_base.push(0u32);
        for comp in &netlist.comps {
            slot_net.extend(comp.outputs());
            comp_slot_base.push(slot_net.len() as u32);
        }
        let mut external_slot = Vec::with_capacity(n_nets);
        for i in 0..n_nets {
            external_slot.push(slot_net.len() as u32);
            slot_net.push(NetId(i as u32));
        }

        let Connectivity { fanout_off, fanout, driver_off, drivers } = netlist.connectivity();
        let driver_slot =
            drivers.iter().map(|d| comp_slot_base[d.comp.0 as usize] + d.port as u32).collect();

        let mut sim = Simulator {
            values: vec![Logic::Z; n_nets],
            slots: vec![Slot::default(); slot_net.len()],
            fanout_off,
            fanout,
            driver_off,
            driver_slot,
            external_slot,
            slot_net,
            comp_slot_base,
            queue: EventQueue::new(0),
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
        // Inject generators' initial values (a clock rests at its start
        // level before its first edge) so downstream state elements see a
        // definite pre-edge level at t=0.
        let mut out = [Logic::Z; MAX_OUTPUTS];
        for c in 0..n_comps {
            if sim.netlist.comps[c].is_generator() {
                let nports = sim.netlist.comps[c].evaluate_into(&sim.values, &mut out);
                for (port, &value) in out.iter().enumerate().take(nports) {
                    let slot = sim.comp_slot_base[c] + port as u32;
                    sim.slots[slot as usize].value = value;
                    let net = sim.slot_net[slot as usize];
                    sim.values[net.0 as usize] = sim.resolve_net(net);
                }
            }
        }
        // Initial evaluation pass at t=0.
        for c in 0..n_comps {
            sim.mark_comp_dirty(c as u32);
        }
        sim.eval_dirty_comps();
        // Arm generators.
        for c in 0..n_comps {
            if sim.netlist.comps[c].is_generator() {
                sim.arm_generator(CompId(c as u32));
            }
        }
        sim
    }

    /// Immutable view of the simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Current simulation time in picoseconds.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Kernel statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Resolved value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.0 as usize]
    }

    /// Start recording transitions on a net (records the current value as a
    /// first sample).
    pub fn watch(&mut self, net: NetId) {
        let t = self.time;
        let v = self.values[net.0 as usize];
        self.traces[net.0 as usize].get_or_insert_with(Vec::new).push((t, v));
    }

    /// Recorded `(time, value)` transitions of a watched net.
    pub fn trace(&self, net: NetId) -> &[(u64, Logic)] {
        self.traces[net.0 as usize].as_deref().unwrap_or(&[])
    }

    /// Drive a net's external slot to `value` at the current time (takes
    /// effect when the simulation is next advanced). This is how primary
    /// inputs are stimulated.
    pub fn drive(&mut self, net: NetId, value: Logic) {
        self.drive_at(net, value, self.time);
    }

    /// Drive a net's external slot at an absolute future time.
    pub fn drive_at(&mut self, net: NetId, value: Logic, time: u64) {
        assert!(time >= self.time, "cannot schedule in the past");
        let slot = self.external_slot[net.0 as usize];
        let key = EventKey { time, seq: self.seq };
        self.seq += 1;
        self.push_event(Event { key, slot, value, version: 0, generator: None, forced: true });
    }

    /// Release a previously driven net back to high impedance.
    pub fn release(&mut self, net: NetId) {
        self.drive(net, Logic::Z);
    }

    /// Capture the complete simulation state (values, slots, component
    /// state, pending events, counters). See [`SimSnapshot`].
    pub fn snapshot(&self) -> SimSnapshot {
        debug_assert!(self.dirty_nets.is_empty() && self.dirty_comps.is_empty());
        pmorph_obs::counter!("sim.snapshots").inc();
        SimSnapshot {
            values: self.values.clone(),
            slots: self.slots.clone(),
            comp_states: self.netlist.comps.iter().map(|c| c.save_state()).collect(),
            events: self.queue.events_sorted(),
            time: self.time,
            seq: self.seq,
            stats: self.stats,
        }
    }

    /// Rewind to a snapshot taken from this simulator. Every subsequent
    /// stimulus/run sequence replays bit-identically to the first time.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        pmorph_obs::counter!("sim.restores").inc();
        assert_eq!(snap.values.len(), self.values.len(), "snapshot from a different netlist");
        assert_eq!(snap.slots.len(), self.slots.len(), "snapshot from a different netlist");
        self.values.copy_from_slice(&snap.values);
        self.slots.copy_from_slice(&snap.slots);
        for (c, s) in self.netlist.comps.iter_mut().zip(&snap.comp_states) {
            c.load_state(*s);
        }
        self.time = snap.time;
        self.seq = snap.seq;
        self.stats = snap.stats;
        // Pending events all lie at or after the snapshot time (the kernel
        // never leaves a past event queued), so the wheel can restart there.
        self.queue.reset(snap.time);
        for ev in &snap.events {
            self.queue.push(*ev);
        }
        for n in &self.dirty_nets {
            self.net_dirty_flag[*n as usize] = false;
        }
        self.dirty_nets.clear();
        for c in &self.dirty_comps {
            self.comp_dirty_flag[*c as usize] = false;
        }
        self.dirty_comps.clear();
    }

    /// Advance until `deadline` (inclusive), or until the queue drains.
    /// `max_events` bounds runaway oscillation.
    pub fn run_until(&mut self, deadline: u64, max_events: u64) -> Result<(), SimError> {
        let obs = self.obs_begin();
        let out = self.run_until_inner(deadline, max_events);
        self.obs_flush(obs);
        out
    }

    fn run_until_inner(&mut self, deadline: u64, max_events: u64) -> Result<(), SimError> {
        let mut budget = max_events;
        while let Some(key) = self.queue.peek_key() {
            if key.time > deadline {
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

    /// Run until the event queue is empty (the circuit has settled).
    /// Returns the settle time. Errors if `max_events` is exceeded —
    /// the signature oscillation detector for unstable async circuits.
    pub fn settle(&mut self, max_events: u64) -> Result<u64, SimError> {
        let obs = self.obs_begin();
        let out = self.settle_inner(max_events);
        self.obs_flush(obs);
        out
    }

    fn settle_inner(&mut self, max_events: u64) -> Result<u64, SimError> {
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

    /// Capture the pre-run counter baseline for [`Self::obs_flush`].
    /// `None` (the common disabled case) costs one relaxed atomic load and
    /// skips the clock read entirely.
    #[inline]
    fn obs_begin(&self) -> Option<(SimStats, QueueCounters, Instant)> {
        if !pmorph_obs::enabled() {
            return None;
        }
        Some((self.stats, self.queue.counters(), Instant::now()))
    }

    /// Export the deltas accumulated during one advancing call (`run_until`
    /// or `settle`) to the observability registry. Write-only side channel:
    /// nothing here feeds back into simulation state, so traces stay
    /// byte-identical with the layer on or off. Run boundaries (rather than
    /// per-event atomics) keep the hot loop allocation-free and untouched.
    fn obs_flush(&mut self, before: Option<(SimStats, QueueCounters, Instant)>) {
        let Some((s0, q0, t0)) = before else { return };
        let (s1, q1) = (self.stats, self.queue.counters());
        // `restore` inside the window can rewind lifetime stats; saturate
        // rather than wrap so monotonic exports stay monotonic.
        let d = u64::saturating_sub;
        let events = d(s1.events, s0.events);
        pmorph_obs::counter!("sim.events").add(events);
        pmorph_obs::counter!("sim.evals").add(d(s1.evals, s0.evals));
        pmorph_obs::counter!("sim.net_toggles").add(d(s1.net_toggles, s0.net_toggles));
        pmorph_obs::counter!("sim.resolve_fast_hits")
            .add(d(s1.resolve_fast_hits, s0.resolve_fast_hits));
        pmorph_obs::counter!("sim.wheel_events").add(d(s1.wheel_events, s0.wheel_events));
        pmorph_obs::counter!("sim.overflow_events").add(d(s1.overflow_events, s0.overflow_events));
        pmorph_obs::gauge!("sim.max_queue").set_max(s1.max_queue as f64);
        pmorph_obs::counter!("sim.queue.scans").add(d(q1.scans, q0.scans));
        pmorph_obs::counter!("sim.queue.scan_steps").add(d(q1.scan_steps, q0.scan_steps));
        pmorph_obs::counter!("sim.queue.refill_events").add(d(q1.refill_events, q0.refill_events));
        pmorph_obs::counter!("sim.queue.past_clamps").add(d(q1.past_clamps, q0.past_clamps));
        let ns = t0.elapsed().as_nanos() as u64;
        pmorph_obs::span!("sim.run").record_ns(ns);
        pmorph_obs::histogram!("sim.run_ns", pmorph_obs::bounds::TIME_NS).observe(ns);
        if ns > 0 && events > 0 {
            pmorph_obs::gauge!("sim.events_per_sec").set(events as f64 * 1.0e9 / ns as f64);
        }
        if pmorph_obs::trace::enabled() {
            // Reuses `t0` from the metrics baseline: no extra clock reads
            // beyond what the metrics layer already paid for.
            pmorph_obs::trace::complete("sim.run", "sim", t0, ns);
            pmorph_obs::trace::counter("sim.queue_depth", s1.max_queue as f64);
        }
    }

    /// Apply every event sharing the earliest timestamp, then re-evaluate
    /// affected components once. Returns the number of events applied.
    fn step_one_timestamp(&mut self) -> u64 {
        let t = match self.queue.peek_key() {
            Some(key) => key.time,
            None => return 0,
        };
        self.time = t;
        let mut applied = 0u64;
        while let Some(key) = self.queue.peek_key() {
            if key.time != t {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            let slot = &mut self.slots[ev.slot as usize];
            if !ev.forced {
                if ev.version != slot.version {
                    continue; // cancelled by a later inertial reschedule
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
        // Recompute resolved values for dirty nets, walking the list in
        // place (nothing is appended during resolution).
        let mut di = 0;
        while di < self.dirty_nets.len() {
            let n = self.dirty_nets[di] as usize;
            di += 1;
            self.net_dirty_flag[n] = false;
            let resolved = self.resolve_net(NetId(n as u32));
            if resolved != self.values[n] {
                self.values[n] = resolved;
                self.stats.net_toggles += 1;
                if let Some(tr) = &mut self.traces[n] {
                    tr.push((t, resolved));
                }
                let start = self.fanout_off[n] as usize;
                let end = self.fanout_off[n + 1] as usize;
                for fi in start..end {
                    let c = self.fanout[fi].0;
                    if !self.comp_dirty_flag[c as usize] {
                        self.comp_dirty_flag[c as usize] = true;
                        self.dirty_comps.push(c);
                    }
                }
            }
        }
        self.dirty_nets.clear();
        self.eval_dirty_comps();
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
        applied.max(1)
    }

    fn resolve_net(&mut self, net: NetId) -> Logic {
        let i = net.0 as usize;
        let ext = self.slots[self.external_slot[i] as usize].value;
        let start = self.driver_off[i] as usize;
        let end = self.driver_off[i + 1] as usize;
        match end - start {
            0 => ext,
            1 => {
                // The dominant case — one component driver plus the external
                // slot — resolves with exactly two slot reads.
                self.stats.resolve_fast_hits += 1;
                ext.resolve(self.slots[self.driver_slot[start] as usize].value)
            }
            _ => {
                let mut acc = ext;
                for &ds in &self.driver_slot[start..end] {
                    acc = acc.resolve(self.slots[ds as usize].value);
                }
                acc
            }
        }
    }

    fn mark_comp_dirty(&mut self, comp: u32) {
        if !self.comp_dirty_flag[comp as usize] {
            self.comp_dirty_flag[comp as usize] = true;
            self.dirty_comps.push(comp);
        }
    }

    fn eval_dirty_comps(&mut self) {
        // Ascending component id is the documented intra-timestep
        // determinism rule.
        self.dirty_comps.sort_unstable();
        let now = self.time;
        let mut out = [Logic::Z; MAX_OUTPUTS];
        let mut di = 0;
        while di < self.dirty_comps.len() {
            let c = self.dirty_comps[di] as usize;
            di += 1;
            self.comp_dirty_flag[c] = false;
            if self.netlist.comps[c].is_generator() {
                continue; // generators schedule themselves
            }
            self.stats.evals += 1;
            let nports = self.netlist.comps[c].evaluate_into(&self.values, &mut out);
            let delay = self.netlist.delays[c].max(1);
            let base = self.comp_slot_base[c];
            for (port, &value) in out.iter().enumerate().take(nports) {
                self.schedule(base + port as u32, value, now + delay, None);
            }
        }
        self.dirty_comps.clear();
    }

    fn arm_generator(&mut self, comp: CompId) {
        let now = self.time;
        if let Some((t, port, value)) = self.netlist.comps[comp.0 as usize].next_generated(now) {
            let slot = self.comp_slot_base[comp.0 as usize] + port as u32;
            let slot_ref = &mut self.slots[slot as usize];
            slot_ref.version = slot_ref.version.wrapping_add(1);
            slot_ref.pending = Some((t, value));
            let version = slot_ref.version;
            let key = EventKey { time: t.max(now), seq: self.seq };
            self.seq += 1;
            self.push_event(Event {
                key,
                slot,
                value,
                version,
                generator: Some(comp),
                forced: false,
            });
        }
    }

    /// Single-pending inertial scheduling. Cancellation is O(1): bumping the
    /// slot version orphans the queued event, which the pop loop skips.
    fn schedule(&mut self, slot: u32, value: Logic, time: u64, generator: Option<CompId>) {
        let s = &mut self.slots[slot as usize];
        match s.pending {
            Some((_, pv)) if pv == value => return, // already heading there
            Some(_) => {
                s.version = s.version.wrapping_add(1); // cancel pending
                if value == s.value {
                    s.pending = None;
                    return; // glitch swallowed
                }
            }
            None => {
                if value == s.value {
                    return; // no change
                }
                s.version = s.version.wrapping_add(1);
            }
        }
        s.pending = Some((time, value));
        let version = s.version;
        let key = EventKey { time, seq: self.seq };
        self.seq += 1;
        self.push_event(Event { key, slot, value, version, generator, forced: false });
    }

    fn push_event(&mut self, ev: Event) {
        if self.queue.push(ev) {
            self.stats.overflow_events += 1;
        } else {
            self.stats.wheel_events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Component, DriveMode};

    fn nand2() -> (Netlist, NetId, NetId, NetId) {
        let mut nl = Netlist::new();
        let a = nl.add_net();
        let b = nl.add_net();
        let y = nl.add_net();
        nl.add_comp(Component::Nand { inputs: vec![a, b], output: y }, 10);
        (nl, a, b, y)
    }

    #[test]
    fn nand_settles_truth_table() {
        for (va, vb, want) in [
            (Logic::L0, Logic::L0, Logic::L1),
            (Logic::L0, Logic::L1, Logic::L1),
            (Logic::L1, Logic::L0, Logic::L1),
            (Logic::L1, Logic::L1, Logic::L0),
        ] {
            let (nl, a, b, y) = nand2();
            let mut sim = Simulator::new(nl);
            sim.drive(a, va);
            sim.drive(b, vb);
            sim.settle(1000).unwrap();
            assert_eq!(sim.value(y), want, "NAND({va},{vb})");
        }
    }

    #[test]
    fn inverter_chain_delay_accumulates() {
        let mut nl = Netlist::new();
        let mut prev = nl.add_net();
        let input = prev;
        for _ in 0..4 {
            let next = nl.add_net();
            nl.add_comp(Component::Inv { input: prev, output: next }, 7);
            prev = next;
        }
        let out = prev;
        let mut sim = Simulator::new(nl);
        sim.drive(input, Logic::L0);
        sim.settle(1000).unwrap();
        assert_eq!(sim.value(out), Logic::L0);
        sim.watch(out);
        sim.drive(input, Logic::L1);
        let t0 = sim.time();
        sim.settle(1000).unwrap();
        let tr = sim.trace(out);
        // initial sample + one transition, 4 gates * 7ps after the drive
        assert_eq!(tr.last().unwrap().1, Logic::L1);
        assert_eq!(tr.last().unwrap().0, t0 + 4 * 7);
    }

    #[test]
    fn inertial_delay_swallows_short_glitch() {
        let mut nl = Netlist::new();
        let a = nl.add_net();
        let y = nl.add_net();
        nl.add_comp(Component::Buf { input: a, output: y }, 100);
        let mut sim = Simulator::new(nl);
        sim.drive(a, Logic::L0);
        sim.settle(100).unwrap();
        sim.watch(y);
        // 30ps pulse, shorter than the 100ps inertial delay: swallowed.
        sim.drive_at(a, Logic::L1, 1_000);
        sim.drive_at(a, Logic::L0, 1_030);
        sim.settle(1000).unwrap();
        let toggles: Vec<_> = sim.trace(y).iter().skip(1).collect();
        assert!(toggles.is_empty(), "glitch should be swallowed, saw {toggles:?}");
        // 200ps pulse passes.
        sim.drive_at(a, Logic::L1, 2_000);
        sim.drive_at(a, Logic::L0, 2_200);
        sim.settle(1000).unwrap();
        let toggles: Vec<_> = sim.trace(y).iter().skip(1).collect();
        assert_eq!(toggles.len(), 2, "full pulse passes: {toggles:?}");
    }

    /// NAND-gated ring oscillator: stable while `en=0`, oscillates at `en=1`.
    fn gated_ring(stage_delay: u64) -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new();
        let en = nl.add_net();
        let a = nl.add_net();
        let b = nl.add_net();
        let c = nl.add_net();
        nl.add_comp(Component::Nand { inputs: vec![en, c], output: a }, stage_delay);
        nl.add_comp(Component::Inv { input: a, output: b }, stage_delay);
        nl.add_comp(Component::Inv { input: b, output: c }, stage_delay);
        (nl, en, a)
    }

    #[test]
    fn ring_oscillator_hits_event_limit() {
        let (nl, en, _a) = gated_ring(5);
        let mut sim = Simulator::new(nl);
        sim.drive(en, Logic::L0);
        sim.settle(1_000).unwrap();
        sim.drive(en, Logic::L1);
        let err = sim.settle(10_000).unwrap_err();
        assert!(matches!(err, SimError::EventLimit { .. }));
    }

    #[test]
    fn event_limit_reports_actual_event_count() {
        let (nl, en, _a) = gated_ring(5);
        let mut sim = Simulator::new(nl);
        sim.drive(en, Logic::L0);
        sim.settle(1_000).unwrap();
        sim.drive(en, Logic::L1);
        let budget = 10_000;
        let err = sim.settle(budget).unwrap_err();
        let SimError::EventLimit { events, time } = err else {
            panic!("expected EventLimit, got {err:?}");
        };
        // The reported count is what the simulator actually applied (its
        // lifetime stats), not the caller's budget.
        assert_eq!(events, sim.stats().events);
        assert_eq!(time, sim.time());
        assert_ne!(events, budget, "must not echo the budget back");
    }

    #[test]
    fn ring_oscillator_period_via_run_until() {
        // 3 stages x 5ps: half-period = 3 * 5 = 15ps.
        let (nl, en, a) = gated_ring(5);
        let mut sim = Simulator::new(nl);
        sim.drive(en, Logic::L0);
        sim.settle(1_000).unwrap();
        sim.watch(a);
        sim.drive(en, Logic::L1);
        sim.run_until(1_000, 1_000_000).unwrap();
        let tr = sim.trace(a);
        let definite: Vec<_> = tr.iter().filter(|(_, v)| v.is_definite()).collect();
        assert!(definite.len() > 10, "should oscillate: {definite:?}");
        let periods: Vec<u64> = definite.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(periods.iter().rev().take(5).all(|&p| p == 15), "{periods:?}");
    }

    #[test]
    fn tristate_bus_resolution() {
        let mut nl = Netlist::new();
        let d0 = nl.add_net();
        let d1 = nl.add_net();
        let e0 = nl.add_net();
        let e1 = nl.add_net();
        let bus = nl.add_net();
        nl.add_comp(
            Component::TriBuf { input: d0, enable: e0, output: bus, mode: DriveMode::NonInverting },
            5,
        );
        nl.add_comp(
            Component::TriBuf { input: d1, enable: e1, output: bus, mode: DriveMode::Inverting },
            5,
        );
        let mut sim = Simulator::new(nl);
        for (n, v) in [(d0, Logic::L1), (d1, Logic::L1), (e0, Logic::L0), (e1, Logic::L0)] {
            sim.drive(n, v);
        }
        sim.settle(1000).unwrap();
        assert_eq!(sim.value(bus), Logic::Z, "nobody driving");
        sim.drive(e0, Logic::L1);
        sim.settle(1000).unwrap();
        assert_eq!(sim.value(bus), Logic::L1, "driver 0 active");
        sim.drive(e1, Logic::L1);
        sim.settle(1000).unwrap();
        assert_eq!(sim.value(bus), Logic::X, "1 vs inverted 1 = conflict");
        sim.drive(e0, Logic::L0);
        sim.settle(1000).unwrap();
        assert_eq!(sim.value(bus), Logic::L0, "inverting driver alone");
    }

    #[test]
    fn clock_generator_toggles() {
        let mut nl = Netlist::new();
        let clk = nl.add_net();
        nl.add_comp(
            Component::Clock { output: clk, half_period: 50, phase: 10, value: Logic::L0 },
            1,
        );
        let mut sim = Simulator::new(nl);
        sim.watch(clk);
        sim.run_until(500, 100_000).unwrap();
        let tr: Vec<_> = sim.trace(clk).iter().filter(|(_, v)| v.is_definite()).cloned().collect();
        assert_eq!(tr[0], (0, Logic::L0), "clock rests at its start level");
        assert_eq!(tr[1], (10, Logic::L1), "first edge at phase");
        assert_eq!(tr[2], (60, Logic::L0));
        assert_eq!(tr[3], (110, Logic::L1));
    }

    #[test]
    fn slow_clock_exercises_overflow_path() {
        // Half-period far beyond the wheel window: every edge is scheduled
        // through the sorted overflow and refilled as the window advances.
        let mut nl = Netlist::new();
        let clk = nl.add_net();
        nl.add_comp(
            Component::Clock { output: clk, half_period: 7_000, phase: 3_000, value: Logic::L0 },
            1,
        );
        let mut sim = Simulator::new(nl);
        sim.watch(clk);
        sim.run_until(40_000, 100_000).unwrap();
        let tr: Vec<_> = sim.trace(clk).iter().filter(|(_, v)| v.is_definite()).cloned().collect();
        assert_eq!(tr[0], (0, Logic::L0));
        assert_eq!(tr[1], (3_000, Logic::L1));
        assert_eq!(tr[2], (10_000, Logic::L0));
        assert_eq!(tr[3], (17_000, Logic::L1));
        assert!(sim.stats().overflow_events > 0, "edges must traverse the overflow heap");
    }

    #[test]
    fn stimulus_playback() {
        let mut nl = Netlist::new();
        let s = nl.add_net();
        nl.add_comp(
            Component::Stimulus {
                output: s,
                events: vec![(5, Logic::L1), (20, Logic::L0), (21, Logic::L1)],
                next: 0,
            },
            1,
        );
        let mut sim = Simulator::new(nl);
        sim.watch(s);
        sim.settle(1000).unwrap();
        let tr: Vec<_> = sim.trace(s).iter().filter(|(_, v)| v.is_definite()).cloned().collect();
        assert_eq!(tr, vec![(5, Logic::L1), (20, Logic::L0), (21, Logic::L1)]);
    }

    #[test]
    fn dff_in_circuit_with_clock() {
        let mut nl = Netlist::new();
        let d = nl.add_net();
        let clk = nl.add_net();
        let q = nl.add_net();
        nl.add_comp(
            Component::Clock { output: clk, half_period: 100, phase: 100, value: Logic::L0 },
            1,
        );
        nl.add_comp(
            Component::Dff { d, clk, reset_n: None, q, last_clk: Logic::X, state: Logic::L0 },
            10,
        );
        let mut sim = Simulator::new(nl);
        sim.drive(d, Logic::L1);
        sim.run_until(150, 100_000).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "captured on rising edge at t=100");
        sim.drive(d, Logic::L0);
        sim.run_until(250, 100_000).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "holds through falling edge");
        sim.run_until(350, 100_000).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "captures new value at t=300");
    }

    #[test]
    fn determinism_identical_traces() {
        let build = || {
            let mut nl = Netlist::new();
            let a = nl.add_net();
            let b = nl.add_net();
            let c = nl.add_net();
            let d = nl.add_net();
            nl.add_comp(Component::Nand { inputs: vec![a, b], output: c }, 7);
            nl.add_comp(Component::Nand { inputs: vec![c, a], output: d }, 9);
            nl.add_comp(
                Component::Clock { output: b, half_period: 13, phase: 3, value: Logic::L0 },
                1,
            );
            (nl, a, d)
        };
        let run = || {
            let (nl, a, d) = build();
            let mut sim = Simulator::new(nl);
            sim.watch(d);
            sim.drive(a, Logic::L1);
            sim.run_until(2_000, 1_000_000).unwrap();
            sim.trace(d).to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resolve_fast_path_dominates_single_driver_nets() {
        let (nl, a, b, _y) = nand2();
        let mut sim = Simulator::new(nl);
        sim.drive(a, Logic::L1);
        sim.drive(b, Logic::L1);
        sim.settle(1000).unwrap();
        assert!(sim.stats().resolve_fast_hits > 0, "y has exactly one driver");
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        // A clocked feedback circuit with a Dff, so component state,
        // pending generator events and slot versions all matter.
        let build = || {
            let mut nl = Netlist::new();
            let d = nl.add_net();
            let clk = nl.add_net();
            let q = nl.add_net();
            let nq = nl.add_net();
            nl.add_comp(
                Component::Clock { output: clk, half_period: 40, phase: 25, value: Logic::L0 },
                1,
            );
            nl.add_comp(
                Component::Dff { d, clk, reset_n: None, q, last_clk: Logic::X, state: Logic::L0 },
                7,
            );
            nl.add_comp(Component::Inv { input: q, output: nq }, 3);
            (nl, d, q, nq)
        };
        let (nl, d, q, nq) = build();
        let mut sim = Simulator::new(nl);
        sim.drive(d, Logic::L1);
        sim.run_until(100, 100_000).unwrap();
        let snap = sim.snapshot();
        let go = |sim: &mut Simulator| {
            sim.drive(d, Logic::L0);
            sim.run_until(500, 100_000).unwrap();
            (sim.value(q), sim.value(nq), sim.time(), sim.stats())
        };
        let first = go(&mut sim);
        sim.restore(&snap);
        let second = go(&mut sim);
        assert_eq!(first, second, "restored run must replay bit-identically");
    }

    #[test]
    fn snapshot_restore_equals_fresh_simulator() {
        // Restoring a t=0 snapshot must be indistinguishable from building
        // a new Simulator — the contract the sweep paths rely on.
        let (nl, a, b, y) = nand2();
        let mut reused = Simulator::new(nl.clone());
        let snap = reused.snapshot();
        for vector in 0..4u8 {
            let (va, vb) = (Logic::from_bool(vector & 1 == 1), Logic::from_bool(vector & 2 == 2));
            reused.restore(&snap);
            reused.drive(a, va);
            reused.drive(b, vb);
            reused.settle(1000).unwrap();
            let mut fresh = Simulator::new(nl.clone());
            fresh.drive(a, va);
            fresh.drive(b, vb);
            fresh.settle(1000).unwrap();
            assert_eq!(reused.value(y), fresh.value(y));
            assert_eq!(reused.stats().events, fresh.stats().events);
            assert_eq!(reused.time(), fresh.time());
        }
    }
}

//! Sutherland micropipelines (paper Fig. 11).
//!
//! Two-phase (transition-signalling) FIFO: a chain of Muller C-elements
//! forms the control spine,
//!
//! ```text
//! c_i = C(delay(c_{i−1}), ¬c_{i+1})
//! ```
//!
//! and each stage's event-controlled storage element (ECSE) is a latch
//! that is **transparent while `c_i == c_{i+1}`** (stage empty) and
//! **opaque while they differ** (stage holding a token). The matched
//! `DELAY` boxes of Fig. 11 bound the data-path settling time, exactly as
//! in the bundled-data discipline.
//!
//! The builder also offers a *free-running* configuration — request tied
//! to the inverted first ack, sink ack a delayed copy of the last request
//! — which turns the whole pipeline into a self-timed ring whose
//! steady-state period is its cycle time (measured by the Fig. 11 bench).

use pmorph_sim::{Component, Logic, NetId, Netlist, NetlistBuilder, SimError, Simulator};

/// A constructed micropipeline netlist plus its port directory.
#[derive(Clone, Debug)]
pub struct Micropipeline {
    /// The netlist (behavioural C-elements, latches, delays).
    pub netlist: Netlist,
    /// Stage count.
    pub stages: usize,
    /// Data width.
    pub width: usize,
    /// Request input (2-phase: toggle to send).
    pub req_in: NetId,
    /// Acknowledge back to the producer (= first stage's control).
    pub ack_out: NetId,
    /// Request to the consumer (= last stage's control).
    pub req_out: NetId,
    /// Acknowledge input from the consumer.
    pub ack_in: NetId,
    /// Data inputs.
    pub data_in: Vec<NetId>,
    /// Data outputs.
    pub data_out: Vec<NetId>,
    /// Per-stage control nets `c_1..=c_N`.
    pub ctrl: Vec<NetId>,
}

/// Build an `stages`-deep, `width`-bit micropipeline. `stage_delay_ps` is
/// the matched (bundled-data) delay per stage; `latch_delay_ps` the ECSE
/// latch delay.
pub fn build(
    stages: usize,
    width: usize,
    stage_delay_ps: u64,
    latch_delay_ps: u64,
) -> Micropipeline {
    assert!(stages >= 1);
    let mut b = NetlistBuilder::new();
    let req_in = b.net();
    let ack_in = b.net();
    let data_in: Vec<NetId> = (0..width).map(|_| b.net()).collect();

    // Control spine.
    let ctrl: Vec<NetId> = (0..stages).map(|_| b.net()).collect();
    for i in 0..stages {
        let prev = if i == 0 { req_in } else { ctrl[i - 1] };
        // matched delay on the request path (Fig. 11's DELAY box)
        let delayed = b.net();
        b.delay_into(prev, delayed, stage_delay_ps);
        let next_ack = if i + 1 < stages { ctrl[i + 1] } else { ack_in };
        let nack = b.inv(next_ack);
        b.comp(Component::CElement { a: delayed, b: nack, output: ctrl[i], state: Logic::L0 }, 10);
    }

    // Data path: ECSE latch per stage per bit; transparent while
    // c_i == c_{i+1} (XNOR enable).
    let mut stage_in = data_in.clone();
    let mut data_out = Vec::new();
    for i in 0..stages {
        let next_c = if i + 1 < stages { ctrl[i + 1] } else { ack_in };
        let x = b.xor(&[ctrl[i], next_c]);
        let en = b.inv(x);
        let mut outs = Vec::with_capacity(width);
        for &d in &stage_in {
            let q = b.net();
            b.comp(Component::Latch { d, en, q, state: Logic::L0 }, latch_delay_ps);
            outs.push(q);
        }
        stage_in = outs.clone();
        data_out = outs;
    }

    Micropipeline {
        netlist: b.build(),
        stages,
        width,
        req_in,
        ack_out: ctrl[0],
        req_out: ctrl[stages - 1],
        ack_in,
        data_in,
        data_out,
        ctrl,
    }
}

/// Wrap a pipeline into a free-running ring: the producer toggles the
/// request as soon as it is acknowledged (`req = ¬ack_out` after
/// `source_delay`), and the consumer acknowledges every token after
/// `sink_delay`. The returned netlist oscillates at the pipeline's cycle
/// time.
pub fn free_running(
    stages: usize,
    stage_delay_ps: u64,
    source_delay_ps: u64,
    sink_delay_ps: u64,
) -> (Netlist, NetId) {
    let p = build(stages, 0, stage_delay_ps, 5);
    let mut nl = p.netlist;
    // consumer: ack = delayed copy of req_out
    nl.add_comp(Component::Buf { input: p.req_out, output: p.ack_in }, sink_delay_ps);
    // producer: req = inverted ack_out
    nl.add_comp(Component::Inv { input: p.ack_out, output: p.req_in }, source_delay_ps);
    (nl, p.ack_out)
}

/// Measure the steady-state cycle time (ps) of a free-running pipeline by
/// timing transitions on the first stage's control net.
pub fn measure_cycle_time(
    stages: usize,
    stage_delay_ps: u64,
    source_delay_ps: u64,
    sink_delay_ps: u64,
) -> Result<u64, SimError> {
    let (nl, probe) = free_running(stages, stage_delay_ps, source_delay_ps, sink_delay_ps);
    let mut sim = Simulator::new(nl);
    sim.watch(probe);
    let horizon = (stage_delay_ps + source_delay_ps + sink_delay_ps + 100) * 200;
    sim.run_until(horizon, 50_000_000)?;
    let edges: Vec<u64> =
        sim.trace(probe).iter().filter(|(_, v)| v.is_definite()).map(|(t, _)| *t).collect();
    assert!(edges.len() >= 8, "ring must run: {} edges", edges.len());
    // steady state: average over the last few full cycles (2 edges/cycle)
    let k = edges.len();
    Ok((edges[k - 1] - edges[k - 7]) / 3)
}

/// Host-side 2-phase producer/consumer used by the correctness tests and
/// the Fig. 11 bench: pushes a sequence through the FIFO and pops it,
/// checking conservation and order.
pub struct PipelineHarness {
    /// The simulator.
    pub sim: Simulator,
    pipe: Micropipeline,
    req_phase: bool,
    ack_phase: bool,
}

impl PipelineHarness {
    /// Budget per settle call.
    const SETTLE: u64 = 10_000_000;

    /// Build and initialise (everything low).
    pub fn new(stages: usize, width: usize, stage_delay_ps: u64) -> Self {
        let pipe = build(stages, width, stage_delay_ps, 5);
        let mut sim = Simulator::new(pipe.netlist.clone());
        sim.drive(pipe.req_in, Logic::L0);
        sim.drive(pipe.ack_in, Logic::L0);
        for &d in &pipe.data_in {
            sim.drive(d, Logic::L0);
        }
        sim.settle(Self::SETTLE).expect("init settles");
        PipelineHarness { sim, pipe, req_phase: false, ack_phase: false }
    }

    /// Can the producer send (ack caught up with req)?
    pub fn can_send(&self) -> bool {
        self.sim.value(self.pipe.ack_out) == Logic::from_bool(self.req_phase)
    }

    /// Push one word (asserts the FIFO accepted it).
    pub fn send(&mut self, word: u64) {
        assert!(self.can_send(), "producer blocked");
        for (i, &d) in self.pipe.data_in.iter().enumerate() {
            self.sim.drive(d, Logic::from_bool(word >> i & 1 == 1));
        }
        self.req_phase = !self.req_phase;
        self.sim.drive(self.pipe.req_in, Logic::from_bool(self.req_phase));
        self.sim.settle(Self::SETTLE).expect("send settles");
    }

    /// Is a word waiting at the consumer?
    pub fn can_recv(&self) -> bool {
        self.sim.value(self.pipe.req_out) == Logic::from_bool(!self.ack_phase)
    }

    /// Pop one word.
    pub fn recv(&mut self) -> Option<u64> {
        if !self.can_recv() {
            return None;
        }
        let word = pmorph_sim::logic::to_u64(
            &self.pipe.data_out.iter().map(|&n| self.sim.value(n)).collect::<Vec<_>>(),
        )?;
        self.ack_phase = !self.ack_phase;
        self.sim.drive(self.pipe.ack_in, Logic::from_bool(self.ack_phase));
        self.sim.settle(Self::SETTLE).expect("recv settles");
        Some(word)
    }

    /// Stage count.
    pub fn stages(&self) -> usize {
        self.pipe.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_passes_sequence_in_order() {
        let mut h = PipelineHarness::new(4, 8, 20);
        let sent: Vec<u64> = vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88];
        let mut got = Vec::new();
        let mut to_send = sent.clone().into_iter();
        let mut pending = to_send.next();
        while got.len() < sent.len() {
            let mut progressed = false;
            if let Some(w) = pending {
                if h.can_send() {
                    h.send(w);
                    pending = to_send.next();
                    progressed = true;
                }
            }
            if let Some(w) = h.recv() {
                got.push(w);
                progressed = true;
            }
            assert!(progressed, "FIFO deadlocked with {got:?}");
        }
        assert_eq!(got, sent, "tokens conserved, in order");
    }

    #[test]
    fn fifo_buffers_up_to_capacity() {
        // An n-stage 2-phase micropipeline holds n tokens in its stages
        // plus one pending on the request wires (the producer may toggle
        // once more before c₁ acknowledges): capacity n+1.
        let mut h = PipelineHarness::new(3, 4, 20);
        let mut pushed = 0;
        for w in 1..=10u64 {
            if h.can_send() {
                h.send(w);
                pushed += 1;
            } else {
                break;
            }
        }
        assert_eq!(pushed, h.stages() + 1, "capacity = stages + 1");
        // Draining frees space again.
        assert_eq!(h.recv(), Some(1));
        assert!(h.can_send(), "space after drain");
    }

    #[test]
    fn free_running_ring_cycle_time_scales_with_stage_delay() {
        let fast = measure_cycle_time(4, 10, 5, 5).unwrap();
        let slow = measure_cycle_time(4, 40, 5, 5).unwrap();
        assert!(slow > fast, "cycle time follows matched delay: {fast} vs {slow}");
        assert!(slow < 6 * fast, "but stays roughly proportional: {fast} vs {slow}");
    }

    #[test]
    fn deeper_pipeline_same_cycle_time() {
        // Throughput of a micropipeline is set per-stage, not by depth.
        let d2 = measure_cycle_time(2, 20, 5, 5).unwrap();
        let d8 = measure_cycle_time(8, 20, 5, 5).unwrap();
        let ratio = d8 as f64 / d2 as f64;
        assert!((0.5..2.0).contains(&ratio), "cycle time depth-independent: {d2} vs {d8}");
    }

    #[test]
    fn empty_pipeline_has_nothing_to_recv() {
        let mut h = PipelineHarness::new(3, 4, 10);
        assert!(!h.can_recv());
        assert_eq!(h.recv(), None);
    }
}

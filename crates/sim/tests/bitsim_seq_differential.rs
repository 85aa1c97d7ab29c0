//! Differential properties for the sequential bit-parallel kernel:
//! `SeqBitSim::step_cycle` ⇔ the event-driven `Simulator`, lane by lane,
//! on random registered netlists from `support::testgen::random_registered`
//! (clock + DFF, with reset and wheel-overflow-spanning clock periods),
//! and `SeqBitSim::step_cycles(n)` ⇔ `n` single `step_cycle` calls, which
//! pins the fixed-point exit.
//!
//! Protocol: the event oracle instantiates the circuit's real `Clock`
//! generator (phase 0, rising edges at odd multiples of the half-period);
//! stimulus for virtual cycle `k` is driven just after the preceding
//! falling edge, and planes are compared against the oracle's settled
//! values one full half-period after rising edge `k`. A known lane must
//! match the oracle's definite value exactly; an unknown lane must read
//! `X`/`Z` in the oracle — the plane encoding and the scalar engine
//! implement the same Kleene gate rules, so agreement is exact, not
//! merely conservative.
//!
//! No experiment builds a `SeqBitSim`: its callers are the job server's
//! `seq_sweep` (payload bytes pinned in `crates/serve/tests/determinism.rs`)
//! and two benches. CI runs this suite at `PMORPH_THREADS ∈ {1, 8}`.

mod support;

use pmorph_exec::SweepConfig;
use pmorph_sim::bitsim::{sweep_seq_truth, SeqBitSim};
use pmorph_sim::netlist::NetId;
use pmorph_sim::table::WideMask;
use pmorph_sim::{Logic, Simulator};
use pmorph_util::prop;
use pmorph_util::prop_assert;
use pmorph_util::prop_assert_eq;
use support::testgen::{random_registered, RegisteredCircuit};

/// Per-cycle, per-input stimulus planes: `(val, known)` — unknown lanes
/// are driven as `X` into the oracle.
type Stimulus = Vec<Vec<(u64, u64)>>;

fn lane_logic(v: u64, k: u64, lane: u32) -> Logic {
    if k >> lane & 1 == 1 {
        Logic::from_bool(v >> lane & 1 == 1)
    } else {
        Logic::X
    }
}

/// Drive the event-driven oracle through `cycles` virtual clock cycles of
/// one stimulus lane and return the settled value of each watched net
/// after every rising edge.
fn run_oracle(
    circuit: &RegisteredCircuit,
    drive_nets: &[NetId],
    stim: &Stimulus,
    watch: &[NetId],
    lane: u32,
) -> Vec<Vec<Logic>> {
    let mut sim = Simulator::new(circuit.netlist.clone());
    let half = circuit.half_period;
    let mut settled = Vec::with_capacity(stim.len());
    for (cycle, planes) in stim.iter().enumerate() {
        let k = cycle as u64;
        // just after the preceding falling edge (t = 2k·half), well before
        // rising edge k at (2k+1)·half
        let t_drive = 2 * k * half + 1;
        for (i, &net) in drive_nets.iter().enumerate() {
            let (v, kn) = planes[i];
            sim.drive_at(net, lane_logic(v, kn, lane), t_drive);
        }
        // settle one full half-period past the rising edge
        sim.run_until((2 * k + 2) * half, 50_000_000).unwrap();
        settled.push(watch.iter().map(|&n| sim.value(n)).collect());
    }
    settled
}

#[test]
fn step_cycle_matches_event_oracle_lane_by_lane() {
    prop::check("seq_bitsim_vs_event", 48, |g| {
        let c = random_registered(g);
        let mut seq = SeqBitSim::new(c.netlist.clone()).unwrap();
        prop_assert_eq!(seq.clock_nets(), std::slice::from_ref(&c.clk), "clock virtualized");

        // everything drivable: data inputs plus the shared reset (kept
        // mostly high so reset and capture interleave per lane)
        let mut drive_nets = c.inputs.clone();
        if let Some(r) = c.reset_n {
            drive_nets.push(r);
        }
        let cycles = g.in_range(2usize..=5);
        let stim: Stimulus = (0..cycles)
            .map(|_| {
                drive_nets
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        let is_reset = c.reset_n.is_some() && i == drive_nets.len() - 1;
                        let val = g.u64() | if is_reset { g.u64() | g.u64() } else { 0 };
                        // occasional X lanes, on data and reset alike
                        let known = if g.bool() { u64::MAX } else { g.u64() | g.u64() };
                        (val & known, known)
                    })
                    .collect()
            })
            .collect();

        // watch the sampled outputs and every register
        let mut watch = c.outputs.clone();
        watch.extend(&c.registers);
        watch.sort_unstable();
        watch.dedup();

        // kernel leg: one step_cycle per stimulus row, planes recorded
        let mut plane_rows = Vec::with_capacity(cycles);
        for planes in &stim {
            for (i, &net) in drive_nets.iter().enumerate() {
                let (v, k) = planes[i];
                seq.set_input(net, v, k);
            }
            seq.step_cycle();
            plane_rows.push(watch.iter().map(|&n| seq.plane(n)).collect::<Vec<(u64, u64)>>());
        }

        // oracle leg: every lane gets its own scalar event-driven run
        for lane in 0..64u32 {
            let oracle = run_oracle(&c, &drive_nets, &stim, &watch, lane);
            for (cycle, row) in oracle.iter().enumerate() {
                for (w, &ov) in row.iter().enumerate() {
                    let (v, k) = plane_rows[cycle][w];
                    if k >> lane & 1 == 1 {
                        prop_assert_eq!(
                            Logic::from_bool(v >> lane & 1 == 1),
                            ov,
                            "half={} cycle={} lane={} net={:?}",
                            c.half_period,
                            cycle,
                            lane,
                            watch[w]
                        );
                    } else {
                        prop_assert!(
                            matches!(ov, Logic::X | Logic::Z),
                            "unknown lane must be X/Z in oracle: half={} cycle={} lane={} net={:?} oracle={:?}",
                            c.half_period,
                            cycle,
                            lane,
                            watch[w],
                            ov
                        );
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn per_lane_reset_independence_vs_two_oracles() {
    // One 64-lane kernel run where only the low 32 lanes assert reset on
    // cycle 1 must agree with TWO scalar oracles: one that resets, one
    // that never does. Lanes are fully independent state machines.
    prop::check("seq_bitsim_per_lane_reset", 16, |g| {
        let c = random_registered(g);
        let Some(rst) = c.reset_n else { return Ok(()) };
        let mut seq = SeqBitSim::new(c.netlist.clone()).unwrap();

        let mut drive_nets = c.inputs.clone();
        drive_nets.push(rst);
        let low = 0x0000_0000_FFFF_FFFFu64;
        // cycle 0: everything runs with reset deasserted; cycle 1: reset
        // asserted in the low lanes only; cycle 2: deasserted again
        let stim: Stimulus = (0..3usize)
            .map(|cycle| {
                drive_nets
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        if i == drive_nets.len() - 1 {
                            let rn = if cycle == 1 { !low } else { u64::MAX };
                            (rn, u64::MAX)
                        } else {
                            // same data in every lane so the only
                            // divergence is the reset itself
                            let v = if g.bool() { u64::MAX } else { 0 };
                            (v, u64::MAX)
                        }
                    })
                    .collect()
            })
            .collect();

        let mut watch = c.outputs.clone();
        watch.extend(&c.registers);
        watch.sort_unstable();
        watch.dedup();

        let mut plane_rows = Vec::new();
        for planes in &stim {
            for (i, &net) in drive_nets.iter().enumerate() {
                let (v, k) = planes[i];
                seq.set_input(net, v, k);
            }
            seq.step_cycle();
            plane_rows.push(watch.iter().map(|&n| seq.plane(n)).collect::<Vec<(u64, u64)>>());
        }

        // lane 0 (reset asserted on cycle 1) and lane 63 (never reset)
        for lane in [0u32, 63] {
            let oracle = run_oracle(&c, &drive_nets, &stim, &watch, lane);
            for (cycle, row) in oracle.iter().enumerate() {
                for (w, &ov) in row.iter().enumerate() {
                    let (v, k) = plane_rows[cycle][w];
                    prop_assert_eq!(
                        lane_logic(v, k, lane),
                        ov,
                        "cycle={} lane={} net={:?}",
                        cycle,
                        lane,
                        watch[w]
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn seq_sweep_is_worker_and_geometry_independent_on_registered_circuits() {
    prop::check("seq_sweep_geometry", 12, |g| {
        let c = random_registered(g);
        let proto = SeqBitSim::new(c.netlist.clone()).unwrap();
        let inputs: Vec<NetId> = proto.input_nets().to_vec();
        if inputs.is_empty() || inputs.len() > WideMask::MAX_VARS {
            return Ok(());
        }
        let cycles = g.in_range(1usize..=4);
        let reference = sweep_seq_truth(
            &proto,
            &inputs,
            &c.outputs,
            cycles,
            &SweepConfig::new().with_workers(1),
        );
        for (workers, shard) in [(2usize, 1usize), (3, 2), (8, 4)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard);
            prop_assert_eq!(
                &sweep_seq_truth(&proto, &inputs, &c.outputs, cycles, &cfg),
                &reference,
                "workers={} shard={}",
                workers,
                shard
            );
        }
        Ok(())
    });
}

#[test]
fn zero_cycle_sweep_is_the_combinational_settle_of_the_initial_state() {
    // With no edge the outputs are the cone settled against the power-on
    // registers (reset lanes reading 0); the event oracle reads them just
    // before its first rising edge, one assignment at a time.
    prop::check("seq_sweep_zero_cycles", 24, |g| {
        let c = random_registered(g);
        let proto = SeqBitSim::new(c.netlist.clone()).unwrap();
        let inputs: Vec<NetId> = proto.input_nets().to_vec();
        let n = inputs.len();
        let mut expect: Vec<Option<WideMask>> = vec![Some(WideMask::zero(n)); c.outputs.len()];
        for m in 0..1usize << n {
            let mut sim = Simulator::new(c.netlist.clone());
            for (i, &net) in inputs.iter().enumerate() {
                sim.drive_at(net, Logic::from_bool(m >> i & 1 == 1), 1);
            }
            sim.run_until(c.half_period - 1, 50_000_000).unwrap();
            for (o, &net) in c.outputs.iter().enumerate() {
                match (sim.value(net), expect[o].as_mut()) {
                    (Logic::L1, Some(mask)) => mask.words_mut()[m / 64] |= 1 << (m % 64),
                    (Logic::L0, _) => {}
                    _ => expect[o] = None,
                }
            }
        }
        for (workers, shard) in [(1usize, 1usize), (2, 1), (3, 2), (8, 4)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard);
            prop_assert_eq!(
                &sweep_seq_truth(&proto, &inputs, &c.outputs, 0, &cfg),
                &expect,
                "workers={} shard={}",
                workers,
                shard
            );
        }
        Ok(())
    });
}

#[test]
fn step_cycles_equals_repeated_step_cycle() {
    // Held inputs with X lanes (reset_n among them), random power-on X
    // lanes, and n on both sides of the edge that first changes no
    // register plane. The tallies keep the property from going vacuous:
    // enough cases must stop early with edges left to skip, and enough
    // must run every edge because the state has not settled by then.
    let (mut skipped, mut unsettled) = (0, 0);
    prop::check("seq_step_cycles_skip", 400, |g| {
        let c = random_registered(g);
        let mut fast = SeqBitSim::new(c.netlist.clone()).unwrap();
        for net in fast.input_nets().to_vec() {
            let known = if g.bool() { u64::MAX } else { g.u64() | g.u64() };
            // reset_n mostly deasserted so reset and capture interleave
            let val = if Some(net) == c.reset_n { g.u64() | g.u64() } else { g.u64() };
            fast.set_input(net, val & known, known);
        }
        fast.power_on_lanes(if g.bool() { g.u64() } else { 0 });
        let mut slow = fast.clone();
        // half the cases stay short, where most states have not settled
        let most = if g.bool() { 300 } else { 16 };
        let n = g.in_range(0usize..=most);

        fast.step_cycles(n);
        let mut states = vec![slow.snapshot_state()];
        for _ in 0..n {
            slow.step_cycle();
            states.push(slow.snapshot_state());
        }
        slow.eval(); // settles the planes when n = 0, a no-op otherwise
        prop_assert_eq!(fast.snapshot_state(), slow.snapshot_state(), "state after n={}", n);
        for net in (0..c.netlist.net_count()).map(|i| NetId(i as u32)) {
            prop_assert_eq!(fast.plane(net), slow.plane(net), "n={} net={:?}", n, net);
        }

        // the first of the n edges that left the state as it was
        match states.windows(2).position(|w| w[0] == w[1]) {
            Some(t) => skipped += (t + 1 < n) as u32,
            None => unsettled += (n > 0) as u32,
        }
        Ok(())
    });
    assert!(
        skipped >= 100 && unsettled >= 100,
        "cases that skipped edges: {skipped}, that ran every edge: {unsettled}"
    );
}

#[test]
fn power_on_x_lanes_match_a_never_reset_oracle_with_x_state() {
    // X-at-power-on: lanes cleared by power_on_lanes behave like the
    // event engine does when the flip-flop's declared initial state is X.
    prop::check("seq_bitsim_power_on_x", 12, |g| {
        let c = random_registered(g);
        if c.reset_n.is_some() {
            return Ok(()); // reset would re-define the state; covered above
        }
        // oracle netlist: same circuit but every DFF powers on X
        let mut xnl = c.netlist.clone();
        for comp in &mut xnl.comps {
            if let pmorph_sim::Component::Dff { state, .. } = comp {
                *state = Logic::X;
            }
        }
        let xc = RegisteredCircuit { netlist: xnl, ..c };

        let mut seq = SeqBitSim::new(xc.netlist.clone()).unwrap();
        seq.power_on_lanes(u64::MAX);
        let drive_nets = xc.inputs.clone();
        let stim: Stimulus =
            (0..3usize).map(|_| drive_nets.iter().map(|_| (g.u64(), u64::MAX)).collect()).collect();
        let mut watch = xc.outputs.clone();
        watch.extend(&xc.registers);
        watch.sort_unstable();
        watch.dedup();

        let mut plane_rows = Vec::new();
        for planes in &stim {
            for (i, &net) in drive_nets.iter().enumerate() {
                let (v, k) = planes[i];
                seq.set_input(net, v & k, k);
            }
            seq.step_cycle();
            plane_rows.push(watch.iter().map(|&n| seq.plane(n)).collect::<Vec<(u64, u64)>>());
        }

        for lane in [0u32, 31, 63] {
            let oracle = run_oracle(&xc, &drive_nets, &stim, &watch, lane);
            for (cycle, row) in oracle.iter().enumerate() {
                for (w, &ov) in row.iter().enumerate() {
                    let (v, k) = plane_rows[cycle][w];
                    if k >> lane & 1 == 1 {
                        prop_assert_eq!(
                            Logic::from_bool(v >> lane & 1 == 1),
                            ov,
                            "cycle={} lane={} net={:?}",
                            cycle,
                            lane,
                            watch[w]
                        );
                    } else {
                        prop_assert!(
                            matches!(ov, Logic::X | Logic::Z),
                            "cycle={} lane={} net={:?} oracle={:?}",
                            cycle,
                            lane,
                            watch[w],
                            ov
                        );
                    }
                }
            }
        }
        Ok(())
    });
}

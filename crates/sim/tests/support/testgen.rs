//! Randomized netlist/stimulus generators for property tests.
//!
//! Shared by the kernel-vs-reference differential suite
//! (`differential.rs`), the snapshot/restore property suite
//! (`snapshot_prop.rs`) and the bit-parallel differentials
//! (`bitsim_differential.rs`, `bitsim_seq_differential.rs`). A test
//! fixture, not a modelling surface: it may change shape freely.

use pmorph_sim::netlist::{DriveMode, NetId, Netlist};
use pmorph_sim::{Logic, NetlistBuilder};
use pmorph_util::prop::Gen;

/// Build a random netlist: gates with feedback, optional state elements,
/// optional tri-state bus, optional slow clock (half-period occasionally
/// beyond the 256-slot timing wheel, so events spill into the overflow
/// heap). Returns the netlist plus the externally-driven nets.
pub fn random_netlist(g: &mut Gen) -> (Netlist, Vec<NetId>) {
    let mut b = NetlistBuilder::new().with_default_delay(g.in_range(1u64..=9));
    let inputs: Vec<NetId> = (0..4).map(|_| b.net()).collect();
    let mut pool = inputs.clone();

    // A handful of pre-allocated nets that gates may drive *into*, so the
    // generator can close combinational feedback loops.
    let loop_nets: Vec<NetId> = (0..3).map(|_| b.net()).collect();
    pool.extend(&loop_nets);

    let n_gates = g.in_range(6usize..=20);
    for k in 0..n_gates {
        let x = pool[g.in_range(0..pool.len())];
        let y = pool[g.in_range(0..pool.len())];
        if k < loop_nets.len() && g.bool() {
            // close a loop through a pre-allocated net
            b.nand_into(&[x, y], loop_nets[k]);
            continue;
        }
        let out = match g.in_range(0u32..5) {
            0 => b.nand(&[x, y]),
            1 => b.or(&[x, y]),
            2 => b.xor(&[x, y]),
            3 => b.and(&[x, y]),
            _ => b.inv(x),
        };
        pool.push(out);
    }

    if g.bool() {
        // shared tri-state bus with two drivers and complementary enables
        let bus = b.net();
        let en = pool[g.in_range(0..pool.len())];
        let nen = b.inv(en);
        let d0 = pool[g.in_range(0..pool.len())];
        let d1 = pool[g.in_range(0..pool.len())];
        b.tribuf_into(d0, en, bus, DriveMode::NonInverting);
        b.tribuf_into(d1, nen, bus, DriveMode::Inverting);
        pool.push(bus);
    }

    if g.bool() {
        // clock + DFF; half-period occasionally beyond the 256-slot wheel
        let clk = b.net();
        let half = if g.bool() { g.in_range(2100u64..=6000) } else { g.in_range(3u64..=40) };
        b.clock(clk, half, g.in_range(0u64..=5));
        let d = pool[g.in_range(0..pool.len())];
        let q = b.net();
        b.dff(d, clk, None, q);
        pool.push(q);
    }

    if g.bool() {
        let d = pool[g.in_range(0..pool.len())];
        let en = pool[g.in_range(0..pool.len())];
        let q = b.net();
        b.latch(d, en, q);
        pool.push(q);
    }

    (b.build(), inputs)
}

/// Build a random *pure-combinational* DAG (no feedback, no state, no
/// tri-state) suitable for every exhaustive-sweep path — the levelized
/// evaluators, the bit-parallel kernel, and a per-assignment event-driven
/// simulation all accept it. Returns the netlist, its primary inputs
/// (between 1 and `max_inputs`), and 1–3 output nets sampled from the
/// gate pool.
pub fn random_combinational(g: &mut Gen, max_inputs: usize) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    let mut b = NetlistBuilder::new().with_default_delay(g.in_range(1u64..=9));
    let n_in = g.in_range(1usize..=max_inputs);
    let inputs: Vec<NetId> = (0..n_in).map(|_| b.net()).collect();
    let mut pool = inputs.clone();

    let n_gates = g.in_range(4usize..=24);
    for _ in 0..n_gates {
        let x = pool[g.in_range(0..pool.len())];
        let y = pool[g.in_range(0..pool.len())];
        let z = pool[g.in_range(0..pool.len())];
        let out = match g.in_range(0u32..8) {
            0 => b.nand(&[x, y]),
            1 => b.or(&[x, y]),
            2 => b.xor(&[x, y]),
            3 => b.and(&[x, y]),
            4 => b.inv(x),
            5 => b.nand(&[x, y, z]),
            6 => b.and(&[x, y, z]),
            _ => b.xor(&[x, y, z]),
        };
        pool.push(out);
    }

    let n_out = g.in_range(1usize..=3);
    let outputs: Vec<NetId> = (0..n_out).map(|_| pool[g.in_range(0..pool.len())]).collect();
    (b.build(), inputs, outputs)
}

/// A random *registered* (clocked-sequential) circuit from
/// [`random_registered`], with everything a differential harness needs
/// to drive both the event-driven engine and the sequential bit-parallel
/// kernel over the same netlist.
pub struct RegisteredCircuit {
    pub netlist: Netlist,
    /// Data primary inputs (excludes `reset_n` and the clock).
    pub inputs: Vec<NetId>,
    /// Shared active-low reset input, if any flip-flop has one.
    pub reset_n: Option<NetId>,
    /// The clock net (driven by a free-running `Clock` generator,
    /// phase 0 — first rising edge at `half_period`).
    pub clk: NetId,
    pub half_period: u64,
    /// Flip-flop Q nets, in instantiation order.
    pub registers: Vec<NetId>,
    /// 1–3 observation nets sampled from the gate/register pool.
    pub outputs: Vec<NetId>,
}

/// Build a random registered circuit: 1–3 data inputs, 1–4 D flip-flops
/// (optionally sharing one active-low reset input), and an acyclic
/// combinational DAG over the inputs and register outputs — so register-
/// to-register, input-to-register, and register-to-output paths all
/// occur. The clock generator's half-period is occasionally beyond the
/// 256-slot timing wheel (events spill into the overflow heap). Accepted
/// by both `Simulator` and `SeqBitSim`.
pub fn random_registered(g: &mut Gen) -> RegisteredCircuit {
    let mut b = NetlistBuilder::new().with_default_delay(g.in_range(1u64..=9));
    let n_in = g.in_range(1usize..=3);
    let inputs: Vec<NetId> = (0..n_in).map(|_| b.net()).collect();
    let clk = b.net();
    let half = if g.bool() { g.in_range(300u64..=900) } else { g.in_range(2100u64..=6000) };
    b.clock(clk, half, 0);
    let reset_n = if g.bool() { Some(b.net()) } else { None };

    // Pre-allocate the register outputs so gates can read them before the
    // flip-flops are instantiated (register feedback stays sequential —
    // the combinational part is still a DAG).
    let n_ff = g.in_range(1usize..=4);
    let registers: Vec<NetId> = (0..n_ff).map(|_| b.net()).collect();
    let mut pool = inputs.clone();
    pool.extend(&registers);

    let n_gates = g.in_range(3usize..=16);
    for _ in 0..n_gates {
        let x = pool[g.in_range(0..pool.len())];
        let y = pool[g.in_range(0..pool.len())];
        let out = match g.in_range(0u32..5) {
            0 => b.nand(&[x, y]),
            1 => b.or(&[x, y]),
            2 => b.xor(&[x, y]),
            3 => b.and(&[x, y]),
            _ => b.inv(x),
        };
        pool.push(out);
    }

    for (i, &q) in registers.iter().enumerate() {
        let d = pool[g.in_range(0..pool.len())];
        // each flip-flop independently opts into the shared reset
        let r = reset_n.filter(|_| i == 0 || g.bool());
        b.dff(d, clk, r, q);
    }

    let n_out = g.in_range(1usize..=3);
    let outputs: Vec<NetId> = (0..n_out).map(|_| pool[g.in_range(0..pool.len())]).collect();
    RegisteredCircuit {
        netlist: b.build(),
        inputs,
        reset_n,
        clk,
        half_period: half,
        registers,
        outputs,
    }
}

/// A random stimulus schedule over the input nets: `(time, net, value)`
/// with strictly increasing per-net times (drive_at requirement is only
/// time >= now; every consumer must receive the identical list).
pub fn random_schedule(g: &mut Gen, inputs: &[NetId]) -> Vec<(u64, NetId, Logic)> {
    let n = g.in_range(3usize..=12);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += g.in_range(1u64..=3000);
            let net = inputs[g.in_range(0..inputs.len())];
            let v = match g.in_range(0u32..4) {
                0 => Logic::L0,
                1 => Logic::L1,
                2 => Logic::X,
                _ => Logic::Z,
            };
            (t, net, v)
        })
        .collect()
}

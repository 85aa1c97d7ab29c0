//! Test-vector utilities.
//!
//! These helpers drive primary inputs through every combination and sample
//! settled outputs — the machinery used throughout the workspace to prove a
//! mapped fabric configuration equivalent to its specification truth table.
//!
//! Truth tables are [`WideMask`]s (multi-word, up to [`MAX_SWEEP_VARS`]
//! variables). Historically the masks were single `u64`s and every sweep
//! path carried a `Some(true) if n <= 6` merge arm — circuits with more
//! than 6 inputs burned `2^n` simulations and then silently reported an
//! all-zero mask. The wide type removes that truncation; the bit-parallel
//! kernel (`crate::bitsim`) makes the wide sweeps fast.

use crate::bitsim::BitSim;
use crate::engine::{SimError, Simulator};
use crate::logic::Logic;
use crate::netlist::{NetId, Netlist};
use crate::table::WideMask;
use pmorph_exec::{sweep, SweepConfig};

/// Per-vector event budget used by the exhaustive sweeps.
pub const VECTOR_EVENT_BUDGET: u64 = 200_000;

/// Hard ceiling on swept input count (matches [`WideMask::MAX_VARS`]).
pub const MAX_SWEEP_VARS: usize = WideMask::MAX_VARS;

/// Hard ceiling on total tabulated bits per sweep
/// (`outputs · 2^vars ≤ 2^26` — 8 MiB of mask, well past every
/// fabric/LUT use case).
pub const MAX_SWEEP_BITS: u64 = 1 << 26;

/// One consistent size guard for every exhaustive sweep path. Returns a
/// typed [`SimError::SweepTooLarge`] (not an `assert!`) so callers —
/// e.g. mapping flows probing an oversized cut — can degrade gracefully.
fn check_sweep_size(vars: usize, outputs: usize) -> Result<(), SimError> {
    // `vars` is range-checked before the shift so `1 << vars` cannot
    // overflow — the same order-of-operations trap as the lane masks.
    if vars > MAX_SWEEP_VARS || (outputs as u64).saturating_mul(1u64 << vars) > MAX_SWEEP_BITS {
        return Err(SimError::SweepTooLarge { vars, outputs, limit_bits: MAX_SWEEP_BITS });
    }
    Ok(())
}

/// Apply one input vector and return settled output values.
///
/// The simulator is reused across calls so state elements keep their state;
/// for purely combinational circuits, pass a fresh simulator per vector or
/// use [`exhaustive_truth`].
pub fn apply_vector(
    sim: &mut Simulator,
    inputs: &[NetId],
    vector: &[Logic],
    outputs: &[NetId],
) -> Result<Vec<Logic>, SimError> {
    assert_eq!(inputs.len(), vector.len());
    for (&n, &v) in inputs.iter().zip(vector) {
        sim.drive(n, v);
    }
    sim.settle(VECTOR_EVENT_BUDGET)?;
    Ok(sim.values(outputs))
}

/// Exhaustively simulate a combinational netlist over all `2^n` input
/// combinations and return, for each output, a multi-word mask whose bit
/// `i` is that output's value under input assignment `i` (input 0 is the
/// least-significant index bit).
///
/// Combinational netlists take the 64-lane bit-parallel path
/// ([`crate::bitsim::sweep_truth`]); anything that defeats levelization
/// falls back to the event-driven [`characterize`]. Returns `Err` on
/// oscillation or an over-limit sweep ([`SimError::SweepTooLarge`]), and
/// treats any `X`/`Z` output as a mapping failure (`Ok(None)` for that
/// output's mask).
pub fn exhaustive_truth(
    netlist: &Netlist,
    inputs: &[NetId],
    outputs: &[NetId],
) -> Result<Vec<Option<WideMask>>, SimError> {
    check_sweep_size(inputs.len(), outputs.len())?;
    // Fast path: pure combinational netlists evaluate 64 assignments per
    // word with no event queue (equivalence to the scalar levelized
    // evaluator and the event kernel is pinned by the bitsim module's
    // tests and `tests/bitsim_differential.rs`).
    if let Ok(bits) = BitSim::new(netlist.clone()) {
        return Ok(crate::bitsim::sweep_truth(&bits, inputs, outputs, &SweepConfig::new()));
    }
    characterize(netlist, inputs, outputs, &SweepConfig::new())
}

/// The scalar levelized sweep that [`exhaustive_truth`] used before the
/// bit-parallel kernel: one assignment at a time through
/// [`crate::levelized::Levelized`]. Retained as the differential-test
/// oracle for `bitsim` (and as the throughput baseline in
/// `bench/bitsim`). Panics if the netlist does not levelize.
#[doc(hidden)]
pub fn exhaustive_truth_levelized(
    netlist: &Netlist,
    inputs: &[NetId],
    outputs: &[NetId],
) -> Result<Vec<Option<WideMask>>, SimError> {
    let n = inputs.len();
    check_sweep_size(n, outputs.len())?;
    let mut lev = crate::levelized::Levelized::new(netlist.clone()).expect("combinational");
    let mut masks: Vec<Option<WideMask>> = vec![Some(WideMask::zero(n)); outputs.len()];
    for assignment in 0u64..(1 << n) {
        let bound: Vec<(NetId, Logic)> = inputs
            .iter()
            .enumerate()
            .map(|(i, &inp)| (inp, Logic::from_bool(assignment >> i & 1 == 1)))
            .collect();
        let values = lev.eval(&bound);
        for (o, &out) in outputs.iter().enumerate() {
            match values[out.0 as usize].to_bool() {
                Some(v) => {
                    if let Some(m) = masks[o].as_mut() {
                        m.set(assignment, v);
                    }
                }
                None => masks[o] = None,
            }
        }
    }
    Ok(masks)
}

/// Per-worker state for the multi-vector sweeps: one compiled simulator
/// plus its just-built snapshot, restored before every vector. The
/// engine's *restore ≡ fresh* contract (pinned by
/// `tests/snapshot_prop.rs`) is what makes every vector independent of
/// sweep order, worker count, and shard geometry.
struct VectorCtx {
    sim: Simulator,
    initial: crate::engine::SimSnapshot,
}

impl VectorCtx {
    fn new(netlist: &Netlist) -> Self {
        let sim = Simulator::new(netlist.clone());
        let initial = sim.snapshot();
        VectorCtx { sim, initial }
    }

    /// Settled output values under one input assignment, from rewound
    /// state — bit-identical to a fresh instance per vector.
    fn run_vector(
        &mut self,
        inputs: &[NetId],
        outputs: &[NetId],
        assignment: u64,
    ) -> Result<Vec<Logic>, SimError> {
        self.sim.restore(&self.initial);
        for (i, &inp) in inputs.iter().enumerate() {
            self.sim.drive(inp, Logic::from_bool(assignment >> i & 1 == 1));
        }
        self.sim.settle(VECTOR_EVENT_BUDGET)?;
        Ok(self.sim.values(outputs))
    }
}

/// The event-driven multi-vector characterization behind
/// [`exhaustive_truth`]'s non-levelizable path, under an explicit sweep
/// configuration: assignments are sharded across workers, each worker
/// clones one compiled simulator and `snapshot`/`restore`s between
/// vectors, and the masks reduce in assignment order. On any vector
/// error the lowest-numbered assignment's error is returned — the same
/// error the serial reference loop stops at. Enforces the same
/// [`SimError::SweepTooLarge`] bound as [`exhaustive_truth`].
pub fn characterize(
    netlist: &Netlist,
    inputs: &[NetId],
    outputs: &[NetId],
    cfg: &SweepConfig,
) -> Result<Vec<Option<WideMask>>, SimError> {
    let n = inputs.len();
    check_sweep_size(n, outputs.len())?;
    let per_vector = sweep(
        1usize << n,
        cfg,
        || VectorCtx::new(netlist),
        |ctx, i| ctx.run_vector(inputs, outputs, i as u64),
    );
    let mut masks: Vec<Option<WideMask>> = vec![Some(WideMask::zero(n)); outputs.len()];
    for (assignment, values) in per_vector.into_iter().enumerate() {
        let values = values?; // lowest-index error, as in the serial loop
        for (o, v) in values.into_iter().enumerate() {
            match v.to_bool() {
                Some(v) => {
                    if let Some(m) = masks[o].as_mut() {
                        m.set(assignment as u64, v);
                    }
                }
                None => masks[o] = None,
            }
        }
    }
    Ok(masks)
}

/// The pre-exec serial event path of [`exhaustive_truth`] (one simulator,
/// snapshot/restore, vector-at-a-time), retained as the differential-test
/// reference for [`characterize`].
#[doc(hidden)]
pub fn exhaustive_truth_flat(
    netlist: &Netlist,
    inputs: &[NetId],
    outputs: &[NetId],
) -> Result<Vec<Option<WideMask>>, SimError> {
    let n = inputs.len();
    check_sweep_size(n, outputs.len())?;
    let mut masks: Vec<Option<WideMask>> = vec![Some(WideMask::zero(n)); outputs.len()];
    // One simulator for the whole sweep, rewound to its just-built state
    // before each vector via snapshot/restore — bit-identical to a fresh
    // instance per vector (each vector stays independent of sweep order)
    // without re-elaborating the netlist 2^n times.
    let mut sim = Simulator::new(netlist.clone());
    let initial = sim.snapshot();
    for assignment in 0u64..(1 << n) {
        if assignment > 0 {
            sim.restore(&initial);
        }
        for (i, &inp) in inputs.iter().enumerate() {
            sim.drive(inp, Logic::from_bool(assignment >> i & 1 == 1));
        }
        sim.settle(VECTOR_EVENT_BUDGET)?;
        for (o, &out) in outputs.iter().enumerate() {
            match sim.value(out).to_bool() {
                Some(v) => {
                    if let Some(m) = masks[o].as_mut() {
                        m.set(assignment, v);
                    }
                }
                None => masks[o] = None,
            }
        }
    }
    Ok(masks)
}

/// Drive a sequence of `(time, net, value)` stimuli, run to `end_time`, and
/// return the settled values of `outputs`. Used by sequential tests.
pub fn run_sequence(
    sim: &mut Simulator,
    stimuli: &[(u64, NetId, Logic)],
    end_time: u64,
    outputs: &[NetId],
) -> Result<Vec<Logic>, SimError> {
    for &(t, n, v) in stimuli {
        sim.drive_at(n, v, t);
    }
    sim.run_until(end_time, 10_000_000)?;
    Ok(sim.values(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn exhaustive_truth_of_and() {
        let mut b = NetlistBuilder::new();
        let x = b.net("x");
        let y = b.net("y");
        let z = b.and(&[x, y]);
        let nl = b.build();
        let masks = exhaustive_truth(&nl, &[x, y], &[z]).unwrap();
        // only assignment 3 (x=1,y=1)
        assert_eq!(masks, vec![Some(WideMask::from_u64(2, 0b1000))]);
    }

    #[test]
    fn exhaustive_truth_three_input_majority() {
        let mut b = NetlistBuilder::new();
        let x = b.net("x");
        let y = b.net("y");
        let z = b.net("z");
        let xy = b.and(&[x, y]);
        let xz = b.and(&[x, z]);
        let yz = b.and(&[y, z]);
        let maj = b.or(&[xy, xz, yz]);
        let nl = b.build();
        let masks = exhaustive_truth(&nl, &[x, y, z], &[maj]).unwrap();
        // majority true for assignments 3,5,6,7
        assert_eq!(masks, vec![Some(WideMask::from_u64(3, 0b1110_1000))]);
    }

    #[test]
    fn seven_input_and_is_nonzero_in_high_word() {
        // Regression for the silent `n <= 6` truncation: a 7-input AND is
        // true only at assignment 127 — bit 63 of word 1. The old sweep
        // paths returned Some(0) here after burning all 128 simulations.
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..7).map(|i| b.net(format!("i{i}"))).collect();
        let z = b.and(&ins);
        let nl = b.build();
        let expect = WideMask::from_words(7, vec![0, 0x8000_0000_0000_0000]);
        assert!(!expect.is_zero());
        let masks = exhaustive_truth(&nl, &ins, &[z]).unwrap();
        assert_eq!(masks, vec![Some(expect.clone())]);
        assert_eq!(exhaustive_truth_flat(&nl, &ins, &[z]).unwrap(), vec![Some(expect.clone())]);
        assert_eq!(
            characterize(&nl, &ins, &[z], &SweepConfig::new().with_workers(4)).unwrap(),
            vec![Some(expect)]
        );
    }

    #[test]
    fn ten_input_parity_fills_all_sixteen_words() {
        // 10-input XOR tree: odd-parity mask across 16 words, non-zero in
        // every word — the acceptance-criteria regression circuit.
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..10).map(|i| b.net(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = b.xor(&[acc, i]);
        }
        let nl = b.build();
        let expect = WideMask::from_fn(10, |m| m.count_ones() % 2 == 1);
        let masks = exhaustive_truth(&nl, &ins, &[acc]).unwrap();
        assert_eq!(masks, vec![Some(expect.clone())]);
        assert!(masks[0].as_ref().unwrap().words().iter().all(|&w| w != 0));
        // the scalar levelized oracle agrees word for word
        assert_eq!(exhaustive_truth_levelized(&nl, &ins, &[acc]).unwrap(), masks);
    }

    #[test]
    fn characterize_matches_flat_reference_on_event_path() {
        // A latch defeats levelization, so this exercises the sharded
        // event-driven path against the serial snapshot/restore loop.
        let mut b = NetlistBuilder::new();
        let d = b.net("d");
        let en = b.net("en");
        let q = b.net("q");
        b.latch(d, en, q);
        let g = b.and(&[q, d]);
        let nl = b.build();
        let flat = exhaustive_truth_flat(&nl, &[d, en], &[q, g]).unwrap();
        assert_eq!(exhaustive_truth(&nl, &[d, en], &[q, g]).unwrap(), flat);
        for (workers, shard_size) in [(1usize, 1usize), (2, 1), (3, 2), (8, 4)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard_size);
            assert_eq!(
                characterize(&nl, &[d, en], &[q, g], &cfg).unwrap(),
                flat,
                "workers={workers} shard_size={shard_size}"
            );
        }
    }

    #[test]
    fn undriven_input_reports_none() {
        let mut b = NetlistBuilder::new();
        let x = b.net("x");
        let y = b.net("y"); // never driven
        let z = b.and(&[x, y]);
        let nl = b.build();
        let masks = exhaustive_truth(&nl, &[x], &[z]).unwrap();
        assert_eq!(masks, vec![None], "floating input poisons output");
    }

    #[test]
    fn oversized_sweeps_return_typed_errors_on_every_path() {
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..21).map(|i| b.net(format!("i{i}"))).collect();
        let z = b.and(&ins);
        let nl = b.build();
        // 21 inputs: over MAX_SWEEP_VARS, even though 1·2^21 < 2^26
        let err = exhaustive_truth(&nl, &ins, &[z]).unwrap_err();
        assert!(matches!(err, SimError::SweepTooLarge { vars: 21, outputs: 1, .. }), "{err}");
        // 20 inputs × 128 outputs: 2^27 tabulated bits, over MAX_SWEEP_BITS
        let wide_out: Vec<NetId> = vec![z; 128];
        let e2 = exhaustive_truth(&nl, &ins[..20], &wide_out).unwrap_err();
        assert!(matches!(e2, SimError::SweepTooLarge { vars: 20, outputs: 128, .. }), "{e2}");
        // the same guard on all three paths — characterize (the fallback)
        // historically had no bound at all
        assert!(matches!(
            characterize(&nl, &ins, &[z], &SweepConfig::new()),
            Err(SimError::SweepTooLarge { .. })
        ));
        assert!(matches!(
            exhaustive_truth_flat(&nl, &ins, &[z]),
            Err(SimError::SweepTooLarge { .. })
        ));
        // boundary: exactly at the ceiling is allowed (guard is strict >)
        assert!(check_sweep_size(20, 64).is_ok());
        assert!(check_sweep_size(20, 65).is_err());
    }
}

//! Exhaustive truth-table sweeps.
//!
//! [`exhaustive_truth`] drives primary inputs through every combination on
//! the bit-parallel kernel and samples the outputs — the machinery used
//! throughout the workspace to prove a mapped fabric configuration
//! equivalent to its specification truth table.
//!
//! Truth tables are [`WideMask`]s (multi-word, up to [`MAX_SWEEP_VARS`]
//! variables), so circuits wider than 6 inputs tabulate in full.

use crate::bitsim::BitSim;
use crate::engine::SimError;
use crate::logic::Logic;
use crate::netlist::{NetId, Netlist};
use crate::table::WideMask;
use pmorph_exec::SweepConfig;

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

/// Exhaustively simulate a combinational netlist over all `2^n` input
/// combinations and return, for each output, a multi-word mask whose bit
/// `i` is that output's value under input assignment `i` (input 0 is the
/// least-significant index bit).
///
/// The sweep runs on the 64-lane bit-parallel kernel
/// ([`crate::bitsim::sweep_truth`]). A netlist that does not levelize
/// (state, a combinational cycle, a multi-driven net) is a
/// [`SimError::NotLevelizable`] naming the offending component or net;
/// an over-limit sweep is a [`SimError::SweepTooLarge`]. Any `X`/`Z`
/// output is a mapping failure (`Ok(None)` for that output's mask).
pub fn exhaustive_truth(
    netlist: &Netlist,
    inputs: &[NetId],
    outputs: &[NetId],
) -> Result<Vec<Option<WideMask>>, SimError> {
    check_sweep_size(inputs.len(), outputs.len())?;
    let bits = BitSim::new(netlist.clone()).map_err(SimError::NotLevelizable)?;
    Ok(crate::bitsim::sweep_truth(&bits, inputs, outputs, &SweepConfig::new()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::levelized::LevelizeError;

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
        assert_eq!(masks, vec![Some(expect)]);
        assert_eq!(exhaustive_truth_levelized(&nl, &ins, &[z]).unwrap(), masks);
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
    fn non_levelizable_netlist_is_a_typed_error() {
        // A latch defeats levelization: the sweep refuses it with an
        // error naming the component kind, rather than falling back to
        // 2^n event-driven simulations.
        let mut b = NetlistBuilder::new();
        let d = b.net("d");
        let en = b.net("en");
        let q = b.net("q");
        b.latch(d, en, q);
        let g = b.and(&[q, d]);
        let nl = b.build();
        let err = exhaustive_truth(&nl, &[d, en], &[q, g]).unwrap_err();
        assert_eq!(err, SimError::NotLevelizable(LevelizeError::NotCombinational("latch")));
        assert!(err.to_string().contains("`latch`"), "{err}");
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
        // the same guard on the scalar oracle
        assert!(matches!(
            exhaustive_truth_levelized(&nl, &ins, &[z]),
            Err(SimError::SweepTooLarge { .. })
        ));
        // boundary: exactly at the ceiling is allowed (guard is strict >)
        assert!(check_sweep_size(20, 64).is_ok());
        assert!(check_sweep_size(20, 65).is_err());
    }
}

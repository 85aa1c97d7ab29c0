//! Dual-rail delay-insensitive logic.
//!
//! The paper's closing argument (§5) is that nano-scale interconnect
//! favours "locally connected, highly pipelined organizations" and
//! asynchronous styles. The strongest such style is **delay-insensitive
//! (DI) dual-rail**: each bit travels as two wires (`t`, `f`), data
//! validity is encoded in the wires themselves (one-hot = valid, 00 =
//! empty spacer, 11 = illegal), and *completion detection* replaces
//! timing assumptions entirely — no matched delays, no clock, correct for
//! any wire skew.
//!
//! This module provides DIMS-style gates (Muller C-elements feeding OR
//! trees), completion detectors, a dual-rail full adder, and the
//! skew-adversarial tests that prove insensitivity.

use pmorph_sim::{Logic, NetId, NetlistBuilder};

/// The two rails of one DI bit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DualRail {
    /// Asserted when the bit is a valid 1.
    pub t: NetId,
    /// Asserted when the bit is a valid 0.
    pub f: NetId,
}

/// Encode a boolean into rail levels (valid phase).
pub fn encode(bit: bool) -> (Logic, Logic) {
    if bit {
        (Logic::L1, Logic::L0)
    } else {
        (Logic::L0, Logic::L1)
    }
}

/// The empty (spacer) code.
pub const SPACER: (Logic, Logic) = (Logic::L0, Logic::L0);

/// Decode rail values: `Some(bit)` when valid, `None` when empty or
/// in transit, panic-free on the illegal `11` (reported as `None`).
pub fn decode(t: Logic, f: Logic) -> Option<bool> {
    match (t.to_bool()?, f.to_bool()?) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        _ => None,
    }
}

/// Add a C-element joining `a` and `b` (fresh output net).
fn c2(b: &mut NetlistBuilder, x: NetId, y: NetId) -> NetId {
    b.celement(x, y)
}

/// DIMS two-input gate: for each of the four input codes, a C-element
/// detects it; the gate's truth table routes each detector into the
/// output's `t` or `f` OR-tree. Fully delay-insensitive by construction.
fn dims2(b: &mut NetlistBuilder, a: DualRail, bb: DualRail, table: [bool; 4]) -> DualRail {
    // detectors for (a, b) = (0,0) (0,1) (1,0) (1,1)
    let d = [c2(b, a.f, bb.f), c2(b, a.f, bb.t), c2(b, a.t, bb.f), c2(b, a.t, bb.t)];
    let mut t_ins = Vec::new();
    let mut f_ins = Vec::new();
    for (i, &out) in table.iter().enumerate() {
        if out {
            t_ins.push(d[i]);
        } else {
            f_ins.push(d[i]);
        }
    }
    let mk = |b: &mut NetlistBuilder, ins: &[NetId]| -> NetId {
        match ins.len() {
            0 => {
                let z = b.net();
                b.constant(Logic::L0, z);
                z
            }
            1 => ins[0],
            _ => b.or(ins),
        }
    };
    DualRail { t: mk(b, &t_ins), f: mk(b, &f_ins) }
}

/// DIMS AND.
pub fn dims_and(b: &mut NetlistBuilder, x: DualRail, y: DualRail) -> DualRail {
    dims2(b, x, y, [false, false, false, true])
}

/// DIMS OR.
pub fn dims_or(b: &mut NetlistBuilder, x: DualRail, y: DualRail) -> DualRail {
    dims2(b, x, y, [false, true, true, true])
}

/// DIMS XOR.
pub fn dims_xor(b: &mut NetlistBuilder, x: DualRail, y: DualRail) -> DualRail {
    dims2(b, x, y, [false, true, true, false])
}

/// Dual-rail NOT: swap the rails (zero hardware).
pub fn dr_not(x: DualRail) -> DualRail {
    DualRail { t: x.f, f: x.t }
}

/// Per-bit validity (`t OR f`) and a completion detector over a word:
/// `done` rises only when *every* bit is valid, and falls only when every
/// bit has returned to the spacer — a C-element tree over the validities.
pub fn completion_detector(b: &mut NetlistBuilder, word: &[DualRail]) -> NetId {
    assert!(!word.is_empty());
    let mut layer: Vec<NetId> = word.iter().map(|dr| b.or(&[dr.t, dr.f])).collect();
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(c2(b, pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    layer[0]
}

/// A one-bit dual-rail full adder built from DIMS gates.
pub struct DualRailAdder {
    /// Operand a.
    pub a: DualRail,
    /// Operand b.
    pub b: DualRail,
    /// Carry in.
    pub cin: DualRail,
    /// Sum out.
    pub sum: DualRail,
    /// Carry out.
    pub cout: DualRail,
    /// Completion of (sum, cout).
    pub done: NetId,
}

/// A multi-bit dual-rail ripple adder with word-level completion.
pub struct DualRailRipple {
    /// Operand a, LSB first.
    pub a: Vec<DualRail>,
    /// Operand b.
    pub b: Vec<DualRail>,
    /// Carry in.
    pub cin: DualRail,
    /// Sums.
    pub sum: Vec<DualRail>,
    /// Final carry.
    pub cout: DualRail,
    /// Completion over all sums + carry.
    pub done: NetId,
}

/// Build an `n`-bit DI ripple adder: the carry rails chain through the
/// stages, and `done` fires only when every output bit (and the final
/// carry) holds a valid code — no timing assumption anywhere in the word.
pub fn ripple_adder_di(b: &mut NetlistBuilder, n: usize) -> DualRailRipple {
    assert!(n >= 1);
    let mk = |b: &mut NetlistBuilder| DualRail { t: b.net(), f: b.net() };
    let a: Vec<DualRail> = (0..n).map(|_| mk(b)).collect();
    let bb: Vec<DualRail> = (0..n).map(|_| mk(b)).collect();
    let cin = mk(b);
    let mut carry = cin;
    let mut sum = Vec::with_capacity(n);
    for i in 0..n {
        let axb = dims_xor(b, a[i], bb[i]);
        sum.push(dims_xor(b, axb, carry));
        let g = dims_and(b, a[i], bb[i]);
        let p = dims_and(b, axb, carry);
        carry = dims_or(b, g, p);
    }
    let mut all = sum.clone();
    all.push(carry);
    let done = completion_detector(b, &all);
    DualRailRipple { a, b: bb, cin, sum, cout: carry, done }
}

/// Build the DI full adder into a fresh netlist builder.
pub fn full_adder(b: &mut NetlistBuilder) -> DualRailAdder {
    let mk = |b: &mut NetlistBuilder| DualRail { t: b.net(), f: b.net() };
    let a = mk(b);
    let bb = mk(b);
    let cin = mk(b);
    let axb = dims_xor(b, a, bb);
    let sum = dims_xor(b, axb, cin);
    let ab = dims_and(b, a, bb);
    let axb_c = dims_and(b, axb, cin);
    let cout = dims_or(b, ab, axb_c);
    let done = completion_detector(b, &[sum, cout]);
    DualRailAdder { a, b: bb, cin, sum, cout, done }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_sim::Simulator;
    use pmorph_util::rng::Rng;
    use pmorph_util::rng::StdRng;

    fn drive_rail(sim: &mut Simulator, dr: DualRail, v: Option<bool>, at: u64) {
        let (t, f) = match v {
            Some(b) => encode(b),
            None => SPACER,
        };
        sim.drive_at(dr.t, t, at);
        sim.drive_at(dr.f, f, at);
    }

    #[test]
    fn dims_gates_truth_tables() {
        for (gate, table) in [
            ("and", [false, false, false, true]),
            ("or", [false, true, true, true]),
            ("xor", [false, true, true, false]),
        ] {
            let mut b = NetlistBuilder::new();
            let x = DualRail { t: b.net(), f: b.net() };
            let y = DualRail { t: b.net(), f: b.net() };
            let z = dims2(&mut b, x, y, table);
            let nl = b.build();
            for (i, vx) in [false, true].into_iter().enumerate() {
                for (j, vy) in [false, true].into_iter().enumerate() {
                    let mut sim = Simulator::new(nl.clone());
                    // spacer first, then data (DI protocol)
                    drive_rail(&mut sim, x, None, 0);
                    drive_rail(&mut sim, y, None, 0);
                    sim.settle(1_000_000).unwrap();
                    drive_rail(&mut sim, x, Some(vx), 100);
                    drive_rail(&mut sim, y, Some(vy), 100);
                    sim.settle(1_000_000).unwrap();
                    let got = decode(sim.value(z.t), sim.value(z.f));
                    assert_eq!(got, Some(table[j * 2 + i]), "{gate}({vx},{vy})");
                }
            }
        }
    }

    #[test]
    fn completion_waits_for_slowest_bit() {
        let mut b = NetlistBuilder::new();
        let bits: Vec<DualRail> = (0..4).map(|_| DualRail { t: b.net(), f: b.net() }).collect();
        let done = completion_detector(&mut b, &bits);
        let nl = b.build();
        let mut sim = Simulator::new(nl);
        for &dr in &bits {
            drive_rail(&mut sim, dr, None, 0);
        }
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(done), Logic::L0, "empty: not done");
        // three of four bits arrive
        for (i, &dr) in bits.iter().enumerate().take(3) {
            drive_rail(&mut sim, dr, Some(i % 2 == 0), 100 + i as u64 * 50);
        }
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(done), Logic::L0, "one bit still empty: not done");
        drive_rail(&mut sim, bits[3], Some(true), 1_000);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(done), Logic::L1, "all valid: done");
        // return-to-zero: done falls only after ALL bits empty
        for (i, &dr) in bits.iter().enumerate().take(3) {
            drive_rail(&mut sim, dr, None, 2_000 + i as u64 * 30);
        }
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(done), Logic::L1, "C-tree holds until all empty");
        drive_rail(&mut sim, bits[3], None, 3_000);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(done), Logic::L0, "all empty: spacer acknowledged");
    }

    #[test]
    fn full_adder_correct_under_adversarial_skew() {
        let mut b = NetlistBuilder::new();
        let fa = full_adder(&mut b);
        let nl = b.build();
        let mut rng = StdRng::seed_from_u64(0xD1);
        for a in [false, true] {
            for bb in [false, true] {
                for c in [false, true] {
                    let mut sim = Simulator::new(nl.clone());
                    // spacer phase
                    for dr in [fa.a, fa.b, fa.cin] {
                        drive_rail(&mut sim, dr, None, 0);
                    }
                    sim.settle(1_000_000).unwrap();
                    assert_eq!(sim.value(fa.done), Logic::L0);
                    // data phase with random per-input skew — the DI
                    // property: any arrival order gives the same answer
                    for (dr, v) in [(fa.a, a), (fa.b, bb), (fa.cin, c)] {
                        let skew = 100 + rng.random_range(0u64..500);
                        drive_rail(&mut sim, dr, Some(v), skew);
                    }
                    sim.settle(1_000_000).unwrap();
                    assert_eq!(sim.value(fa.done), Logic::L1, "completion");
                    let s = decode(sim.value(fa.sum.t), sim.value(fa.sum.f));
                    let co = decode(sim.value(fa.cout.t), sim.value(fa.cout.f));
                    let total = a as u8 + bb as u8 + c as u8;
                    assert_eq!(s, Some(total % 2 == 1), "sum {a}{bb}{c}");
                    assert_eq!(co, Some(total >= 2), "carry {a}{bb}{c}");
                }
            }
        }
    }

    #[test]
    fn ripple_adder_di_random_words_with_skew() {
        let n = 5;
        let mut b = NetlistBuilder::new();
        let add = ripple_adder_di(&mut b, n);
        let nl = b.build();
        let mut rng = StdRng::seed_from_u64(0xD1D1);
        for _ in 0..10 {
            let va = rng.random::<u64>() & 0x1F;
            let vb = rng.random::<u64>() & 0x1F;
            let mut sim = Simulator::new(nl.clone());
            // spacer phase on every rail
            for i in 0..n {
                drive_rail(&mut sim, add.a[i], None, 0);
                drive_rail(&mut sim, add.b[i], None, 0);
            }
            drive_rail(&mut sim, add.cin, None, 0);
            sim.settle(10_000_000).unwrap();
            assert_eq!(sim.value(add.done), Logic::L0);
            // data phase, every bit with independent skew
            for i in 0..n {
                drive_rail(
                    &mut sim,
                    add.a[i],
                    Some(va >> i & 1 == 1),
                    100 + rng.random_range(0u64..400),
                );
                drive_rail(
                    &mut sim,
                    add.b[i],
                    Some(vb >> i & 1 == 1),
                    100 + rng.random_range(0u64..400),
                );
            }
            drive_rail(&mut sim, add.cin, Some(false), 100 + rng.random_range(0u64..400));
            sim.settle(10_000_000).unwrap();
            assert_eq!(sim.value(add.done), Logic::L1, "word completion");
            let mut result = 0u64;
            for (i, s) in add.sum.iter().enumerate() {
                if decode(sim.value(s.t), sim.value(s.f)) == Some(true) {
                    result |= 1 << i;
                }
            }
            if decode(sim.value(add.cout.t), sim.value(add.cout.f)) == Some(true) {
                result |= 1 << n;
            }
            assert_eq!(result, va + vb, "{va}+{vb} under skew");
        }
    }

    #[test]
    fn no_early_output_before_inputs_complete() {
        // The outputs themselves must stay in spacer until enough inputs
        // arrive to determine them — drive only one operand and check the
        // sum rails stay empty (XOR needs both).
        let mut b = NetlistBuilder::new();
        let fa = full_adder(&mut b);
        let nl = b.build();
        let mut sim = Simulator::new(nl);
        for dr in [fa.a, fa.b, fa.cin] {
            drive_rail(&mut sim, dr, None, 0);
        }
        sim.settle(1_000_000).unwrap();
        drive_rail(&mut sim, fa.a, Some(true), 100);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(fa.sum.t), Logic::L0, "sum must wait");
        assert_eq!(sim.value(fa.sum.f), Logic::L0, "sum must wait");
        assert_eq!(sim.value(fa.done), Logic::L0);
    }
}

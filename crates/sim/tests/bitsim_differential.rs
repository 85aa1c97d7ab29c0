//! Three-way differential properties for the bit-parallel kernel:
//! `bitsim::sweep_truth` ⇔ the scalar levelized sweep ⇔ an event-driven
//! oracle kept here in test code, which builds a fresh `Simulator` per
//! input assignment.
//!
//! The kernel's contract is *word-for-word identical masks* on every
//! combinational netlist, at every worker count and shard geometry —
//! including partial final words (`n < 6`), `X`-poisoned outputs, and
//! multi-word tables out to 10 inputs. Runs in the CI thread-matrix job
//! (`PMORPH_THREADS ∈ {1, 8}`) so the sharded merge is exercised both
//! serially and work-stolen.

use pmorph_exec::SweepConfig;
use pmorph_sim::bitsim::{sweep_truth, BitSim};
use pmorph_sim::netlist::{NetId, Netlist};
use pmorph_sim::table::WideMask;
use pmorph_sim::testgen::random_combinational;
use pmorph_sim::vectors::{exhaustive_truth, exhaustive_truth_levelized};
use pmorph_sim::{Logic, Simulator};
use pmorph_util::prop;
use pmorph_util::prop_assert_eq;

/// The event-driven oracle: a fresh simulator per assignment, settled,
/// outputs sampled. Any `X`/`Z` sample poisons that output's mask, the
/// same rule as the production sweep.
fn event_truth(nl: &Netlist, inputs: &[NetId], outputs: &[NetId]) -> Vec<Option<WideMask>> {
    let n = inputs.len();
    let mut masks = vec![Some(WideMask::zero(n)); outputs.len()];
    for m in 0u64..1 << n {
        let mut sim = Simulator::new(nl.clone());
        for (i, &inp) in inputs.iter().enumerate() {
            sim.drive(inp, Logic::from_bool(m >> i & 1 == 1));
        }
        sim.settle(200_000).expect("a combinational DAG settles");
        for (mask, &out) in masks.iter_mut().zip(outputs) {
            match (mask.as_mut(), sim.value(out).to_bool()) {
                (Some(mask), Some(v)) => mask.set(m, v),
                (_, None) => *mask = None,
                (None, Some(_)) => {}
            }
        }
    }
    masks
}

#[test]
fn bitsim_matches_scalar_levelized_up_to_ten_inputs() {
    prop::check("bitsim_vs_scalar_levelized", 64, |g| {
        let (nl, inputs, outputs) = random_combinational(g, 10);
        let scalar = exhaustive_truth_levelized(&nl, &inputs, &outputs).unwrap();
        let bits = BitSim::new(nl).unwrap();
        let wide = sweep_truth(&bits, &inputs, &outputs, &SweepConfig::new());
        prop_assert_eq!(&wide, &scalar, "bitsim vs scalar levelized, n={}", inputs.len());
        Ok(())
    });
}

#[test]
fn three_way_agreement_with_event_driven_paths() {
    // The event-driven oracle costs 2^n full simulations, so the
    // three-way cases stay at n ≤ 8; the bitsim ⇔ scalar property above
    // covers the wider tables.
    prop::check("bitsim_vs_scalar_vs_event", 24, |g| {
        let (nl, inputs, outputs) = random_combinational(g, 8);
        let bits = BitSim::new(nl.clone()).unwrap();
        let wide = sweep_truth(&bits, &inputs, &outputs, &SweepConfig::new());
        let scalar = exhaustive_truth_levelized(&nl, &inputs, &outputs).unwrap();
        let event = event_truth(&nl, &inputs, &outputs);
        prop_assert_eq!(&wide, &scalar, "bitsim vs scalar levelized");
        prop_assert_eq!(&wide, &event, "bitsim vs event-driven oracle");
        Ok(())
    });
}

#[test]
fn masks_are_shard_geometry_independent() {
    prop::check("bitsim_shard_geometry", 16, |g| {
        let (nl, inputs, outputs) = random_combinational(g, 9);
        let bits = BitSim::new(nl).unwrap();
        let reference = sweep_truth(&bits, &inputs, &outputs, &SweepConfig::new().with_workers(1));
        for (workers, shard_size) in [(2usize, 1usize), (3, 2), (8, 4), (8, 1)] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard_size);
            prop_assert_eq!(
                &sweep_truth(&bits, &inputs, &outputs, &cfg),
                &reference,
                "workers={} shard_size={}",
                workers,
                shard_size
            );
        }
        Ok(())
    });
}

#[test]
fn ten_input_ripple_carry_three_ways() {
    // Deterministic 10-input case at full width: a 5+5 ripple-carry
    // adder's carry-out — non-trivial in every one of the 16 words.
    let mut b = pmorph_sim::NetlistBuilder::new();
    let a: Vec<NetId> = (0..5).map(|i| b.net(format!("a{i}"))).collect();
    let x: Vec<NetId> = (0..5).map(|i| b.net(format!("b{i}"))).collect();
    let mut carry: Option<NetId> = None;
    for i in 0..5 {
        let (p, q) = (a[i], x[i]);
        let axb = b.xor(&[p, q]);
        match carry {
            None => carry = Some(b.and(&[p, q])),
            Some(c) => {
                let t1 = b.and(&[p, q]);
                let t2 = b.and(&[axb, c]);
                carry = Some(b.or(&[t1, t2]));
            }
        }
    }
    let cout = carry.unwrap();
    let nl = b.build();
    let inputs: Vec<NetId> = a.iter().chain(&x).copied().collect();
    // assignment m: low 5 bits are a, high 5 bits are b; carry-out iff
    // a + b >= 32
    let expect = WideMask::from_fn(10, |m| (m & 31) + (m >> 5 & 31) >= 32);
    let wide = exhaustive_truth(&nl, &inputs, &[cout]).unwrap();
    assert_eq!(wide, vec![Some(expect.clone())]);
    assert_eq!(exhaustive_truth_levelized(&nl, &inputs, &[cout]).unwrap(), wide);
    assert_eq!(event_truth(&nl, &inputs, &[cout]), wide);
}

#[test]
fn partial_final_word_lanes_are_masked() {
    // n = 3: only 8 of 64 lanes are live. Dead lanes must be zero in the
    // mask and must not poison the known test.
    let mut b = pmorph_sim::NetlistBuilder::new();
    let ins: Vec<NetId> = (0..3).map(|i| b.net(format!("i{i}"))).collect();
    let z = b.nand(&ins);
    let nl = b.build();
    let bits = BitSim::new(nl.clone()).unwrap();
    let wide = sweep_truth(&bits, &ins, &[z], &SweepConfig::new());
    let expect = WideMask::from_u64(3, 0b0111_1111);
    assert_eq!(wide, vec![Some(expect)]);
    assert_eq!(wide[0].as_ref().unwrap().words().len(), 1);
    assert_eq!(
        wide[0].as_ref().unwrap().words()[0] & !WideMask::lane_mask(3),
        0,
        "lanes beyond 2^n must stay zero"
    );
    assert_eq!(exhaustive_truth_levelized(&nl, &ins, &[z]).unwrap(), wide);
}

#[test]
fn x_poisoned_outputs_agree_across_paths() {
    prop::check("bitsim_x_poisoning", 16, |g| {
        // Mix an undriven net into the DAG so some outputs go X on some
        // (or all) assignments; the poisoning rule (any X ⇒ None) must
        // agree across all paths.
        let (mut nl, inputs, mut outputs) = random_combinational(g, 7);
        let floating = nl.add_net("floating");
        let poisoned = nl.add_net("poisoned");
        nl.add_comp(
            pmorph_sim::Component::And { inputs: vec![outputs[0], floating], output: poisoned },
            1,
        );
        nl.finalize();
        outputs.push(poisoned);
        let bits = BitSim::new(nl.clone()).unwrap();
        let wide = sweep_truth(&bits, &inputs, &outputs, &SweepConfig::new());
        let scalar = exhaustive_truth_levelized(&nl, &inputs, &outputs).unwrap();
        prop_assert_eq!(&wide, &scalar, "poisoning agreement");
        // the poisoned leg is None unless its gated input is definite-0
        // on every assignment (0 dominates AND even against X)
        let gate_in = exhaustive_truth_levelized(&nl, &inputs, &[outputs[0]]).unwrap();
        let expect_none = match &gate_in[0] {
            Some(m) => !m.is_zero(),
            None => true,
        };
        prop_assert_eq!(wide.last().unwrap().is_none(), expect_none, "poison rule");
        Ok(())
    });
}

//! Property suite for the polymorphic completeness checker: the
//! early-exit basis argument in `poly::is_complete` is checked against an
//! independently written brute-force oracle (naive saturation over the
//! whole `16^k` vector space) on randomly drawn gate sets, plus the
//! closed-form facts from the paper's completeness discussion.

use pmorph_synth::poly::complete::{invariant, pack, tables};
use pmorph_synth::poly::{closure, is_complete, PolyGateSet};
use pmorph_util::rng::StdRng;
use std::collections::BTreeSet;

/// Oracle composition, written from the definition rather than shared
/// with the implementation: substitute `u`, `v` into `g`, mode-wise.
fn oracle_compose(k: usize, g: u32, u: u32, v: u32) -> u32 {
    let mut out = 0u32;
    for m in 0..k {
        for i in 0..4u32 {
            let a = u >> (4 * m + i as usize) & 1;
            let b = v >> (4 * m + i as usize) & 1;
            let bit = g >> (4 * m) >> ((b << 1) | a) & 1;
            out |= bit << (4 * m + i as usize);
        }
    }
    out
}

/// Naive fixpoint: keep passing over *all* reached pairs under all gates
/// until nothing new appears. No worklist, no early exit, no basis
/// theorem — deliberately dumb.
fn oracle_closure(k: usize, gates: &[u32]) -> BTreeSet<u32> {
    let mut reached: BTreeSet<u32> =
        [invariant(tables::PROJ_A, k), invariant(tables::PROJ_B, k)].into();
    loop {
        let snapshot: Vec<u32> = reached.iter().copied().collect();
        let before = reached.len();
        for &g in gates {
            for &u in &snapshot {
                for &v in &snapshot {
                    reached.insert(oracle_compose(k, g, u, v));
                }
            }
        }
        if reached.len() == before {
            return reached;
        }
    }
}

fn oracle_is_complete(k: usize, gates: &[u32]) -> bool {
    oracle_closure(k, gates).len() == 1usize << (4 * k)
}

#[test]
fn random_gate_sets_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC0_0513);
    let mut complete_seen = 0;
    let mut incomplete_seen = 0;
    for trial in 0..40 {
        let k = 2;
        let n_gates = 1 + (rng.next_u64() % 3) as usize;
        let gates: Vec<u32> =
            (0..n_gates).map(|_| (rng.next_u64() as u32) & ((1 << (4 * k)) - 1)).collect();
        let set = PolyGateSet::new(k, gates.clone()).unwrap();
        let fast = is_complete(&set);
        let slow = oracle_is_complete(k, set.gates());
        assert_eq!(fast, slow, "trial {trial}: gates {gates:#x?}");
        // and the full closure must be the *same set*, not just same verdict
        let ours: BTreeSet<u32> = closure(&set).into_iter().collect();
        assert_eq!(ours, oracle_closure(k, set.gates()), "trial {trial} closure");
        if fast {
            complete_seen += 1;
        } else {
            incomplete_seen += 1;
        }
    }
    // the draw must actually exercise both verdicts for the test to mean
    // anything; with this seed it does — keep it that way if reseeding
    assert!(complete_seen >= 3, "only {complete_seen} complete sets drawn");
    assert!(incomplete_seen >= 3, "only {incomplete_seen} incomplete sets drawn");
}

#[test]
fn three_mode_sets_agree_with_the_oracle() {
    // 16^3 = 4096 vectors: still oracle-tractable, checks the packing
    // logic beyond two nibbles
    let mut rng = StdRng::seed_from_u64(0x3_0513);
    for trial in 0..8 {
        let k = 3;
        let gates: Vec<u32> =
            (0..2).map(|_| (rng.next_u64() as u32) & ((1 << (4 * k)) - 1)).collect();
        let set = PolyGateSet::new(k, gates.clone()).unwrap();
        assert_eq!(
            is_complete(&set),
            oracle_is_complete(k, set.gates()),
            "trial {trial}: gates {gates:#x?}"
        );
    }
}

#[test]
fn known_facts_from_the_paper() {
    use tables::*;
    // the device fabric (all five personalities freely per mode) is
    // complete at every supported mode count, and its exact closure is
    // the whole space, as the basis verdict says
    for k in 2..=3 {
        let fabric = PolyGateSet::fabric(k).unwrap();
        assert!(is_complete(&fabric), "fabric k={k}");
        let space: Vec<u32> = (0..1u32 << (4 * k)).collect();
        assert!(closure(&fabric) == space, "fabric k={k} closure");
    }
    // a mode-invariant universal gate is NOT polymorphically complete:
    // it can never make the modes disagree
    for g in [NAND, NOR] {
        let s = PolyGateSet::new(2, vec![invariant(g, 2)]).unwrap();
        assert!(!is_complete(&s), "invariant {g:04b}");
        assert!(closure(&s).iter().all(|v| v >> 4 == v & 0xF));
    }
    // one polymorphic gate restores completeness to invariant NAND
    let s = PolyGateSet::new(2, vec![invariant(NAND, 2), pack(&[NAND, NOT_A])]).unwrap();
    assert!(is_complete(&s));
    // monotone personalities can never produce an inverter in any mode
    let mono = PolyGateSet::from_personalities(2, &[AND, OR, ZERO, ONE]).unwrap();
    assert!(!is_complete(&mono));
    assert!(!closure(&mono).contains(&invariant(NOT_A, 2)));
    // the affine fragment is closed under composition
    let lin = PolyGateSet::from_personalities(2, &[XOR, XNOR]).unwrap();
    assert!(!is_complete(&lin));
}

#[test]
fn closure_is_monotone_in_the_gate_set() {
    // adding gates can only grow the reachable set — checked on a chain
    // of nested sets ending in the full fabric
    let chain = [
        PolyGateSet::from_personalities(2, &[tables::NOT_A]).unwrap(),
        PolyGateSet::from_personalities(2, &[tables::NOT_A, tables::ZERO]).unwrap(),
        PolyGateSet::from_personalities(2, &[tables::NOT_A, tables::ZERO, tables::NAND]).unwrap(),
        PolyGateSet::fabric(2).unwrap(),
    ];
    let closures: Vec<BTreeSet<u32>> =
        chain.iter().map(|s| closure(s).into_iter().collect()).collect();
    for w in closures.windows(2) {
        assert!(w[0].is_subset(&w[1]), "closure shrank when gates were added");
    }
    assert_eq!(closures.last().unwrap().len(), 256);
}

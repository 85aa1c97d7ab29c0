//! Determinism of defect sampling and injection (the E19 substrate).
//!
//! Two properties the defect-tolerance study depends on:
//!
//! * **same seed ⇒ same everything**: the sampled `Defect` set and the
//!   *behaviour* of the post-injection fabric are bit-identical no matter
//!   how many workers or what shard geometry produced the maps;
//! * **different seeds ⇒ different maps** (at any rate dense enough to
//!   inject at all).
//!
//! Counting a map's defects and bad blocks as they are drawn must agree
//! with building the map and counting its sets.

use pmorph_core::elaborate::elaborate;
use pmorph_core::{BlockConfig, DefectMap, Edge, Fabric, FabricTiming, OutMode};
use pmorph_exec::SweepConfig;
use pmorph_sim::{Logic, Simulator};
use pmorph_util::rng::{mix_seed, Rng, StdRng};

/// The historical E19 per-trial seed schedule.
fn e19_seeds(trials: usize, rate: f64) -> Vec<u64> {
    (0..trials).map(|t| t as u64 * 7919 + (rate * 1e4) as u64).collect()
}

/// A small configured fabric: one active SOP block driving east.
fn configured_fabric() -> Fabric {
    let mut fabric = Fabric::new(2, 2);
    let b = fabric.block_mut(0, 0);
    *b = BlockConfig::flowing(Edge::West, Edge::East);
    b.set_term(0, &[0, 1]);
    b.set_term(1, &[2]);
    b.drivers[0] = OutMode::Buf;
    b.drivers[1] = OutMode::Buf;
    fabric
}

/// Settled output values of the faulty fabric under a few input vectors —
/// the behavioural fingerprint compared across thread counts.
fn behaviour_fingerprint(faulty: &Fabric) -> Vec<Logic> {
    let elab = elaborate(faulty, &FabricTiming::default());
    let mut out = Vec::new();
    for m in [0b000u64, 0b011, 0b101, 0b111] {
        let mut sim = Simulator::new(elab.netlist.clone());
        for c in 0..3 {
            sim.drive(elab.vlane(0, 0, c), Logic::from_bool(m >> c & 1 == 1));
        }
        sim.settle(500_000).unwrap();
        for t in 0..2 {
            out.push(sim.value(elab.vlane(1, 0, t)));
        }
    }
    out
}

#[test]
fn same_seed_same_defect_sets_across_thread_counts() {
    let seeds = e19_seeds(24, 0.03);
    let reference =
        DefectMap::sample_sweep(4, 6, 0.03, &seeds, &SweepConfig::new().with_workers(1));
    // serial loop == sweep at workers=1
    let serial: Vec<DefectMap> = seeds.iter().map(|&s| DefectMap::sample(4, 6, 0.03, s)).collect();
    assert_eq!(reference, serial, "sweep at one worker is the serial loop");
    for workers in [2usize, 3, 8] {
        for shard_size in [1usize, 7, 24] {
            let cfg = SweepConfig::new().with_workers(workers).with_shard_size(shard_size);
            let maps = DefectMap::sample_sweep(4, 6, 0.03, &seeds, &cfg);
            assert_eq!(maps, reference, "workers={workers} shard_size={shard_size}");
        }
    }
}

#[test]
fn same_seed_same_post_injection_behaviour_across_thread_counts() {
    let fabric = configured_fabric();
    let seeds = e19_seeds(8, 0.05);
    let fingerprints = |workers: usize| -> Vec<Vec<Logic>> {
        let cfg = SweepConfig::new().with_workers(workers).with_shard_size(3);
        DefectMap::sample_sweep(2, 2, 0.05, &seeds, &cfg)
            .iter()
            .map(|map| behaviour_fingerprint(&map.apply(&fabric)))
            .collect()
    };
    let serial = fingerprints(1);
    for workers in [2usize, 8] {
        assert_eq!(fingerprints(workers), serial, "behaviour diverged at {workers} workers");
    }
    // sanity: at this rate, at least one map disturbs the configuration,
    // so the fingerprint comparison is not vacuously about clean fabrics
    let maps = DefectMap::sample_sweep(2, 2, 0.05, &seeds, &SweepConfig::new());
    assert!(maps.iter().any(|m| m.disturbs(&fabric)), "no sampled map disturbed the block");
}

#[test]
fn counting_matches_the_sampled_sets() {
    // seeded fabrics with sides from 1 to 48, the extremes of that range,
    // a single block and a 256-block row; rates from never to always
    let mut rng = StdRng::seed_from_u64(0xFA_0173);
    let mut shapes = vec![(1, 1), (256, 1), (1, 256), (48, 48)];
    shapes.extend(
        (0..20).map(|_| (rng.random_range(1..49u64) as usize, rng.random_range(1..49u64) as usize)),
    );
    for (k, &(width, height)) in shapes.iter().enumerate() {
        let mut rates = vec![0.0, 5e-324, 0.001, 0.05, 1.0];
        rates.extend((0..2).map(|_| rng.random::<f64>() * 0.2));
        for rate in rates {
            let seeds: Vec<u64> = (0..2).map(|t| mix_seed(k as u64, t)).collect();
            let counts = DefectMap::count_sweep(width, height, rate, &seeds, &SweepConfig::new());
            for (&seed, got) in seeds.iter().zip(counts) {
                let map = DefectMap::sample(width, height, rate, seed);
                assert_eq!(
                    got,
                    (map.len(), map.bad_blocks().len()),
                    "{width}x{height} at rate {rate:e}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = DefectMap::sample(4, 6, 0.03, 1);
    let mut distinct = 0;
    for seed in 2..12u64 {
        let b = DefectMap::sample(4, 6, 0.03, seed);
        if b != a {
            distinct += 1;
        }
    }
    assert!(distinct >= 9, "only {distinct}/10 differing maps — seeds are not mixing");
    // and the E19 schedule itself yields pairwise-distinct maps
    let seeds = e19_seeds(10, 0.03);
    let maps = DefectMap::sample_sweep(4, 6, 0.03, &seeds, &SweepConfig::new());
    for i in 0..maps.len() {
        for j in i + 1..maps.len() {
            assert_ne!(maps[i], maps[j], "trials {i} and {j} collided");
        }
    }
}

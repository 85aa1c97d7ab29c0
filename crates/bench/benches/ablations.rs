//! Ablation benches for the design choices DESIGN.md §5 calls out:
//!
//! 1. two-level NAND-NAND mapping vs a naive gate-per-block cascade,
//! 2. router feed-through cost (straight vs lane-shuffled vs detoured),
//! 3. inertial vs effectively-transport delay in the kernel (glitch-heavy
//!    workload),
//! 4. serial vs sharded parameter sweeps (the `pmorph-exec` engine).

use pmorph_core::{Edge, Fabric, OutMode};
use pmorph_device::ConfigurableInverter;
use pmorph_exec::{sweep, SweepConfig};
use pmorph_sim::{Logic, Simulator, WideMask};
use pmorph_synth::{lut3, minimize, Router};
use pmorph_util::microbench::{BenchmarkId, Criterion};
use pmorph_util::{criterion_group, criterion_main};
use std::hint::black_box;

/// Ablation 1: map a 3-input function as a two-level SOP pair vs a chain
/// of single-NAND blocks (one gate per block, the naive style the paper
/// says would be "interconnect dominated" in conventional technology).
fn ablate_mapping(c: &mut Criterion) {
    let tt = WideMask::from_fn(3, |m| m.count_ones() % 2 == 1);
    let mut group = c.benchmark_group("ablate/mapping_style");
    group.bench_function("two_level_sop_pair", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(4, 1);
            black_box(lut3(&mut fabric, 0, 0, &tt).unwrap());
            black_box(fabric.active_cells())
        })
    });
    group.bench_function("gate_per_block_cascade", |b| {
        b.iter(|| {
            // XOR3 as a cascade of 8 single-NAND blocks (4-NAND XOR, twice)
            let mut fabric = Fabric::new(8, 1);
            for x in 0..8 {
                let blk = fabric.block_mut(x, 0);
                *blk = pmorph_core::BlockConfig::flowing(Edge::West, Edge::East);
                blk.set_term(0, &[0, 1]);
                blk.drivers[0] = OutMode::Buf;
            }
            black_box(fabric.active_cells())
        })
    });
    group.finish();
    // report the structural difference once (criterion measures time; the
    // cell-count difference is asserted in tests)
    let sop = minimize(&tt);
    assert_eq!(sop.cubes.len(), 4);
}

/// Ablation 2: routing cost — straight, lane-shuffled, and detoured paths.
fn ablate_routing(c: &mut Criterion) {
    use pmorph_synth::PortLoc;
    let mut group = c.benchmark_group("ablate/routing");
    group.bench_function("straight_6_blocks", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(6, 1);
            let mut r = Router::new();
            black_box(
                r.route(
                    &mut fabric,
                    PortLoc::new(0, 0, Edge::West, 0),
                    PortLoc::new(5, 0, Edge::East, 0),
                    &[0, 1, 2],
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("lane_shuffle_6_blocks", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(6, 1);
            let mut r = Router::new();
            black_box(
                r.route_mapped(
                    &mut fabric,
                    PortLoc::new(0, 0, Edge::West, 0),
                    PortLoc::new(5, 0, Edge::East, 0),
                    &[(0, 3), (1, 4), (2, 5)],
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("detour_around_wall", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(5, 3);
            let mut r = Router::new();
            r.occupy(2, 0);
            r.occupy(2, 1);
            black_box(
                r.route(
                    &mut fabric,
                    PortLoc::new(0, 0, Edge::West, 0),
                    PortLoc::new(4, 0, Edge::East, 0),
                    &[0],
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

/// Ablation 3: glitch-heavy simulation — the inertial single-pending model
/// swallows sub-delay pulses; measure the kernel under a pulse train that
/// is mostly swallowed vs one that always propagates.
fn ablate_inertial(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate/inertial_delay");
    for (label, pulse) in [("swallowed_glitches", 20u64), ("propagating_pulses", 200u64)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &pulse, |b, &pulse| {
            b.iter(|| {
                let mut nl = pmorph_sim::Netlist::new();
                let a = nl.add_net();
                let mut prev = a;
                for _ in 0..20 {
                    let n = nl.add_net();
                    nl.add_comp(pmorph_sim::Component::Buf { input: prev, output: n }, 100);
                    prev = n;
                }
                let mut sim = Simulator::new(nl);
                let mut t = 10u64;
                for _ in 0..50 {
                    sim.drive_at(a, Logic::L1, t);
                    sim.drive_at(a, Logic::L0, t + pulse);
                    t += 2 * pulse + 50;
                }
                sim.settle(10_000_000).unwrap();
                black_box(sim.stats().events)
            })
        });
    }
    group.finish();
}

/// Ablation 4: the parallel engine — VTC family sweep serial vs sharded.
fn ablate_parallel_sweep(c: &mut Criterion) {
    let inv = ConfigurableInverter::default();
    let biases: Vec<f64> = (0..64).map(|i| -1.5 + 3.0 * i as f64 / 63.0).collect();
    let mut group = c.benchmark_group("ablate/vtc_sweep");
    group.bench_function("serial", |b| {
        b.iter(|| {
            let v: Vec<_> = biases.iter().map(|&vg| inv.vtc(vg, 41)).collect();
            black_box(v)
        })
    });
    group.bench_function("sharded", |b| {
        b.iter(|| {
            let v = sweep(biases.len(), &SweepConfig::new(), || (), |_, i| inv.vtc(biases[i], 41));
            black_box(v)
        })
    });
    group.finish();
}

criterion_group!(ablations, ablate_mapping, ablate_routing, ablate_inertial, ablate_parallel_sweep);
criterion_main!(ablations);

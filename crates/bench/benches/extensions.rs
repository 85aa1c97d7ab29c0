//! Criterion benches for the extension studies (E19–E22): defect-map
//! sampling, defect-aware remapping, counter/shift-register composition,
//! and the general Shannon-tree mapper.

use pmorph_core::{DefectMap, Fabric, FabricTiming};
use pmorph_sim::WideMask;
use pmorph_synth::{mapk, shift_register, Counter};
use pmorph_util::microbench::{BenchmarkId, Criterion};
use pmorph_util::{criterion_group, criterion_main};
use std::hint::black_box;

fn defect_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext/defect_sample");
    for rate in [0.001f64, 0.03] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(DefectMap::sample(16, 16, rate, seed))
            })
        });
    }
    group.finish();
}

fn counter_tick(c: &mut Criterion) {
    c.bench_function("ext/counter4_tick", |b| {
        let counter = Counter::build(4).unwrap();
        let mut sim = counter.elaborate(&FabricTiming::default());
        sim.reset();
        b.iter(|| black_box(sim.tick()))
    });
}

fn shift_register_build(c: &mut Criterion) {
    c.bench_function("ext/shift_register8_build_elaborate", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(48, 1);
            let p = shift_register(&mut fabric, 0, 0, 8).unwrap();
            let elab = pmorph_core::elaborate::elaborate(&fabric, &FabricTiming::default());
            black_box((p.q.len(), elab.netlist.comp_count()))
        })
    });
}

fn general_mapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext/map_function");
    for n in [4usize, 5, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let tt = WideMask::from_fn(n, |m| m.count_ones() % 2 == 1);
            b.iter(|| {
                let (w, h) = mapk::fabric_size_for(n);
                let mut fabric = Fabric::new(w, h);
                black_box(mapk::map_function(&mut fabric, 0, &tt).unwrap().tiles)
            })
        });
    }
    group.finish();
}

criterion_group!(extensions, defect_sampling, counter_tick, shift_register_build, general_mapper);
criterion_main!(extensions);

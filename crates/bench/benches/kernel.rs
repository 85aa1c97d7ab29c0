//! Criterion benches for the simulation substrate itself: event-kernel
//! throughput, elaboration speed, and the study pipelines (E15–E18).
//!
//! This is the suite behind the tracked `BENCH_kernel.json` baseline
//! (`scripts/bench.sh`): the three `kernel_*_events` workloads report
//! events/second through the CSR + timing-wheel kernel, and
//! `kernel_alloc_free_steady_state` proves — with a counting global
//! allocator — that the steady-state event loop performs zero heap
//! allocations.

use pmorph_core::elaborate::elaborate;
use pmorph_core::{Fabric, FabricTiming, OutMode, LANES};
use pmorph_device::variation::{run_study, VariationModel};
use pmorph_sim::{Component, Logic, NetId, Netlist, NetlistBuilder, Simulator};
use pmorph_util::microbench::{BenchmarkId, Criterion, Throughput};
use pmorph_util::{criterion_group, criterion_main};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and growing reallocation) so the steady-state
/// check below can assert the kernel's hot loop is allocation-free.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Event-kernel throughput on a free-running inverter ring. Every ring
/// runs the same 100 ns window, so the work is the events applied, not
/// the stage count: one iteration's events are counted before timing and
/// reported as its elements.
fn kernel_event_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/ring_events");
    let run = |nl: &Netlist, en| {
        let mut sim = Simulator::new(nl.clone());
        sim.drive(en, Logic::L0);
        sim.settle(1_000_000).unwrap();
        sim.drive(en, Logic::L1);
        sim.run_until(100_000, 100_000_000).unwrap();
        sim.stats().events
    };
    for stages in [3usize, 31, 301] {
        let mut nl = Netlist::new();
        let en = nl.add_net();
        let mut nets = vec![nl.add_net()];
        for _ in 1..stages {
            nets.push(nl.add_net());
        }
        nl.add_comp(Component::Nand { inputs: vec![en, nets[stages - 1]], output: nets[0] }, 5);
        for i in 1..stages {
            nl.add_comp(Component::Inv { input: nets[i - 1], output: nets[i] }, 5);
        }
        group.throughput(Throughput::Elements(run(&nl, en)));
        group.bench_with_input(BenchmarkId::from_parameter(stages), &nl, |b, nl| {
            b.iter(|| black_box(run(nl, en)))
        });
    }
    group.finish();
}

/// Fabric elaboration speed vs array size.
fn kernel_elaboration(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/elaborate");
    for side in [4usize, 16, 32] {
        let mut fabric = Fabric::new(side, side);
        fabric.checkerboard_flow();
        for y in 0..side {
            for x in 0..side {
                let b = fabric.block_mut(x, y);
                b.set_term(0, &[0, 1]);
                b.drivers[0] = pmorph_core::OutMode::Buf;
            }
        }
        group.throughput(Throughput::Elements((side * side) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(side), &fabric, |b, fabric| {
            b.iter(|| black_box(elaborate(fabric, &FabricTiming::default())))
        });
    }
    group.finish();
}

/// Bitstream encode/decode round trip for a whole array.
fn kernel_bitstream(c: &mut Criterion) {
    let mut fabric = Fabric::new(32, 32);
    fabric.checkerboard_flow();
    c.bench_function("kernel/bitstream_round_trip_1024_blocks", |b| {
        b.iter(|| {
            let bits = fabric.to_bitstream();
            black_box(Fabric::from_bitstream(&bits).unwrap())
        })
    });
}

/// E18 study kernel: pool-parallel Monte-Carlo threshold variation.
fn study_variation_mc(c: &mut Criterion) {
    let mut group = c.benchmark_group("study/variation_mc");
    for samples in [64usize, 256] {
        group.throughput(Throughput::Elements(samples as u64));
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &samples| {
            b.iter(|| black_box(run_study(VariationModel::doped_bulk(), samples, 1, 0.3, 0.7)))
        });
    }
    group.finish();
}

/// E16 study kernel: one GALS word transfer.
fn study_gals_transfer(c: &mut Criterion) {
    c.bench_function("study/gals_transfer_4_words", |b| {
        b.iter(|| {
            let mut g = pmorph_async::GalsSystem::new(2, 8, 700, 1100);
            black_box(g.transfer(&[1, 2, 3, 4]))
        })
    });
}

/// Levelized vs event-driven exhaustive sweeps (the fast-path choice).
fn kernel_levelized_vs_event(c: &mut Criterion) {
    use pmorph_sim::{Levelized, NetId, NetlistBuilder};
    // a 10-input, ~60-gate parity/majority mix
    let mut b = NetlistBuilder::new();
    let inputs: Vec<NetId> = (0..10).map(|_| b.net()).collect();
    let mut level = inputs.clone();
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(b.xor(&[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let out = level[0];
    let nl = b.build();
    let mut group = c.benchmark_group("kernel/exhaustive_1024_vectors");
    group.bench_function("levelized", |bch| {
        bch.iter(|| {
            let mut lev = Levelized::new(nl.clone()).unwrap();
            let mut acc = 0u32;
            for v in 0..1024u64 {
                let bound: Vec<(NetId, Logic)> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| (n, Logic::from_bool(v >> i & 1 == 1)))
                    .collect();
                let values = lev.eval(&bound);
                acc += (values[out.0 as usize] == Logic::L1) as u32;
            }
            black_box(acc)
        })
    });
    group.bench_function("event_driven", |bch| {
        bch.iter(|| {
            let mut acc = 0u32;
            for v in 0..1024u64 {
                let mut sim = Simulator::new(nl.clone());
                for (i, &n) in inputs.iter().enumerate() {
                    sim.drive(n, Logic::from_bool(v >> i & 1 == 1));
                }
                sim.settle(1_000_000).unwrap();
                acc += (sim.value(out) == Logic::L1) as u32;
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Tracked workload 4: the 64-lane bit-parallel exhaustive sweep against
/// the scalar levelized path on the same 10-input XOR tree (1024
/// vectors). Both groups report vectors/second; the speedup floor (≥ 10×,
/// typically 30–60×) and the partial-final-word lane masking are recorded
/// as pass/fail checks so `benchcheck` gates them alongside the medians.
fn kernel_bitsim(c: &mut Criterion) {
    use pmorph_exec::SweepConfig;
    use pmorph_sim::bitsim::{sweep_truth, BitSim};
    use pmorph_sim::table::WideMask;
    use pmorph_sim::vectors::exhaustive_truth_levelized;
    // the same 10-input, ~60-gate XOR tree as kernel/exhaustive_1024_vectors
    let mut b = NetlistBuilder::new();
    let inputs: Vec<NetId> = (0..10).map(|_| b.net()).collect();
    let mut level = inputs.clone();
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(b.xor(&[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let out = level[0];
    let nl = b.build();
    let proto = BitSim::new(nl.clone()).unwrap();
    let cfg = SweepConfig::new().with_workers(1); // single-lane kernel cost, no pool skew
    let expect = WideMask::from_fn(10, |m| m.count_ones() % 2 == 1);

    let mut group = c.benchmark_group("bitsim/exhaustive_10in_1024_vectors");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("bitsim_64lane", |bch| {
        bch.iter(|| black_box(sweep_truth(&proto, &inputs, &[out], &cfg)))
    });
    group.finish();
    let bitsim_ns = c.last_median_ns();

    let mut group = c.benchmark_group("bitsim/scalar_levelized_10in_1024_vectors");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("scalar_levelized", |bch| {
        bch.iter(|| black_box(exhaustive_truth_levelized(&nl, &inputs, &[out]).unwrap()))
    });
    group.finish();
    let scalar_ns = c.last_median_ns();

    // the speedup claim is only worth tracking if both paths are correct
    let wide = sweep_truth(&proto, &inputs, &[out], &cfg);
    let ok = c.record_check("bitsim_mask_matches_scalar_oracle", wide == vec![Some(expect)]);
    assert!(ok, "bit-parallel mask diverged from the scalar oracle");

    // partial final word: n = 4 has 16 live lanes in one word — lanes
    // beyond 2^n must come back masked to zero
    let mut b4 = NetlistBuilder::new();
    let ins4: Vec<NetId> = (0..4).map(|_| b4.net()).collect();
    let maj = {
        let ab = b4.and(&[ins4[0], ins4[1]]);
        let cd = b4.and(&[ins4[2], ins4[3]]);
        b4.or(&[ab, cd])
    };
    let nl4 = b4.build();
    let proto4 = BitSim::new(nl4.clone()).unwrap();
    let wide4 = sweep_truth(&proto4, &ins4, &[maj], &cfg);
    let scalar4 = exhaustive_truth_levelized(&nl4, &ins4, &[maj]).unwrap();
    let lanes_ok = match &wide4[0] {
        Some(m) => m.words()[0] & !WideMask::lane_mask(4) == 0 && wide4 == scalar4,
        None => false,
    };
    let ok = c.record_check("bitsim_partial_word_lanes_masked", lanes_ok);
    assert!(ok, "lanes beyond 2^n leaked into the mask");

    let (Some(fast), Some(slow)) = (bitsim_ns, scalar_ns) else {
        panic!("bitsim benches produced no samples");
    };
    let speedup = slow / fast;
    println!("bitsim: {speedup:.1}x over scalar levelized (1024 vectors)");
    let ok = c.record_check("bitsim_speedup_ge_10x_over_scalar_levelized", speedup >= 10.0);
    assert!(ok, "bit-parallel speedup {speedup:.1}x below the 10x floor");
}

/// Tracked workload 5: the 64-lane *sequential* kernel against the scalar
/// event-driven engine on a registered 10-input XOR pipeline (four
/// register levels, 1024 vectors × 4 clock cycles each). The lane-parallel
/// path steps whole 64-vector words through `step_cycle`; the scalar path
/// builds an event simulator per vector and runs the free-running clock
/// for the same four cycles. Both must agree with the parity oracle, and
/// the speedup floor (≥ 8×) is recorded as a pass/fail check so
/// `benchcheck` gates it alongside the medians.
fn kernel_seq_bitsim(c: &mut Criterion) {
    use pmorph_exec::SweepConfig;
    use pmorph_sim::table::WideMask;
    use pmorph_sim::{sweep_seq_truth, SeqBitSim};
    // 10 inputs, xor-reduced with a register bank after every tree level:
    // 10 → 5 → 3 → 2 → 1 nets, four DFF levels deep.
    const VARS: usize = 10;
    const HALF: u64 = 500;
    let mut b = NetlistBuilder::new();
    let clk = b.net();
    b.clock(clk, HALF, 0);
    let inputs: Vec<NetId> = (0..VARS).map(|_| b.net()).collect();
    let mut level = inputs.clone();
    let mut depth = 0usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            let d = if pair.len() == 2 { b.xor(&[pair[0], pair[1]]) } else { pair[0] };
            let q = b.net();
            b.dff(d, clk, None, q);
            next.push(q);
        }
        level = next;
        depth += 1;
    }
    let out = level[0];
    let nl = b.build();
    let cycles = depth; // one capture per register level flushes the zeros
    let proto = SeqBitSim::new(nl.clone()).unwrap();
    let cfg = SweepConfig::new().with_workers(1); // single-lane kernel cost, no pool skew
    let vectors = 1u64 << VARS;

    let mut group = c.benchmark_group("bitsim/seq_64lane_10in_1024_vectors");
    group.throughput(Throughput::Elements(vectors));
    group.bench_function("seq_64lane", |bch| {
        bch.iter(|| black_box(sweep_seq_truth(&proto, &inputs, &[out], cycles, &cfg)))
    });
    group.finish();
    let seq_ns = c.last_median_ns();

    let run_event = || {
        let mut mask = WideMask::zero(VARS);
        for v in 0..vectors {
            let mut sim = Simulator::new(nl.clone());
            for (i, &n) in inputs.iter().enumerate() {
                sim.drive(n, Logic::from_bool(v >> i & 1 == 1));
            }
            // rising edges at HALF, 3·HALF, …: `cycles` edges have passed
            // once t reaches 2·cycles·HALF
            sim.run_until(2 * cycles as u64 * HALF, 100_000_000).unwrap();
            if sim.value(out) == Logic::L1 {
                mask.words_mut()[(v / 64) as usize] |= 1u64 << (v % 64);
            }
        }
        mask
    };
    let mut group = c.benchmark_group("bitsim/scalar_event_registered_10in_1024_vectors");
    group.throughput(Throughput::Elements(vectors));
    group.bench_function("scalar_event", |bch| bch.iter(|| black_box(run_event())));
    group.finish();
    let event_ns = c.last_median_ns();

    // the speedup claim is only worth tracking if both engines agree with
    // each other and with the parity oracle
    let expect = WideMask::from_fn(VARS, |m| m.count_ones() % 2 == 1);
    let wide = sweep_seq_truth(&proto, &inputs, &[out], cycles, &cfg);
    let event_mask = run_event();
    let ok = c.record_check(
        "seq_bitsim_matches_event_oracle_and_parity",
        wide == vec![Some(expect.clone())] && event_mask == expect,
    );
    assert!(ok, "sequential kernel diverged from the event oracle / parity truth");

    let (Some(fast), Some(slow)) = (seq_ns, event_ns) else {
        panic!("sequential bitsim benches produced no samples");
    };
    let speedup = slow / fast;
    println!("seq bitsim: {speedup:.1}x over scalar event (1024 vectors x {cycles} cycles)");
    let ok = c.record_check("seq_bitsim_speedup_ge_8x_over_scalar_event", speedup >= 8.0);
    assert!(ok, "sequential lane-parallel speedup {speedup:.1}x below the 8x floor");
}

/// Tracked workload 1: a 16×16 checkerboard-rotated array (256 blocks,
/// Fig. 8 stitching) elaborated once, then repeatedly re-stimulated from
/// its west/north perimeter. One simulator is reused across vectors via
/// snapshot/restore — the allocation-free sweep path.
fn kernel_fabric_rotated_array(c: &mut Criterion) {
    let side = 16usize;
    let mut fabric = Fabric::new(side, side);
    fabric.checkerboard_flow();
    for y in 0..side {
        for x in 0..side {
            let b = fabric.block_mut(x, y);
            b.set_term(0, &[0, 1]);
            b.drivers[0] = OutMode::Buf;
        }
    }
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut perimeter: Vec<NetId> = Vec::new();
    for y in 0..side {
        for lane in 0..LANES {
            perimeter.push(elab.vlane(0, y, lane));
        }
    }
    for x in 0..side {
        for lane in 0..LANES {
            perimeter.push(elab.hlane(x, 0, lane));
        }
    }
    let mut sim = Simulator::new(elab.netlist.clone());
    let initial = sim.snapshot();
    let run = |sim: &mut Simulator| {
        sim.restore(&initial);
        for phase in 0..2u64 {
            for (i, &n) in perimeter.iter().enumerate() {
                sim.drive(n, Logic::from_bool((i as u64 + phase) % 2 == 1));
            }
            sim.settle(10_000_000).expect("fabric settles");
        }
        sim.stats().events
    };
    let before = sim.stats().events;
    run(&mut sim);
    let events_per_iter = sim.stats().events - before;
    let mut group = c.benchmark_group("kernel/fabric_rotated_16x16_events");
    group.throughput(Throughput::Elements(events_per_iter));
    group.bench_function("sweep", |b| b.iter(|| black_box(run(&mut sim))));
    group.finish();
}

/// Tracked workload 2: a 16-bit gate-level ripple-carry adder pushed
/// through eight operand pairs per iteration (long carry chains → deep
/// event cascades), one reused simulator.
fn kernel_datapath_ripple16(c: &mut Criterion) {
    const W: usize = 16;
    let mut b = NetlistBuilder::new();
    let a_in: Vec<NetId> = (0..W).map(|_| b.net()).collect();
    let b_in: Vec<NetId> = (0..W).map(|_| b.net()).collect();
    let cin = b.net();
    let mut carry = cin;
    let mut sum = Vec::with_capacity(W);
    for i in 0..W {
        let axb = b.xor(&[a_in[i], b_in[i]]);
        sum.push(b.xor(&[axb, carry]));
        let g = b.and(&[a_in[i], b_in[i]]);
        let p = b.and(&[axb, carry]);
        carry = b.or(&[g, p]);
    }
    let nl = b.build();
    let mut sim = Simulator::new(nl);
    sim.drive(cin, Logic::L0);
    let run = |sim: &mut Simulator| {
        let mut acc = 0u64;
        for k in 0..8u64 {
            // operands chosen to ripple carries end to end
            let a = if k % 2 == 0 { 0xFFFF } else { 0x5555 ^ (k * 0x1111) };
            let bv = if k % 2 == 0 { k + 1 } else { 0xAAAA ^ k };
            for i in 0..W {
                sim.drive(a_in[i], Logic::from_bool(a >> i & 1 == 1));
                sim.drive(b_in[i], Logic::from_bool(bv >> i & 1 == 1));
            }
            sim.settle(10_000_000).expect("adder settles");
            acc += (sim.value(sum[W - 1]) == Logic::L1) as u64;
        }
        acc
    };
    let before = sim.stats().events;
    run(&mut sim);
    let events_per_iter = sim.stats().events - before;
    let mut group = c.benchmark_group("kernel/datapath_ripple16_events");
    group.throughput(Throughput::Elements(events_per_iter));
    group.bench_function("8_vectors", |b| b.iter(|| black_box(run(&mut sim))));
    group.finish();
}

/// Tracked workload 3: a deep 48-stage × 16-bit micropipeline FIFO,
/// 16 words pushed and popped per iteration with two-phase handshakes
/// (C-element feedback chains dominate the event mix).
fn kernel_micropipeline_deep(c: &mut Criterion) {
    let mut h = pmorph_async::PipelineHarness::new(48, 16, 10);
    let run = |h: &mut pmorph_async::PipelineHarness| {
        let words: Vec<u64> = (0..16u64).map(|k| 0xBEE5 ^ (k * 0x0101)).collect();
        let mut to_send = words.iter().copied();
        let mut pending = to_send.next();
        let mut got = 0usize;
        while got < words.len() {
            let mut progressed = false;
            if let Some(w) = pending {
                if h.can_send() {
                    h.send(w);
                    pending = to_send.next();
                    progressed = true;
                }
            }
            if h.recv().is_some() {
                got += 1;
                progressed = true;
            }
            assert!(progressed, "FIFO deadlock");
        }
        got
    };
    let before = h.sim.stats().events;
    run(&mut h);
    let events_per_iter = h.sim.stats().events - before;
    let mut group = c.benchmark_group("kernel/micropipeline_48x16_events");
    group.throughput(Throughput::Elements(events_per_iter));
    group.bench_function("16_words", |b| b.iter(|| black_box(run(&mut h))));
    group.finish();
}

/// The allocation-free claim, enforced: warm a 301-stage ring oscillator
/// past its first lap (all queue buckets, dirty lists, and scratch at
/// steady capacity), zero the allocation counter, run two million more
/// picoseconds, and require that the kernel performed **no** heap
/// allocation. Recorded into `BENCH_kernel.json` as a pass/fail check.
fn kernel_alloc_free_steady_state(c: &mut Criterion) {
    let stages = 301usize;
    let mut nl = Netlist::new();
    let en = nl.add_net();
    let mut nets = vec![nl.add_net()];
    for _ in 1..stages {
        nets.push(nl.add_net());
    }
    nl.add_comp(Component::Nand { inputs: vec![en, nets[stages - 1]], output: nets[0] }, 5);
    for i in 1..stages {
        nl.add_comp(Component::Inv { input: nets[i - 1], output: nets[i] }, 5);
    }
    let mut sim = Simulator::new(nl);
    sim.drive(en, Logic::L0);
    sim.settle(1_000_000).unwrap();
    sim.drive(en, Logic::L1);
    // warm-up: several full ring laps populate every wheel bucket the
    // workload will ever touch and size the dirty-list scratch
    sim.run_until(500_000, 100_000_000).unwrap();
    let warm_events = sim.stats().events;
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    sim.run_until(2_500_000, 100_000_000).unwrap();
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    let steady_events = sim.stats().events - warm_events;
    println!("kernel/alloc_free: {steady_events} events after warm-up, {allocs} heap allocations");
    // one ring event per 5 ps of simulated time → 400k over the window
    assert!(steady_events > 100_000, "ring must actually run ({steady_events} events)");
    let ok = c.record_check("steady_state_event_loop_alloc_free", allocs == 0);
    assert!(ok, "steady-state event loop allocated {allocs} times");
}

/// Observability-layer cost, measured in-process with the gate forced
/// each way on the *same* warmed simulator (A/B on one binary, so no
/// build- or host-skew): a 31-stage ring re-run from a snapshot with the
/// layer disabled, then enabled. The ratio is recorded as a pass/fail
/// check — the enabled run-boundary flush is a couple dozen relaxed
/// atomics per `run_until`, so anything beyond 1.5× means the "metrics
/// are write-only side channels" contract has been broken. Registry
/// micro-op costs ride along for the README table. Runs *after*
/// `kernel_alloc_free_steady_state` in the group so the forced-enabled
/// interning cannot perturb the allocation counter.
fn kernel_obs_overhead(c: &mut Criterion) {
    let stages = 31usize;
    let mut nl = Netlist::new();
    let en = nl.add_net();
    let mut nets = vec![nl.add_net()];
    for _ in 1..stages {
        nets.push(nl.add_net());
    }
    nl.add_comp(Component::Nand { inputs: vec![en, nets[stages - 1]], output: nets[0] }, 5);
    for i in 1..stages {
        nl.add_comp(Component::Inv { input: nets[i - 1], output: nets[i] }, 5);
    }
    let mut sim = Simulator::new(nl);
    sim.drive(en, Logic::L0);
    sim.settle(1_000_000).unwrap();
    sim.drive(en, Logic::L1);
    sim.run_until(100_000, 100_000_000).unwrap(); // warm every bucket
    let snap = sim.snapshot();
    let mut run = move || {
        sim.restore(&snap);
        sim.run_until(300_000, 100_000_000).unwrap();
        black_box(sim.stats().events)
    };

    pmorph_obs::force(false);
    c.bench_function("kernel/obs_overhead/disabled", |b| b.iter(&mut run));
    let disabled_ns = c.last_median_ns();
    pmorph_obs::force(true);
    c.bench_function("kernel/obs_overhead/enabled", |b| b.iter(&mut run));
    let enabled_ns = c.last_median_ns();

    // Registry primitive costs, both sides of the gate. Batched 1024 ops
    // per timed iteration: the disabled path is sub-nanosecond, far below
    // what one pair of clock reads resolves. Per-op cost = median / 1024.
    const OPS: u64 = 1024;
    let ctr = pmorph_obs::counter!("bench.obs.counter");
    let hist = pmorph_obs::histogram!("bench.obs.hist", pmorph_obs::bounds::TIME_NS);
    let mut group = c.benchmark_group("obs/primitives_1024ops");
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("counter_inc_enabled", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                ctr.inc();
            }
        })
    });
    group.bench_function("histogram_observe_enabled", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                hist.observe(black_box(4096));
            }
        })
    });
    pmorph_obs::force(false);
    group.bench_function("counter_inc_disabled", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                ctr.inc();
            }
        })
    });
    group.bench_function("histogram_observe_disabled", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                hist.observe(black_box(4096));
            }
        })
    });
    group.finish();
    pmorph_obs::force_from_env(); // leave the gate as the environment set it

    let (Some(d), Some(e)) = (disabled_ns, enabled_ns) else {
        panic!("obs overhead benches produced no samples");
    };
    let ratio = e / d;
    println!("kernel/obs_overhead: enabled/disabled median ratio {ratio:.3}");
    let ok = c.record_check("obs_enabled_overhead_ratio_le_1.5", ratio <= 1.5);
    assert!(ok, "observability enabled-path overhead ratio {ratio:.3} exceeds 1.5");
}

/// The workloads `BENCH_kernel.json` must contain (`benchcheck` reads
/// them back from the artifact): the three events/second workloads and
/// the two bit-parallel vectors/second groups.
fn kernel_required(c: &mut Criterion) {
    c.require(&[
        "kernel/fabric_rotated_16x16_events",
        "kernel/datapath_ripple16_events",
        "kernel/micropipeline_48x16_events",
        "bitsim/exhaustive_10in",
        "bitsim/seq_64lane",
    ]);
}

criterion_group!(
    kernel,
    kernel_required,
    kernel_event_throughput,
    kernel_elaboration,
    kernel_bitstream,
    kernel_levelized_vs_event,
    kernel_bitsim,
    kernel_seq_bitsim,
    kernel_fabric_rotated_array,
    kernel_datapath_ripple16,
    kernel_micropipeline_deep,
    kernel_alloc_free_steady_state,
    kernel_obs_overhead,
    study_variation_mc,
    study_gals_transfer
);
criterion_main!(kernel);

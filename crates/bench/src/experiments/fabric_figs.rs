//! E5–E8: the fabric figures (Figs. 7–10).

use super::Experiment;
use pmorph_core::elaborate::elaborate;
use pmorph_core::{BlockConfig, Edge, Fabric, FabricTiming, OutMode, LANES};
use pmorph_exec::{sweep, SweepConfig};
use pmorph_sim::{BitSim, Logic, NetId, Simulator, WideMask};
use pmorph_synth::{dff, lut3, ripple_adder};
use pmorph_util::rng::Rng;
use pmorph_util::rng::StdRng;

/// E5 / Fig. 7: the 6×6 NAND block evaluates arbitrary ≤6-term SOPs over
/// its six inputs, configured by exactly 128 bits.
pub fn fig7_nand_block() -> Experiment {
    let mut rows = Vec::new();
    let mut pass = true;
    // six random 6-input product configurations, verified exhaustively
    let mut rng = StdRng::seed_from_u64(7);
    let mut cfg = BlockConfig::flowing(Edge::West, Edge::East);
    let mut term_cols: Vec<Vec<usize>> = Vec::new();
    for t in 0..LANES {
        let cols: Vec<usize> = (0..LANES).filter(|_| rng.random::<bool>()).collect();
        cfg.set_term(t, &cols);
        cfg.drivers[t] = OutMode::Buf;
        term_cols.push(cols);
    }
    let mut fabric = Fabric::new(1, 1);
    *fabric.block_mut(0, 0) = cfg;
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut mismatches = 0;
    for m in 0..(1u64 << LANES) {
        let mut sim = Simulator::new(elab.netlist.clone());
        for c in 0..LANES {
            sim.drive(elab.vlane(0, 0, c), Logic::from_bool(m >> c & 1 == 1));
        }
        sim.settle(500_000).unwrap();
        for (t, cols) in term_cols.iter().enumerate() {
            let want = !cols.iter().all(|&c| m >> c & 1 == 1);
            if sim.value(elab.vlane(1, 0, t)) != Logic::from_bool(want) {
                mismatches += 1;
            }
        }
    }
    pass &= mismatches == 0;
    rows.push(format!("6 random NAND terms × 64 input vectors: {mismatches} mismatches"));
    rows.push(format!(
        "configuration: {} bits/block (8×8 two-bit RAM) — paper: 128",
        pmorph_core::config::CONFIG_BITS_PER_BLOCK
    ));
    pass &= pmorph_core::config::CONFIG_BITS_PER_BLOCK == 128;
    Experiment {
        id: "E5/Fig7",
        title: "6-input × 6-output NAND block",
        paper: "a block is a 6x6 NAND array configured as an 8x8 multi-valued RAM: 128 bits",
        rows,
        pass,
    }
}

/// E6 / Fig. 8: array stitching — rotation pattern, output/input abutment,
/// feed-through chains, and the pair-as-LUT equivalence.
pub fn fig8_array() -> Experiment {
    let mut rows = Vec::new();
    let mut pass = true;
    // checkerboard rotation
    let mut f = Fabric::new(4, 4);
    f.checkerboard_flow();
    let rotated = (0..4).flat_map(|y| (0..4).map(move |x| (x, y))).all(|(x, y)| {
        let b = f.block(x, y);
        if (x + y) % 2 == 0 {
            b.output_edge == Edge::East
        } else {
            b.output_edge == Edge::South
        }
    });
    pass &= rotated;
    rows.push(format!("checkerboard 90° rotation applied: {rotated}"));
    // feed-through chain across 8 blocks: delay = hops × block delay
    let t = FabricTiming::default();
    let mut f = Fabric::new(8, 1);
    for x in 0..8 {
        let b = f.block_mut(x, 0);
        pmorph_synth::ft(b, 3, 3);
    }
    let elab = elaborate(&f, &t);
    let mut sim = Simulator::new(elab.netlist.clone());
    sim.drive(elab.vlane(0, 0, 3), Logic::L0);
    sim.settle(1_000_000).unwrap();
    sim.watch(elab.vlane(8, 0, 3));
    let t0 = sim.time();
    sim.drive(elab.vlane(0, 0, 3), Logic::L1);
    sim.settle(1_000_000).unwrap();
    let arrive = sim.trace(elab.vlane(8, 0, 3)).last().unwrap().0 - t0;
    let expect = t.path_ps(8);
    pass &= arrive == expect;
    rows.push(format!(
        "8-block feed-through: {arrive} ps measured vs {expect} ps = hops × (NAND+driver)"
    ));
    // pair-as-LUT: a block pair realises any 3-input function (via the
    // full 2-cell tile, polarity rails provided externally)
    let mut ok = 0;
    for bits in (0..256u64).step_by(17) {
        let tt = WideMask::from_u64(3, bits);
        let mut f = Fabric::new(4, 1);
        if lut3(&mut f, 0, 0, &tt).is_ok() {
            ok += 1;
        }
    }
    pass &= ok == 16;
    rows.push(format!("pair-as-LUT: {ok}/16 sampled 3-input functions map into a cell pair"));
    Experiment {
        id: "E6/Fig8",
        title: "array layout: rotation, abutment, lfb cascading",
        paper: "adjacent cells rotated 90°; outputs abut inputs; pairs of cells form 6-in/6-out/6-term LUTs",
        rows,
        pass,
    }
}

/// E7 / Fig. 9: 3-LUT (x+y+z) + edge-triggered DFF, simulated clocked.
pub fn fig9_lut_dff() -> Experiment {
    let mut rows = Vec::new();
    let mut pass = true;
    let tt = WideMask::from_fn(3, |m| m != 0); // x + y + z
    let mut fabric = Fabric::new(10, 1);
    let lut = lut3(&mut fabric, 0, 0, &tt).unwrap();
    let ff = dff(&mut fabric, 4, 0).unwrap();
    let mut router = pmorph_synth::Router::new();
    router.occupy_all(&lut.footprint);
    router.occupy_all(&ff.footprint);
    router.route(&mut fabric, lut.output, pmorph_synth::PortLoc { lane: 0, ..ff.d }, &[0]).unwrap();
    rows.push(format!(
        "mapped: 3-LUT (2 cells + polarity) + DFF (5 cells) + 1 interconnect cell; {} active leaf cells",
        fabric.active_cells()
    ));
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(elab.netlist.clone());
    let nets: Vec<_> = lut.inputs.iter().map(|p| p.net(&elab)).collect();
    let (clk, rst, q) = (ff.clk.net(&elab), ff.reset_n.net(&elab), ff.q.net(&elab));
    for &n in nets.iter().chain([&clk]) {
        sim.drive(n, Logic::L0);
    }
    sim.drive(rst, Logic::L0);
    sim.settle(10_000_000).unwrap();
    sim.drive(rst, Logic::L1);
    sim.settle(10_000_000).unwrap();
    let mut checks = 0;
    for m in [1u64, 0, 5, 7, 0, 2] {
        for (v, &n) in nets.iter().enumerate() {
            sim.drive(n, Logic::from_bool(m >> v & 1 == 1));
        }
        sim.settle(10_000_000).unwrap();
        sim.drive(clk, Logic::L1);
        sim.settle(10_000_000).unwrap();
        sim.drive(clk, Logic::L0);
        sim.settle(10_000_000).unwrap();
        if sim.value(q) == Logic::from_bool(m != 0) {
            checks += 1;
        }
    }
    pass &= checks == 6;
    rows.push(format!("clocked captures of x+y+z: {checks}/6 correct (incl. async reset init)"));
    Experiment {
        id: "E7/Fig9",
        title: "3-LUT + edge-triggered D flip-flop pathway",
        paper:
            "four NAND cells form 3-LUT + DFF; unneeded FPGA components are simply not instantiated",
        rows,
        pass,
    }
}

/// The Fig. 10 random 8-bit test vectors: one sequential draw stream
/// (seed 10), materialised up front so the sweep over vectors can be
/// scheduled freely while the drawn values stay identical to the
/// historical serial loop.
pub fn fig10_adder_vectors(trials: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(10);
    (0..trials).map(|_| (rng.random::<u64>() & 0xFF, rng.random::<u64>() & 0xFF)).collect()
}

/// Check `a + b` on the mapped 8-bit ripple adder for each vector, via
/// the sharded sweep engine with **whole words as shard items**: the
/// fabric is elaborated and levelized once, and each item evaluates 64
/// vectors in the lanes of one bit-parallel kernel pass (dual-rail input
/// planes packed per bit position) instead of one event-driven
/// simulation per vector. Bit-identical at any worker count or shard
/// size.
pub fn fig10_adder_check(vectors: &[(u64, u64)], cfg: &SweepConfig) -> Vec<bool> {
    let mut fabric = Fabric::new(2, 16);
    let ports = ripple_adder(&mut fabric, 0, 0, 8).unwrap();
    let elab = elaborate(&fabric, &FabricTiming::default());
    let proto = BitSim::new(elab.netlist.clone()).expect("the mapped Fig. 10 adder levelizes");
    let rails: Vec<[NetId; 4]> = (0..8)
        .map(|i| {
            [
                ports.a[i].0.net(&elab),
                ports.a[i].1.net(&elab),
                ports.b[i].0.net(&elab),
                ports.b[i].1.net(&elab),
            ]
        })
        .collect();
    let cin = (ports.cin.0.net(&elab), ports.cin.1.net(&elab));
    let outs: Vec<NetId> =
        ports.sum.iter().map(|p| p.net(&elab)).chain([ports.cout.0.net(&elab)]).collect();
    let words = vectors.len().div_ceil(64);
    let per_word = sweep(
        words,
        cfg,
        || proto.clone(),
        |bits, w| {
            let base = w * 64;
            let lanes = (vectors.len() - base).min(64);
            let live = if lanes == 64 { u64::MAX } else { (1u64 << lanes) - 1 };
            let mut planes: Vec<(NetId, u64, u64)> = Vec::with_capacity(34);
            for (i, r) in rails.iter().enumerate() {
                let mut ap = 0u64;
                let mut bp = 0u64;
                for (l, &(a, b)) in vectors[base..base + lanes].iter().enumerate() {
                    ap |= (a >> i & 1) << l;
                    bp |= (b >> i & 1) << l;
                }
                planes.push((r[0], ap, live));
                planes.push((r[1], !ap, live));
                planes.push((r[2], bp, live));
                planes.push((r[3], !bp, live));
            }
            planes.push((cin.0, 0, live));
            planes.push((cin.1, live, live));
            bits.eval_planes(&planes);
            let out_planes: Vec<(u64, u64)> = outs.iter().map(|&n| bits.plane(n)).collect();
            (0..lanes)
                .map(|l| {
                    let (a, b) = vectors[base + l];
                    let mut sum = 0u64;
                    for (bit, &(v, k)) in out_planes.iter().enumerate() {
                        if k >> l & 1 == 0 {
                            return false; // X/Z output ⇒ wrong, like to_u64's None
                        }
                        sum |= (v >> l & 1) << bit;
                    }
                    sum == a + b
                })
                .collect::<Vec<bool>>()
        },
    );
    per_word.into_iter().flatten().collect()
}

/// E8 / Fig. 10: ripple-carry datapath — 5 terms/bit, one bit per pair,
/// linear ripple delay; plus the accumulator.
pub fn fig10_datapath() -> Experiment {
    let mut rows = Vec::new();
    let mut pass = true;
    // terms per bit
    let mut f = Fabric::new(2, 2);
    ripple_adder(&mut f, 0, 0, 1).unwrap();
    let live = (0..6)
        .filter(|t| f.block(0, 0).crosspoints[*t].contains(&pmorph_core::CellMode::Active))
        .count();
    pass &= live == 5;
    rows.push(format!("product terms per full adder: {live} (paper: five)"));
    rows.push("bits per 6-NAND cell pair: 1 (carry on inter-cell lanes 4/5)".into());
    // correctness, 8-bit random: 20 vectors in one bit-parallel word
    let vectors = fig10_adder_vectors(20);
    let correct = fig10_adder_check(&vectors, &SweepConfig::new()).iter().filter(|&&ok| ok).count();
    pass &= correct == 20;
    rows.push(format!("8-bit adds, 20 random vectors: {correct}/20 correct"));
    // ripple delay series
    let mut series = Vec::new();
    for n in [2usize, 4, 8, 12] {
        let mut fabric = Fabric::new(2, 2 * n);
        let ports = ripple_adder(&mut fabric, 0, 0, n).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        for i in 0..n {
            sim.drive(ports.a[i].0.net(&elab), Logic::L1);
            sim.drive(ports.a[i].1.net(&elab), Logic::L0);
            sim.drive(ports.b[i].0.net(&elab), Logic::L0);
            sim.drive(ports.b[i].1.net(&elab), Logic::L1);
        }
        sim.drive(ports.cin.0.net(&elab), Logic::L0);
        sim.drive(ports.cin.1.net(&elab), Logic::L1);
        sim.settle(50_000_000).unwrap();
        let t0 = sim.time();
        sim.drive(ports.cin.0.net(&elab), Logic::L1);
        sim.drive(ports.cin.1.net(&elab), Logic::L0);
        sim.settle(50_000_000).unwrap();
        series.push((n, sim.time() - t0));
    }
    let slopes: Vec<f64> =
        series.windows(2).map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0) as f64).collect();
    let linear = slopes.windows(2).all(|s| (s[0] - s[1]).abs() < 1e-9);
    pass &= linear;
    rows.push(format!("worst-case ripple delay: {series:?} (ps) — linear: {linear}"));
    // accumulator
    let acc = pmorph_synth::Accumulator::build(4).unwrap();
    let mut sim = acc.elaborate(&FabricTiming::default());
    sim.reset();
    let mut model = 0u64;
    let mut acc_ok = true;
    for add in [3u64, 9, 15, 1] {
        model = (model + add) & 0xF;
        acc_ok &= sim.step(add) == Some(model);
    }
    pass &= acc_ok;
    rows.push(format!("4-bit accumulator sequence correct: {acc_ok}"));
    Experiment {
        id: "E8/Fig10",
        title: "ripple-carry adder + accumulator datapath",
        paper:
            "full adder in five terms; one bit per cell pair; ripple carry on adjacent connections",
        rows,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_sim::logic;

    /// Event-driven oracle for [`fig10_adder_check`]: one simulator,
    /// rewound with snapshot/restore, one vector at a time.
    fn fig10_adder_check_flat(vectors: &[(u64, u64)]) -> Vec<bool> {
        let mut fabric = Fabric::new(2, 16);
        let ports = ripple_adder(&mut fabric, 0, 0, 8).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(elab.netlist.clone());
        let initial = sim.snapshot();
        vectors
            .iter()
            .enumerate()
            .map(|(trial, &(a, b))| {
                if trial > 0 {
                    sim.restore(&initial);
                }
                drive_adder_vector(&mut sim, &ports, &elab, a, b);
                sim.settle(20_000_000).unwrap();
                read_adder_sum(&sim, &ports, &elab) == Some(a + b)
            })
            .collect()
    }

    /// Drive one dual-rail input vector onto the mapped adder.
    fn drive_adder_vector(
        sim: &mut Simulator,
        ports: &pmorph_synth::AdderPorts,
        elab: &pmorph_core::elaborate::Elaborated,
        a: u64,
        b: u64,
    ) {
        for i in 0..8 {
            let av = a >> i & 1 == 1;
            let bv = b >> i & 1 == 1;
            sim.drive(ports.a[i].0.net(elab), Logic::from_bool(av));
            sim.drive(ports.a[i].1.net(elab), Logic::from_bool(!av));
            sim.drive(ports.b[i].0.net(elab), Logic::from_bool(bv));
            sim.drive(ports.b[i].1.net(elab), Logic::from_bool(!bv));
        }
        sim.drive(ports.cin.0.net(elab), Logic::L0);
        sim.drive(ports.cin.1.net(elab), Logic::L1);
    }

    /// Read the settled 9-bit sum (sum bits + carry out) as an integer.
    fn read_adder_sum(
        sim: &Simulator,
        ports: &pmorph_synth::AdderPorts,
        elab: &pmorph_core::elaborate::Elaborated,
    ) -> Option<u64> {
        let mut bits: Vec<Logic> = ports.sum.iter().map(|p| sim.value(p.net(elab))).collect();
        bits.push(sim.value(ports.cout.0.net(elab)));
        logic::to_u64(&bits)
    }

    #[test]
    fn fig10_bitsim_check_matches_the_event_oracle() {
        // 200 draws, every seventh pushed past the adder's 8 bits: the
        // mapped adder drops bit 8, so those vectors must fail both checks
        let mut vectors = fig10_adder_vectors(200);
        for v in vectors.iter_mut().skip(3).step_by(7) {
            v.0 |= 0x100;
        }
        let oracle = fig10_adder_check_flat(&vectors);
        for (i, &ok) in oracle.iter().enumerate() {
            assert_eq!(ok, i % 7 != 3, "vector {i}: {:?}", vectors[i]);
        }
        for workers in [1, 8] {
            let got = fig10_adder_check(&vectors, &SweepConfig::new().with_workers(workers));
            assert_eq!(got, oracle, "workers={workers}");
        }
    }
}

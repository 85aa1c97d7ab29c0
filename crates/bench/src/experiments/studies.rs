//! E15–E18: the comparative studies.

use super::Experiment;
use pmorph_async::GalsSystem;
use pmorph_core::{AreaModel, FabricTiming};
use pmorph_device::variation::{run_study, VariationModel};
use pmorph_fpga::{circuits, pack, tech_map, FpgaArch};
use pmorph_synth::serial_vs_parallel;

/// E15 / §2.2: CLB component under-utilisation across the benchmark
/// suite, vs the fabric which only instantiates what a mapping needs.
pub fn study_utilization() -> Experiment {
    let arch = FpgaArch::default();
    let area = AreaModel::default();
    let mut rows = vec!["circuit               CLBs  waste   FPGA λ²     fabric λ²   ratio".into()];
    let mut pass = true;
    for c in circuits::suite() {
        let d = tech_map(&c.netlist, &c.outputs, 4).expect("maps");
        let s = pack(&d);
        let fpga_area = s.clbs as f64 * arch.tile_area_lambda2();
        let fabric_area = c.pmorph_blocks as f64 * area.block_lambda2();
        pass &= fpga_area > fabric_area;
        rows.push(format!(
            "{:<20} {:>5} {:>5.0}%  {:>9.2e}  {:>9.2e}  {:>5.0}x",
            c.name,
            s.clbs,
            s.wasted_fraction() * 100.0,
            fpga_area,
            fabric_area,
            fpga_area / fabric_area
        ));
        // every circuit must waste *some* CLB components (the §2.2 point)
        pass &= s.wasted_fraction() > 0.0;
    }
    Experiment {
        id: "E15/§2.2",
        title: "FPGA component utilisation vs fabric instantiation",
        paper: "CLB components occupy space whether used or not; the fabric instantiates only what is needed",
        rows,
        pass,
    }
}

/// E16 / §4.1: GALS transfers across clock-ratio sweep.
pub fn study_gals() -> Experiment {
    let mut rows = vec!["Ta(ps)  Tb(ps)  tokens  ok".into()];
    let mut pass = true;
    for (ta, tb) in [(1000, 1000), (500, 1900), (2300, 400), (770, 1130)] {
        let words: Vec<u64> = (1..=6).map(|i| i * 41 % 256).collect();
        let mut g = GalsSystem::new(3, 8, ta, tb);
        let got = g.transfer(&words);
        let ok = got == words;
        pass &= ok;
        rows.push(format!("{ta:>5}  {tb:>6}  {:>6}  {ok}", got.len()));
    }
    Experiment {
        id: "E16/§4.1",
        title: "GALS: variable-size synchronous islands over async wrappers",
        paper:
            "fine-grained fabric supports arbitrarily-sized GALS modules with async interconnect",
        rows,
        pass,
    }
}

/// E17 / §4-5: bit-serial vs bit-parallel arithmetic trade-off.
pub fn study_bitserial() -> Experiment {
    let t = FabricTiming::default();
    let mut rows = vec!["n     serial blk  parallel blk  serial ps  parallel ps  AT ratio".into()];
    let mut pass = true;
    let mut last_ratio = f64::INFINITY;
    for n in [4usize, 8, 16, 32, 64] {
        let (sb, pb, st, pt) = serial_vs_parallel(n, &t);
        let at_ratio = (sb as u64 * st) as f64 / (pb as u64 * pt) as f64;
        rows.push(format!("{n:<5} {sb:>10} {pb:>13} {st:>10} {pt:>12} {at_ratio:>9.2}"));
        // serial always smaller; gets relatively better (AT) as n grows
        pass &= sb < pb || n <= 4;
        pass &= at_ratio <= last_ratio + 1e-9;
        last_ratio = at_ratio;
    }
    // functional sanity: the serial adder really computes sums
    let builder = pmorph_synth::BitSerialAdder::build().unwrap();
    let mut sim = builder.elaborate(&t);
    let ok = sim.add(45, 76, 8) == Some(121);
    pass &= ok;
    rows.push(format!("functional check 45+76 = {ok}"));
    Experiment {
        id: "E17/§4-5",
        title: "bit-serial vs parallel arithmetic",
        paper: "bit-serial designs may offer equivalent or better (area×time) performance when wires dominate",
        rows,
        pass,
    }
}

/// E18 / §3: undoped DG channel kills random-dopant threshold variation,
/// at `samples` Monte-Carlo samples per model (see `experiments::Scale`).
pub fn study_variation_scaled(samples: usize) -> Experiment {
    let bulk = run_study(VariationModel::doped_bulk(), samples, 99, 0.42, 0.58);
    let dg = run_study(VariationModel::undoped_dg(), samples, 99, 0.42, 0.58);
    let pass = dg.sigma_vth < bulk.sigma_vth / 3.0 && dg.failure_rate < bulk.failure_rate;
    Experiment {
        id: "E18/§3",
        title: "Monte-Carlo threshold variation: doped bulk vs undoped DG",
        paper: "the undoped channel eliminates random-dopant threshold variation",
        rows: vec![
            format!(
                "doped bulk: σ(Vth)={:.1} mV, noise-margin failures {:.1}%",
                bulk.sigma_vth * 1e3,
                bulk.failure_rate * 100.0
            ),
            format!(
                "undoped DG: σ(Vth)={:.1} mV, noise-margin failures {:.1}%",
                dg.sigma_vth * 1e3,
                dg.failure_rate * 100.0
            ),
            format!("σ reduction: {:.1}x", bulk.sigma_vth / dg.sigma_vth),
        ],
        pass,
    }
}

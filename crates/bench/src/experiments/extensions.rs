//! E19–E21: extension studies (DESIGN.md §4b) — reliability, clockless
//! power, and mapping generality.

use super::Experiment;
use pmorph_core::elaborate::elaborate;
use pmorph_core::{DefectMap, Fabric, FabricTiming, PowerModel};
use pmorph_exec::{sweep, ShardCtx, SweepConfig};
use pmorph_sim::{BitSim, LevelizeError, Logic, NetId, Netlist, Simulator, WideMask};
use pmorph_synth::{lut3, map_function, mapk, MappedFunction, TruthTable};
use pmorph_util::pool;
use pmorph_util::rng::Rng;
use pmorph_util::rng::StdRng;

/// The defect rates E19 sweeps.
const DEFECT_RATES: [f64; 3] = [0.002, 0.01, 0.03];

/// Is a LUT mapping functionally correct on a (possibly faulty) fabric?
/// Event-driven reference: one full simulation per input vector — the
/// pre-bitsim implementation, kept verbatim as the flat path's oracle.
fn lut_works_event(fabric: &Fabric, ports: &pmorph_synth::LutPorts, tt: &TruthTable) -> bool {
    let elab = elaborate(fabric, &FabricTiming::default());
    for m in 0..(1u64 << tt.vars()) {
        let mut sim = Simulator::new(elab.netlist.clone());
        for (v, p) in ports.inputs.iter().enumerate() {
            sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
        }
        if sim.settle(500_000).is_err() {
            return false;
        }
        if sim.value(ports.output.net(&elab)) != Logic::from_bool(tt.eval(m)) {
            return false;
        }
    }
    true
}

/// Does the combinational `netlist` compute `expected` on `out` for every
/// assignment of `vars ≤ 6` inputs? All `2^vars` minterms ride the lanes
/// of ONE bit-parallel word, so the netlist is levelized once and
/// evaluated once instead of `2^vars` event-driven simulations. Lane `m`
/// carries minterm `m`, each `(net, v)` in `inputs` is driven with
/// variable `v`, and `expected` holds the truth bits in its low `2^vars`
/// lanes. `Err` if the netlist won't levelize.
fn truth_word_matches(
    netlist: Netlist,
    inputs: &[(NetId, usize)],
    out: NetId,
    vars: usize,
    expected: u64,
) -> Result<bool, LevelizeError> {
    let mut bits = BitSim::new(netlist)?;
    let planes: Vec<(NetId, u64, u64)> =
        inputs.iter().map(|&(net, v)| (net, WideMask::var_plane(v, 0), u64::MAX)).collect();
    bits.eval_planes(&planes);
    let (v, k) = bits.plane(out);
    let lanes = WideMask::lane_mask(vars);
    Ok(k & lanes == lanes && v & lanes == expected & lanes)
}

/// [`lut_works_event`] through the bit-parallel kernel
/// ([`truth_word_matches`]). `expected` holds `tt`'s truth bits in the
/// low `2^n` lanes. Falls back to the event engine if the elaborated
/// netlist won't levelize.
fn lut_works(
    fabric: &Fabric,
    ports: &pmorph_synth::LutPorts,
    tt: &TruthTable,
    expected: u64,
) -> bool {
    let elab = elaborate(fabric, &FabricTiming::default());
    let inputs: Vec<(NetId, usize)> =
        ports.inputs.iter().enumerate().map(|(v, p)| (p.net(&elab), v)).collect();
    let out = ports.output.net(&elab);
    truth_word_matches(elab.netlist, &inputs, out, tt.vars(), expected)
        .unwrap_or_else(|_| lut_works_event(fabric, ports, tt))
}

/// E19: defect tolerance — yield of a fixed-position mapping vs a
/// defect-aware mapping that relocates to clean rows, across defect rates.
pub fn study_defects() -> Experiment {
    study_defects_scaled(40)
}

/// Per-worker scratch state for the sharded E19 sweep: the LUT tile
/// pre-mapped at each of the six candidate rows (each on its own fabric,
/// patched and unpatched per trial — no `Fabric` clone per trial), plus
/// the target truth bits packed into word lanes.
struct TrialCtx {
    tt: TruthTable,
    expected: u64,
    rows: Vec<(Fabric, pmorph_synth::LutPorts)>,
}

impl ShardCtx for TrialCtx {}

impl TrialCtx {
    fn new() -> Self {
        let tt = TruthTable::parity(3);
        let mut expected = 0u64;
        for m in 0..(1u64 << tt.vars()) {
            expected |= (tt.eval(m) as u64) << m;
        }
        let rows = (0..6)
            .map(|y| {
                let mut fabric = Fabric::new(4, 6);
                let ports = lut3(&mut fabric, 0, y, &tt).unwrap();
                (fabric, ports)
            })
            .collect();
        TrialCtx { tt, expected, rows }
    }

    /// One trial against a prebuilt row: patch the defects in, check the
    /// LUT through the bit-parallel kernel, restore the scratch fabric.
    fn row_works(&mut self, y: usize, map: &DefectMap) -> bool {
        let (fabric, ports) = &mut self.rows[y];
        let patch = map.apply_to(fabric);
        let ok = lut_works(fabric, ports, &self.tt, self.expected);
        patch.undo(fabric);
        ok
    }
}

/// One E19 trial: sample the trial's defect map (historical seed formula
/// `t·7919 + rate·10⁴` — the schedule the byte-identical repro output is
/// pinned to) and score both mapping strategies against it. Returns
/// `(naive worked, defect-aware worked)`. Independent per trial, so the
/// sharded and flat paths agree bit-for-bit.
fn defect_trial(ctx: &mut TrialCtx, rate: f64, t: usize) -> (bool, bool) {
    let seed = t as u64 * 7919 + (rate * 1e4) as u64;
    // a 4x6 die: six candidate rows for a 3-block LUT tile
    let map = DefectMap::sample(4, 6, rate, seed);
    // naive: always row 0
    let naive = ctx.row_works(0, &map);
    // defect-aware: try each row, keep the first whose *used* resources
    // are undisturbed (a defect in an unused leaf is harmless — the
    // point of the polymorphic fabric's sparing)
    let mut aware = false;
    for y in 0..6 {
        if !map.disturbs(&ctx.rows[y].0) {
            aware = ctx.row_works(y, &map);
            break;
        }
    }
    (naive, aware)
}

/// The pre-tentpole per-trial implementation — fresh fabrics, full
/// `Fabric` clone in `DefectMap::apply`, event-driven vector loop —
/// retained verbatim so the flat reference pins the sharded/bitsim path
/// to the historical byte-identical outputs.
#[doc(hidden)]
pub fn defect_trial_event(rate: f64, t: usize) -> (bool, bool) {
    let tt = TruthTable::parity(3);
    let seed = t as u64 * 7919 + (rate * 1e4) as u64;
    let map = DefectMap::sample(4, 6, rate, seed);
    let naive = {
        let mut fabric = Fabric::new(4, 6);
        let ports = lut3(&mut fabric, 0, 0, &tt).unwrap();
        let faulty = map.apply(&fabric);
        lut_works_event(&faulty, &ports, &tt)
    };
    let mut aware = false;
    for y in 0..6 {
        let mut fabric = Fabric::new(4, 6);
        let ports = lut3(&mut fabric, 0, y, &tt).unwrap();
        if !map.disturbs(&fabric) {
            let faulty = map.apply(&fabric);
            aware = lut_works_event(&faulty, &ports, &tt);
            break;
        }
    }
    (naive, aware)
}

/// E19 yield curves on the sharded sweep engine: for each defect rate,
/// `(rate, naive successes, defect-aware successes)` over `trials`
/// independent trials. Each worker owns one [`TrialCtx`] of pre-mapped
/// scratch fabrics; trials patch → levelize → single-word evaluate →
/// unpatch, so the per-trial cost is one kernel pass, not `2^n` event
/// simulations plus a fabric clone.
#[doc(hidden)]
pub fn defect_yield_curves(trials: usize, cfg: &SweepConfig) -> Vec<(f64, usize, usize)> {
    DEFECT_RATES
        .iter()
        .map(|&rate| {
            let per_trial =
                sweep(trials, cfg, TrialCtx::new, |ctx, item| defect_trial(ctx, rate, item.index));
            reduce_yields(rate, &per_trial.results)
        })
        .collect()
}

/// The pre-exec flat path (`pool::par_map_range` at an explicit worker
/// count) over the pre-tentpole event-driven trial, retained as the
/// differential-test reference for [`defect_yield_curves`].
#[doc(hidden)]
pub fn defect_yield_curves_flat(trials: usize, workers: usize) -> Vec<(f64, usize, usize)> {
    DEFECT_RATES
        .iter()
        .map(|&rate| {
            let per_trial =
                pool::par_map_range_with(trials, workers, |t| defect_trial_event(rate, t));
            reduce_yields(rate, &per_trial)
        })
        .collect()
}

fn reduce_yields(rate: f64, per_trial: &[(bool, bool)]) -> (f64, usize, usize) {
    let naive_ok = per_trial.iter().filter(|r| r.0).count();
    let aware_ok = per_trial.iter().filter(|r| r.1).count();
    (rate, naive_ok, aware_ok)
}

/// E19 at an explicit trial count per defect rate (see `experiments::Scale`).
pub fn study_defects_scaled(trials: usize) -> Experiment {
    let mut rows = vec!["defect rate  naive yield  defect-aware yield".into()];
    let mut pass = true;
    for (rate, naive_ok, aware_ok) in defect_yield_curves(trials, &SweepConfig::new()) {
        let naive_y = naive_ok as f64 / trials as f64;
        let aware_y = aware_ok as f64 / trials as f64;
        pass &= aware_y >= naive_y;
        rows.push(format!("{rate:>10.3}  {:>10.0}%  {:>17.0}%", naive_y * 100.0, aware_y * 100.0));
    }
    // at a bruising defect rate, avoidance must actually win
    let map = DefectMap::sample(4, 6, 0.03, 1);
    pass &= !map.is_empty();
    Experiment {
        id: "E19/§1",
        title: "defect tolerance: mapping around faulty cells",
        paper: "nano devices have 'poor reliability'; a regular cell fabric tolerates defects by avoidance",
        rows,
        pass,
    }
}

/// E20: clock power — a clocked register pipeline vs a clockless handshake
/// FIFO at matched token throughput, and at idle.
pub fn study_clockless_power() -> Experiment {
    let model = PowerModel::default();
    let mut rows = Vec::new();
    let mut pass = true;

    // Clocked: 8 behavioural DFF stages, free-running clock, no data
    // activity (idle), 100 ns.
    let mut b = pmorph_sim::NetlistBuilder::new();
    let clk = b.net("clk");
    let d0 = b.net("d0");
    b.clock(clk, 500, 10); // 1 GHz
    let mut prev = d0;
    for i in 0..8 {
        let q = b.net(format!("q{i}"));
        b.dff(prev, clk, None, q);
        prev = q;
    }
    let nl = b.build();
    let mut sim = Simulator::new(nl);
    sim.drive(d0, Logic::L0);
    sim.run_until(100_000, 50_000_000).unwrap();
    let clocked_idle = model.report_from(&sim, 8 * 48);

    // Clockless: 8-stage micropipeline, idle (no tokens), 100 ns.
    let pipe = pmorph_async::micropipeline::build(8, 1, 20, 5);
    let mut sim = Simulator::new(pipe.netlist.clone());
    sim.drive(pipe.req_in, Logic::L0);
    sim.drive(pipe.ack_in, Logic::L0);
    sim.drive(pipe.data_in[0], Logic::L0);
    sim.settle(10_000_000).unwrap();
    let t0_toggles = sim.stats().net_toggles;
    sim.run_until(sim.time() + 100_000, 50_000_000).unwrap();
    let async_idle_toggles = sim.stats().net_toggles - t0_toggles;

    rows.push(format!(
        "idle 100 ns: clocked pipeline {} toggles, handshake pipeline {} toggles",
        clocked_idle.toggles, async_idle_toggles
    ));
    pass &= async_idle_toggles == 0 && clocked_idle.toggles > 100;

    // Active: push 20 tokens through the async FIFO and count toggles per
    // token; clocked equivalent spends clock toggles on every stage every
    // cycle regardless.
    let mut h = pmorph_async::PipelineHarness::new(8, 1, 20);
    let before = h.sim.stats().net_toggles;
    let mut got = 0;
    let mut sent = 0;
    while got < 20 {
        if sent < 20 && h.can_send() {
            h.send(sent as u64 & 1);
            sent += 1;
        }
        if h.recv().is_some() {
            got += 1;
        }
    }
    let async_active = h.sim.stats().net_toggles - before;
    rows.push(format!(
        "active: {async_active} toggles for 20 tokens through 8 async stages \
         ({} per token-stage)",
        async_active / (20 * 8)
    ));
    rows.push(format!(
        "clocked idle burn rate: {:.1} nW dynamic (clock tree alone)",
        clocked_idle.dynamic_w * 1e9
    ));
    pass &= clocked_idle.dynamic_w > 0.0;
    Experiment {
        id: "E20/§4.1",
        title: "clock-removal power: clocked vs handshake pipeline",
        paper: "removal of the global clock will, on its own, result in significant power savings",
        rows,
        pass,
    }
}

/// E22: delay scaling on a real circuit — the same 16-input parity tree on
/// the FPGA baseline (segmented routing, O(λ^½) wires) and on the fabric
/// (local links tracking device speed), swept over feature size.
pub fn study_delay_crossover() -> Experiment {
    use pmorph_fpga::{circuits, pnr, tech_map, FpgaTiming};
    let circuit = circuits::parity_tree(16);
    let design = tech_map(&circuit.netlist, &circuit.outputs, 4).expect("maps");
    let (pnr_res, _) = pnr::place_and_route(&design, &FpgaTiming::default());

    // Fabric: a tree of XOR3 LUT tiles. 16 inputs → 2 levels of XOR3
    // (6+2 tiles) + a final XOR2: logic depth 3 tiles; every tile is 3
    // block-hops of logic, plus ~2 hops of feed-through between levels.
    let t0 = FabricTiming::default();
    let fabric_depth_hops = 3 * 3 + 2 * 2;

    let mut rows =
        vec!["λ_rel   FPGA crit path (ps)   fabric crit path (ps)   fabric speedup".into()];
    let mut pass = true;
    let mut last_gain = 0.0;
    for lam in [1.0f64, 0.5, 0.25, 0.125] {
        let ft = FpgaTiming::default().scaled(lam);
        let fpga_ps = pnr::critical_path_ps(&design, &pnr_res, &ft);
        let fab = t0.scaled(lam);
        let fabric_ps = (fab.block_hop_ps() * fabric_depth_hops) as f64;
        let gain = fpga_ps / fabric_ps;
        pass &= gain >= last_gain; // the advantage must grow as λ shrinks
        last_gain = gain;
        rows.push(format!("{lam:<7.3} {fpga_ps:>18.0} {fabric_ps:>22.0} {gain:>16.2}x"));
    }
    Experiment {
        id: "E22/§2.1+§4",
        title: "critical-path scaling on a 16-input parity tree",
        paper:
            "locally-connected organisations track device speed; segmented FPGA routing does not",
        rows,
        pass,
    }
}

/// E23: thermal operating window — noise margins and memory multistability
/// vs temperature (the reliability axis the paper defers to "better
/// models for the expected characteristics of the devices").
pub fn study_thermal() -> Experiment {
    use pmorph_device::thermal::ThermalCorner;
    use pmorph_device::{ConfigurableInverter, Rtd, RtdStack};
    let base_inv = ConfigurableInverter::default();
    let base_rtd = Rtd::double_peak();
    let mut rows = vec!["T(K)   NM_L(mV)  NM_H(mV)  peak gain  RTD states  PVR".into()];
    let mut pass = true;
    let mut last_margin = f64::INFINITY;
    for t in [250.0f64, 300.0, 350.0, 400.0] {
        let corner = ThermalCorner { temperature_k: t };
        let inv = corner.inverter(&base_inv);
        let rtd = corner.rtd(&base_rtd);
        let states = RtdStack::new(rtd.clone(), 0.9).stable_states().len();
        let (nml, nmh) = inv.noise_margins(0.0).unwrap_or((0.0, 0.0));
        let margin = nml + nmh;
        let gain = inv.peak_gain(0.0);
        rows.push(format!(
            "{t:<6.0} {:>8.0} {:>9.0} {:>10.1} {:>11} {:>5.1}",
            nml * 1e3,
            nmh * 1e3,
            gain,
            states,
            rtd.pvr()
        ));
        // margins erode monotonically with heat; memory still 3-state to 400K
        pass &= margin < last_margin + 0.02;
        last_margin = margin;
        pass &= states == 3;
        pass &= gain > 1.0;
    }
    Experiment {
        id: "E23/§1+§5",
        title: "thermal operating window of cell and configuration memory",
        paper: "device characteristics set the fabric's margins; the cell must stay restoring and tri-stable",
        rows,
        pass,
    }
}

/// E21: generality — arbitrary 4–6-variable functions via Shannon trees of
/// 3-LUT tiles.
pub fn study_general_mapper() -> Experiment {
    study_general_mapper_scaled(6)
}

/// The random functions E21 maps: `(n, count functions of width n)` for
/// n ∈ {4, 5, 6}, drawn in that order from one seeded stream.
fn general_mapper_functions(count: usize) -> Vec<(usize, Vec<TruthTable>)> {
    let mut rng = StdRng::seed_from_u64(0x21);
    [4usize, 5, 6]
        .into_iter()
        .map(|n| (n, (0..count).map(|_| TruthTable::from_bits(n, rng.random::<u64>())).collect()))
        .collect()
}

/// Map `tt` onto a fresh fabric sized for its width.
fn map_general(tt: &TruthTable) -> (Fabric, MappedFunction) {
    let (w, h) = mapk::fabric_size_for(tt.vars());
    let mut fabric = Fabric::new(w, h);
    let mapped = map_function(&mut fabric, tt).expect("maps");
    (fabric, mapped)
}

/// Does the elaborated mapping compute `tt`? Every minterm is checked in
/// one bit-parallel word; a netlist that won't levelize is not correct.
fn mapping_correct(fabric: &Fabric, mapped: &MappedFunction, tt: &TruthTable) -> bool {
    let elab = mapped.elaborate(fabric, &FabricTiming::default());
    let mut inputs = Vec::new();
    for (v, ports) in mapped.var_ports.iter().enumerate() {
        inputs.extend(ports.iter().map(|p| (p.net(&elab), v)));
    }
    let out = mapped.output.net(&elab);
    truth_word_matches(elab.netlist, &inputs, out, tt.vars(), tt.bits()).unwrap_or(false)
}

/// E21 at an explicit function count per width (see `experiments::Scale`).
pub fn study_general_mapper_scaled(count: usize) -> Experiment {
    let mut rows = vec!["n  functions  correct  tiles  stitches".into()];
    let mut pass = true;
    for (n, functions) in general_mapper_functions(count) {
        let mut correct = 0;
        let mut tiles = 0;
        let mut stitches = 0;
        for tt in &functions {
            let (fabric, mapped) = map_general(tt);
            tiles = mapped.tiles;
            stitches = mapped.stitches.len();
            if mapping_correct(&fabric, &mapped, tt) {
                correct += 1;
            }
        }
        pass &= correct == count;
        rows.push(format!("{n}  {count:>9}  {correct:>7}  {tiles:>5}  {stitches:>8}"));
    }
    rows.push("(stitches stand in for two-operand joins — see DESIGN.md §5)".into());
    Experiment {
        id: "E21/§4",
        title: "general ≤6-input mapping via Shannon trees of LUT tiles",
        paper: "the fabric provides primitives from which arbitrary logic is composed",
        rows,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    /// Event-driven oracle for [`mapping_correct`]: one fresh simulation
    /// per minterm.
    fn mapping_correct_event(fabric: &Fabric, mapped: &MappedFunction, tt: &TruthTable) -> bool {
        let elab = mapped.elaborate(fabric, &FabricTiming::default());
        (0..1u64 << tt.vars()).all(|m| {
            let mut sim = Simulator::new(elab.netlist.clone());
            for (v, ports) in mapped.var_ports.iter().enumerate() {
                for p in ports {
                    sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
                }
            }
            sim.settle(2_000_000).unwrap();
            sim.value(mapped.output.net(&elab)) == Logic::from_bool(tt.eval(m))
        })
    }

    #[test]
    fn e21_bitsim_verdict_matches_the_event_oracle() {
        let functions = general_mapper_functions(Scale::fast().mapper_funcs);
        for tt in functions.iter().flat_map(|(_, width)| width) {
            let (fabric, mapped) = map_general(tt);
            let verdict = mapping_correct(&fabric, &mapped, tt);
            assert_eq!(verdict, mapping_correct_event(&fabric, &mapped, tt), "{tt:?}");
            assert!(verdict, "{tt:?} maps correctly");
            // one wrong expected bit, at either end of the lanes, must fail
            for m in [0, (1u64 << tt.vars()) - 1] {
                let flipped = TruthTable::from_bits(tt.vars(), tt.bits() ^ 1 << m);
                assert!(!mapping_correct(&fabric, &mapped, &flipped), "{tt:?} minterm {m}");
                assert!(!mapping_correct_event(&fabric, &mapped, &flipped), "{tt:?} minterm {m}");
            }
        }
    }
}

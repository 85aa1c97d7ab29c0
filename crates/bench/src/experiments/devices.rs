//! E1–E4: the device-level figures (Figs. 3–6).

use super::Experiment;
use pmorph_device::gates::{ConfigurableDriver, DriverLevel, DriverMode};
use pmorph_device::vtc::InverterBehaviour;
use pmorph_device::{ConfigurableInverter, ConfigurableNand, NandOutput, RtdRamCell, Trit};
use pmorph_exec::{sweep, SweepConfig};

/// E1 / Fig. 3: configurable-inverter VTC family. The switching point must
/// sweep monotonically with V_G2 and stick at the rails at ±1.5 V.
pub fn fig3_inverter_vtc() -> Experiment {
    let inv = ConfigurableInverter::default();
    let biases = [-1.5, -0.5, 0.0, 0.5, 1.5];
    let results: Vec<(f64, Option<f64>, InverterBehaviour)> = sweep(
        biases.len(),
        &SweepConfig::new(),
        || (),
        |_, i| {
            let vg2 = biases[i];
            (vg2, inv.switching_threshold(vg2), inv.behaviour(vg2))
        },
    );
    let mut rows = Vec::new();
    rows.push("VG2(V)  switch(V)  behaviour".to_string());
    for (vg2, th, beh) in &results {
        rows.push(match th {
            Some(t) => format!("{vg2:+.1}     {t:.3}      {beh:?}"),
            None => format!("{vg2:+.1}       —        {beh:?}"),
        });
    }
    // shape checks
    let actives: Vec<f64> = results.iter().filter_map(|(_, t, _)| *t).collect();
    let monotone = actives.windows(2).all(|w| w[1] < w[0]);
    let pass = results.first().map(|r| r.2 == InverterBehaviour::StuckHigh).unwrap_or(false)
        && results.last().map(|r| r.2 == InverterBehaviour::StuckLow).unwrap_or(false)
        && monotone
        && actives.len() == 3;
    Experiment {
        id: "E1/Fig3",
        title: "configurable inverter transfer-curve family",
        paper: "switching point sweeps the full logic range with VG2; output sticks high at -1.5V, low at +1.5V",
        rows,
        pass,
    }
}

/// E2 / Fig. 4: the configurable 2-NAND's enhanced function set.
pub fn fig4_nand_modes() -> Experiment {
    let gate = ConfigurableNand::default();
    let table = [
        (Trit::Zero, Trit::Zero, NandOutput::NandAB),
        (Trit::Zero, Trit::Plus, NandOutput::NotA),
        (Trit::Plus, Trit::Zero, NandOutput::NotB),
        (Trit::Minus, Trit::Minus, NandOutput::ConstOne),
        (Trit::Plus, Trit::Plus, NandOutput::ConstZero),
    ];
    let mut rows = vec!["VG_A(V)  VG_B(V)  function".to_string()];
    let mut pass = true;
    for (ca, cb, want) in table {
        let got = gate.classify(ca, cb);
        pass &= got == want;
        rows.push(format!("{:+.0}       {:+.0}       {:?}", ca.bias(), cb.bias(), got));
    }
    Experiment {
        id: "E2/Fig4",
        title: "configurable 2-NAND function set",
        paper: "one 4-transistor gate yields {(A·B)', A', B', 1, 0} by per-pair back-gate bias",
        rows,
        pass,
    }
}

/// E3 / Fig. 5: driver modes (inverting / non-inverting / open-circuit /
/// pass).
pub fn fig5_buffer_modes() -> Experiment {
    let d = ConfigurableDriver::default();
    let mut rows = vec!["mode          in=0  in=1".to_string()];
    let mut pass = true;
    for (mode, want0, want1) in [
        (DriverMode::Inverting, DriverLevel::Driven(true), DriverLevel::Driven(false)),
        (DriverMode::NonInverting, DriverLevel::Driven(false), DriverLevel::Driven(true)),
        (DriverMode::OpenCircuit, DriverLevel::HighZ, DriverLevel::HighZ),
        (DriverMode::Pass, DriverLevel::Driven(false), DriverLevel::Driven(true)),
    ] {
        let o0 = d.eval_logic(false, mode);
        let o1 = d.eval_logic(true, mode);
        // exact three-way comparison: a Z where a rail is expected (or an
        // X anywhere) fails the experiment
        pass &= o0 == want0 && o1 == want1;
        rows.push(format!("{mode:?}  {o0:>4}  {o1:>4}"));
    }
    Experiment {
        id: "E3/Fig5",
        title: "inverting/non-inverting 3-state driver",
        paper: "the same transistor group configures as IN, /IN, or open-circuit (plus pass connection)",
        rows,
        pass,
    }
}

/// E4 / Fig. 6: the RTD-RAM leaf-cell memory: multistability, write/read,
/// retention.
pub fn fig6_rtd_ram() -> Experiment {
    let mut cell = RtdRamCell::three_state();
    let mut rows = Vec::new();
    rows.push(format!(
        "three-state cell: {} stable levels at {:?} V",
        cell.level_count(),
        (0..cell.level_count())
            .map(|k| (cell.level_voltage(k) * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    let mut pass = cell.level_count() == 3;
    for k in [0usize, 2, 1, 0] {
        cell.write(k);
        let ok = cell.read() == k;
        pass &= ok;
        rows.push(format!(
            "write level {k}: read={} margin={:.0}mV standby={:.1e}A {}",
            cell.read(),
            cell.noise_margin() * 1e3,
            cell.standby_current(),
            if ok { "ok" } else { "FAIL" }
        ));
    }
    // retention at half the noise margin
    cell.write(1);
    let margin = cell.noise_margin();
    let kept = cell.perturb_and_relax(margin * 0.5) == 1;
    pass &= kept;
    rows.push(format!("retention: half-margin disturb kept state = {kept}"));
    let nine = RtdRamCell::nine_state();
    pass &= nine.level_count() >= 9;
    rows.push(format!("nine-state (Seabaugh [36]) variant: {} levels", nine.level_count()));
    Experiment {
        id: "E4/Fig6",
        title: "RTD-RAM multi-valued configuration cell",
        paper: "series RTD stack stores 3 states (9 in the multi-peak variant); NDR restores after disturbs",
        rows,
        pass,
    }
}

//! Reliability integration: the paper's §1 concern ("low gain and poor
//! reliability" of nano devices) exercised across layers — thermal
//! corners, process variation, configuration upsets and cell defects all
//! interacting with the same fabric designs.

use polymorphic_hw::device::thermal::ThermalCorner;
use polymorphic_hw::device::SwitchingModel;
use polymorphic_hw::fabric::array::BitstreamError;
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

/// A design survives a round trip through a checked bitstream even after
/// being built at a non-default thermal corner's timing.
#[test]
fn hot_corner_design_round_trips_and_still_works() {
    let base = ConfigurableInverter::default();
    let hot = ThermalCorner { temperature_k: 380.0 };
    let inv = hot.inverter(&base);
    // devices still regenerate at 380 K
    assert!(inv.gain_scan(0.0).peak_gain() > 1.0, "hot inverter must still regenerate");
    let timing = FabricTiming::from_devices(&inv, &SwitchingModel::default());

    let tt = WideMask::from_fn(3, |m| m.count_ones() % 2 == 1);
    let mut fabric = Fabric::new(4, 1);
    let ports = lut3(&mut fabric, 0, 0, &tt).unwrap();
    let restored = Fabric::from_bitstream_checked(&fabric.to_bitstream_checked()).unwrap();
    assert_eq!(restored, fabric);

    let elab = elaborate(&restored, &timing);
    for m in 0..8u64 {
        let mut sim = Simulator::new(elab.netlist.clone());
        for (v, p) in ports.inputs.iter().enumerate() {
            sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
        }
        sim.settle(1_000_000).unwrap();
        assert_eq!(
            sim.value(ports.output.net(&elab)),
            Logic::from_bool(tt.get(m)),
            "minterm {m} at hot-corner timing"
        );
    }
}

/// A configuration upset in transit is caught by the CRC rather than
/// silently reprogramming logic.
#[test]
fn config_upset_caught_not_executed() {
    let mut fabric = Fabric::new(4, 1);
    lut3(&mut fabric, 0, 0, &WideMask::from_fn(3, |m| m.count_ones() >= 2)).unwrap();
    let mut stream = fabric.to_bitstream_checked();
    stream[14] ^= 0b0100_0000; // one flipped config bit
    match Fabric::from_bitstream_checked(&stream) {
        Err(BitstreamError::BadChecksum { .. }) => {}
        other => panic!("upset must be detected, got {other:?}"),
    }
}

/// Defect avoidance end to end: sample defects, find a clean placement,
/// prove the relocated design still computes on the *faulty* fabric.
#[test]
fn defect_aware_relocation_recovers_function() {
    let tt = WideMask::from_u64(3, 0xE8); // majority
    let mut recovered = 0;
    let mut needed_relocation = 0;
    for seed in 0..20u64 {
        let map = DefectMap::sample(4, 6, 0.02, seed);
        // choose a row whose used resources are untouched
        let mut placed = None;
        for y in 0..6 {
            let mut fabric = Fabric::new(4, 6);
            let ports = lut3(&mut fabric, 0, y, &tt).unwrap();
            if !map.disturbs(&fabric) {
                placed = Some((fabric, ports, y));
                break;
            }
        }
        let Some((fabric, ports, row)) = placed else { continue };
        if row != 0 {
            needed_relocation += 1;
        }
        let faulty = map.apply(&fabric);
        let elab = elaborate(&faulty, &FabricTiming::default());
        let mut ok = true;
        for m in 0..8u64 {
            let mut sim = Simulator::new(elab.netlist.clone());
            for (v, p) in ports.inputs.iter().enumerate() {
                sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
            }
            sim.settle(1_000_000).unwrap();
            ok &= sim.value(ports.output.net(&elab)) == Logic::from_bool(tt.get(m));
        }
        assert!(ok, "undisturbed placement must compute (seed {seed})");
        recovered += 1;
    }
    assert!(recovered >= 15, "avoidance finds placements: {recovered}/20");
    assert!(needed_relocation >= 1, "some trials actually relocated");
}

/// Variation + margins: the DG fabric's switching thresholds stay inside
/// the hazard window even at the 3-sigma corner.
#[test]
fn variation_keeps_thresholds_in_window() {
    use polymorphic_hw::device::variation::{run_study, VariationModel};
    let dg = run_study(VariationModel::undoped_dg(), 300, 17, 0.35, 0.65);
    assert_eq!(dg.failure_rate, 0.0, "no DG sample leaves the window");
    // the same window catches bulk devices
    let bulk = run_study(VariationModel::doped_bulk(), 300, 17, 0.35, 0.65);
    assert!(bulk.sigma_vth > 3.0 * dg.sigma_vth);
}

/// Power sanity across layers: an idle fabric costs only leakage; a
/// clocked fabric costs clock activity too.
#[test]
fn power_model_separates_static_and_dynamic() {
    let model = PowerModel::default();
    // idle configured fabric: elaborate, settle, no stimulus
    let mut fabric = Fabric::new(4, 1);
    lut3(&mut fabric, 0, 0, &WideMask::from_fn(3, |m| m.count_ones() % 2 == 1)).unwrap();
    let cells = fabric.active_cells();
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(elab.netlist.clone());
    sim.settle(1_000_000).unwrap();
    let settle_toggles = sim.stats().net_toggles;
    sim.run_until(sim.time() + 100_000, 1_000_000).unwrap();
    let report = model.report(sim.stats(), 100_000, cells);
    assert_eq!(report.toggles, settle_toggles, "idle fabric stays quiet");
    assert!(report.static_w > 0.0, "leakage never sleeps");
}

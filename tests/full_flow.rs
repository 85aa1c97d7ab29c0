//! End-to-end flow: specification truth table → minimisation → fabric
//! mapping → elaboration → event-driven simulation → equivalence check.
//! Exercises `pmorph-synth`, `pmorph-core`, `pmorph-sim` and
//! `pmorph-device` together.

use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

/// Exhaustively verify one mapped 3-LUT.
fn verify(tt: &WideMask) {
    let mut fabric = Fabric::new(4, 1);
    let ports = lut3(&mut fabric, 0, 0, tt).expect("maps");
    let elab = elaborate(&fabric, &FabricTiming::default());
    for m in 0..(1u64 << tt.vars()) {
        let mut sim = Simulator::new(elab.netlist.clone());
        for (v, p) in ports.inputs.iter().enumerate() {
            sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
        }
        sim.settle(200_000).expect("settles");
        assert_eq!(
            sim.value(ports.output.net(&elab)),
            Logic::from_bool(tt.get(m)),
            "function {:#010b}, minterm {m}",
            tt.as_u64()
        );
    }
}

#[test]
fn every_three_variable_function_maps_correctly() {
    // The complete space: all 256 functions of 3 variables.
    for bits in 0..256u64 {
        verify(&WideMask::from_u64(3, bits));
    }
}

#[test]
fn digital_cell_modes_match_device_physics() {
    // The fabric's digital crosspoint semantics (CellMode) must agree
    // with the analogue classification of the configurable NAND.
    use polymorphic_hw::device::gates::NandOutput;
    let gate = ConfigurableNand::default();
    for ta in Trit::ALL {
        for tb in Trit::ALL {
            let device_says = gate.classify(ta, tb);
            // digital model: NAND with contributions per CellMode
            let digital = |a: bool, b: bool| -> Option<bool> {
                let mut acc = Some(true);
                for (m, v) in [(CellMode::from_trit(ta), a), (CellMode::from_trit(tb), b)] {
                    acc = match (acc, m) {
                        (None, _) => None,
                        (_, CellMode::StuckOff) => None, // forces output 1
                        (Some(x), CellMode::StuckOn) => Some(x),
                        (Some(x), CellMode::Active) => Some(x && v),
                    };
                }
                acc.map(|x| !x)
            };
            let tt: Vec<Option<bool>> =
                [(false, false), (true, false), (false, true), (true, true)]
                    .iter()
                    .map(|&(a, b)| digital(a, b).or(Some(true)))
                    .collect();
            let expected = match device_says {
                NandOutput::NandAB => vec![true, true, true, false],
                NandOutput::NotA => vec![true, false, true, false],
                NandOutput::NotB => vec![true, true, false, false],
                NandOutput::ConstOne => vec![true, true, true, true],
                NandOutput::ConstZero => vec![false, false, false, false],
                NandOutput::Other => panic!("device produced ambiguous mode for {ta:?},{tb:?}"),
            };
            let got: Vec<bool> = tt.into_iter().map(|o| o.unwrap()).collect();
            assert_eq!(got, expected, "modes {ta:?},{tb:?}");
        }
    }
}

#[test]
fn fabric_lut_agrees_with_fpga_mapping_of_same_function() {
    // Map the same function both ways: onto the polymorphic fabric and
    // through the FPGA tech mapper; simulate both, compare everywhere.
    use polymorphic_hw::fpga;
    for bits in [0x96u64, 0xE8, 0x7F, 0x01, 0xAA] {
        let tt = WideMask::from_u64(3, bits);
        // fabric side
        let mut fabric = Fabric::new(4, 1);
        let ports = lut3(&mut fabric, 0, 0, &tt).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        // FPGA side: build gate netlist from the SOP, then tech-map it
        let sop = minimize(&tt);
        let mut b = NetlistBuilder::new();
        let ins: Vec<_> = (0..3).map(|_| b.net()).collect();
        let invs: Vec<_> = ins.iter().map(|&n| b.inv(n)).collect();
        let mut products = Vec::new();
        for cube in &sop.cubes {
            let lits: Vec<_> = cube
                .literal_list()
                .into_iter()
                .map(|(v, pos)| if pos { ins[v] } else { invs[v] })
                .collect();
            products.push(if lits.is_empty() {
                // tautology cube: constant 1 product
                let one = b.net();
                b.constant(Logic::L1, one);
                one
            } else {
                b.and(&lits)
            });
        }
        let out = if products.is_empty() {
            let zero = b.net();
            b.constant(Logic::L0, zero);
            zero
        } else {
            b.or(&products)
        };
        let gate_nl = b.build();
        let mapped = fpga::tech_map(&gate_nl, &[out], 4).expect("maps");
        assert!(fpga::verify_mapping(&gate_nl, &mapped, bits, 8));

        for m in 0..8u64 {
            let mut fsim = Simulator::new(elab.netlist.clone());
            for (v, p) in ports.inputs.iter().enumerate() {
                fsim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
            }
            fsim.settle(200_000).unwrap();
            let fabric_val = fsim.value(ports.output.net(&elab));

            let mut gsim = Simulator::new(gate_nl.clone());
            for (v, &n) in ins.iter().enumerate() {
                gsim.drive(n, Logic::from_bool(m >> v & 1 == 1));
            }
            gsim.settle(200_000).unwrap();
            assert_eq!(fabric_val, gsim.value(out), "bits {bits:#x} m {m}");
        }
    }
}

#[test]
fn bitstream_survives_full_design() {
    // Configure a fabric with a real design, serialize, restore, and
    // check the restored fabric simulates identically.
    let mut fabric = Fabric::new(4, 1);
    let tt = WideMask::from_fn(3, |m| m.count_ones() % 2 == 1);
    let ports = lut3(&mut fabric, 0, 0, &tt).unwrap();
    let restored = Fabric::from_bitstream(&fabric.to_bitstream()).unwrap();
    assert_eq!(restored, fabric);
    let elab = elaborate(&restored, &FabricTiming::default());
    let mut sim = Simulator::new(elab.netlist.clone());
    for (v, p) in ports.inputs.iter().enumerate() {
        sim.drive(p.net(&elab), Logic::from_bool(v == 0));
    }
    sim.settle(200_000).unwrap();
    assert_eq!(sim.value(ports.output.net(&elab)), Logic::L1, "parity(1,0,0)");
}

#[test]
fn alu_slice_via_general_mapper() {
    // A 1-bit ALU slice (op1 op0: 00=AND, 01=OR, 10=XOR, 11=pass-a) is a
    // 4-variable function — the general mapper turns it into a Shannon
    // tree of LUT tiles automatically.
    use polymorphic_hw::synth::mapk;
    let alu = WideMask::from_fn(4, |m| {
        let a = m & 1 == 1;
        let b = m >> 1 & 1 == 1;
        let op = (m >> 2) & 0b11;
        match op {
            0 => a && b,
            1 => a || b,
            2 => a ^ b,
            _ => a,
        }
    });
    let (w, h) = mapk::fabric_size_for(4);
    let mut fabric = Fabric::new(w, h);
    let mapped = mapk::map_function(&mut fabric, 0, &alu).unwrap();
    let elab = mapped.elaborate(&fabric, &FabricTiming::default());
    for m in 0..16u64 {
        let mut sim = Simulator::new(elab.netlist.clone());
        for (v, ports) in mapped.var_ports.iter().enumerate() {
            for p in ports {
                sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
            }
        }
        sim.settle(2_000_000).unwrap();
        assert_eq!(
            sim.value(mapped.output.net(&elab)),
            Logic::from_bool(alu.get(m)),
            "ALU minterm {m:04b}"
        );
    }
}

#[test]
fn sta_bounds_measured_adder_settle() {
    // Static timing analysis over the elaborated adder must bound (and for
    // the carry chain, match) the event-driven worst-case settle.
    use polymorphic_hw::sim::timing;
    let n = 6;
    let mut fabric = Fabric::new(2, 2 * n);
    let ports = ripple_adder(&mut fabric, 0, 0, n).unwrap();
    let elab = elaborate(&fabric, &FabricTiming::default());
    let (report, loops) = timing::analyze(&elab.netlist);
    assert!(!loops, "adder has no combinational loops (lfb is feed-forward)");
    // measure worst-case: a=all ones, toggle cin
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
    let measured = sim.time() - t0;
    assert!(
        measured <= report.critical_ps,
        "measured {measured} ps must not exceed STA bound {} ps",
        report.critical_ps
    );
    assert!(
        report.critical_ps <= measured * 2,
        "STA bound {} ps should be within 2x of measured {measured} ps",
        report.critical_ps
    );
}

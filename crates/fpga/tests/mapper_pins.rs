//! The technology mapper's output, pinned bit for bit: a digest of every
//! LUT (leaves, output net, truth-table words) and every flip-flop that
//! `tech_map(.., 4)` produces for each `circuits::suite()` circuit, and
//! for the four circuit generators the job server accepts at every size
//! it accepts (2..=64). The digests were recorded from the mapper that
//! evaluated each cone gate by gate through hash maps; any change to cut
//! growth, cone evaluation or discovery order moves them.

use pmorph_fpga::circuits::{self, Circuit};
use pmorph_fpga::mapper::{tech_map, MappedDesign};
use pmorph_util::hash::Fnv64;

/// Absorb one mapped design into `h`, in the mapper's own order.
fn absorb(h: &mut Fnv64, d: &MappedDesign) {
    h.write_u64(d.luts.len() as u64);
    for lut in &d.luts {
        h.write_u64(lut.inputs.len() as u64);
        for n in &lut.inputs {
            h.write_u64(n.0 as u64);
        }
        h.write_u64(lut.output.0 as u64);
        h.write_u64(lut.truth.vars() as u64);
        for &w in lut.truth.words() {
            h.write_u64(w);
        }
    }
    h.write_u64(d.ffs.len() as u64);
    for ff in &d.ffs {
        h.write_u64(ff.d.0 as u64).write_u64(ff.q.0 as u64);
    }
    for nets in [&d.inputs, &d.outputs] {
        h.write_u64(nets.len() as u64);
        for n in nets {
            h.write_u64(n.0 as u64);
        }
    }
}

fn map(c: &Circuit) -> MappedDesign {
    tech_map(&c.netlist, &c.outputs, 4).unwrap_or_else(|e| panic!("{} failed to map: {e}", c.name))
}

/// Each `circuits::suite()` circuit alone, then each generator at sizes
/// 2..=64, the mappings absorbed in turn.
const PINS: [(&str, u64); 8] = [
    ("suite ripple_adder", 0xeb84_261d_1342_aa18),
    ("suite shift_register", 0xe87b_71f7_57d6_ff55),
    ("suite parity_tree", 0x55d3_9f95_509d_5bd1),
    ("suite registered_pipeline", 0x2f8e_f8e3_f4d7_7ec5),
    ("ripple_adder 2..=64", 0x83ea_8227_9e91_e8de),
    ("parity_tree 2..=64", 0x1183_6d22_27c7_5051),
    ("shift_register 2..=64", 0xb398_6c1b_e39b_b9c4),
    ("registered_pipeline 2..=64", 0x2d06_3e4b_8306_94f8),
];

#[test]
fn mappings_match_their_pinned_digests() {
    let mut rows: Vec<(String, Vec<Circuit>)> =
        circuits::suite().into_iter().map(|c| (format!("suite {}", c.name), vec![c])).collect();
    let generators: [fn(usize) -> Circuit; 4] = [
        circuits::ripple_adder_gates,
        circuits::parity_tree,
        circuits::shift_register,
        circuits::registered_pipeline,
    ];
    for generate in generators {
        let sizes: Vec<Circuit> = (2..=64).map(generate).collect();
        rows.push((format!("{} 2..=64", sizes[0].name), sizes));
    }
    let got: Vec<(String, u64)> = rows
        .iter()
        .map(|(name, circuits)| {
            let mut h = Fnv64::new();
            for c in circuits {
                absorb(&mut h, &map(c));
            }
            (name.clone(), h.finish())
        })
        .collect();
    let want: Vec<(String, u64)> = PINS.iter().map(|&(name, d)| (name.to_string(), d)).collect();
    assert_eq!(got, want, "tech_map output moved");
}

//! Value-Change-Dump (VCD) export.
//!
//! Watched-net traces recorded by the [`crate::Simulator`] can be exported
//! to the standard VCD text format for inspection in GTKWave or any other
//! waveform viewer — useful when debugging fabric-mapped asynchronous state
//! machines.

use crate::engine::Simulator;
use crate::netlist::NetId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Produce a VCD document for the given watched nets, each under the name
/// the caller gives it (whitespace becomes `_`).
///
/// Nets that were never watched contribute only their current value at time
/// zero. The timescale is 1 ps to match the kernel's time unit.
pub fn dump_vcd(sim: &Simulator, nets: &[(NetId, &str)], module: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date polymorphic-hw simulation $end");
    let _ = writeln!(out, "$version pmorph-sim $end");
    let _ = writeln!(out, "$timescale 1ps $end");
    let _ = writeln!(out, "$scope module {module} $end");
    let codes: Vec<String> = (0..nets.len()).map(ident_code).collect();
    for (code, &(_, name)) in codes.iter().zip(nets) {
        let _ = writeln!(out, "$var wire 1 {} {} $end", code, sanitize(name));
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Merge all traces into a single time-ordered change list.
    let mut timeline: BTreeMap<u64, Vec<(usize, char)>> = BTreeMap::new();
    for (i, &(n, _)) in nets.iter().enumerate() {
        let trace = sim.trace(n);
        if trace.is_empty() {
            timeline.entry(0).or_default().push((i, sim.value(n).to_char()));
        } else {
            for &(t, v) in trace {
                timeline.entry(t).or_default().push((i, v.to_char()));
            }
        }
    }
    for (t, changes) in timeline {
        let _ = writeln!(out, "#{t}");
        for (i, c) in changes {
            let _ = writeln!(out, "{}{}", c, codes[i]);
        }
    }
    out
}

/// VCD identifier codes: printable ASCII 33..=126, little-endian base-94.
fn ident_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::logic::Logic;

    #[test]
    fn ident_codes_unique_and_printable() {
        let codes: Vec<String> = (0..500).map(ident_code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len());
        assert!(codes.iter().all(|c| c.bytes().all(|b| (33..=126).contains(&b))));
    }

    #[test]
    fn vcd_contains_transitions() {
        let mut b = NetlistBuilder::new();
        let a = b.net();
        let y = b.net();
        b.inv_into(a, y);
        let nl = b.build();
        let mut sim = Simulator::new(nl);
        sim.watch(a);
        sim.watch(y);
        sim.drive(a, Logic::L0);
        sim.settle(1000).unwrap();
        sim.drive_at(a, Logic::L1, 100);
        sim.settle(1000).unwrap();
        let vcd = dump_vcd(&sim, &[(a, "a"), (y, "y out")], "top");
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 1 ! a $end"));
        assert!(vcd.contains("y_out"), "whitespace sanitised");
        assert!(vcd.contains("#100"), "drive time present: {vcd}");
    }
}

//! Static timing analysis over delay-annotated netlists.
//!
//! Longest-path arrival times through the combinational portion of a
//! netlist, using each component's propagation delay. Sequential elements
//! (flip-flops, latches, C-elements) are treated as path *endpoints*:
//! paths start at primary inputs and state-element outputs, and end at
//! state-element inputs and primary outputs — the conventional STA graph.
//!
//! No experiment calls it: the workspace tests `tests/full_flow.rs` and
//! `tests/tooling.rs` compute critical paths of elaborated fabric
//! circuits with it (the ripple-adder carry chain, the LUT tile) and pin
//! the adder's figure to the event-driven kernel's measured settle time.

use crate::netlist::{Component, NetId, Netlist};
use std::collections::HashMap;

/// Result of a static timing pass.
#[derive(Clone, Debug, Default)]
pub struct TimingReport {
    /// Worst arrival time (ps) at each net, where known.
    pub arrival: HashMap<NetId, u64>,
    /// The overall critical-path delay (ps).
    pub critical_ps: u64,
    /// Nets on (one of) the critical path(s), source first.
    pub critical_path: Vec<NetId>,
}

fn is_combinational(c: &Component) -> bool {
    matches!(
        c,
        Component::Nand { .. }
            | Component::Nor { .. }
            | Component::And { .. }
            | Component::Or { .. }
            | Component::Xor { .. }
            | Component::Inv { .. }
            | Component::Buf { .. }
            | Component::TriBuf { .. }
    )
}

/// Longest-path analysis. Combinational cycles (asynchronous loops) are
/// broken by ignoring back-edges discovered during the traversal — their
/// contribution is reported separately as `has_loops`.
pub fn analyze(nl: &Netlist) -> (TimingReport, bool) {
    let n_nets = nl.net_count();
    let conn = nl.connectivity();
    // arrival[net]: Option<(time, predecessor net)>
    let mut arrival: Vec<Option<(u64, Option<NetId>)>> = vec![None; n_nets];
    // Sources: undriven nets and outputs of non-combinational components
    // start at t = 0.
    for (i, a) in arrival.iter_mut().enumerate() {
        let drivers = conn.drivers(NetId(i as u32));
        if !drivers.iter().any(|d| is_combinational(&nl.comps[d.comp.0 as usize])) {
            *a = Some((0, None));
        }
    }
    // Iterate to fixed point with a bound (loop breaker): at most n_comps
    // rounds; further improvement indicates a combinational cycle.
    let mut has_loops = false;
    let rounds = nl.comp_count() + 1;
    for round in 0..=rounds {
        let mut changed = false;
        for (idx, comp) in nl.comps.iter().enumerate() {
            if !is_combinational(comp) {
                continue;
            }
            let delay = nl.delays[idx].max(1);
            let mut worst: Option<(u64, NetId)> = None;
            let mut all_known = true;
            for inp in comp.inputs() {
                match arrival[inp.0 as usize] {
                    Some((t, _)) => {
                        if worst.map(|(w, _)| t > w).unwrap_or(true) {
                            worst = Some((t, inp));
                        }
                    }
                    None => all_known = false,
                }
            }
            if !all_known {
                continue;
            }
            let (t_in, pred) = worst.map(|(t, p)| (t, Some(p))).unwrap_or((0, None));
            let t_out = t_in + delay;
            for out in comp.outputs() {
                let slot = &mut arrival[out.0 as usize];
                if slot.map(|(t, _)| t_out > t).unwrap_or(true) {
                    *slot = Some((t_out, pred));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if round == rounds {
            has_loops = true;
        }
    }
    // Nets that never acquired an arrival are blocked behind a
    // combinational cycle (a gate in a loop never has all inputs known).
    if arrival.iter().any(|a| a.is_none()) {
        has_loops = true;
    }
    // Critical endpoint.
    let mut critical_ps = 0;
    let mut endpoint = None;
    for (i, a) in arrival.iter().enumerate() {
        if let Some((t, _)) = a {
            if *t > critical_ps {
                critical_ps = *t;
                endpoint = Some(NetId(i as u32));
            }
        }
    }
    // Trace back.
    let mut critical_path = Vec::new();
    let mut cur = endpoint;
    while let Some(n) = cur {
        critical_path.push(n);
        cur = arrival[n.0 as usize].and_then(|(_, p)| p);
        if critical_path.len() > n_nets {
            break; // safety against pathological loops
        }
    }
    critical_path.reverse();
    let report = TimingReport {
        arrival: arrival
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|(t, _)| (NetId(i as u32), t)))
            .collect(),
        critical_ps,
        critical_path,
    };
    (report, has_loops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::engine::Simulator;
    use crate::logic::Logic;

    #[test]
    fn chain_delay_adds_up() {
        let mut b = NetlistBuilder::new().with_default_delay(7);
        let a = b.net();
        let mut cur = a;
        for _ in 0..5 {
            cur = b.inv(cur);
        }
        let (report, loops) = analyze(&b.build());
        assert!(!loops);
        assert_eq!(report.critical_ps, 35);
        assert_eq!(report.critical_path.len(), 6, "input + 5 stages");
    }

    #[test]
    fn diamond_takes_longer_branch() {
        let mut b = NetlistBuilder::new();
        let a = b.net();
        // short branch: 1 gate; long branch: 3 gates; join NAND
        let s = b.inv(a);
        let l1 = b.inv(a);
        let l2 = b.inv(l1);
        let l3 = b.inv(l2);
        let _z = b.nand(&[s, l3]);
        let (report, _) = analyze(&b.build());
        // 3 inverters (10 each) + NAND (10) = 40
        assert_eq!(report.critical_ps, 40);
    }

    #[test]
    fn ff_outputs_are_path_sources() {
        let mut b = NetlistBuilder::new();
        let d = b.net();
        let clk = b.net();
        let q = b.net();
        b.dff(d, clk, None, q);
        let z = b.inv(q); // one gate after the FF
        let _ = z;
        let y = b.inv(d); // one gate before it too
        let q2 = b.net();
        b.dff(y, clk, None, q2);
        let (report, loops) = analyze(&b.build());
        assert!(!loops);
        assert_eq!(report.critical_ps, 10, "paths are register-to-register");
    }

    #[test]
    fn loops_flagged() {
        let mut b = NetlistBuilder::new();
        let a = b.net();
        let x = b.net();
        let y = b.net();
        b.nand_into(&[a, y], x);
        b.inv_into(x, y);
        let (_report, loops) = analyze(&b.build());
        assert!(loops, "cross-coupled pair is a combinational loop");
    }

    #[test]
    fn sta_matches_measured_settle_on_a_tree() {
        // Build a gate tree; the kernel's measured settle delta after an
        // input flip must never exceed the STA bound, and for a pure tree
        // it matches exactly on the worst-case toggle.
        let mut b = NetlistBuilder::new().with_default_delay(9);
        let inputs: Vec<_> = (0..8).map(|_| b.net()).collect();
        let mut level = inputs.clone();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                next.push(b.xor(&[pair[0], pair[1]]));
            }
            level = next;
        }
        let out = level[0];
        let nl = b.build();
        let (report, _) = analyze(&nl);
        assert_eq!(report.critical_ps, 3 * 9, "3 XOR levels");
        let mut sim = Simulator::new(nl.clone());
        for &n in &inputs {
            sim.drive(n, Logic::L0);
        }
        sim.settle(1_000_000).unwrap();
        let t0 = sim.time();
        sim.drive(inputs[0], Logic::L1); // flips every level
        sim.watch(out);
        sim.settle(1_000_000).unwrap();
        let measured = sim.time() - t0;
        assert_eq!(measured, report.critical_ps, "STA == measured for a tree");
    }
}

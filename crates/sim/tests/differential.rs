//! Differential property tests: the CSR + timing-wheel kernel
//! ([`Simulator`]) against the retained heap-based engine
//! ([`ReferenceSimulator`], test code in `support/reference.rs`), and the
//! production component evaluator (`Component::evaluate_into`) against
//! the reference engine's own ([`reference::evaluate`]).
//!
//! The optimized kernel's contract is *bit-identical traces*: same event
//! counts, same settle times, same waveform on every watched net, for any
//! netlist — including feedback loops, tri-state buses, generators slow
//! enough to spill the timing wheel into its overflow heap, and runs that
//! exhaust their event budget mid-oscillation. Each case builds one random
//! netlist, runs both engines through an identical stimulus schedule, and
//! compares everything observable. The random netlists never build some
//! component kinds (NOR, BUF, constants, C-elements, stimulus players,
//! mutexes), so the evaluators are also compared kind by kind, and the
//! netlist's derived connectivity against the reference's own per-net
//! lists.

mod support;

use pmorph_sim::logic::Logic;
use pmorph_sim::netlist::{Component, DriveMode, NetId, MAX_OUTPUTS};
use pmorph_sim::Simulator;
use pmorph_util::prop::{self, Gen};
use pmorph_util::{prop_assert, prop_assert_eq};
use support::reference::{self, ReferenceSimulator};
use support::testgen::{random_combinational, random_netlist, random_registered, random_schedule};

#[test]
fn kernel_matches_reference_engine_bit_for_bit() {
    prop::check("kernel_vs_reference", 48, |g| {
        let (netlist, inputs) = random_netlist(g);
        let schedule = random_schedule(g, &inputs);
        let deadline =
            schedule.last().map(|&(t, _, _)| t).unwrap_or(0) + g.in_range(500u64..=20_000);
        let budget = g.in_range(2_000u64..=30_000);

        let mut fast = Simulator::new(netlist.clone());
        let mut refr = ReferenceSimulator::new(netlist.clone());
        let watched: Vec<NetId> = (0..netlist.net_count() as u32).map(NetId).collect();
        for &n in &watched {
            fast.watch(n);
            refr.watch(n);
        }
        for &(t, n, v) in &schedule {
            fast.drive_at(n, v, t);
            refr.drive_at(n, v, t);
        }

        let fast_res = fast.run_until(deadline, budget);
        let ref_res = refr.run_until(deadline, budget);
        prop_assert_eq!(&fast_res, &ref_res, "run_until outcome (incl. EventLimit counts)");
        prop_assert_eq!(fast.time(), refr.time(), "final simulation time");
        prop_assert_eq!(fast.stats().events, refr.stats().events, "applied event count");
        prop_assert_eq!(fast.stats().evals, refr.stats().evals, "component eval count");
        prop_assert_eq!(fast.stats().net_toggles, refr.stats().net_toggles, "net toggle count");
        prop_assert_eq!(fast.stats().max_queue, refr.stats().max_queue, "peak queue depth");
        for &n in &watched {
            prop_assert_eq!(fast.trace(n), refr.trace(n), "trace of net {:?}", n);
            prop_assert_eq!(fast.value(n), refr.value(n), "final value of net {:?}", n);
        }
        Ok(())
    });
}

#[test]
fn kernel_matches_reference_on_settle_after_each_vector() {
    // settle() interleaved with drives — the sweep-style usage pattern.
    prop::check("kernel_vs_reference_settle", 24, |g| {
        let (netlist, inputs) = random_netlist(g);
        let mut fast = Simulator::new(netlist.clone());
        let mut refr = ReferenceSimulator::new(netlist.clone());
        for step in 0..4 {
            for &n in &inputs {
                let v = if g.bool() { Logic::L1 } else { Logic::L0 };
                fast.drive(n, v);
                refr.drive(n, v);
            }
            let fast_res = fast.settle(10_000);
            let ref_res = refr.settle(10_000);
            prop_assert_eq!(&fast_res, &ref_res, "settle outcome at step {}", step);
            if fast_res.is_err() {
                break; // oscillation: both died identically; engine state is final
            }
            for n in 0..netlist.net_count() as u32 {
                prop_assert_eq!(
                    fast.value(NetId(n)),
                    refr.value(NetId(n)),
                    "settled value of net {} at step {}",
                    n,
                    step
                );
            }
            prop_assert_eq!(fast.stats().events, refr.stats().events, "events after step {}", step);
        }
        Ok(())
    });
}

#[test]
fn snapshot_restore_matches_reference_fresh_instance() {
    // Restoring the kernel's t=0 snapshot must behave exactly like handing
    // the reference engine a brand-new simulator — the property the
    // exhaustive-sweep reuse path (crate::vectors) depends on.
    prop::check("snapshot_vs_fresh_reference", 16, |g| {
        let (netlist, inputs) = random_netlist(g);
        let mut fast = Simulator::new(netlist.clone());
        let initial = fast.snapshot();
        for trial in 0..3 {
            if trial > 0 {
                fast.restore(&initial);
            }
            let mut refr = ReferenceSimulator::new(netlist.clone());
            for &n in &inputs {
                let v = if g.bool() { Logic::L1 } else { Logic::L0 };
                fast.drive(n, v);
                refr.drive(n, v);
            }
            let fast_res = fast.settle(10_000);
            let ref_res = refr.settle(10_000);
            prop_assert_eq!(&fast_res, &ref_res, "settle outcome, trial {}", trial);
            if fast_res.is_err() {
                break;
            }
            for n in 0..netlist.net_count() as u32 {
                prop_assert_eq!(
                    fast.value(NetId(n)),
                    refr.value(NetId(n)),
                    "net {} trial {}",
                    n,
                    trial
                );
            }
            prop_assert!(
                fast.stats().resolve_fast_hits <= fast.stats().events,
                "fast-path counter stays within applied events"
            );
        }
        Ok(())
    });
}

#[test]
fn connectivity_rows_match_the_reference_per_net_lists() {
    // Random netlists of each generator, plus gates that list a net twice,
    // a two-output mutex, a multi-driven net and nets nothing touches.
    prop::check("connectivity_vs_reference_lists", 64, |g| {
        let mut netlist = match g.in_range(0u32..3) {
            0 => random_combinational(g, 6).0,
            1 => random_registered(g).netlist,
            _ => random_netlist(g).0,
        };
        let n = netlist.net_count() as u32;
        let pick = |g: &mut Gen| NetId(g.in_range(0..n));
        let (x, y, shared) = (pick(g), pick(g), pick(g));
        let out = netlist.add_net();
        netlist.add_comp(Component::Nand { inputs: vec![x, x, y], output: out }, 1);
        netlist.add_comp(Component::Xor { inputs: vec![y, out, y], output: shared }, 1);
        let (g1, g2) = (netlist.add_net(), netlist.add_net());
        netlist.add_comp(Component::Mutex { r1: x, r2: out, g1, g2, owner: 0 }, 1);
        netlist.add_comp(Component::Inv { input: g2, output: shared }, 1);
        for _ in 0..g.in_range(0usize..=3) {
            netlist.add_net();
        }
        let conn = netlist.connectivity();
        let (fanout, drivers) = reference::net_lists(&netlist);
        for i in 0..netlist.net_count() {
            let net = NetId(i as u32);
            prop_assert_eq!(conn.fanout(net), &fanout[i][..], "fan-out row of net {}", i);
            prop_assert_eq!(conn.drivers(net), &drivers[i][..], "driver row of net {}", i);
        }
        Ok(())
    });
}

/// Nets a component of [`random_component`] reads from.
const NETS: u32 = 6;

/// Every `Component` kind, by `kind_name`, in declaration order.
const KINDS: [&str; 15] = [
    "nand", "nor", "and", "or", "xor", "inv", "buf", "tribuf", "const", "celement", "dff", "latch",
    "clock", "stimulus", "mutex",
];

fn any_logic(g: &mut Gen) -> Logic {
    Logic::ALL[g.in_range(0usize..4)]
}

fn any_net(g: &mut Gen) -> NetId {
    NetId(g.in_range(0..NETS))
}

/// A component of kind `KINDS[kind]` over nets `0..NETS`, in a random
/// state. N-input gates read 1 to 4 nets, repeats allowed.
fn random_component(g: &mut Gen, kind: usize) -> Component {
    let width = g.in_range(1usize..=4);
    let inputs: Vec<NetId> = (0..width).map(|_| any_net(g)).collect();
    let (input, output) = (any_net(g), any_net(g));
    match KINDS[kind] {
        "nand" => Component::Nand { inputs, output },
        "nor" => Component::Nor { inputs, output },
        "and" => Component::And { inputs, output },
        "or" => Component::Or { inputs, output },
        "xor" => Component::Xor { inputs, output },
        "inv" => Component::Inv { input, output },
        "buf" => Component::Buf { input, output },
        "tribuf" => {
            let mode = if g.bool() { DriveMode::Inverting } else { DriveMode::NonInverting };
            Component::TriBuf { input, enable: any_net(g), output, mode }
        }
        "const" => Component::Const { value: any_logic(g), output },
        "celement" => Component::CElement { a: input, b: any_net(g), output, state: any_logic(g) },
        "dff" => Component::Dff {
            d: input,
            clk: any_net(g),
            reset_n: if g.bool() { Some(any_net(g)) } else { None },
            q: output,
            last_clk: any_logic(g),
            state: any_logic(g),
        },
        "latch" => Component::Latch { d: input, en: any_net(g), q: output, state: any_logic(g) },
        "clock" => Component::Clock {
            output,
            half_period: g.in_range(1u64..=10),
            phase: g.in_range(0u64..=5),
            value: any_logic(g),
        },
        "stimulus" => {
            let mut t = 0;
            let events: Vec<(u64, Logic)> = (0..g.in_range(0usize..=4))
                .map(|_| {
                    t += g.in_range(1u64..=10);
                    (t, any_logic(g))
                })
                .collect();
            let next = g.in_range(0..=events.len());
            Component::Stimulus { output, events, next }
        }
        "mutex" => Component::Mutex {
            r1: input,
            r2: any_net(g),
            g1: output,
            g2: any_net(g),
            owner: g.in_range(0u8..=2),
        },
        other => unreachable!("no generator for {other}"),
    }
}

#[test]
fn every_component_kind_matches_the_reference_evaluator() {
    // One component of each kind per case, driven through a run of
    // four-valued input vectors (X and Z included) that carries its
    // state from step to step; generators also advance between steps.
    prop::check("component_kinds_vs_reference_evaluator", 64, |g| {
        for (kind, &name) in KINDS.iter().enumerate() {
            let mut prod = random_component(g, kind);
            prop_assert_eq!(prod.kind_name(), name, "generated kind");
            let mut refr = prod.clone();
            for (step, now) in (0..8u64).map(|s| (s, 10 * s)) {
                if g.bool() {
                    prop_assert_eq!(prod.next_generated(now), refr.next_generated(now));
                }
                let values: Vec<Logic> = (0..NETS).map(|_| any_logic(g)).collect();
                let mut out = [Logic::Z; MAX_OUTPUTS];
                let ports = prod.evaluate_into(&values, &mut out);
                let got: Vec<(u8, Logic)> =
                    out[..ports].iter().enumerate().map(|(p, &v)| (p as u8, v)).collect();
                let want = reference::evaluate(&mut refr, |n| values[n.0 as usize]);
                prop_assert_eq!(&got, &want, "{name} outputs at step {step} on {values:?}");
                prop_assert_eq!(prod.save_state(), refr.save_state(), "{name} state, step {step}");
            }
        }
        Ok(())
    });
}

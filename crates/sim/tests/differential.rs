//! Differential property test: the CSR + timing-wheel kernel
//! ([`Simulator`]) against the retained heap-based engine
//! ([`ReferenceSimulator`], test code in `support/reference.rs`).
//!
//! The optimized kernel's contract is *bit-identical traces*: same event
//! counts, same settle times, same waveform on every watched net, for any
//! netlist — including feedback loops, tri-state buses, generators slow
//! enough to spill the timing wheel into its overflow heap, and runs that
//! exhaust their event budget mid-oscillation. Each case builds one random
//! netlist, runs both engines through an identical stimulus schedule, and
//! compares everything observable.

mod support;

use pmorph_sim::logic::Logic;
use pmorph_sim::netlist::NetId;
use pmorph_sim::Simulator;
use pmorph_util::prop;
use pmorph_util::{prop_assert, prop_assert_eq};
use support::reference::ReferenceSimulator;
use support::testgen::{random_netlist, random_schedule};

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

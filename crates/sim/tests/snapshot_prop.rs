//! Property tests for `Simulator::snapshot`/`restore` — the *restore ≡
//! fresh* contract. No production sweep rewinds a simulator (exhaustive
//! sweeps run on the bit-parallel kernel); the `kernel` bench bodies do,
//! `obs_overhead` among them, so their timings stay those of independent
//! fresh runs.
//!
//! Each case builds a random netlist (shared generator with the
//! kernel-vs-reference differential suite), runs a fresh simulator
//! through a stimulus schedule, then replays the identical schedule on a
//! restored simulator and demands bit-identical traces, values, stats and
//! outcomes. Traces are compared as *appended segments*: waveform probes
//! are deliberately not part of a snapshot, so the restored run's new
//! trace points must equal the fresh run's points after its initial
//! watch sample.

use pmorph_sim::logic::Logic;
use pmorph_sim::netlist::{NetId, Netlist};
use pmorph_sim::testgen::{random_netlist, random_schedule};
use pmorph_sim::{SimError, Simulator};
use pmorph_util::prop;
use pmorph_util::{prop_assert, prop_assert_eq};

/// Drive `schedule` and run to `deadline`; returns the run outcome.
fn replay(
    sim: &mut Simulator,
    schedule: &[(u64, NetId, Logic)],
    deadline: u64,
    budget: u64,
) -> Result<(), SimError> {
    for &(t, n, v) in schedule {
        sim.drive_at(n, v, t);
    }
    sim.run_until(deadline, budget)
}

/// Compare a rerun simulator against a fresh one: outcome, time, stats,
/// final values, and the rerun's appended trace segment against the
/// fresh trace after its initial watch point.
fn assert_matches_fresh(
    rerun: &Simulator,
    rerun_res: &Result<(), SimError>,
    trace_base: &[usize],
    fresh: &Simulator,
    fresh_res: &Result<(), SimError>,
    netlist: &Netlist,
    label: &str,
) -> Result<(), String> {
    prop_assert_eq!(rerun_res, fresh_res, "{}: run outcome", label);
    prop_assert_eq!(rerun.time(), fresh.time(), "{}: final time", label);
    prop_assert_eq!(rerun.stats(), fresh.stats(), "{}: stats", label);
    for n in 0..netlist.net_count() as u32 {
        let net = NetId(n);
        prop_assert_eq!(rerun.value(net), fresh.value(net), "{}: value of net {}", label, n);
        let appended = &rerun.trace(net)[trace_base[n as usize]..];
        let fresh_events = &fresh.trace(net)[1..]; // skip the initial watch sample
        prop_assert_eq!(appended, fresh_events, "{}: trace of net {}", label, n);
    }
    Ok(())
}

#[test]
fn restore_then_rerun_is_bit_identical_to_fresh() {
    // Total overflow traffic across all cases: proves the property run
    // covered events crossing the 256-slot wheel boundary, not just the
    // near-future fast path.
    let mut overflow_seen = 0u64;
    prop::check("snapshot_restore_vs_fresh", 48, |g| {
        let (netlist, inputs) = random_netlist(g);
        let schedule = random_schedule(g, &inputs);
        let deadline =
            schedule.last().map(|&(t, _, _)| t).unwrap_or(0) + g.in_range(500u64..=20_000);
        let budget = g.in_range(2_000u64..=30_000);

        let mut fresh = Simulator::new(netlist.clone());
        let mut reused = Simulator::new(netlist.clone());
        let initial = reused.snapshot();
        for n in 0..netlist.net_count() as u32 {
            fresh.watch(NetId(n));
            reused.watch(NetId(n));
        }

        // Dirty the reused simulator with a full first pass…
        let _ = replay(&mut reused, &schedule, deadline, budget);
        // …then rewind and replay the identical schedule.
        reused.restore(&initial);
        let trace_base: Vec<usize> =
            (0..netlist.net_count() as u32).map(|n| reused.trace(NetId(n)).len()).collect();
        let rerun_res = replay(&mut reused, &schedule, deadline, budget);
        let fresh_res = replay(&mut fresh, &schedule, deadline, budget);
        assert_matches_fresh(
            &reused,
            &rerun_res,
            &trace_base,
            &fresh,
            &fresh_res,
            &netlist,
            "rerun",
        )?;
        overflow_seen += fresh.stats().overflow_events;
        Ok(())
    });
    assert!(
        overflow_seen > 0,
        "no case crossed the 256-slot wheel boundary — generator lost its slow clocks"
    );
}

#[test]
fn midrun_snapshot_resumes_bit_identically() {
    // Snapshot *mid-run* (wheel partially consumed, generators pending),
    // keep running, restore, and re-run the tail: both tails must match a
    // fresh simulator driven through the same full schedule.
    prop::check("midrun_snapshot_resume", 32, |g| {
        let (netlist, inputs) = random_netlist(g);
        let schedule = random_schedule(g, &inputs);
        let split = g.in_range(1..schedule.len());
        let (head, tail) = schedule.split_at(split);
        let mid = head.last().unwrap().0;
        let deadline =
            schedule.last().map(|&(t, _, _)| t).unwrap_or(0) + g.in_range(500u64..=20_000);
        let budget = 200_000u64;

        let mut fresh = Simulator::new(netlist.clone());
        let mut reused = Simulator::new(netlist.clone());
        for n in 0..netlist.net_count() as u32 {
            fresh.watch(NetId(n));
            reused.watch(NetId(n));
        }

        // Run the head on both; if it dies (oscillation), skip — mid-run
        // state after an error is final and not a resume point.
        let head_reused = replay(&mut reused, head, mid, budget);
        let head_fresh = replay(&mut fresh, head, mid, budget);
        prop_assert_eq!(&head_reused, &head_fresh, "head outcome");
        if head_reused.is_err() {
            return Ok(());
        }
        let snap = reused.snapshot();

        // First tail pass dirties the reused engine past the snapshot…
        let _ = replay(&mut reused, tail, deadline, budget);
        // …rewind to mid-run state and replay the tail.
        reused.restore(&snap);
        let trace_base: Vec<usize> =
            (0..netlist.net_count() as u32).map(|n| reused.trace(NetId(n)).len()).collect();
        let rerun_res = replay(&mut reused, tail, deadline, budget);
        let fresh_res = replay(&mut fresh, tail, deadline, budget);

        prop_assert_eq!(&rerun_res, &fresh_res, "tail outcome");
        prop_assert_eq!(reused.time(), fresh.time(), "final time");
        prop_assert_eq!(reused.stats(), fresh.stats(), "stats");
        for n in 0..netlist.net_count() as u32 {
            let net = NetId(n);
            prop_assert_eq!(reused.value(net), fresh.value(net), "value of net {}", n);
            let appended = &reused.trace(net)[trace_base[n as usize]..];
            // the fresh engine recorded head events too; its tail segment
            // starts where the head pass left its trace
            let fresh_trace = fresh.trace(net);
            prop_assert!(
                fresh_trace.len() >= appended.len(),
                "fresh trace shorter than rerun tail on net {}",
                n
            );
            let fresh_tail = &fresh_trace[fresh_trace.len() - appended.len()..];
            prop_assert_eq!(appended, fresh_tail, "tail trace of net {}", n);
        }
        Ok(())
    });
}

#[test]
fn events_spanning_wheel_overflow_restore_exactly() {
    // Deterministic, targeted case: schedule drives thousands of ps apart
    // with a slow clock, so pending events sit in the overflow heap at
    // snapshot time; restore must reproduce them and their wheel refill.
    use pmorph_sim::NetlistBuilder;
    let mut b = NetlistBuilder::new().with_default_delay(3);
    let d = b.net("d");
    let clk = b.net("clk");
    let q = b.net("q");
    b.clock(clk, 2500, 1); // half-period 2500 ≫ 256-slot wheel window
    b.dff(d, clk, None, q);
    let _inv = b.inv(q);
    let netlist = b.build();

    let schedule: Vec<(u64, NetId, Logic)> =
        (0..6).map(|k| (1 + k * 4000, d, if k % 2 == 0 { Logic::L1 } else { Logic::L0 })).collect();
    let deadline = 30_000;

    let mut fresh = Simulator::new(netlist.clone());
    let mut reused = Simulator::new(netlist.clone());
    let initial = reused.snapshot();
    for n in 0..netlist.net_count() as u32 {
        fresh.watch(NetId(n));
        reused.watch(NetId(n));
    }
    let _ = replay(&mut reused, &schedule, deadline, 100_000);
    assert!(reused.stats().overflow_events > 0, "case failed to reach the overflow heap");
    reused.restore(&initial);
    let trace_base: Vec<usize> =
        (0..netlist.net_count() as u32).map(|n| reused.trace(NetId(n)).len()).collect();
    let rerun_res = replay(&mut reused, &schedule, deadline, 100_000);
    let fresh_res = replay(&mut fresh, &schedule, deadline, 100_000);
    assert_eq!(rerun_res, fresh_res);
    assert_eq!(reused.stats(), fresh.stats());
    assert!(fresh.stats().overflow_events > 0);
    for n in 0..netlist.net_count() as u32 {
        let net = NetId(n);
        assert_eq!(reused.value(net), fresh.value(net), "net {n}");
        assert_eq!(
            &reused.trace(net)[trace_base[n as usize]..],
            &fresh.trace(net)[1..],
            "trace of net {n}"
        );
    }
}

//! Regenerate every figure and quantitative claim of the paper.
//!
//! ```sh
//! cargo run --release -p pmorph-bench --bin repro            # all
//! cargo run --release -p pmorph-bench --bin repro -- E9 E10  # a subset
//! cargo run --release -p pmorph-bench --bin repro -- --json results.json
//! cargo run --release -p pmorph-bench --bin repro -- --fast  # regression scale
//! ```
//!
//! The selected experiments are built concurrently, as one sweep with one
//! experiment per shard, and printed in registry order from the sweep's
//! index-ordered result, so stdout does not depend on the worker count.
//!
//! With `PMORPH_OBS_JSON=<path>` set, a per-experiment metrics block (the
//! observability registry's delta over that experiment) is appended to the
//! run report. The registry is process-wide, so that sweep then runs on
//! one worker, one experiment at a time, and each delta holds only its
//! experiment's work. Metrics go only to that file and a stderr summary —
//! stdout stays byte-identical with the layer on or off, which the
//! `obs_differential` test pins. With the layer on, each experiment's
//! build time is recorded as the `repro.experiment` span (so each block
//! carries its own) and, with `PMORPH_OBS_TRACE` set, as a `repro`
//! complete event named by the experiment id on the building thread's
//! track.

use pmorph_bench::experiments::{self, Scale};
use pmorph_exec::{sweep, SweepConfig};
use pmorph_obs::RunReport;
use pmorph_util::json::ToJson;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut fast = false;
    let mut filters: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next();
        } else if a == "--fast" {
            fast = true;
        } else {
            filters.push(a);
        }
    }
    let scale = if fast { Scale::fast() } else { Scale::full() };

    println!(
        "polymorphic-hw reproduction — Beckett, \"A Polymorphic Hardware Platform\", IPDPS 2003"
    );
    println!(
        "===================================================================================\n"
    );

    // Filter the registry before any experiment runs (so a subset
    // invocation only pays for what it prints) and build the matches as
    // one sweep. With a run report, the sweep runs one experiment at a
    // time and brackets each with an observability snapshot: the delta
    // is that experiment's metrics block.
    let mut report = RunReport::from_env();
    let per_experiment_obs = report.is_active();
    let matched = experiments::matching(&filters);
    let cfg = SweepConfig::new().with_shard_size(1);
    let cfg = if per_experiment_obs { cfg.with_workers(1) } else { cfg };
    let built = sweep(
        matched.len(),
        &cfg,
        || (),
        |_, i| {
            let (id, build) = matched[i];
            let base = per_experiment_obs.then(pmorph_obs::snapshot);
            let t0 = pmorph_obs::enabled().then(Instant::now);
            let e = build(scale);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                pmorph_obs::span!("repro.experiment").record_ns(ns);
                pmorph_obs::trace::complete(id, "repro", t0, ns);
            }
            (e, base.map(|base| pmorph_obs::snapshot().delta_since(&base)))
        },
    );
    let mut selected = Vec::new();
    for ((id, _), (e, metrics)) in matched.iter().zip(built) {
        if let Some(metrics) = metrics {
            report.record(id, &metrics);
        }
        selected.push(e);
    }

    let mut failures = 0;
    for e in &selected {
        println!("{e}");
        if !e.pass {
            failures += 1;
        }
    }
    println!("===================================================================================");
    println!(
        "{} experiments run, {} matched the paper's shape, {} mismatched",
        selected.len(),
        selected.len() - failures,
        failures
    );

    if let Some(path) = json_path {
        let json = selected.to_json().to_string_pretty();
        std::fs::write(&path, json).expect("writes");
        println!("results written to {path}");
    }
    drop(report); // flush the metrics report (stderr + PMORPH_OBS_JSON)
    if let Err(e) = pmorph_obs::trace::flush() {
        eprintln!("obs: could not write trace: {e}"); // PMORPH_OBS_TRACE, stderr only
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

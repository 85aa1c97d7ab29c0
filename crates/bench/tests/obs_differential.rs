//! Observability determinism contract, enforced end to end: the full
//! repro suite's stdout must be byte-identical with `PMORPH_OBS` unset
//! and `=1`, at one worker and at eight — metrics are write-only side
//! channels, so result bits may not move. With `PMORPH_OBS_JSON` set,
//! every experiment must additionally emit a parseable metrics block,
//! in registry order, holding only that experiment's work.

use pmorph_bench::experiments::registry;
use pmorph_util::json;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn run_repro(threads: &str, obs: Option<&str>, obs_json: Option<&str>) -> Output {
    let mut cmd = Command::new(REPRO);
    cmd.arg("--fast")
        .env("PMORPH_THREADS", threads)
        .env_remove("PMORPH_OBS")
        .env_remove("PMORPH_OBS_JSON")
        .env_remove("PMORPH_OBS_TRACE");
    if let Some(v) = obs {
        cmd.env("PMORPH_OBS", v);
    }
    if let Some(p) = obs_json {
        cmd.env("PMORPH_OBS_JSON", p);
    }
    cmd.output().expect("repro binary runs")
}

#[test]
fn repro_stdout_is_byte_identical_with_obs_on_or_off_at_1_and_8_threads() {
    let sink = std::env::temp_dir().join(format!("pmorph_obs_diff_{}.json", std::process::id()));
    let sink_s = sink.to_str().unwrap();

    let reference = run_repro("1", None, None);
    assert!(
        reference.status.success(),
        "baseline repro failed:\n{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    assert!(!reference.stdout.is_empty());

    for (threads, obs, obs_json) in
        [("1", Some("1"), None), ("8", None, None), ("8", Some("1"), Some(sink_s))]
    {
        let got = run_repro(threads, obs, obs_json);
        assert!(
            got.status.success(),
            "repro PMORPH_THREADS={threads} PMORPH_OBS={obs:?} failed:\n{}",
            String::from_utf8_lossy(&got.stderr)
        );
        assert!(
            got.stdout == reference.stdout,
            "stdout diverged at PMORPH_THREADS={threads} PMORPH_OBS={obs:?} \
             (metrics must be a write-only side channel)"
        );
    }

    // The instrumented run above also exercised the JSON sink: one
    // parseable metrics block per experiment, with real activity in it.
    let text = std::fs::read_to_string(&sink).expect("PMORPH_OBS_JSON file written");
    std::fs::remove_file(&sink).ok();
    let doc = json::parse(&text).expect("run report parses");
    let runs = doc.get("runs").and_then(json::Value::as_array).expect("`runs` array");
    assert_eq!(runs.len(), 26, "one metrics block per experiment");
    let mut saw_sim_events = 0usize;
    for (r, (id, _)) in runs.iter().zip(registry()) {
        let label = r.get("label").and_then(json::Value::as_str).expect("labelled block");
        assert_eq!(label, id, "blocks come in registry order");
        let Some(json::Value::Object(metrics)) = r.get("metrics") else {
            panic!("{id}: metrics object");
        };
        if metrics.iter().any(|(k, v)| k == "sim.events" && v.as_f64().is_some_and(|v| v > 0.0)) {
            saw_sim_events += 1;
        }
        // each block times its own experiment once
        let timed = metrics.iter().find(|(k, _)| k == "repro.experiment").map(|(_, v)| v);
        assert_eq!(
            timed.and_then(|v| v.get("count")).and_then(json::Value::as_f64),
            Some(1.0),
            "{id}: repro.experiment must count 1 in its block"
        );
        // Only E18 runs the variation study: any of its metrics in
        // another block would mean experiments' deltas overlapped.
        let variation = metrics.iter().any(|(k, _)| k.starts_with("device.variation."));
        assert_eq!(variation, id.starts_with("E18/"), "device.variation metrics in {id}'s block");
    }
    assert!(
        saw_sim_events > 5,
        "simulator-backed experiments must report sim.events deltas (saw {saw_sim_events})"
    );
}

#[test]
fn obs_json_alone_implies_enabled() {
    // Setting only the sink path (no PMORPH_OBS=1) must still produce a
    // report — the sink is an explicit opt-in of its own.
    let sink = std::env::temp_dir().join(format!("pmorph_obs_implied_{}.json", std::process::id()));
    let got = run_repro("1", None, Some(sink.to_str().unwrap()));
    assert!(got.status.success());
    let text = std::fs::read_to_string(&sink).expect("sink written without PMORPH_OBS=1");
    std::fs::remove_file(&sink).ok();
    let doc = json::parse(&text).expect("parses");
    assert!(
        doc.get("runs").and_then(json::Value::as_array).is_some_and(|r| !r.is_empty()),
        "implied-enabled run recorded no blocks"
    );
}

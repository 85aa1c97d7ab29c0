//! Trace-sink determinism contract, enforced end to end: the full repro
//! suite's stdout must be byte-identical with `PMORPH_OBS_TRACE` unset
//! and set, at one worker and at eight — the trace is a write-only side
//! channel, so result bits may not move. The written file must be a
//! valid Chrome trace (parseable by `util::json`, metadata-first,
//! sorted timestamps) with span coverage from every instrumented
//! subsystem, one `repro` event per experiment and at least two counter
//! tracks, and the complete events of each track must nest: each event
//! runs on its own thread's track, so two events on one track are
//! either nested or disjoint. With the variable unset, no file may
//! appear.

use pmorph_bench::experiments::registry;
use pmorph_util::json::{self, Value};
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn run_repro(threads: &str, trace: Option<&str>) -> Output {
    let mut cmd = Command::new(REPRO);
    cmd.arg("--fast")
        .env("PMORPH_THREADS", threads)
        .env_remove("PMORPH_OBS")
        .env_remove("PMORPH_OBS_JSON")
        .env_remove("PMORPH_OBS_TRACE");
    if let Some(p) = trace {
        cmd.env("PMORPH_OBS_TRACE", p);
    }
    cmd.output().expect("repro binary runs")
}

fn f64_of(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing number {key}"))
}

#[test]
fn repro_stdout_is_byte_identical_with_trace_on_or_off_at_1_and_8_threads() {
    let sink = std::env::temp_dir().join(format!("pmorph_trace_diff_{}.json", std::process::id()));
    let sink_s = sink.to_str().unwrap();
    std::fs::remove_file(&sink).ok();

    let reference = run_repro("1", None);
    assert!(
        reference.status.success(),
        "baseline repro failed:\n{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    assert!(!reference.stdout.is_empty());
    assert!(!sink.exists(), "no trace file may appear with PMORPH_OBS_TRACE unset");

    for (threads, trace) in [("1", Some(sink_s)), ("8", None), ("8", Some(sink_s))] {
        let got = run_repro(threads, trace);
        assert!(
            got.status.success(),
            "repro PMORPH_THREADS={threads} PMORPH_OBS_TRACE={trace:?} failed:\n{}",
            String::from_utf8_lossy(&got.stderr)
        );
        assert!(
            got.stdout == reference.stdout,
            "stdout diverged at PMORPH_THREADS={threads} PMORPH_OBS_TRACE={trace:?} \
             (the trace must be a write-only side channel)"
        );
    }

    // The last instrumented run (8 threads) left the trace behind —
    // validate it as the acceptance artifact.
    let text = std::fs::read_to_string(&sink).expect("PMORPH_OBS_TRACE file written");
    std::fs::remove_file(&sink).ok();
    let doc = json::parse(&text).expect("trace parses with util::json");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(!events.is_empty());

    // Schema: metadata leads, span/counter timestamps are non-decreasing.
    let mut metadata_done = false;
    let mut last_ts = f64::MIN;
    let mut span_names: Vec<&str> = Vec::new();
    let mut counter_names: Vec<&str> = Vec::new();
    // (tid, start, end) in µs of every complete event
    let mut spans: Vec<(f64, f64, f64)> = Vec::new();
    let mut experiments: Vec<&str> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        match ph {
            "M" => assert!(!metadata_done, "metadata records must lead the stream"),
            "X" | "C" => {
                metadata_done = true;
                let ts = f64_of(ev, "ts");
                assert!(ts >= last_ts, "timestamps must be sorted ({name} at {ts} < {last_ts})");
                last_ts = ts;
                if ph == "X" {
                    let dur = f64_of(ev, "dur");
                    assert!(dur >= 0.0);
                    span_names.push(name);
                    spans.push((f64_of(ev, "tid"), ts, ts + dur));
                    if ev.get("cat").and_then(Value::as_str) == Some("repro") {
                        experiments.push(name);
                    }
                } else {
                    f64_of(ev.get("args").expect("counter args"), "value");
                    if !counter_names.contains(&name) {
                        counter_names.push(name);
                    }
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Coverage: at least one span from each instrumented subsystem, and
    // at least two distinct counter tracks.
    for prefix in ["sim.", "exec.", "fpga.", "serve."] {
        assert!(
            span_names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* span in the repro trace (spans: {span_names:?})"
        );
    }
    assert!(counter_names.len() >= 2, "expected >=2 counter tracks, got {counter_names:?}");

    // One `repro` event per experiment, named by its id.
    experiments.sort_unstable();
    let mut ids: Vec<&str> = registry().into_iter().map(|(id, _)| id).collect();
    ids.sort_unstable();
    assert_eq!(experiments, ids, "one repro event per experiment");

    // Per track, by start time (outer first on ties): an event that
    // starts inside an earlier one must also end inside it. Timestamps
    // are nanoseconds printed as µs, so allow one nanosecond of rounding.
    const EPS_US: f64 = 1e-3;
    spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)).then(b.2.total_cmp(&a.2)));
    let mut open: Vec<(f64, f64, f64)> = Vec::new();
    for &(tid, start, end) in &spans {
        open.retain(|&(t, _, e)| t == tid && e > start + EPS_US);
        if let Some(&(_, outer_start, outer_end)) = open.last() {
            assert!(
                end <= outer_end + EPS_US,
                "track {tid}: [{start}, {end}] overlaps [{outer_start}, {outer_end}] without nesting"
            );
        }
        open.push((tid, start, end));
    }
}

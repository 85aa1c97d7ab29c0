//! Chrome-trace sink unit contract, in its own process: gating,
//! event shape, timestamp ordering, atomic flush.
//!
//! Tests share the process-global sink, so they run as one serialized
//! test function rather than racing each other's force hooks.

use pmorph_obs::trace;
use pmorph_util::json::{self, Value};
use std::time::{Duration, Instant};

fn field_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing number {key}: {v:?}"))
}

#[test]
fn sink_lifecycle_shape_and_ordering() {
    // Disabled by default in this environment: every operation is a no-op
    // and flush writes nothing.
    assert!(!trace::enabled(), "PMORPH_OBS_TRACE must not leak into the test env");
    trace::complete("ignored", "test", Instant::now(), 10);
    trace::counter("ignored.counter", 1.0);
    assert_eq!(trace::buffered(), 0, "disabled sink must not buffer");
    assert_eq!(trace::flush().unwrap(), None);

    let path = std::env::temp_dir()
        .join(format!("pmorph_trace_unit_{}.json", std::process::id()))
        .to_str()
        .unwrap()
        .to_string();
    std::fs::remove_file(&path).ok();
    trace::force_to_path(&path);
    assert!(trace::enabled());

    let t0 = Instant::now();
    trace::thread_name(trace::TID_HTTP, "serve http");
    trace::complete("sim.run", "sim", t0, 1_500);
    std::thread::sleep(Duration::from_millis(2));
    trace::counter("sim.queue_depth", 7.0);
    trace::complete_tid("serve.http", "serve", trace::TID_HTTP, t0, 2_000);
    {
        let _g = trace::scope("serve.http", "serve");
        std::hint::black_box(());
    }
    assert_eq!(trace::buffered(), 5);

    let written = trace::flush().unwrap().expect("enabled sink flushes");
    assert_eq!(written, path);
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = json::parse(&text).expect("trace file is valid JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert_eq!(events.len(), 5);

    // Metadata first, then non-decreasing timestamps; pids all match.
    let pid = field_f64(&events[0], "pid");
    let mut last_ts = f64::MIN;
    let mut metadata_done = false;
    for ev in events {
        assert_eq!(field_f64(ev, "pid"), pid, "one pid per process");
        let ph = ev.get("ph").and_then(Value::as_str).unwrap();
        if ph == "M" {
            assert!(!metadata_done, "metadata records lead the file");
            continue;
        }
        metadata_done = true;
        let ts = field_f64(ev, "ts");
        assert!(ts >= last_ts, "timestamps must be sorted: {ts} < {last_ts}");
        last_ts = ts;
        match ph {
            "X" => {
                assert!(field_f64(ev, "dur") >= 0.0);
            }
            "C" => {
                let args = ev.get("args").expect("counter args");
                assert_eq!(field_f64(args, "value"), 7.0);
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    let explicit: Vec<&Value> =
        events.iter().filter(|e| field_f64(e, "tid") == trace::TID_HTTP as f64).collect();
    assert_eq!(explicit.len(), 2, "thread_name metadata + the explicit-tid http event");

    // A second flush rewrites a superset atomically (no temp file left).
    trace::counter("sim.queue_depth", 3.0);
    trace::flush().unwrap();
    let doc2 = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc2.get("traceEvents").and_then(Value::as_array).unwrap().len(), 6);
    assert!(
        std::fs::metadata(format!("{path}.tmp.{}", std::process::id())).is_err(),
        "flush must rename its temp file away"
    );

    std::fs::remove_file(&path).ok();
    trace::force_off();
    assert_eq!(trace::buffered(), 0);
}

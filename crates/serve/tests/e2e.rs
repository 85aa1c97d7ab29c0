//! End-to-end black-box suite for the job server.
//!
//! Every test here talks to a real server over a real TCP socket on an
//! ephemeral port, using only the in-repo HTTP client
//! ([`pmorph_serve::http::request`]) — no curl, no external tooling.
//! Most tests drive an in-process [`pmorph_serve::serve`] instance; one
//! drives the actual `pmorph-serve` binary as a subprocess and parses
//! its `listening on` line, so the shipped entry point is covered too.

use pmorph_serve::http::{request, request_raw, ClientResponse};
use pmorph_serve::{serve, ServeConfig, ServerHandle};
use pmorph_util::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start(workers: usize) -> ServerHandle {
    serve(&ServeConfig { addr: "127.0.0.1:0".into(), workers }).expect("bind ephemeral port")
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    request(addr, "GET", path, None).expect("GET")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> ClientResponse {
    request_raw(addr, "POST", path, body.as_bytes()).expect("POST")
}

/// Submit a job, assert 200, return its wire id (`j-<n>`).
fn submit(addr: SocketAddr, spec: &str) -> String {
    let resp = post(addr, "/jobs", spec);
    assert_eq!(resp.status, 200, "submit failed: {}", String::from_utf8_lossy(&resp.body));
    resp.json().unwrap().get("id").and_then(Value::as_str).expect("id").to_string()
}

fn status_of(addr: SocketAddr, id: &str) -> Value {
    let resp = get(addr, &format!("/jobs/{id}"));
    assert_eq!(resp.status, 200);
    resp.json().unwrap()
}

fn state_of(addr: SocketAddr, id: &str) -> String {
    status_of(addr, id).get("state").and_then(Value::as_str).unwrap().to_string()
}

/// Poll a job until it reaches a terminal state; panic on timeout.
fn poll_terminal(addr: SocketAddr, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = status_of(addr, id);
        match status.get("state").and_then(Value::as_str).unwrap() {
            "done" | "failed" | "cancelled" => return status,
            _ if Instant::now() > deadline => panic!("job {id} never settled: {status:?}"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Poll until the job leaves `queued`; panic on timeout.
fn poll_past_queued(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while state_of(addr, id) == "queued" {
        assert!(Instant::now() < deadline, "job {id} stuck in queue");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Run one spec through submit → poll → result and hand back the parsed
/// payload.
fn run_to_payload(addr: SocketAddr, spec: &str) -> Value {
    let id = submit(addr, spec);
    let status = poll_terminal(addr, &id);
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"), "{status:?}");
    let resp = get(addr, &format!("/jobs/{id}/result"));
    assert_eq!(resp.status, 200);
    resp.json().unwrap()
}

#[test]
fn truth_sweep_happy_path() {
    let server = start(2);
    let payload =
        run_to_payload(server.addr(), r#"{"type":"truth_sweep","circuit":"parity_tree","size":4}"#);
    assert_eq!(payload.get("type").and_then(Value::as_str), Some("truth_sweep"));
    assert_eq!(payload.get("inputs").and_then(Value::as_f64), Some(4.0));
    let truth = payload.get("truth").and_then(Value::as_array).unwrap();
    // 4-input parity: 8 of 16 minterms are odd.
    assert_eq!(truth[0].get("ones").and_then(Value::as_f64), Some(8.0));
    server.shutdown(true);
}

#[test]
fn fault_campaign_happy_path() {
    let server = start(2);
    let payload = run_to_payload(
        server.addr(),
        r#"{"type":"fault_campaign","width":8,"height":8,"rate":0.05,"trials":12,"seed":3}"#,
    );
    let defects = payload.get("defects_per_trial").and_then(Value::as_array).unwrap();
    assert_eq!(defects.len(), 12);
    let mean = payload.get("mean_defects").and_then(Value::as_f64).unwrap();
    assert!(mean >= 0.0);
    server.shutdown(true);
}

#[test]
fn place_route_happy_path() {
    let server = start(2);
    let payload = run_to_payload(
        server.addr(),
        r#"{"type":"place_route","circuit":"ripple_adder","size":6,"candidates":4,"seed":11}"#,
    );
    assert!(payload.get("critical_path_ps").and_then(Value::as_f64).unwrap() > 0.0);
    let placement = payload.get("placement").and_then(Value::as_array).unwrap();
    let config = payload.get("config_image").and_then(Value::as_array).unwrap();
    assert_eq!(placement.len(), config.len(), "every LUT is placed");
    assert!(!config.is_empty());
    server.shutdown(true);
}

#[test]
fn protocol_error_paths() {
    let server = start(1);
    let addr = server.addr();

    // Unknown routes and ids.
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/jobs/j-999").status, 404);
    assert_eq!(get(addr, "/jobs/j-999/result").status, 404);
    assert_eq!(get(addr, "/jobs/not-an-id").status, 404);
    assert_eq!(post(addr, "/jobs/j-999/cancel", "").status, 404);

    // Wrong method on a real route.
    assert_eq!(request(addr, "DELETE", "/jobs", None).unwrap().status, 405);
    assert_eq!(request(addr, "POST", "/metrics", None).unwrap().status, 405);

    // Malformed JSON body.
    let resp = post(addr, "/jobs", "{not json");
    assert_eq!(resp.status, 400);
    assert!(resp.json().unwrap().get("error").is_some());

    // Well-formed JSON, invalid spec.
    assert_eq!(post(addr, "/jobs", r#"{"type":"mine_bitcoin"}"#).status, 400);
    assert_eq!(
        post(addr, "/jobs", r#"{"type":"truth_sweep","circuit":"parity_tree","size":4,"x":1}"#)
            .status,
        400
    );

    // Malformed HTTP request line (raw socket, not even HTTP).
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"COMPLETE NONSENSE\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 400"), "{line}");

    // Result of an unfinished job is a 409 conflict, not an error page.
    let id = submit(addr, r#"{"type":"sleep","steps":500,"step_ms":10}"#);
    let resp = get(addr, &format!("/jobs/{id}/result"));
    assert_eq!(resp.status, 409);
    post(addr, &format!("/jobs/{id}/cancel"), "");
    server.shutdown(true);
}

#[test]
fn cancel_queued_job() {
    // One worker, pinned busy by a long sleep: the second job stays
    // queued until we cancel it.
    let server = start(1);
    let addr = server.addr();
    let busy = submit(addr, r#"{"type":"sleep","steps":2000,"step_ms":5}"#);
    poll_past_queued(addr, &busy);
    let queued = submit(addr, r#"{"type":"sleep","steps":2000,"step_ms":5}"#);
    assert_eq!(state_of(addr, &queued), "queued");

    let resp = post(addr, &format!("/jobs/{queued}/cancel"), "");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.json().unwrap().get("state").and_then(Value::as_str), Some("cancelled"));
    let status = status_of(addr, &queued);
    let history: Vec<String> = status
        .get("history")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap().to_string())
        .collect();
    assert_eq!(history, ["queued", "cancelled"], "queued cancel never runs");
    assert_eq!(get(addr, &format!("/jobs/{queued}/result")).status, 409);

    // Cancel is idempotent on terminal jobs.
    assert_eq!(post(addr, &format!("/jobs/{queued}/cancel"), "").status, 200);

    post(addr, &format!("/jobs/{busy}/cancel"), "");
    server.shutdown(false);
}

#[test]
fn cancel_running_job() {
    let server = start(1);
    let addr = server.addr();
    let id = submit(addr, r#"{"type":"sleep","steps":2000,"step_ms":5}"#);
    poll_past_queued(addr, &id);
    assert_eq!(state_of(addr, &id), "running");

    let resp = post(addr, &format!("/jobs/{id}/cancel"), "");
    assert_eq!(resp.status, 200);
    // A running job cancels at its next check, not synchronously.
    let status = poll_terminal(addr, &id);
    assert_eq!(status.get("state").and_then(Value::as_str), Some("cancelled"));
    let history: Vec<String> = status
        .get("history")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap().to_string())
        .collect();
    assert_eq!(history, ["queued", "running", "cancelled"]);
    server.shutdown(true);
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_work() {
    let server = start(1);
    let addr = server.addr();
    // A running job plus queued work behind it.
    let ids: Vec<String> =
        (0..3).map(|_| submit(addr, r#"{"type":"sleep","steps":40,"step_ms":5}"#)).collect();
    poll_past_queued(addr, &ids[0]);

    // Shutdown drains in the background; while it drains, submissions
    // must be refused with 503.
    let shutdown = std::thread::spawn(move || post(addr, "/shutdown", r#"{"drain":true}"#));
    let refused = loop {
        let resp = post(addr, "/jobs", r#"{"type":"sleep","steps":0,"step_ms":0}"#);
        match resp.status {
            503 => break resp,
            200 => std::thread::sleep(Duration::from_millis(2)), // drain not started yet
            other => panic!("unexpected submit status {other}"),
        }
    };
    assert!(String::from_utf8_lossy(&refused.body).contains("shutting down"));

    let resp = shutdown.join().unwrap();
    assert_eq!(resp.status, 200);
    let summary = resp.json().unwrap();
    assert_eq!(summary.get("state").and_then(Value::as_str), Some("drained"));

    // Every pre-shutdown sleep job drained to done (none were dropped).
    for id in &ids {
        assert_eq!(
            server.registry().state(pmorph_serve::registry::parse_job_id(id).unwrap()),
            Some(pmorph_serve::JobState::Done),
            "{id} must drain to done"
        );
    }
    // The server stops accepting entirely once drained.
    server.join();
    assert!(request(addr, "GET", "/metrics", None).is_err(), "socket must be closed");
}

#[test]
fn metrics_endpoint_reports_jobs_and_cache() {
    let server = start(2);
    let addr = server.addr();
    run_to_payload(
        addr,
        r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.1,"trials":2,"seed":1}"#,
    );
    let body = get(addr, "/metrics").json().unwrap();
    let jobs = body.get("jobs").unwrap();
    assert_eq!(jobs.get("done").and_then(Value::as_f64), Some(1.0));
    let cache = body.get("cache").unwrap();
    assert_eq!(cache.get("results").and_then(Value::as_f64), Some(1.0));
    assert_eq!(cache.get("result_misses").and_then(Value::as_f64), Some(1.0));
    server.shutdown(true);
}

#[test]
fn job_list_shows_every_submission() {
    let server = start(2);
    let addr = server.addr();
    let a = submit(
        addr,
        r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.1,"trials":2,"seed":1}"#,
    );
    let b = submit(addr, r#"{"type":"sleep","steps":0,"step_ms":0}"#);
    poll_terminal(addr, &a);
    poll_terminal(addr, &b);
    let list = get(addr, "/jobs").json().unwrap();
    let rows = list.as_array().unwrap();
    assert_eq!(rows.len(), 2);
    let ids: Vec<&str> =
        rows.iter().map(|r| r.get("id").and_then(Value::as_str).unwrap()).collect();
    assert_eq!(ids, [a.as_str(), b.as_str()], "listing is in submission order");
    server.shutdown(true);
}

#[test]
fn the_shipped_binary_serves_the_protocol() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pmorph-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pmorph-serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").unwrap();
    // "pmorph-serve listening on 127.0.0.1:PORT (2 workers)"
    let addr: SocketAddr = banner
        .split_whitespace()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable banner: {banner}"));

    let payload = run_to_payload(
        addr,
        r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":2,"seed":0}"#,
    );
    assert!(payload.get("grid").and_then(Value::as_f64).unwrap() >= 1.0);

    let resp = post(addr, "/shutdown", "");
    assert_eq!(resp.status, 200);
    let status = child.wait().expect("binary exits after shutdown");
    assert!(status.success(), "exit status {status:?}");
}

#[test]
fn hostile_bodies_get_400_and_the_server_stays_alive() {
    let server = start(1);
    let addr = server.addr();

    // Malformed surrogate pair (`\uD800` followed by a non-low-surrogate
    // escape): the parser used to underflow computing `low - 0xDC00`,
    // panicking the connection thread in debug builds — the client saw a
    // dead connection instead of a response.
    let resp = post(addr, "/jobs", r#"{"s":"\uD800\u0041"}"#);
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    let err = resp.json().unwrap();
    assert!(
        err.get("error").and_then(Value::as_str).unwrap().contains("malformed JSON"),
        "{err:?}"
    );

    // A lone low surrogate takes the other malformed-surrogate path.
    assert_eq!(post(addr, "/jobs", r#"{"s":"\uDC00"}"#).status, 400);

    // Pathologically nested body: recursion used to track the nesting
    // depth, so ~100k opens overflowed the stack and killed the whole
    // process. Now it is a parse error like any other.
    let deep = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    assert_eq!(post(addr, "/jobs", &deep).status, 400);

    // The server survived all three and still serves.
    assert_eq!(get(addr, "/metrics").status, 200);
    server.shutdown(true);
}

#[test]
fn newline_less_header_flood_gets_413_not_a_hang() {
    let server = start(1);
    let addr = server.addr();

    // 64 KiB of header bytes with no newline and the connection held
    // open: pre-cap, `read_line` blocked waiting for a terminator until
    // the server's 30 s socket timeout (and buffered everything sent in
    // the meantime). The capped reader answers as soon as the line
    // crosses the header budget — well inside this client timeout.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\nx-flood: ").unwrap();
    stream.write_all(&vec![b'a'; 64 * 1024]).unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).expect("413 before any timeout");
    assert!(line.starts_with("HTTP/1.1 413"), "{line}");
    drop(stream);

    // The flood neither killed nor wedged the server.
    assert_eq!(get(addr, "/metrics").status, 200);
    server.shutdown(true);
}

#[test]
fn trace_sink_records_serve_spans_in_the_shipped_binary() {
    let trace_path =
        std::env::temp_dir().join(format!("pmorph_serve_trace_{}.json", std::process::id()));
    std::fs::remove_file(&trace_path).ok();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pmorph-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .env("PMORPH_OBS_TRACE", trace_path.to_str().unwrap())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pmorph-serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").unwrap();
    let addr: SocketAddr = banner
        .split_whitespace()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable banner: {banner}"));

    run_to_payload(addr, r#"{"type":"truth_sweep","circuit":"parity_tree","size":4}"#);
    assert_eq!(post(addr, "/shutdown", "").status, 200);
    assert!(child.wait().expect("binary exits").success());

    // The shutdown path flushed one Chrome trace with the per-job span,
    // the HTTP-track spans, and the queue-depth counter.
    let text = std::fs::read_to_string(&trace_path).expect("trace written at shutdown");
    std::fs::remove_file(&trace_path).ok();
    let doc = json::parse(&text).expect("trace parses with util::json");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let named = |name: &str, ph: &str| {
        events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some(name)
                && e.get("ph").and_then(Value::as_str) == Some(ph)
        })
    };
    assert!(named("serve.job.run:truth_sweep", "X"), "per-job span missing");
    assert!(named("serve.http", "X"), "HTTP-track span missing");
    assert!(named("serve.jobs.queue_depth", "C"), "queue-depth counter missing");
}

#[test]
fn submit_response_is_valid_json_with_wire_id() {
    let server = start(1);
    let resp = post(server.addr(), "/jobs", r#"{"type":"sleep","steps":0,"step_ms":0}"#);
    let doc = resp.json().unwrap();
    let id = doc.get("id").and_then(Value::as_str).unwrap();
    assert!(id.starts_with("j-"), "wire ids are j-<n>, got {id}");
    assert_eq!(doc.get("cache_hit").and_then(json::Value::as_bool), Some(false));
    server.shutdown(true);
}

/// Wait until `n` workers are parked in `Registry::claim`.
fn wait_idle_workers(server: &ServerHandle, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.registry().idle_workers() < n {
        assert!(Instant::now() < deadline, "workers never went idle");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn small_job_settles_inside_the_submit_round_trip() {
    let server = start(2);
    let addr = server.addr();
    wait_idle_workers(&server, 2);
    // An idle worker starts the job at once, so the submit holds until it
    // is done: the receipt says so and the result is fetched unpolled.
    let resp = post(addr, "/jobs", r#"{"type":"truth_sweep","circuit":"parity_tree","size":4}"#);
    assert_eq!(resp.status, 200);
    let receipt = resp.json().unwrap();
    assert_eq!(receipt.get("state").and_then(Value::as_str), Some("done"), "{receipt:?}");
    assert_eq!(receipt.get("cache_hit").and_then(Value::as_bool), Some(false));
    let id = receipt.get("id").and_then(Value::as_str).unwrap();
    let result = get(addr, &format!("/jobs/{id}/result"));
    assert_eq!(result.status, 200);
    let payload = result.json().unwrap();
    assert_eq!(payload.get("type").and_then(Value::as_str), Some("truth_sweep"));
    server.shutdown(true);
}

#[test]
fn submit_hold_applies_only_when_a_worker_is_idle() {
    use pmorph_serve::server::SUBMIT_HOLD;
    let server = start(1);
    let addr = server.addr();
    wait_idle_workers(&server, 1);
    let long = r#"{"type":"sleep","steps":2000,"step_ms":5}"#;

    // The idle worker starts the pinning job at once: its submit holds
    // for the whole bound, then answers `running`.
    let t = Instant::now();
    let pin = post(addr, "/jobs", long).json().unwrap();
    let held = t.elapsed();
    assert_eq!(pin.get("state").and_then(Value::as_str), Some("running"), "{pin:?}");
    assert!(held >= SUBMIT_HOLD, "held only {held:?}");
    assert!(held < SUBMIT_HOLD + Duration::from_secs(2), "held {held:?}");

    // No worker is free for the second job: it is answered `queued` at once.
    let t = Instant::now();
    let queued = post(addr, "/jobs", long).json().unwrap();
    let quick = t.elapsed();
    assert_eq!(queued.get("state").and_then(Value::as_str), Some("queued"), "{queued:?}");
    assert!(quick < SUBMIT_HOLD / 2, "a queued submit took {quick:?}");

    for job in [&queued, &pin] {
        let id = job.get("id").and_then(Value::as_str).unwrap();
        assert_eq!(post(addr, &format!("/jobs/{id}/cancel"), "").status, 200);
    }
    server.shutdown(false);
}

#[test]
fn poly_sweep_happy_path() {
    let server = start(2);
    // one circuit: full-adder sum in "ground", majority carry in "biased"
    let payload = run_to_payload(
        server.addr(),
        r#"{"type":"poly_sweep","vars":3,"modes":[
            {"name":"ground","mask":"0000000000000096"},
            {"name":"biased","mask":"00000000000000e8"}]}"#,
    );
    assert_eq!(payload.get("type").and_then(Value::as_str), Some("poly_sweep"));
    assert_eq!(payload.get("vars").and_then(Value::as_f64), Some(3.0));
    assert_eq!(payload.get("fits_6x6"), Some(&Value::Bool(true)));
    assert!(payload.get("poly_cells").and_then(Value::as_f64).unwrap() >= 1.0);
    let cells = payload.get("cells").and_then(Value::as_f64).unwrap() as usize;
    let table = payload.get("config_table").and_then(Value::as_array).unwrap();
    assert_eq!(table.len(), cells, "one config row per cell");
    // the proof section echoes the spec masks — they were verified by
    // exhaustive per-mode sweeps before the payload was built
    let proof = payload.get("proof").and_then(Value::as_array).unwrap();
    assert_eq!(proof.len(), 2);
    assert_eq!(proof[0].get("mode").and_then(Value::as_str), Some("ground"));
    assert_eq!(proof[0].get("mask").and_then(Value::as_str), Some("0000000000000096"));
    assert_eq!(proof[1].get("mask").and_then(Value::as_str), Some("00000000000000e8"));
    server.shutdown(true);
}

#[test]
fn poly_sweep_degenerate_mode_lists_get_400_over_tcp() {
    let server = start(1);
    let addr = server.addr();
    // zero modes, one mode, duplicate names: each must be an orderly 400
    // with a pointed message — never a panic, never a silent accept
    for (body, needle) in [
        (r#"{"type":"poly_sweep","vars":2,"modes":[]}"#, "at least 2 modes"),
        (
            r#"{"type":"poly_sweep","vars":2,"modes":[{"name":"only","mask":"0000000000000006"}]}"#,
            "at least 2 modes",
        ),
        (
            r#"{"type":"poly_sweep","vars":2,"modes":[
                {"name":"dup","mask":"0000000000000006"},
                {"name":"dup","mask":"0000000000000009"}]}"#,
            "duplicate mode name",
        ),
        (
            r#"{"type":"poly_sweep","vars":2,"modes":[
                {"name":"a","mask":"zz"},
                {"name":"b","mask":"0000000000000009"}]}"#,
            "mask",
        ),
    ] {
        let resp = post(addr, "/jobs", body);
        assert_eq!(resp.status, 400, "{body}: {}", String::from_utf8_lossy(&resp.body));
        let err = resp.json().unwrap();
        let msg = err.get("error").and_then(Value::as_str).unwrap();
        assert!(msg.contains(needle), "{body}: got {msg}");
    }
    // the connection thread survived every rejection
    assert_eq!(get(addr, "/metrics").status, 200);
    server.shutdown(true);
}

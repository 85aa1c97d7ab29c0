//! End-to-end: `place_route` over the hierarchical flow.
//!
//! A large circuit (64-bit ripple adder, 192 LUTs — past
//! `hier::HIER_LUT_THRESHOLD`) submitted with no `partitions` field must
//! take the hierarchical path automatically, stay content-cacheable
//! (cold vs hit byte-identical), and key its artifact on the partition
//! count: forcing a different count is a different job, while omitting
//! the field is the same job as spelling out the default.

use pmorph_serve::http::{request, request_raw};
use pmorph_serve::{serve, ServeConfig, ServerHandle};
use pmorph_util::env::EnvGuard;
use pmorph_util::json::{self, Value};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const BIG: &str =
    r#"{"type":"place_route","circuit":"ripple_adder","size":64,"candidates":2,"seed":3}"#;

fn start(workers: usize) -> ServerHandle {
    serve(&ServeConfig { addr: "127.0.0.1:0".into(), workers }).expect("bind")
}

/// Submit a spec, wait for `done`, return `(cache_hit, payload bytes)`.
fn run_job(addr: SocketAddr, spec: &str) -> (bool, Vec<u8>) {
    let resp = request_raw(addr, "POST", "/jobs", spec.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let receipt = resp.json().unwrap();
    let id = receipt.get("id").and_then(Value::as_str).unwrap().to_string();
    let cache_hit = receipt.get("cache_hit").and_then(Value::as_bool).unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap().json().unwrap();
        match status.get("state").and_then(Value::as_str).unwrap() {
            "done" => break,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(3));
            }
            other => panic!("job {id} ended {other}: {status:?}"),
        }
    }
    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(result.status, 200);
    (cache_hit, result.body)
}

fn payload(bytes: &[u8]) -> Value {
    json::parse(std::str::from_utf8(bytes).unwrap()).unwrap()
}

#[test]
fn large_place_route_takes_the_hierarchical_path_and_caches() {
    let server = start(2);
    let addr = server.addr();

    let (cold_hit, cold) = run_job(addr, BIG);
    assert!(!cold_hit, "first submission must miss the cache");
    let doc = payload(&cold);
    assert_eq!(doc.get("path").and_then(Value::as_str), Some("hier"), "{doc:?}");
    let partitions = doc.get("partitions").and_then(Value::as_f64).unwrap();
    assert!(partitions >= 2.0, "auto mode must partition a 192-LUT design: {partitions}");
    assert!(
        doc.get("boundary_nets").and_then(Value::as_f64).unwrap() > 0.0,
        "a partitioned adder has cross-region carries"
    );
    assert!(doc.get("critical_path_ps").and_then(Value::as_f64).unwrap() > 0.0);

    let (warm_hit, warm) = run_job(addr, BIG);
    assert!(warm_hit, "repeat submission must hit the cache");
    assert_eq!(cold, warm, "cached payload must be byte-identical");

    // A small circuit stays on the flat reference path.
    let (_, small) = run_job(
        addr,
        r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":2,"seed":3}"#,
    );
    let doc = payload(&small);
    assert_eq!(doc.get("path").and_then(Value::as_str), Some("flat"), "{doc:?}");
    assert_eq!(doc.get("partitions").and_then(Value::as_f64), Some(1.0));
    server.shutdown(true);
}

#[test]
fn partition_count_is_part_of_the_content_address() {
    let server = start(2);
    let addr = server.addr();

    let (hit0, auto) = run_job(addr, BIG);
    assert!(!hit0);

    // Spelling out the default is the *same* content address.
    let explicit_auto = BIG.replace(r#""seed":3"#, r#""seed":3,"partitions":0"#);
    let (hit_default, auto2) = run_job(addr, &explicit_auto);
    assert!(hit_default, "partitions omitted ≡ partitions:0");
    assert_eq!(auto, auto2);

    // Forcing any other count is a different job with a different artifact.
    let mut previous = auto.clone();
    for forced in [1usize, 2, 5] {
        let spec = BIG.replace(r#""seed":3"#, &format!(r#""seed":3,"partitions":{forced}"#));
        let (hit, bytes) = run_job(addr, &spec);
        assert!(!hit, "partitions:{forced} must derive a fresh cache key");
        assert_ne!(bytes, previous, "partitions:{forced} must change the artifact");
        let doc = payload(&bytes);
        let expect_path = if forced == 1 { "flat" } else { "hier" };
        assert_eq!(doc.get("path").and_then(Value::as_str), Some(expect_path));
        assert_eq!(doc.get("partitions").and_then(Value::as_f64), Some(forced as f64));
        previous = bytes;
    }
    server.shutdown(true);
}

#[test]
fn hier_payload_is_thread_count_invariant() {
    // Same contract as the determinism suite, pointed at the job that
    // actually fans out over the worker pool per partition.
    let mut per_thread: Vec<Vec<u8>> = Vec::new();
    for threads in ["1", "8"] {
        let mut guard = EnvGuard::new();
        guard.set("PMORPH_THREADS", threads);
        let server = start(2);
        let (_, bytes) = run_job(server.addr(), BIG);
        server.shutdown(true);
        per_thread.push(bytes);
    }
    assert_eq!(per_thread[0], per_thread[1], "payload depends on PMORPH_THREADS");
}

//! Tracked job-server suite behind `BENCH_serve.json` (`scripts/bench.sh`).
//!
//! Everything here goes through a live in-process `pmorph-serve` server
//! over real TCP with the in-repo HTTP client — the measured path is the
//! one a client pays: socket, parse, registry, worker pool, artifact
//! cache, serialization.
//!
//! Workloads:
//!
//! * `serve/jobs/http_round_trip` — end-to-end throughput of a batch of
//!   distinct fault-campaign jobs (submit over HTTP, drain the pool,
//!   fetch every result). The cache is cleared per iteration, so this is
//!   the cold pipeline, jobs/sec.
//! * `serve/cache/cold` vs `serve/cache/hit` — the same place-and-route
//!   job with the artifact cache emptied vs primed.
//!
//! Checks:
//!
//! * `serve_cache_hit_speedup_5x` — the tracked claim from the issue: a
//!   content-addressed hit must cut end-to-end job latency by ≥5× (it
//!   skips tech map, placement search, routing and timing entirely;
//!   what's left is one HTTP round trip and a registry insert).
//! * `serve_drain_leaves_no_jobs_behind` — after the measured runs, a
//!   draining shutdown reports every submitted job terminal.

use pmorph_serve::http::{request, request_raw};
use pmorph_serve::{serve, ServeConfig, ServerHandle};
use pmorph_util::json::Value;
use pmorph_util::microbench::{Criterion, Throughput};
use pmorph_util::{criterion_group, criterion_main, pool};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Jobs per throughput iteration.
const BATCH: usize = 8;

fn start_server() -> ServerHandle {
    let workers = pool::worker_count().min(8);
    serve(&ServeConfig { addr: "127.0.0.1:0".into(), workers }).expect("bind ephemeral port")
}

/// Submit a spec and return its numeric job id.
fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let resp = request_raw(addr, "POST", "/jobs", spec.as_bytes()).expect("submit");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let id = resp.json().unwrap().get("id").and_then(Value::as_str).unwrap().to_string();
    pmorph_serve::registry::parse_job_id(&id).unwrap()
}

/// Submit a spec, wait for it to finish, fetch the result over HTTP.
fn run_job(server: &ServerHandle, spec: &str) -> Vec<u8> {
    let id = submit(server.addr(), spec);
    assert!(server.registry().wait_terminal(id, Duration::from_secs(120)), "job {id} hung");
    let resp = request(server.addr(), "GET", &format!("/jobs/j-{id}/result"), None).unwrap();
    assert_eq!(resp.status, 200);
    resp.body
}

/// The place-and-route job used for the cold/hit pair: heavy enough that
/// the cached path's fixed cost (HTTP + registry, about 0.15 ms on a
/// 2-core x86_64 host) disappears next to it. The 64-bit adder is the
/// largest the job accepts; it computes in about 2 ms there, which keeps
/// the ratio near 10× or more, clear of the 5× floor.
const PNR_SPEC: &str =
    r#"{"type":"place_route","circuit":"ripple_adder","size":64,"candidates":16,"seed":3}"#;

/// Median wall-clock nanoseconds of `f` inside a small budget (first run
/// discarded as warm-up) — same shape as the sweeps suite's helper.
fn median_run_ns<O, F: FnMut() -> O>(budget_ms: u64, mut f: F) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut samples: Vec<u128> = Vec::new();
    while samples.len() < 5 || (start.elapsed().as_millis() < budget_ms as u128) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_nanos().max(1));
        if samples.len() >= 101 {
            break;
        }
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid] as f64
    } else {
        (samples[mid - 1] + samples[mid]) as f64 / 2.0
    }
}

/// End-to-end cold-pipeline throughput: BATCH distinct jobs per
/// iteration, cache cleared so every job computes.
fn serve_job_throughput(c: &mut Criterion) {
    let server = start_server();
    let addr = server.addr();
    let mut group = c.benchmark_group("serve/jobs");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("http_round_trip", |b| {
        b.iter(|| {
            server.registry().cache().clear();
            let ids: Vec<u64> = (0..BATCH)
                .map(|i| {
                    submit(
                        addr,
                        &format!(
                            r#"{{"type":"fault_campaign","width":12,"height":12,"rate":0.03,"trials":6,"seed":{i}}}"#
                        ),
                    )
                })
                .collect();
            for id in ids {
                assert!(server.registry().wait_terminal(id, Duration::from_secs(120)));
            }
        })
    });
    group.finish();
    server.shutdown(true);
}

/// Cold vs cached latency for one place-and-route job, plus the tracked
/// ≥5× cache-hit speedup check and the drain check.
fn serve_cache_speedup(c: &mut Criterion) {
    let server = start_server();

    let mut group = c.benchmark_group("serve/cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("cold", |b| {
        b.iter(|| {
            server.registry().cache().clear();
            run_job(&server, PNR_SPEC)
        })
    });
    // Prime once, then every further submission is a content-address hit.
    run_job(&server, PNR_SPEC);
    group.bench_function("hit", |b| b.iter(|| run_job(&server, PNR_SPEC)));
    group.finish();

    // The tracked speedup claim, measured with its own medians (the
    // Bencher keeps its internals private).
    let budget_ms = 150u64;
    let cold_ns = median_run_ns(budget_ms, || {
        server.registry().cache().clear();
        run_job(&server, PNR_SPEC)
    });
    run_job(&server, PNR_SPEC); // re-prime after the last clear
    let hit_ns = median_run_ns(budget_ms, || run_job(&server, PNR_SPEC));
    let speedup = cold_ns / hit_ns;
    println!("serve/cache_hit_speedup: {speedup:.1}x (cold {cold_ns:.0} ns / hit {hit_ns:.0} ns)");
    assert!(
        c.record_check("serve_cache_hit_speedup_5x", speedup >= 5.0),
        "cache-hit speedup {speedup:.1}x under the tracked 5x floor"
    );

    // Drain and audit: a clean shutdown leaves nothing queued or running.
    let summary = server.shutdown(true);
    let jobs = summary.get("jobs").expect("drain summary lists job counts");
    let open = jobs.get("queued").and_then(Value::as_f64).unwrap_or(1.0)
        + jobs.get("running").and_then(Value::as_f64).unwrap_or(1.0);
    assert!(
        c.record_check("serve_drain_leaves_no_jobs_behind", open == 0.0),
        "drain left {open} jobs open: {summary:?}"
    );
}

/// The workloads `BENCH_serve.json` must contain (`benchcheck` reads
/// them back from the artifact).
fn serve_required(c: &mut Criterion) {
    c.require(&["serve/jobs/http_round_trip", "serve/cache/cold", "serve/cache/hit"]);
}

criterion_group!(serve_suite, serve_required, serve_job_throughput, serve_cache_speedup);
criterion_main!(serve_suite);

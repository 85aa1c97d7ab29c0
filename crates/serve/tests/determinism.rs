//! Determinism + cache differential suite.
//!
//! The server's contract, stacked on the exec engine's: a job's payload
//! bytes depend only on its canonical spec — not on worker-pool size,
//! not on `PMORPH_THREADS`, and not on whether the artifact cache
//! answered. This suite runs the same jobs cold and cached at
//! `PMORPH_THREADS ∈ {1, 8}` (via the scoped [`EnvGuard`], in-process —
//! `pool::worker_count()` re-reads the environment on every call, so no
//! subprocess is needed) and demands byte equality everywhere, plus
//! cache-key sensitivity: one changed config byte must miss.

use pmorph_serve::http::{request, request_raw};
use pmorph_serve::{job, serve, ArtifactCache, JobSpec, ServeConfig, ServerHandle};
use pmorph_util::env::EnvGuard;
use pmorph_util::hash::fnv1a_64;
use pmorph_util::json::{self, Value};
use pmorph_util::rng::StdRng;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// The five cacheable job types, sized to finish fast but exercise the
/// sharded engine for real. The `poly_sweep` is the 8-variable odd/even
/// parity pair: 256 minterms → four shard words per mode proof. The
/// `seq_sweep` asks for far more cycles than its 48 stages need to
/// settle.
const SPECS: [&str; 5] = [
    r#"{"type":"truth_sweep","circuit":"ripple_adder","size":5}"#,
    r#"{"type":"seq_sweep","circuit":"registered_pipeline","size":48,"cycles":9000}"#,
    r#"{"type":"fault_campaign","width":16,"height":16,"rate":0.02,"trials":24,"seed":77}"#,
    r#"{"type":"place_route","circuit":"registered_pipeline","size":10,"candidates":6,"seed":5}"#,
    r#"{"type":"poly_sweep","vars":8,"modes":[{"name":"odd","mask":"6996966996696996:9669699669969669:9669699669969669:6996966996696996"},{"name":"even","mask":"9669699669969669:6996966996696996:6996966996696996:9669699669969669"}]}"#,
];

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

#[test]
fn payloads_are_byte_identical_cold_vs_cached_and_across_thread_counts() {
    let mut per_thread_count: Vec<Vec<Vec<u8>>> = Vec::new();
    for threads in ["1", "8"] {
        let mut guard = EnvGuard::new();
        guard.set("PMORPH_THREADS", threads);
        let server = start(2);
        let addr = server.addr();
        let mut payloads = Vec::new();
        for spec in SPECS {
            let (cold_hit, cold) = run_job(addr, spec);
            assert!(!cold_hit, "first submission must miss the cache: {spec}");
            let (warm_hit, warm) = run_job(addr, spec);
            assert!(warm_hit, "repeat submission must hit the cache: {spec}");
            assert_eq!(cold, warm, "cached payload must be byte-identical: {spec}");
            payloads.push(cold);
        }
        server.shutdown(true);
        per_thread_count.push(payloads);
        // guard drops here: environment restored before the next config
    }
    let [one, eight] = per_thread_count.try_into().ok().unwrap();
    assert_eq!(one, eight, "payload bytes must not depend on PMORPH_THREADS");
}

#[test]
fn one_changed_config_byte_misses_the_cache() {
    let server = start(2);
    let addr = server.addr();
    let base = r#"{"type":"fault_campaign","width":8,"height":8,"rate":0.05,"trials":8,"seed":9}"#;
    let (hit0, payload0) = run_job(addr, base);
    assert!(!hit0);
    let (hit1, _) = run_job(addr, base);
    assert!(hit1, "identical spec hits");

    // Each variant differs from `base` in exactly one field — every one
    // must derive a fresh cache key and recompute.
    for variant in [
        r#"{"type":"fault_campaign","width":8,"height":8,"rate":0.05,"trials":8,"seed":8}"#,
        r#"{"type":"fault_campaign","width":8,"height":8,"rate":0.06,"trials":8,"seed":9}"#,
        r#"{"type":"fault_campaign","width":8,"height":8,"rate":0.05,"trials":9,"seed":9}"#,
        r#"{"type":"fault_campaign","width":9,"height":8,"rate":0.05,"trials":8,"seed":9}"#,
    ] {
        let (hit, payload) = run_job(addr, variant);
        assert!(!hit, "changed spec must miss: {variant}");
        assert_ne!(payload, payload0, "changed spec must change the payload: {variant}");
    }
    server.shutdown(true);
}

#[test]
fn cache_hits_are_field_order_independent() {
    // The cache key is derived from the *canonical* spec, so a repeat
    // submission with scrambled JSON field order still hits.
    let server = start(1);
    let addr = server.addr();
    let (hit0, a) = run_job(
        addr,
        r#"{"type":"fault_campaign","width":6,"height":6,"rate":0.1,"trials":4,"seed":2}"#,
    );
    assert!(!hit0);
    let (hit1, b) = run_job(
        addr,
        r#"{"seed":2,"trials":4,"rate":0.1,"height":6,"width":6,"type":"fault_campaign"}"#,
    );
    assert!(hit1, "field order must not defeat the content address");
    assert_eq!(a, b);
    server.shutdown(true);
}

#[test]
fn cache_hit_status_is_reported_in_the_job_record() {
    let server = start(1);
    let addr = server.addr();
    let spec = r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.2,"trials":2,"seed":0}"#;
    run_job(addr, spec);
    let resp = request_raw(addr, "POST", "/jobs", spec.as_bytes()).unwrap();
    let id = resp.json().unwrap().get("id").and_then(Value::as_str).unwrap().to_string();
    let status = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap().json().unwrap();
    assert_eq!(status.get("cache_hit").and_then(Value::as_bool), Some(true));
    // A cache-hit job never ran: its history is queued → done directly.
    let history: Vec<&str> = status
        .get("history")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect();
    assert_eq!(history, ["queued", "done"]);
    server.shutdown(true);
}

/// `(vars, modes, fnv1a_64 of the payload)` for the seeded random
/// `poly_sweep` specs of [`random_poly_spec`]. The digests were recorded
/// from the per-minterm synthesizer that the word-parallel cofactor
/// algebra replaced, so they pin every netlist, personality and
/// statistic it emits, not just the proven truth masks.
const POLY_PINS: [(usize, usize, u64); 6] = [
    (7, 2, 0xd81b_abab_b54a_f9f5),
    (7, 3, 0x4c1d_2062_0dd7_4e87),
    (9, 2, 0x2663_cdfd_b1ed_e661),
    (9, 3, 0x61c5_0a4c_b6ab_037b),
    (12, 2, 0xf37d_020e_d955_5936),
    (12, 3, 0x1533_bffb_3a37_987f),
];

/// A random `poly_sweep` spec over `vars` inputs with `modes` modes,
/// seeded by its shape, in the server's mask spelling (16-digit words,
/// most significant first).
fn random_poly_spec(vars: usize, modes: usize) -> String {
    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + (vars * 16 + modes) as u64);
    let words = (1usize << vars) / 64;
    let parts: Vec<String> = (0..modes)
        .map(|m| {
            let mut mask: Vec<String> =
                (0..words).map(|_| format!("{:016x}", rng.next_u64())).collect();
            mask.reverse();
            format!(r#"{{"name":"m{m}","mask":"{}"}}"#, mask.join(":"))
        })
        .collect();
    format!(r#"{{"type":"poly_sweep","vars":{vars},"modes":[{}]}}"#, parts.join(","))
}

#[test]
fn poly_sweep_payloads_match_their_pinned_digests() {
    let got: Vec<(usize, usize, u64)> = POLY_PINS
        .iter()
        .map(|&(vars, modes, _)| {
            let spec = JobSpec::parse(&json::parse(&random_poly_spec(vars, modes)).unwrap())
                .expect("valid spec");
            let payload = job::run(&spec, &ArtifactCache::new(), &AtomicBool::new(false))
                .expect("synthesizes and proves");
            (vars, modes, fnv1a_64(payload.to_string_compact().as_bytes()))
        })
        .collect();
    assert_eq!(got, POLY_PINS, "poly_sweep payload digests moved");
}

/// `(circuit, size, cycles, fnv1a_64 of the payload)` for `seq_sweep`
/// specs; `None` leaves `cycles` to the parser's default of `size + 2`.
/// The 64-stage circuits settle after 64 edges, so the pins sit on each
/// side of that point. The digests were recorded from the kernel that
/// clocked every requested edge.
const SEQ_PINS: [(&str, usize, Option<usize>, u64); 9] = [
    ("shift_register", 64, Some(63), 0x5bd3_45f9_d1e3_8057),
    ("shift_register", 64, Some(64), 0xa0ff_a0e5_0440_6a0f),
    ("shift_register", 64, Some(65), 0x4b2e_e395_bcc8_c2fe),
    ("shift_register", 64, Some(10_000), 0x536b_13d5_b686_4afe),
    ("registered_pipeline", 64, Some(63), 0x22d1_4080_857d_bc50),
    ("registered_pipeline", 64, Some(64), 0xa460_2f76_8652_ee51),
    ("registered_pipeline", 64, Some(65), 0x5714_471f_c231_1386),
    ("registered_pipeline", 64, Some(10_000), 0x25ad_4d71_ae26_25bc),
    ("registered_pipeline", 2, None, 0x70ed_ca2f_ea6a_09a7),
];

/// `(circuit, size, place_route fields, fnv1a_64 of the payload)`:
/// `None` is a `truth_sweep`, `Some((candidates, seed, partitions))` a
/// `place_route` (`None` partitions leaves auto mode implicit). The rows
/// cover flat searches won past candidate 0, auto mode resolving to the
/// hierarchical flow, forced partition counts (`1` on a hier-sized
/// design), a hierarchical search won past candidate 0, and a split
/// clamped to the LUT count: two LUTs asked for four regions answer
/// `"path":"hier","partitions":1`. The two 150-candidate rows, flat and
/// hierarchical, span three 64-candidate search blocks, the last one
/// partial. The digests were recorded before the flat and hierarchical
/// searches shared one candidate fold; the 150-candidate ones before a
/// search routed in blocks and before a hierarchical candidate was
/// routed in one pass instead of region by region and then stitched.
type PnrFields = Option<(usize, u64, Option<usize>)>;
const PAYLOAD_PINS: [(&str, usize, PnrFields, u64); 12] = [
    ("parity_tree", 16, Some((24, 7, None)), 0xe86c_b62d_af25_c2a8),
    ("ripple_adder", 8, Some((24, 7, None)), 0xad83_6e5e_cd0b_96f0),
    ("registered_pipeline", 10, Some((6, 5, None)), 0x9c64_9744_8247_15cd),
    ("ripple_adder", 64, Some((16, 3, None)), 0x437c_a217_126e_ba35),
    ("ripple_adder", 48, Some((16, 9, Some(3))), 0xdbb4_6426_626b_db4e),
    ("ripple_adder", 64, Some((4, 3, Some(1))), 0xe29b_4a61_46a9_d75f),
    ("parity_tree", 32, Some((16, 2, Some(2))), 0x5ca8_ed55_d206_fa7a),
    ("parity_tree", 2, Some((2, 1, Some(4))), 0xb350_f13c_95d1_70dd),
    ("ripple_adder", 16, Some((150, 5, Some(1))), 0x3e1e_77a4_8a02_ffe3),
    ("ripple_adder", 48, Some((150, 5, Some(3))), 0x1754_ac11_6b8d_2653),
    ("ripple_adder", 9, None, 0x5ae5_cdde_924d_ca92),
    ("parity_tree", 20, None, 0x569b_adff_167a_a431),
];

#[test]
fn place_route_and_truth_sweep_payloads_match_their_pinned_digests() {
    let got: Vec<(&str, usize, PnrFields, u64)> = PAYLOAD_PINS
        .iter()
        .map(|&(circuit, size, pnr, _)| {
            let text = match pnr {
                None => format!(r#"{{"type":"truth_sweep","circuit":"{circuit}","size":{size}}}"#),
                Some((candidates, seed, partitions)) => {
                    let parts = partitions.map(|p| format!(r#","partitions":{p}"#));
                    format!(
                        r#"{{"type":"place_route","circuit":"{circuit}","size":{size},"candidates":{candidates},"seed":{seed}{}}}"#,
                        parts.unwrap_or_default()
                    )
                }
            };
            let spec = JobSpec::parse(&json::parse(&text).unwrap()).expect("valid spec");
            let payload =
                job::run(&spec, &ArtifactCache::new(), &AtomicBool::new(false)).expect("runs");
            (circuit, size, pnr, fnv1a_64(payload.to_string_compact().as_bytes()))
        })
        .collect();
    assert_eq!(got, PAYLOAD_PINS, "place_route / truth_sweep payload digests moved");
}

#[test]
fn seq_sweep_payloads_match_their_pinned_digests() {
    let got: Vec<(&str, usize, Option<usize>, u64)> = SEQ_PINS
        .iter()
        .map(|&(circuit, size, cycles, _)| {
            let cycles_field = cycles.map(|c| format!(r#","cycles":{c}"#)).unwrap_or_default();
            let text = format!(
                r#"{{"type":"seq_sweep","circuit":"{circuit}","size":{size}{cycles_field}}}"#
            );
            let spec = JobSpec::parse(&json::parse(&text).unwrap()).expect("valid spec");
            let payload =
                job::run(&spec, &ArtifactCache::new(), &AtomicBool::new(false)).expect("sweeps");
            (circuit, size, cycles, fnv1a_64(payload.to_string_compact().as_bytes()))
        })
        .collect();
    assert_eq!(got, SEQ_PINS, "seq_sweep payload digests moved");
}

/// `(fault_campaign spec, fnv1a_64 of the payload)`: `SPECS[2]` and a
/// spec at `heavy_cold`'s largest fabric and trial count. The digests
/// were recorded while the job still kept every sampled map until it
/// built the payload.
const FAULT_PINS: [(&str, u64); 2] = [
    (SPECS[2], 0x7216_d6b6_1eb6_8fb6),
    (
        r#"{"type":"fault_campaign","width":48,"height":48,"rate":0.05,"trials":9,"seed":3}"#,
        0x2812_3f24_224d_d2b2,
    ),
];

#[test]
fn fault_campaign_payloads_match_their_pinned_digests() {
    let got: Vec<(&str, u64)> = FAULT_PINS
        .iter()
        .map(|&(text, _)| {
            let spec = JobSpec::parse(&json::parse(text).unwrap()).expect("valid spec");
            let payload =
                job::run(&spec, &ArtifactCache::new(), &AtomicBool::new(false)).expect("samples");
            (text, fnv1a_64(payload.to_string_compact().as_bytes()))
        })
        .collect();
    assert_eq!(got, FAULT_PINS, "fault_campaign payload digests moved");
}

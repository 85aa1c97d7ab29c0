//! The closed-loop client: each thread submits a job, polls
//! `GET /jobs/{id}` until it is terminal, fetches the result, and only
//! then submits the next one.

use crate::check::fnv64;
use crate::proc::{self, http, Server};
use crate::workload::OpStream;
use pmorph_util::json::{self, Value};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client threads, one open connection each at most.
pub const CLIENTS: usize = 2;

/// First poll goes out right after the submit answers; later ones wait a
/// quarter of the time already spent waiting, within these limits.
const POLL_MIN: Duration = Duration::from_micros(50);
const POLL_MAX: Duration = Duration::from_millis(5);
/// An op still unfinished after this long counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(120);

/// What one op cost and returned.
#[derive(Clone, Debug, Default)]
pub struct OpRecord {
    /// Position in the workload's op sequence.
    pub idx: usize,
    pub spec: String,
    pub error: Option<String>,
    pub latency_ns: u64,
    pub post_ns: u64,
    /// Every `GET /jobs/{id}`, the final (terminal) one included.
    pub polls: u32,
    pub poll_ns: u64,
    pub final_poll_ns: u64,
    pub result_ns: u64,
    /// Server-reported `run_ns` (absent on a submit-time cache hit).
    pub run_ns: Option<u64>,
    pub cache_hit: bool,
    pub bytes: usize,
    pub digest: u64,
    /// Completion time, from the phase start.
    pub end_ns: u64,
}

impl OpRecord {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

fn body_json(body: &[u8]) -> Result<Value, String> {
    json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("reply is not JSON: {e:?}"))
}

/// Run one op against the server. Failures are recorded, never panicked.
pub fn run_op(addr: SocketAddr, idx: usize, spec: String) -> OpRecord {
    let mut rec = OpRecord { idx, ..OpRecord::default() };
    let t0 = Instant::now();
    if let Err(e) = op_steps(addr, &spec, t0, &mut rec) {
        rec.error = Some(e);
    }
    rec.latency_ns = t0.elapsed().as_nanos() as u64;
    rec.spec = spec;
    rec
}

fn op_steps(addr: SocketAddr, spec: &str, t0: Instant, rec: &mut OpRecord) -> Result<(), String> {
    let post = http(addr, "POST", "/jobs", spec.as_bytes())?;
    rec.post_ns = t0.elapsed().as_nanos() as u64;
    if post.status != 200 {
        return Err(format!("POST /jobs answered {}", post.status));
    }
    let receipt = body_json(&post.body)?;
    let id = receipt.get("id").and_then(Value::as_str).ok_or("receipt has no id")?.to_string();
    rec.cache_hit = receipt.get("cache_hit").and_then(Value::as_bool) == Some(true);
    let mut state = receipt.get("state").and_then(Value::as_str).unwrap_or("").to_string();
    let waiting = Instant::now();
    let status_path = format!("/jobs/{id}");
    while state != "done" {
        if matches!(state.as_str(), "failed" | "cancelled") {
            return Err(format!("job {id} ended {state}"));
        }
        if rec.polls > 0 {
            let wait = (waiting.elapsed() / 4).clamp(POLL_MIN, POLL_MAX);
            std::thread::sleep(wait);
        }
        if t0.elapsed() > OP_TIMEOUT {
            return Err(format!("job {id} timed out in state {state}"));
        }
        let tp = Instant::now();
        let r = http(addr, "GET", &status_path, b"")?;
        let dt = tp.elapsed().as_nanos() as u64;
        rec.polls += 1;
        rec.poll_ns += dt;
        rec.final_poll_ns = dt;
        if r.status != 200 {
            return Err(format!("GET {status_path} answered {}", r.status));
        }
        let status = body_json(&r.body)?;
        state = status.get("state").and_then(Value::as_str).unwrap_or("").to_string();
        rec.run_ns = status.get("run_ns").and_then(Value::as_f64).map(|ns| ns as u64);
    }
    let tr = Instant::now();
    let result = http(addr, "GET", &format!("/jobs/{id}/result"), b"")?;
    rec.result_ns = tr.elapsed().as_nanos() as u64;
    if result.status != 200 {
        return Err(format!("GET result answered {}", result.status));
    }
    rec.bytes = result.body.len();
    rec.digest = fnv64(&result.body);
    Ok(())
}

/// Server-side readings around one measured phase.
pub struct Phase {
    pub records: Vec<OpRecord>,
    /// From the phase start to the last op's completion.
    pub wall: Duration,
    /// Length of each of the equal windows the phase is cut into; an op
    /// belongs to the window it completed in (late finishers to the last).
    pub window: Duration,
    /// Server CPU milliseconds per window.
    pub window_cpu_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub metrics_before: Value,
    pub metrics_after: Value,
}

impl Phase {
    /// The window an op falls in.
    pub fn window_of(&self, rec: &OpRecord) -> usize {
        ((rec.end_ns / self.window.as_nanos().max(1) as u64) as usize)
            .min(self.window_cpu_ms.len() - 1)
    }
}

pub fn metrics(addr: SocketAddr) -> Result<Value, String> {
    let r = http(addr, "GET", "/metrics", b"")?;
    if r.status != 200 {
        return Err(format!("GET /metrics answered {}", r.status));
    }
    body_json(&r.body)
}

/// Drive `CLIENTS` closed-loop clients against `server` for `seconds`,
/// pulling specs from the shared stream, and read the server's CPU time
/// at each of `windows` window boundaries.
pub fn measure(
    server: &Server,
    stream: &Mutex<(OpStream, usize)>,
    seconds: f64,
    windows: usize,
) -> Result<Phase, String> {
    let metrics_before = metrics(server.addr)?;
    let window = Duration::from_secs_f64(seconds / windows as f64);
    let mut cpu = vec![proc::cpu_ms(server.pid())?];
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut records: Vec<OpRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let (idx, spec) = {
                            let mut g = stream.lock().expect("op stream lock");
                            let idx = g.1;
                            g.1 += 1;
                            (idx, g.0.next_spec())
                        };
                        let mut rec = run_op(server.addr, idx, spec);
                        rec.end_ns = t0.elapsed().as_nanos() as u64;
                        mine.push(rec);
                    }
                    mine
                })
            })
            .collect();
        for w in 1..windows {
            std::thread::sleep((t0 + window * w as u32).saturating_duration_since(Instant::now()));
            cpu.push(proc::cpu_ms(server.pid()).unwrap_or(f64::NAN));
        }
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    cpu.push(proc::cpu_ms(server.pid())?);
    records.sort_by_key(|r| r.idx);
    let wall = Duration::from_nanos(records.iter().map(|r| r.end_ns).max().unwrap_or(1));
    let window_cpu_ms: Vec<f64> = cpu.windows(2).map(|w| w[1] - w[0]).collect();
    let peak_rss_mb = proc::peak_rss_mb(server.pid())?;
    let metrics_after = metrics(server.addr)?;
    Ok(Phase { records, wall, window, window_cpu_ms, peak_rss_mb, metrics_before, metrics_after })
}

/// Store every pool spec (the `hot_replay` set-up) with both clients.
pub fn prefill(addr: SocketAddr, pool: &[String]) -> Result<(), String> {
    let next = Mutex::new(0usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| loop {
                    let i = {
                        let mut g = next.lock().expect("prefill lock");
                        *g += 1;
                        *g - 1
                    };
                    let Some(spec) = pool.get(i) else { return Ok(()) };
                    let rec = run_op(addr, i, spec.clone());
                    if let Some(e) = rec.error {
                        return Err(format!("prefill: {e}"));
                    }
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("prefill thread"))
    })
}

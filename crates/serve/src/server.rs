//! The HTTP server: socket accept loop, request routing, and the
//! graceful-shutdown choreography.
//!
//! ## Protocol
//!
//! | method & path | body | does |
//! |---|---|---|
//! | `POST /jobs` | job spec JSON | submit; `200 {id, state, cache_hit}` or `400`/`503`; `state` may already be terminal (see below); `410` if the record expired during the hold |
//! | `GET /jobs` | — | list `[{id, type, state}, …]` of the retained jobs |
//! | `GET /jobs/{id}` | — | full status record (state, history, cache_hit, metrics) |
//! | `GET /jobs/{id}/result` | — | the payload, verbatim bytes; `409` until `done` |
//! | `POST /jobs/{id}/cancel` | — | cancel; idempotent |
//! | `GET /metrics` | — | obs snapshot + cache stats + job counts |
//! | `POST /shutdown` | optional `{"drain": bool}` | drain and stop; responds after the drain |
//!
//! The three `/jobs/{id}` routes answer `404` for an id never issued and
//! `410 Gone` for an expired one, whose record was dropped under the
//! registry's retention bound (`MAX_RETAINED_JOBS`).
//!
//! ## Submit hold
//!
//! When an idle worker is parked in [`Registry::claim`] to start a new
//! job at once, `POST /jobs` holds its answer until the job is terminal
//! or [`SUBMIT_HOLD`] passes (the bounded server-side wait of RFC 7240
//! `Prefer: wait`, applied by default). A small job's receipt then says
//! `done` or `failed` and the client fetches the result without polling;
//! a longer one answers `running`. A job that must wait for a worker is
//! answered `queued` at once, so batch submitters are never slowed.
//! Cache hits answer `done` at once, as before. A held job that finished
//! and whose record was dropped before the hold read its state answers
//! `410`, as the `/jobs/{id}` routes do.
//!
//! ## Connection handlers
//!
//! The accept loop hands each connection to a parked handler thread
//! over a channel and spawns a new handler only when none is parked.
//! After its request a handler parks again for the next connection,
//! unless `MAX_PARKED_HANDLERS` (8) already are, in which case it exits.
//! Parked handlers exit when the accept loop stops.
//!
//! ## Shutdown choreography
//!
//! `POST /shutdown` marks the registry as draining (new submits → 503),
//! waits for running (and, with `drain: true`, queued) jobs to finish,
//! *then* answers the request, *then* stops the accept loop (in that
//! order — handlers are never joined, so the response has to be on the
//! wire before the acceptor's exit lets the process tear down). Workers
//! exit
//! when [`Registry::claim`] returns `None`; [`ServerHandle::join`] joins
//! the accept thread and the pool; handler threads still parked then
//! see the closed channel and exit.

use crate::http::{self, HttpError, Request};
use crate::job::JobSpec;
use crate::registry::{
    parse_job_id, JobState, NoJob, Receipt, Registry, ResultError, SubmitError, WorkerPool,
};
use pmorph_util::json::{self, Value};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Longest time `POST /jobs` holds its answer for a job an idle worker
/// starts at once. Long enough for small jobs to finish inside the
/// submit round trip; short enough that a long job's client soon gets
/// its `running` receipt and polls.
pub const SUBMIT_HOLD: Duration = Duration::from_millis(50);

/// Most connection handler threads kept parked between connections.
const MAX_PARKED_HANDLERS: usize = 8;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`PMORPH_SERVE_ADDR`, default `127.0.0.1:0`: an
    /// ephemeral port — read the actual one from
    /// [`ServerHandle::addr`] / the binary's `listening on` line).
    pub addr: String,
    /// Worker-pool size (`PMORPH_SERVE_WORKERS`, default
    /// [`pmorph_util::pool::worker_count`]).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:0".into(), workers: pmorph_util::pool::worker_count() }
    }
}

impl ServeConfig {
    /// Read `PMORPH_SERVE_ADDR` / `PMORPH_SERVE_WORKERS`, falling back to
    /// the defaults above on unset or unparsable values.
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Ok(addr) = std::env::var("PMORPH_SERVE_ADDR") {
            if !addr.is_empty() {
                cfg.addr = addr;
            }
        }
        if let Some(n) =
            std::env::var("PMORPH_SERVE_WORKERS").ok().and_then(|v| v.parse::<usize>().ok())
        {
            cfg.workers = n.clamp(1, 256);
        }
        cfg
    }
}

/// A running server: bound socket, accept thread, worker pool.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    accept: Option<std::thread::JoinHandle<()>>,
    pool: Option<WorkerPool>,
    stopping: Arc<AtomicBool>,
}

/// Bind and start a server.
pub fn serve(cfg: &ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let registry = Arc::new(Registry::new());
    let pool = WorkerPool::spawn(Arc::clone(&registry), cfg.workers);
    let stopping = Arc::new(AtomicBool::new(false));

    let (to_parked, from_accept) = mpsc::channel();
    let handlers = Handlers {
        registry: Arc::clone(&registry),
        stopping: Arc::clone(&stopping),
        parked: Arc::new(AtomicUsize::new(0)),
        next: Arc::new(Mutex::new(from_accept)),
    };
    let accept = std::thread::Builder::new()
        .name("pmorph-serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if handlers.stopping.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Claim a parked handler if there is one; each claimed
                // unit of `parked` is a handler committed to one `recv`,
                // so the stream is always picked up.
                if handlers
                    .parked
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_ok()
                {
                    let _ = to_parked.send(stream);
                } else {
                    let handlers = handlers.clone();
                    let _ = std::thread::Builder::new()
                        .name("pmorph-serve-conn".into())
                        .spawn(move || handlers.run(stream));
                }
            }
            // Dropping `to_parked` here wakes every parked handler with a
            // closed channel, and they exit.
        })
        .expect("spawn accept thread");

    Ok(ServerHandle { addr, registry, accept: Some(accept), pool: Some(pool), stopping })
}

/// What every connection handler thread shares.
#[derive(Clone)]
struct Handlers {
    registry: Arc<Registry>,
    stopping: Arc<AtomicBool>,
    /// Handlers parked (or about to park) on `next`, not yet claimed by
    /// the accept loop.
    parked: Arc<AtomicUsize>,
    /// Where parked handlers receive their next connection.
    next: Arc<Mutex<mpsc::Receiver<TcpStream>>>,
}

impl Handlers {
    /// Serve `stream`, then park for further connections until the pool
    /// of parked handlers is full or the accept loop stops.
    fn run(&self, mut stream: TcpStream) {
        loop {
            self.serve(&stream);
            let park = |n: usize| (n < MAX_PARKED_HANDLERS).then_some(n + 1);
            let parked = self.parked.fetch_update(Ordering::AcqRel, Ordering::Acquire, park);
            // Close only once parked: the client sees EOF now, so its
            // next connection finds this handler instead of a new thread.
            drop(stream);
            if parked.is_err() {
                return;
            }
            match self.next.lock().expect("no handler panics holding the receiver").recv() {
                Ok(next) => stream = next,
                Err(mpsc::RecvError) => return,
            }
        }
    }

    fn serve(&self, stream: &TcpStream) {
        // One trace span per request on a single shared HTTP track
        // (handler threads come and go, so per-thread tracks would not
        // line up with requests).
        let t0 = pmorph_obs::trace::enabled().then(std::time::Instant::now);
        let _ = handle_connection(stream, &self.registry, &self.stopping);
        if let Some(t0) = t0 {
            pmorph_obs::trace::thread_name(pmorph_obs::trace::TID_HTTP, "serve http");
            pmorph_obs::trace::complete_tid(
                "serve.http",
                "serve",
                pmorph_obs::trace::TID_HTTP,
                t0,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry behind this server (in-process tests and the bench
    /// harness reach through to the cache and histories).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Wait until a `POST /shutdown` (or [`ServerHandle::shutdown`])
    /// stops the server, then join every thread.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        // Last chance to persist the Chrome trace: both the binary and
        // programmatic shutdown funnel through here with no serve
        // threads left running.
        if let Err(e) = pmorph_obs::trace::flush() {
            eprintln!("serve: could not write trace: {e}");
        }
    }

    /// Programmatic shutdown (what `POST /shutdown` does, minus HTTP):
    /// drain, stop the accept loop, join everything.
    pub fn shutdown(self, drain_queue: bool) -> Value {
        let summary = self.registry.shutdown(drain_queue);
        self.stopping.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // unblock accept()
        self.join();
        summary
    }
}

/// Route one connection's single request. Errors here are connection-level
/// (peer vanished mid-write); protocol errors become 4xx responses.
fn handle_connection(
    stream: &TcpStream,
    registry: &Arc<Registry>,
    stopping: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    if pmorph_obs::enabled() {
        pmorph_obs::counter!("serve.http.requests").add(1);
    }
    let req = match http::read_request(stream)? {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()), // peer connected and left (the shutdown self-poke)
        Err(e) => {
            let status = match e {
                HttpError::Malformed(_) => 400,
                HttpError::TooLarge(_) => 413,
            };
            let written = http::write_response(stream, status, &error_body(&e.to_string()));
            drain_peer(stream);
            return written;
        }
    };
    route(stream, &req, registry, stopping)
}

/// After a 4xx on a request we refused to finish reading, the peer may
/// still be mid-send (an oversize flood). Closing the socket with unread
/// data pending makes the kernel reset the connection, which can discard
/// the buffered error response before the peer sees it — so swallow a
/// bounded amount of the remainder on a short clock first.
fn drain_peer(stream: &TcpStream) {
    const DRAIN_CAP: usize = 256 * 1024;
    if stream.set_read_timeout(Some(Duration::from_millis(250))).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_CAP {
        match io::Read::read(&mut (&*stream), &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn error_body(msg: &str) -> Value {
    let mut body = Value::object();
    body.set("error", Value::Str(msg.into()));
    body
}

/// `410` for an expired job id; `404` for one never issued, or (`None`)
/// for a path segment that is not a job id at all.
fn no_job(stream: &TcpStream, lookup: Option<(u64, NoJob)>) -> io::Result<()> {
    match lookup {
        Some((id, NoJob::Expired)) => {
            http::write_response(stream, 410, &error_body(&format!("job j-{id} expired")))
        }
        Some((_, NoJob::Unknown)) | None => {
            http::write_response(stream, 404, &error_body("no such job"))
        }
    }
}

fn route(
    stream: &TcpStream,
    req: &Request,
    registry: &Arc<Registry>,
    stopping: &Arc<AtomicBool>,
) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => post_job(stream, req, registry),
        ("GET", ["jobs"]) => http::write_response(stream, 200, &registry.list_json()),
        ("GET", ["jobs", id]) => {
            let Some(id) = parse_job_id(id) else { return no_job(stream, None) };
            match registry.status_json(id) {
                Ok(rec) => http::write_response(stream, 200, &rec),
                Err(why) => no_job(stream, Some((id, why))),
            }
        }
        ("GET", ["jobs", id, "result"]) => get_result(stream, id, registry),
        ("POST", ["jobs", id, "cancel"]) => {
            let Some(id) = parse_job_id(id) else { return no_job(stream, None) };
            match registry.cancel(id) {
                Ok(state) => {
                    let mut body = Value::object();
                    body.set("id", Value::Str(format!("j-{id}")));
                    body.set("state", Value::Str(state.name().into()));
                    http::write_response(stream, 200, &body)
                }
                Err(why) => no_job(stream, Some((id, why))),
            }
        }
        ("GET", ["metrics"]) => http::write_response(stream, 200, &metrics_json(registry)),
        ("POST", ["shutdown"]) => post_shutdown(stream, req, registry, stopping),
        (_, ["jobs"]) | (_, ["jobs", ..]) | (_, ["metrics"]) | (_, ["shutdown"]) => {
            http::write_response(stream, 405, &error_body("method not allowed"))
        }
        _ => http::write_response(stream, 404, &error_body("no such route")),
    }
}

fn post_job(stream: &TcpStream, req: &Request, registry: &Arc<Registry>) -> io::Result<()> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return http::write_response(stream, 400, &error_body("body is not UTF-8"));
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return http::write_response(stream, 400, &error_body(&format!("malformed JSON: {e}")))
        }
    };
    let spec = match JobSpec::parse(&doc) {
        Ok(spec) => spec,
        Err(e) => return http::write_response(stream, 400, &error_body(&e.0)),
    };
    match registry.submit(spec) {
        Ok(receipt) => {
            let state = match answered_state(registry, &receipt) {
                Ok(state) => state,
                Err(why) => return no_job(stream, Some((receipt.id, why))),
            };
            let mut body = Value::object();
            body.set("id", Value::Str(format!("j-{}", receipt.id)));
            body.set("state", Value::Str(state.name().into()));
            body.set("cache_hit", Value::Bool(receipt.cache_hit));
            http::write_response(stream, 200, &body)
        }
        Err(SubmitError::ShuttingDown) => {
            http::write_response(stream, 503, &error_body("server is shutting down"))
        }
    }
}

/// The state a submit answers with. Only a job an idle worker starts at
/// once is worth holding for (the submit hold, module docs); its state
/// is read after the hold, and is `Expired` if the job finished and its
/// record was dropped while the hold waited.
fn answered_state(registry: &Registry, receipt: &Receipt) -> Result<JobState, NoJob> {
    if !receipt.worker_ready {
        return Ok(receipt.state);
    }
    registry.wait_terminal(receipt.id, SUBMIT_HOLD);
    registry.state(receipt.id)
}

fn get_result(stream: &TcpStream, id: &str, registry: &Arc<Registry>) -> io::Result<()> {
    let Some(id) = parse_job_id(id) else { return no_job(stream, None) };
    match registry.result_bytes(id) {
        // Stored bytes verbatim: the byte-identical cached-payload
        // contract is enforced right here.
        Ok(bytes) => http::write_response_bytes(stream, 200, &bytes),
        Err(ResultError::Missing(why)) => no_job(stream, Some((id, why))),
        Err(ResultError::NotDone(state)) => http::write_response(
            stream,
            409,
            &error_body(&format!("job is {}, not done", state.name())),
        ),
    }
}

fn metrics_json(registry: &Arc<Registry>) -> Value {
    let mut body = Value::object();
    body.set("obs_enabled", Value::Bool(pmorph_obs::enabled()));
    body.set("jobs", registry.counts_json());
    let cache = registry.cache().stats();
    let mut c = Value::object();
    c.set("results", Value::Num(cache.results as f64));
    c.set("designs", Value::Num(cache.designs as f64));
    c.set("result_hits", Value::Num(cache.result_hits as f64));
    c.set("result_misses", Value::Num(cache.result_misses as f64));
    c.set("design_hits", Value::Num(cache.design_hits as f64));
    c.set("design_misses", Value::Num(cache.design_misses as f64));
    c.set("result_bytes", Value::Num(cache.result_bytes as f64));
    c.set("result_evictions", Value::Num(cache.result_evictions as f64));
    body.set("cache", c);
    if pmorph_obs::enabled() {
        body.set("metrics", pmorph_obs::snapshot().to_json());
    }
    body
}

fn post_shutdown(
    stream: &TcpStream,
    req: &Request,
    registry: &Arc<Registry>,
    stopping: &Arc<AtomicBool>,
) -> io::Result<()> {
    let drain = std::str::from_utf8(&req.body)
        .ok()
        .filter(|t| !t.trim().is_empty())
        .and_then(|t| json::parse(t).ok())
        .and_then(|doc| doc.get("drain").and_then(Value::as_bool))
        .unwrap_or(true);
    // Drain first (this blocks until running/queued jobs settle), then
    // answer, then stop the accept loop — so a 200 from /shutdown means
    // the drain has already happened. The response must go out before
    // the acceptor is released: this handler runs on a detached thread,
    // and once the accept loop exits, `ServerHandle::join` (and in the
    // binary, the whole process) can finish before a later write here
    // lands. New submits already get 503 from the drained registry, so
    // the brief window where the acceptor is still up is harmless.
    let summary = registry.shutdown(drain);
    let written = http::write_response(stream, 200, &summary);
    stopping.store(true, Ordering::Release);
    if let Ok(local) = stream.local_addr() {
        let _ = TcpStream::connect(local); // unblock accept()
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MAX_RETAINED_JOBS;

    fn sleep_spec() -> JobSpec {
        JobSpec::parse(&json::parse(r#"{"type":"sleep","steps":0,"step_ms":0}"#).unwrap()).unwrap()
    }

    #[test]
    fn a_held_submit_answers_the_state_after_the_hold_or_expired() {
        let reg = Registry::new();
        let first = reg.submit(sleep_spec()).unwrap();
        assert_eq!(answered_state(&reg, &first), Ok(JobState::Queued), "not held");
        let held = Receipt { worker_ready: true, ..first.clone() };
        let (id, _, _) = reg.claim().unwrap();
        reg.complete(id, Ok(Value::Null), None, 1);
        assert_eq!(answered_state(&reg, &held), Ok(JobState::Done));
        // MAX_RETAINED_JOBS newer jobs finish (cancelled while queued)
        // before the hold reads the state: the record is gone
        let mut last = first;
        for _ in 0..MAX_RETAINED_JOBS {
            last = reg.submit(sleep_spec()).unwrap();
            reg.cancel(last.id).unwrap();
        }
        assert_eq!(answered_state(&reg, &held), Err(NoJob::Expired));
        let last = Receipt { worker_ready: true, ..last };
        assert_eq!(answered_state(&reg, &last), Ok(JobState::Cancelled));
    }
}

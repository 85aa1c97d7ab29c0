//! Chrome JSON trace sink (`PMORPH_OBS_TRACE=<path>`).
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto: complete events (`ph:"X"`) for spans — `sim.run`,
//! `exec.sweep`/`exec.shard`, `fpga.pnr.search`/`fpga.pnr.stitch`,
//! per-job `serve.job.run` — plus counter events (`ph:"C"`) for queue
//! depth, lane utilization and cache hits, and `thread_name` metadata
//! records that label tracks.
//!
//! ## Gating and overhead
//!
//! The sink is **off unless `PMORPH_OBS_TRACE` names a file**. The gate
//! is the same tri-state pattern as the metrics layer ([`crate::enabled`]):
//! after the first resolution, [`enabled`] is one relaxed atomic load and
//! a predicted branch, so an instrumented call site guarded by it costs
//! nothing measurable when tracing is off — the `kernel/obs_overhead`
//! bench gate and the stdout-differential suites hold with the sink
//! compiled in. Setting `PMORPH_OBS_TRACE` also implies the metrics gate
//! (like `PMORPH_OBS_JSON`), because the span call sites reuse the
//! timestamps the metrics layer already takes.
//!
//! ## Determinism contract
//!
//! Trace events are a write-only side channel, exactly like the metrics
//! registry: nothing may read them back into result bits. The sink writes
//! only to its target file (atomically: temp file + rename) and a one-line
//! stderr summary — never stdout.
//!
//! ## Track model
//!
//! All events share `pid` = the OS process id. Threads get small stable
//! `tid`s on first emission ([`thread_tid`]), so each event lands on the
//! track of the thread that ran it; the sweep engine's helper threads
//! are reused across sweeps and name their tracks once, when they start.
//! A subsystem that funnels work from many threads onto one track (the
//! job server's HTTP handlers) passes an explicit reserved `tid` instead,
//! via [`complete_tid`] / [`thread_name`].
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
use pmorph_util::json::Value;
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const STATE_UNINIT: u8 = 0;
const STATE_DISABLED: u8 = 1;
const STATE_ENABLED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static PATH: Mutex<Option<String>> = Mutex::new(None);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Tids already given a `thread_name` record — call sites that run once
/// per sweep/request can re-name unconditionally without bloating the
/// buffer.
static NAMED: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Hard cap on buffered events: a full repro run performs millions of
/// kernel advances, and an unbounded buffer (or the file it would
/// serialize to) helps nobody. Past the cap, events are counted and
/// dropped; [`flush`] reports how many.
pub const MAX_EVENTS: usize = 250_000;

/// Reserved `tid` for the job server's single HTTP-request track
/// ([`complete_tid`]); automatic per-thread ids stay far below it.
pub const TID_HTTP: u64 = 2_000_000;

/// The shared time origin. Resolved together with the gate, so every
/// timestamp taken after the first [`enabled`] call is non-negative;
/// earlier `Instant`s saturate to 0 rather than panic.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Is the trace sink collecting? One relaxed load after the first call.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env(),
        s => s == STATE_ENABLED,
    }
}

#[cold]
fn init_from_env() -> bool {
    let path = std::env::var("PMORPH_OBS_TRACE").ok().filter(|p| !p.is_empty());
    let on = path.is_some();
    if on {
        epoch(); // pin the time origin before any event
        *PATH.lock().unwrap_or_else(|p| p.into_inner()) = path;
    }
    let want = if on { STATE_ENABLED } else { STATE_DISABLED };
    let _ = STATE.compare_exchange(STATE_UNINIT, want, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ENABLED
}

/// Route the sink to an explicit path, bypassing the environment — the
/// hook behind the sink's own tests. Takes effect on all threads.
#[doc(hidden)]
pub fn force_to_path(path: &str) {
    epoch();
    *PATH.lock().unwrap_or_else(|p| p.into_inner()) = Some(path.to_string());
    STATE.store(STATE_ENABLED, Ordering::Relaxed);
}

/// Disable the sink and drop everything buffered. Test hook only.
#[doc(hidden)]
pub fn force_off() {
    STATE.store(STATE_DISABLED, Ordering::Relaxed);
    *PATH.lock().unwrap_or_else(|p| p.into_inner()) = None;
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).clear();
    NAMED.lock().unwrap_or_else(|p| p.into_inner()).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// One buffered trace record.
#[derive(Debug)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    /// `'X'` complete, `'C'` counter, `'M'` metadata (`thread_name`).
    ph: char,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
    /// Counter value (`'C'`) or unused.
    value: f64,
    /// `thread_name` label (`'M'`) or unused.
    label: String,
}

thread_local! {
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
}

/// This thread's automatic track id (assigned on first use, stable for
/// the thread's lifetime).
pub fn thread_tid() -> u64 {
    THREAD_TID.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

fn ts_ns_of(at: Instant) -> u64 {
    at.checked_duration_since(epoch()).unwrap_or_default().as_nanos() as u64
}

fn push(ev: TraceEvent) {
    let mut events = EVENTS.lock().unwrap_or_else(|p| p.into_inner());
    if events.len() >= MAX_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(ev);
}

/// Record a complete event (`ph:"X"`) on this thread's track. No-op
/// while the sink is disabled; `start` is the span's entry `Instant`
/// (typically the one the metrics layer already took).
#[inline]
pub fn complete(name: &str, cat: &'static str, start: Instant, dur_ns: u64) {
    if enabled() {
        complete_tid(name, cat, thread_tid(), start, dur_ns);
    }
}

/// [`complete`] on an explicit track, such as [`TID_HTTP`], rather than
/// the calling thread's own.
pub fn complete_tid(name: &str, cat: &'static str, tid: u64, start: Instant, dur_ns: u64) {
    if !enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        cat,
        ph: 'X',
        ts_ns: ts_ns_of(start),
        dur_ns,
        tid,
        value: 0.0,
        label: String::new(),
    });
}

/// Record a counter sample (`ph:"C"`) at the current time. Counter
/// events render as a stacked-area track per name in the viewer.
#[inline]
pub fn counter(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        cat: "counter",
        ph: 'C',
        ts_ns: ts_ns_of(Instant::now()),
        dur_ns: 0,
        tid: 0,
        value,
        label: String::new(),
    });
}

/// Name a track (`ph:"M"`, `thread_name`) in the viewer. Idempotent per
/// tid: the first label wins.
pub fn thread_name(tid: u64, label: &str) {
    if !enabled() {
        return;
    }
    {
        let mut named = NAMED.lock().unwrap_or_else(|p| p.into_inner());
        if named.contains(&tid) {
            return;
        }
        named.push(tid);
    }
    push(TraceEvent {
        name: "thread_name".to_string(),
        cat: "__metadata",
        ph: 'M',
        ts_ns: 0,
        dur_ns: 0,
        tid,
        value: 0.0,
        label: label.to_string(),
    });
}

/// RAII convenience: times a scope and records it as a complete event on
/// drop. Returns `None` (free) while the sink is disabled.
pub fn scope(name: &'static str, cat: &'static str) -> Option<ScopeGuard> {
    enabled().then(|| ScopeGuard { name, cat, start: Instant::now() })
}

/// Guard from [`scope`]; emits the complete event when dropped.
pub struct ScopeGuard {
    name: &'static str,
    cat: &'static str,
    start: Instant,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed().as_nanos() as u64;
        complete(self.name, self.cat, self.start, dur);
    }
}

fn event_json(ev: &TraceEvent, pid: u64) -> Value {
    let mut o = Value::object();
    o.set("name", Value::Str(ev.name.clone()));
    if ev.ph != 'M' {
        o.set("cat", Value::Str(ev.cat.to_string()));
    }
    o.set("ph", Value::Str(ev.ph.to_string()));
    o.set("ts", Value::Num(ev.ts_ns as f64 / 1_000.0));
    if ev.ph == 'X' {
        o.set("dur", Value::Num(ev.dur_ns as f64 / 1_000.0));
    }
    o.set("pid", Value::Num(pid as f64));
    o.set("tid", Value::Num(ev.tid as f64));
    match ev.ph {
        'C' => {
            let mut args = Value::object();
            args.set("value", Value::Num(ev.value));
            o.set("args", args);
        }
        'M' => {
            let mut args = Value::object();
            args.set("name", Value::Str(ev.label.clone()));
            o.set("args", args);
        }
        _ => {}
    }
    o
}

/// Number of events currently buffered (diagnostics/tests).
pub fn buffered() -> usize {
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).len()
}

/// Serialize everything recorded so far to the sink path, sorted by
/// timestamp (metadata first), written atomically (same-directory temp
/// file + rename). Events stay buffered, so a later flush rewrites a
/// superset — the last flush wins and the file is always complete.
/// Returns the path written, or `None` when the sink is disabled.
pub fn flush() -> io::Result<Option<String>> {
    if !enabled() {
        return Ok(None);
    }
    let Some(path) = PATH.lock().unwrap_or_else(|p| p.into_inner()).clone() else {
        return Ok(None);
    };
    let events = EVENTS.lock().unwrap_or_else(|p| p.into_inner());
    let pid = std::process::id() as u64;
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Metadata records first, then timestamp order; ties keep emission
    // order (stable sort), so the file is deterministic per run.
    order.sort_by(|&a, &b| {
        let (ea, eb) = (&events[a], &events[b]);
        (ea.ph != 'M').cmp(&(eb.ph != 'M')).then(ea.ts_ns.cmp(&eb.ts_ns))
    });
    let arr: Vec<Value> = order.iter().map(|&i| event_json(&events[i], pid)).collect();
    let n = arr.len();
    let dropped = DROPPED.load(Ordering::Relaxed);
    drop(events);

    let mut doc = Value::object();
    doc.set("traceEvents", Value::Array(arr));
    doc.set("displayTimeUnit", Value::Str("ms".into()));
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, doc.to_string_compact() + "\n")?;
    std::fs::rename(&tmp, &path)?;
    if dropped > 0 {
        eprintln!("obs: wrote {n} trace event(s) to {path} ({dropped} dropped past cap)");
    } else {
        eprintln!("obs: wrote {n} trace event(s) to {path}");
    }
    Ok(Some(path))
}

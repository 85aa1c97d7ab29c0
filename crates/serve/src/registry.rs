//! The job registry: every job's lifecycle, the worker queue, and the
//! shutdown drain.
//!
//! ## State machine
//!
//! ```text
//!            ┌──────────→ Done        (cache hit at submit)
//!            │
//! Queued ────┼──→ Running ──→ Done
//!            │       │
//!            │       ├──→ Failed
//!            │       └──→ Cancelled   (flag observed mid-run)
//!            └──→ Cancelled           (cancelled while queued)
//! ```
//!
//! Terminal states have no exits. Every transition goes through one
//! choke point ([`Inner::set_state`]) that asserts validity and appends
//! to the job's `history` — the property suite replays concurrent
//! client schedules and checks every recorded history against
//! [`JobState::can_transition`].
//!
//! ## Concurrency shape
//!
//! One mutex over all registry state, two condvars: `queue_cv` wakes
//! workers when a job is queued (or shutdown begins), `state_cv` wakes
//! anyone waiting on a job's state (held submits, the shutdown drain).
//! The same lock keeps the count of workers parked in [`Registry::claim`],
//! which tells a submit whether its job starts at once
//! ([`Receipt::worker_ready`]). Job execution happens *outside* the
//! lock; only bookkeeping is inside.

use crate::cache::ArtifactCache;
use crate::job::{self, JobError, JobSpec};
use pmorph_util::json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A job's lifecycle state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a payload.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled (from the queue, or mid-run via the cancel flag).
    Cancelled,
}

impl JobState {
    /// Wire name (the `state` field of a job record).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// No exits from this state?
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    /// Is `self → to` a legal transition? (The diagram in the module
    /// docs, verbatim.)
    pub fn can_transition(&self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Running)
                | (Queued, Cancelled)
                | (Queued, Done)
                | (Running, Done)
                | (Running, Failed)
                | (Running, Cancelled)
        )
    }
}

/// One job's bookkeeping.
struct Job {
    /// The canonical spec string is rebuilt from this when needed rather
    /// than stored: every job is kept for the server's lifetime.
    spec: Arc<JobSpec>,
    state: JobState,
    history: Vec<JobState>,
    cache_hit: bool,
    error: Option<String>,
    result: Option<Arc<Vec<u8>>>,
    /// Per-job obs metric delta, captured around the run (only when the
    /// obs layer is enabled).
    metrics: Option<Value>,
    cancel: Arc<AtomicBool>,
    run_ns: Option<u64>,
}

struct Inner {
    /// Every job ever submitted; job `id` sits at index `id - 1` (ids are
    /// dense and assigned in order, and jobs are never removed).
    jobs: Vec<Job>,
    queue: VecDeque<u64>,
    running: usize,
    /// Workers parked in [`Registry::claim`] waiting for work.
    idle_workers: usize,
    shutting_down: bool,
}

impl Inner {
    fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(usize::try_from(id).ok()?.checked_sub(1)?)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.get_mut(usize::try_from(id).ok()?.checked_sub(1)?)
    }

    /// The single transition choke point: asserts legality, appends to
    /// history. An illegal transition is a server bug, so it panics
    /// (tests catch it; in production the worker thread dies loudly
    /// rather than corrupting the record).
    fn set_state(&mut self, id: u64, to: JobState) {
        let job = self.job_mut(id).expect("transition on unknown job");
        assert!(
            job.state.can_transition(to),
            "illegal job transition {} -> {} (job {id})",
            job.state.name(),
            to.name()
        );
        job.state = to;
        job.history.push(to);
    }
}

/// Submission receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Assigned job id.
    pub id: u64,
    /// State right after submit (`Queued`, or `Done` on a cache hit).
    pub state: JobState,
    /// Did the artifact cache satisfy this submission?
    pub cache_hit: bool,
    /// Was an idle worker parked in [`Registry::claim`], not already
    /// spoken for by an earlier queued job, when this job was queued? If
    /// so the job starts at once; the server holds such submits open.
    pub worker_ready: bool,
}

/// Why a submission was refused.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is draining; no new work.
    ShuttingDown,
}

/// Why a result fetch failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResultError {
    /// No such job.
    Unknown,
    /// Job exists but has no payload (still pending, failed, or
    /// cancelled) — the current state says which.
    NotDone(JobState),
}

/// The registry. One per server; workers, handlers and the drain all
/// share it behind an `Arc`.
pub struct Registry {
    inner: Mutex<Inner>,
    /// Wakes workers: queue non-empty or shutdown.
    queue_cv: Condvar,
    /// Wakes state watchers: any job changed state.
    state_cv: Condvar,
    cache: ArtifactCache,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with an empty artifact cache.
    pub fn new() -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                running: 0,
                idle_workers: 0,
                shutting_down: false,
            }),
            queue_cv: Condvar::new(),
            state_cv: Condvar::new(),
            cache: ArtifactCache::new(),
        }
    }

    /// The artifact cache (the bench harness clears it between cold
    /// runs; job execution reads through it).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Submit a job. Ids are assigned in submission order. A cacheable
    /// spec whose artifact is already stored completes instantly
    /// (`Queued → Done`, `cache_hit: true`) without touching the queue.
    pub fn submit(&self, spec: JobSpec) -> Result<Receipt, SubmitError> {
        let cached = if spec.cacheable() {
            self.cache.lookup_result(spec.cache_key(), &spec.canonical())
        } else {
            None
        };
        let mut inner = self.inner.lock().unwrap();
        if inner.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        let id = inner.jobs.len() as u64 + 1;
        let cache_hit = cached.is_some();
        inner.jobs.push(Job {
            spec: Arc::new(spec),
            state: JobState::Queued,
            history: vec![JobState::Queued],
            cache_hit,
            error: None,
            result: cached,
            metrics: None,
            cancel: Arc::new(AtomicBool::new(false)),
            run_ns: None,
        });
        // Every job already queued has an idle worker (if any) spoken
        // for, so this one starts at once only if one more is parked.
        let worker_ready = !cache_hit && inner.idle_workers > inner.queue.len();
        let state = if cache_hit {
            inner.set_state(id, JobState::Done);
            self.state_cv.notify_all();
            JobState::Done
        } else {
            inner.queue.push_back(id);
            self.queue_cv.notify_one();
            JobState::Queued
        };
        if pmorph_obs::enabled() {
            pmorph_obs::counter!("serve.jobs.submitted").add(1);
            pmorph_obs::gauge!("serve.jobs.queue_depth").set(inner.queue.len() as f64);
            pmorph_obs::trace::counter("serve.jobs.queue_depth", inner.queue.len() as f64);
        }
        Ok(Receipt { id, state, cache_hit, worker_ready })
    }

    /// Worker side: block until a job is claimable, claim it (`Queued →
    /// Running`), and return what the run needs. `None` means shutdown:
    /// the queue is empty and no more work will arrive — the worker
    /// should exit.
    pub fn claim(&self) -> Option<(u64, Arc<JobSpec>, Arc<AtomicBool>)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(id) = inner.queue.pop_front() {
                inner.set_state(id, JobState::Running);
                inner.running += 1;
                let job = inner.job(id).expect("queued jobs exist");
                let out = (id, Arc::clone(&job.spec), Arc::clone(&job.cancel));
                self.state_cv.notify_all();
                if pmorph_obs::enabled() {
                    pmorph_obs::gauge!("serve.jobs.queue_depth").set(inner.queue.len() as f64);
                    pmorph_obs::trace::counter("serve.jobs.queue_depth", inner.queue.len() as f64);
                }
                return Some(out);
            }
            if inner.shutting_down {
                return None;
            }
            inner.idle_workers += 1;
            inner = self.queue_cv.wait(inner).unwrap();
            inner.idle_workers -= 1;
        }
    }

    /// Workers currently parked in [`Registry::claim`] waiting for work.
    pub fn idle_workers(&self) -> usize {
        self.inner.lock().unwrap().idle_workers
    }

    /// Worker side: record a finished run. On success the payload is
    /// serialized once, stored on the record, and (for cacheable specs)
    /// published to the artifact cache.
    pub fn complete(
        &self,
        id: u64,
        outcome: Result<Value, JobError>,
        metrics: Option<Value>,
        run_ns: u64,
    ) {
        // Serialize outside the lock; these payloads can be large. The
        // bytes are kept for the server's lifetime, so drop the growth
        // slack (over a quarter of the buffer on average).
        let done = match outcome {
            Ok(payload) => {
                let mut bytes = payload.to_string_compact().into_bytes();
                bytes.shrink_to_fit();
                Ok(Arc::new(bytes))
            }
            Err(e) => Err(e),
        };
        let mut inner = self.inner.lock().unwrap();
        let (to, counter) = match &done {
            Ok(_) => (JobState::Done, "serve.jobs.done"),
            Err(JobError::Cancelled) => (JobState::Cancelled, "serve.jobs.cancelled"),
            Err(JobError::Failed(_)) => (JobState::Failed, "serve.jobs.failed"),
        };
        inner.set_state(id, to);
        inner.running -= 1;
        let job = inner.job_mut(id).expect("completed unknown job");
        job.metrics = metrics;
        job.run_ns = Some(run_ns);
        let publish = match done {
            Ok(bytes) => {
                job.result = Some(Arc::clone(&bytes));
                job.spec.cacheable().then(|| (Arc::clone(&job.spec), bytes))
            }
            Err(JobError::Failed(msg)) => {
                job.error = Some(msg);
                None
            }
            Err(JobError::Cancelled) => None,
        };
        drop(inner);
        if let Some((spec, bytes)) = publish {
            self.cache.store_result(spec.cache_key(), &spec.canonical(), bytes);
        }
        self.state_cv.notify_all();
        if pmorph_obs::enabled() {
            pmorph_obs::counter!(counter).add(1);
            pmorph_obs::span!("serve.job.run").record_ns(run_ns);
        }
    }

    /// Cancel a job. Queued jobs cancel immediately; running jobs get
    /// their flag set and cancel at the next check (the returned state is
    /// still `Running` — poll for the terminal state). Terminal jobs are
    /// untouched (cancellation is idempotent). `None` means no such job.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut inner = self.inner.lock().unwrap();
        let state = inner.job(id)?.state;
        match state {
            JobState::Queued => {
                inner.queue.retain(|&q| q != id);
                inner.set_state(id, JobState::Cancelled);
                self.state_cv.notify_all();
                if pmorph_obs::enabled() {
                    pmorph_obs::counter!("serve.jobs.cancelled").add(1);
                    pmorph_obs::gauge!("serve.jobs.queue_depth").set(inner.queue.len() as f64);
                    pmorph_obs::trace::counter("serve.jobs.queue_depth", inner.queue.len() as f64);
                }
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                inner.job(id).expect("looked up above").cancel.store(true, Ordering::Relaxed);
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// A job's current state.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.inner.lock().unwrap().job(id).map(|j| j.state)
    }

    /// A job's full transition history (the property suite's audit
    /// trail).
    pub fn history(&self, id: u64) -> Option<Vec<JobState>> {
        self.inner.lock().unwrap().job(id).map(|j| j.history.clone())
    }

    /// The status record served at `GET /jobs/{id}`.
    pub fn status_json(&self, id: u64) -> Option<Value> {
        let inner = self.inner.lock().unwrap();
        let job = inner.job(id)?;
        let mut rec = Value::object();
        rec.set("id", Value::Str(format!("j-{id}")));
        rec.set("type", Value::Str(job.spec.kind().into()));
        rec.set("state", Value::Str(job.state.name().into()));
        rec.set("cache_hit", Value::Bool(job.cache_hit));
        rec.set("spec", Value::Str(job.spec.canonical()));
        rec.set(
            "history",
            Value::Array(job.history.iter().map(|s| Value::Str(s.name().into())).collect()),
        );
        if let Some(e) = &job.error {
            rec.set("error", Value::Str(e.clone()));
        }
        if let Some(ns) = job.run_ns {
            rec.set("run_ns", Value::Num(ns as f64));
        }
        if let Some(m) = &job.metrics {
            rec.set("metrics", m.clone());
        }
        Some(rec)
    }

    /// The job list served at `GET /jobs`: `[{id, type, state}, …]` in id
    /// order.
    pub fn list_json(&self) -> Value {
        let inner = self.inner.lock().unwrap();
        Value::Array(
            inner
                .jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    let mut rec = Value::object();
                    rec.set("id", Value::Str(format!("j-{}", i + 1)));
                    rec.set("type", Value::Str(job.spec.kind().into()));
                    rec.set("state", Value::Str(job.state.name().into()));
                    rec
                })
                .collect(),
        )
    }

    /// Per-state job counts (for `/metrics`).
    pub fn counts_json(&self) -> Value {
        let inner = self.inner.lock().unwrap();
        let mut counts = [0u64; 5];
        for job in &inner.jobs {
            let i = match job.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[i] += 1;
        }
        let mut obj = Value::object();
        for (state, n) in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ]
        .iter()
        .zip(counts)
        {
            obj.set(state.name(), Value::Num(n as f64));
        }
        obj
    }

    /// A finished job's payload bytes (served verbatim at
    /// `GET /jobs/{id}/result`).
    pub fn result_bytes(&self, id: u64) -> Result<Arc<Vec<u8>>, ResultError> {
        let inner = self.inner.lock().unwrap();
        let job = inner.job(id).ok_or(ResultError::Unknown)?;
        match (&job.result, job.state) {
            (Some(bytes), JobState::Done) => Ok(Arc::clone(bytes)),
            (_, state) => Err(ResultError::NotDone(state)),
        }
    }

    /// Block until `id` reaches a terminal state. `POST /jobs` uses this
    /// for its bounded hold; benches and tests wait on it directly.
    /// `false` on timeout or unknown id.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            match inner.job(id) {
                None => return false,
                Some(job) if job.state.is_terminal() => return true,
                Some(_) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            // A timeout falls through: the loop re-checks the state once
            // more (it may have flipped while we were timing out) and
            // then gives up via the `left.is_zero()` branch.
            let (guard, _res) = self.state_cv.wait_timeout(inner, left).unwrap();
            inner = guard;
        }
    }

    /// Begin shutdown and drain. New submissions are refused from the
    /// moment this takes the lock. With `drain_queue`, queued jobs are
    /// allowed to run to completion; otherwise they are cancelled and
    /// only already-running jobs finish. Blocks until nothing is queued
    /// or running, then returns a summary.
    pub fn shutdown(&self, drain_queue: bool) -> Value {
        let mut inner = self.inner.lock().unwrap();
        inner.shutting_down = true;
        if !drain_queue {
            while let Some(id) = inner.queue.pop_front() {
                inner.set_state(id, JobState::Cancelled);
            }
        }
        // Wake every worker: either there is queued work to drain, or
        // they must observe `shutting_down` and exit.
        self.queue_cv.notify_all();
        self.state_cv.notify_all();
        while inner.running > 0 || !inner.queue.is_empty() {
            inner = self.state_cv.wait(inner).unwrap();
        }
        let mut summary = Value::object();
        summary.set("state", Value::Str("drained".into()));
        summary.set("drained_queue", Value::Bool(drain_queue));
        drop(inner);
        summary.set("jobs", self.counts_json());
        summary
    }

    /// Has shutdown begun?
    pub fn shutting_down(&self) -> bool {
        self.inner.lock().unwrap().shutting_down
    }
}

/// Parse a `j-<n>` wire id.
pub fn parse_job_id(s: &str) -> Option<u64> {
    s.strip_prefix("j-")?.parse().ok()
}

/// Run one claimed job and record the outcome, capturing a per-job obs
/// metric delta when the obs layer is enabled. This is the worker loop
/// body; it's public so the bench harness can drive jobs without a
/// server.
pub fn run_one(registry: &Registry, id: u64, spec: &JobSpec, cancel: &AtomicBool) {
    let obs_base = pmorph_obs::enabled().then(pmorph_obs::snapshot);
    let t0 = Instant::now();
    let outcome = job::run(spec, registry.cache(), cancel);
    let run_ns = t0.elapsed().as_nanos() as u64;
    // One span per job on the worker thread's own track, labelled by
    // job type — reuses the `t0` the metrics delta already took.
    if pmorph_obs::trace::enabled() {
        pmorph_obs::trace::complete(&format!("serve.job.run:{}", spec.kind()), "serve", t0, run_ns);
    }
    let metrics = obs_base.map(|base| pmorph_obs::snapshot().delta_since(&base).to_json());
    registry.complete(id, outcome, metrics, run_ns);
}

/// The persistent worker pool: `n` threads looping claim → run → record
/// until shutdown drains the registry.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `n` workers (at least one) against `registry`.
    pub fn spawn(registry: Arc<Registry>, n: usize) -> WorkerPool {
        let handles = (0..n.max(1))
            .map(|i| {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("pmorph-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some((id, spec, cancel)) = registry.claim() {
                            run_one(&registry, id, &spec, &cancel);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Wait for every worker to exit (they do once
    /// [`Registry::shutdown`] has drained the queue).
    pub fn join(self) {
        for h in self.handles {
            h.join().expect("worker thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_util::json;

    fn spec(text: &str) -> JobSpec {
        JobSpec::parse(&json::parse(text).unwrap()).unwrap()
    }

    fn sleep_spec(steps: usize, step_ms: u64) -> JobSpec {
        spec(&format!(r#"{{"type":"sleep","steps":{steps},"step_ms":{step_ms}}}"#))
    }

    #[test]
    fn transition_table_is_the_documented_diagram() {
        use JobState::*;
        let legal = [
            (Queued, Running),
            (Queued, Cancelled),
            (Queued, Done),
            (Running, Done),
            (Running, Failed),
            (Running, Cancelled),
        ];
        for from in [Queued, Running, Done, Failed, Cancelled] {
            for to in [Queued, Running, Done, Failed, Cancelled] {
                assert_eq!(
                    from.can_transition(to),
                    legal.contains(&(from, to)),
                    "{} -> {}",
                    from.name(),
                    to.name()
                );
            }
        }
    }

    #[test]
    fn submit_claim_complete_happy_path() {
        let reg = Registry::new();
        let r = reg.submit(sleep_spec(0, 0)).unwrap();
        assert_eq!((r.id, r.state, r.cache_hit), (1, JobState::Queued, false));
        let (id, spec, cancel) = reg.claim().unwrap();
        assert_eq!(id, 1);
        assert_eq!(reg.state(1), Some(JobState::Running));
        run_one(&reg, id, &spec, &cancel);
        assert_eq!(reg.state(1), Some(JobState::Done));
        assert_eq!(
            reg.history(1).unwrap(),
            vec![JobState::Queued, JobState::Running, JobState::Done]
        );
        let bytes = reg.result_bytes(1).unwrap();
        let doc = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("steps_done").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn cache_hit_submission_completes_instantly() {
        let reg = Registry::new();
        let fast = spec(
            r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.1,"trials":2,"seed":5}"#,
        );
        reg.submit(fast.clone()).unwrap();
        let (id, s, cancel) = reg.claim().unwrap();
        run_one(&reg, id, &s, &cancel);
        let first = reg.result_bytes(1).unwrap();

        let r2 = reg.submit(fast).unwrap();
        assert_eq!((r2.state, r2.cache_hit), (JobState::Done, true));
        assert_eq!(reg.history(r2.id).unwrap(), vec![JobState::Queued, JobState::Done]);
        let second = reg.result_bytes(r2.id).unwrap();
        assert_eq!(first, second, "cached payload must be byte-identical");
    }

    #[test]
    fn sleep_jobs_never_cache() {
        let reg = Registry::new();
        for _ in 0..2 {
            let r = reg.submit(sleep_spec(0, 0)).unwrap();
            assert!(!r.cache_hit);
            let (id, s, cancel) = reg.claim().unwrap();
            run_one(&reg, id, &s, &cancel);
            assert_eq!(reg.state(r.id), Some(JobState::Done));
        }
    }

    #[test]
    fn worker_ready_only_while_an_idle_worker_is_unclaimed() {
        let reg = Arc::new(Registry::new());
        // No worker parked yet: the job has to wait.
        assert!(!reg.submit(sleep_spec(0, 0)).unwrap().worker_ready);
        reg.claim().unwrap();
        let claimer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.claim().map(|(id, _, _)| id))
        };
        while reg.idle_workers() == 0 {
            std::thread::yield_now();
        }
        let first = reg.submit(sleep_spec(0, 0)).unwrap();
        assert!(first.worker_ready, "one worker parked and unclaimed");
        // That worker is spoken for, whether or not it has woken yet.
        assert!(!reg.submit(sleep_spec(0, 0)).unwrap().worker_ready);
        assert_eq!(claimer.join().unwrap(), Some(first.id));
    }

    #[test]
    fn cancel_queued_job_skips_the_worker() {
        let reg = Registry::new();
        let r = reg.submit(sleep_spec(100, 10)).unwrap();
        assert_eq!(reg.cancel(r.id), Some(JobState::Cancelled));
        assert_eq!(reg.history(r.id).unwrap(), vec![JobState::Queued, JobState::Cancelled]);
        assert_eq!(reg.result_bytes(r.id), Err(ResultError::NotDone(JobState::Cancelled)));
        // The queue is empty: shutdown drains instantly, claim returns None.
        reg.shutdown(true);
        assert!(reg.claim().is_none());
    }

    #[test]
    fn cancel_running_job_lands_cancelled() {
        let reg = Arc::new(Registry::new());
        let pool = WorkerPool::spawn(Arc::clone(&reg), 1);
        let r = reg.submit(sleep_spec(10_000, 1)).unwrap();
        // Wait until the worker picks it up, then cancel mid-run.
        while reg.state(r.id) == Some(JobState::Queued) {
            std::thread::yield_now();
        }
        assert_eq!(reg.cancel(r.id), Some(JobState::Running));
        assert!(reg.wait_terminal(r.id, Duration::from_secs(30)));
        assert_eq!(reg.state(r.id), Some(JobState::Cancelled));
        assert_eq!(
            reg.history(r.id).unwrap(),
            vec![JobState::Queued, JobState::Running, JobState::Cancelled]
        );
        // Idempotent on terminal jobs.
        assert_eq!(reg.cancel(r.id), Some(JobState::Cancelled));
        reg.shutdown(false);
        pool.join();
    }

    #[test]
    fn shutdown_refuses_new_work_and_drains() {
        let reg = Arc::new(Registry::new());
        let pool = WorkerPool::spawn(Arc::clone(&reg), 2);
        let ids: Vec<u64> = (0..6).map(|_| reg.submit(sleep_spec(2, 1)).unwrap().id).collect();
        let summary = reg.shutdown(true);
        assert_eq!(summary.get("state").and_then(Value::as_str), Some("drained"));
        assert_eq!(reg.submit(sleep_spec(0, 0)), Err(SubmitError::ShuttingDown));
        for id in ids {
            assert_eq!(reg.state(id), Some(JobState::Done), "drain finishes queued work");
        }
        pool.join();
    }

    #[test]
    fn shutdown_without_drain_cancels_queued_jobs() {
        let reg = Registry::new();
        let a = reg.submit(sleep_spec(1, 0)).unwrap().id;
        let b = reg.submit(sleep_spec(1, 0)).unwrap().id;
        // No workers: both still queued; a no-drain shutdown cancels them.
        reg.shutdown(false);
        assert_eq!(reg.state(a), Some(JobState::Cancelled));
        assert_eq!(reg.state(b), Some(JobState::Cancelled));
    }

    #[test]
    fn failed_jobs_record_the_error_and_skip_the_cache() {
        let reg = Registry::new();
        reg.submit(sleep_spec(0, 0)).unwrap();
        let (id, _, _) = reg.claim().unwrap();
        reg.complete(id, Err(JobError::Failed("boom".into())), None, 1);
        assert_eq!(reg.state(id), Some(JobState::Failed));
        let status = reg.status_json(id).unwrap();
        assert_eq!(status.get("error").and_then(Value::as_str), Some("boom"));
        assert_eq!(reg.cache().stats().results, 0);
    }

    #[test]
    fn wire_id_round_trip() {
        assert_eq!(parse_job_id("j-17"), Some(17));
        assert_eq!(parse_job_id("17"), None);
        assert_eq!(parse_job_id("j-x"), None);
    }
}

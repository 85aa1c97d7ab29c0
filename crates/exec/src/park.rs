//! The process-wide park of idle sweep helper threads.
//!
//! A sweep with `p` participants runs one worker on the calling thread
//! (worker 0) and hands the other `p − 1` to helpers. Each helper comes
//! from the park, and a thread is spawned only when none is parked, so a
//! sweep never waits for a helper to free up: nested and concurrent
//! sweeps cannot deadlock, and a sweep always gets exactly the
//! participants it asked for. A helper parks again *before* it tells its sweep it is done, so
//! a back-to-back sweep finds it waiting. At most [`MAX_PARKED_HELPERS`]
//! stay parked; a helper that finds the park full exits instead.
//!
//! Once the caller has drained its sweep's shard cursor it *revokes* the
//! helpers that have not started yet: they find no work when they wake
//! and go straight back to the park, and the caller waits only for the
//! helpers that did start. Without this, every small sweep would wait
//! for sleeping threads to wake up just to find the cursor empty.
//!
//! Every worker runs under `catch_unwind`. The caller waits for every
//! started helper, then resumes the first panic payload, and the
//! helpers that panicked are parked again like the rest.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How many idle helpers stay parked; past this a finishing helper
/// exits. A constant rather than a knob: it covers one sweep per core on
/// hosts of up to 65 cores, and an idle parked thread costs only its
/// stack.
const MAX_PARKED_HELPERS: usize = 64;

/// The idle helpers, each waiting on its own mailbox.
static PARK: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

/// Helpers spawned so far in this process; numbers their threads.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Lock ignoring poison: no lock in this module is held across user
/// code, so a poisoned one still guards consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A parked helper: the mailbox its next sweep arrives in.
#[derive(Default)]
struct Helper {
    mailbox: Mutex<Option<Arc<Shared>>>,
    wake: Condvar,
}

/// What a sweep's caller and its helpers share. A helper handed one runs
/// the sweep's worker loop once.
struct Shared {
    state: Mutex<State>,
    /// Signalled when the last started helper finishes.
    done: Condvar,
}

struct State {
    /// The sweep's worker loop, its borrow erased to `'static` (see
    /// [`run`]); `None` once the caller has revoked unstarted helpers.
    work: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers that took `work` and have not finished it.
    running: usize,
    /// The first panic payload of any participant.
    panic: Option<Box<dyn Any + Send>>,
}

/// Run `work` once on the calling thread and once on each of
/// `participants − 1` parked (or, failing that, freshly spawned)
/// helpers; return once every helper that started has finished. `work`
/// is a sweep's worker loop: it returns once the sweep's shared cursor
/// is drained, so revoked helpers lose no work. Returns how many helper
/// threads had to be spawned. A panic in any participant is resumed
/// here, after every started helper is done.
pub(crate) fn run(participants: usize, work: &(dyn Fn() + Sync)) -> usize {
    if participants <= 1 {
        work();
        return 0;
    }
    // SAFETY: the erased reference is stored only in `state.work`. A
    // helper copies it out and calls it only after counting itself in
    // `running` under the same lock. Below, the caller neither returns
    // nor unwinds until it has set `state.work` to `None` and then seen
    // `running` fall to 0 under that lock: its own `work()` runs under
    // `catch_unwind`, and nothing between here and the wait can panic
    // (`dispatch` reports a failed spawn instead). So no helper can call
    // `work` once this function has returned or unwound, and no copy of
    // the reference outlives the borrow it was made from.
    let work: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(work) };
    let sweep = Arc::new(Shared {
        state: Mutex::new(State { work: Some(work), running: 0, panic: None }),
        done: Condvar::new(),
    });
    let spawned = (1..participants).filter(|_| dispatch(Arc::clone(&sweep))).count();
    let mine = panic::catch_unwind(AssertUnwindSafe(work));
    let mut state = lock(&sweep.state);
    state.work = None;
    if let Err(payload) = mine {
        state.panic.get_or_insert(payload);
    }
    while state.running > 0 {
        state = sweep.done.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
    if let Some(payload) = state.panic.take() {
        drop(state);
        panic::resume_unwind(payload);
    }
    spawned
}

/// Hand `sweep` to a parked helper, or to a new one when none is
/// parked. Returns whether a thread was spawned. A thread that cannot be
/// spawned is simply absent: worker 0 drains the cursor either way.
fn dispatch(sweep: Arc<Shared>) -> bool {
    let parked = lock(&PARK).pop();
    if let Some(helper) = parked {
        *lock(&helper.mailbox) = Some(sweep);
        helper.wake.notify_one();
        return false;
    }
    let helper = Arc::new(Helper::default());
    let name = format!("pmorph-exec-helper-{}", SPAWNED.fetch_add(1, Ordering::Relaxed));
    // Detached on purpose: the helper outlives this sweep, and a panic
    // in any work it runs is caught and handed to that work's caller.
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || helper_main(&helper, &name, sweep))
        .is_ok()
}

/// A helper thread's life: serve sweeps until the park is full.
fn helper_main(me: &Arc<Helper>, name: &str, first: Arc<Shared>) {
    // One trace track per helper thread, named once.
    if pmorph_obs::trace::enabled() {
        pmorph_obs::trace::thread_name(pmorph_obs::trace::thread_tid(), name);
    }
    let mut sweep = first;
    while serve(me, &sweep) {
        let mut mailbox = lock(&me.mailbox);
        sweep = loop {
            match mailbox.take() {
                Some(t) => break t,
                None => mailbox = me.wake.wait(mailbox).unwrap_or_else(PoisonError::into_inner),
            }
        };
    }
}

/// Run `sweep`'s worker loop unless it was revoked, park, then report
/// done. Returns whether this helper parked (else its thread exits).
fn serve(me: &Arc<Helper>, sweep: &Shared) -> bool {
    let started = {
        let mut state = lock(&sweep.state);
        let work = state.work;
        state.running += usize::from(work.is_some());
        work
    };
    let outcome = started.map(|work| panic::catch_unwind(AssertUnwindSafe(work)));
    // Park before signalling done, so the caller's next sweep finds this
    // helper waiting.
    let parked = {
        let mut park = lock(&PARK);
        let room = park.len() < MAX_PARKED_HELPERS;
        if room {
            park.push(Arc::clone(me));
        }
        room
    };
    if let Some(outcome) = outcome {
        let mut state = lock(&sweep.state);
        state.running -= 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        if state.running == 0 {
            sweep.done.notify_all();
        }
    }
    parked
}

/// Helpers parked right now.
#[cfg(test)]
fn parked() -> usize {
    lock(&PARK).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sweep, SweepConfig};

    #[test]
    fn park_stays_within_its_bound_after_a_burst() {
        // 16 concurrent 8-worker sweeps of one-item shards, all held at
        // one barrier: 112 helpers are busy at once, more than the park
        // holds, so the surplus must exit rather than park.
        const SWEEPS: usize = 16;
        const WORKERS: usize = 8;
        let barrier = std::sync::Barrier::new(SWEEPS * WORKERS);
        let cfg = SweepConfig::new().with_workers(WORKERS).with_shard_size(1);
        std::thread::scope(|scope| {
            for s in 0..SWEEPS {
                let (cfg, barrier) = (&cfg, &barrier);
                scope.spawn(move || {
                    let out = sweep(
                        WORKERS,
                        cfg,
                        || (),
                        |_, i| {
                            barrier.wait();
                            s * WORKERS + i
                        },
                    );
                    assert_eq!(out, (0..WORKERS).map(|i| s * WORKERS + i).collect::<Vec<_>>());
                });
            }
        });
        assert!(parked() <= MAX_PARKED_HELPERS, "{} parked", parked());
    }
}

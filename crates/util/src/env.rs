//! Scoped process-environment overrides for tests and benches.
//!
//! The workspace's behaviour knobs are environment variables
//! (`PMORPH_THREADS`, `PMORPH_OBS`, `PMORPH_OBS_JSON`), and several of
//! them are re-read on every use ([`crate::pool::worker_count`] being
//! the hot one). Tests that poke the
//! environment directly with `std::env::set_var` leak the override into
//! every test that runs after them in the same binary — the classic
//! cross-test contamination bug. [`EnvGuard`] fixes the hygiene problem
//! structurally:
//!
//! * every override is **recorded and restored** (in reverse order) when
//!   the guard drops, including on panic, and
//! * constructing a guard takes a **process-wide lock**, so two tests in
//!   one binary can never interleave their environment mutations.
//!
//! One guard can carry any number of overrides — take a single guard per
//! test and stack `set`/`unset` calls on it. Holding two guards alive on
//! different threads serialises them; two on *one* thread would deadlock,
//! which is deliberate: overlapping scopes are exactly the bug this
//! module exists to prevent.
//!
//! ```
//! use pmorph_util::env::EnvGuard;
//! let mut env = EnvGuard::new();
//! env.set("PMORPH_THREADS", "8").unset("PMORPH_OBS");
//! assert_eq!(std::env::var("PMORPH_THREADS").as_deref(), Ok("8"));
//! drop(env); // both variables restored to their previous state
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The process-wide environment-mutation lock. Poisoning is ignored: a
/// panicking test already restored its variables in `Drop`, so the state
/// behind a poisoned lock is clean.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// An RAII environment override: holds the process-wide env lock and
/// restores every touched variable on drop. See the module docs.
pub struct EnvGuard {
    /// `(key, previous value)` in application order; restored in reverse.
    saved: Vec<(String, Option<String>)>,
    _lock: MutexGuard<'static, ()>,
}

impl EnvGuard {
    /// Acquire the environment lock with no overrides applied yet.
    ///
    /// Blocks until any other live guard (on any thread) drops.
    #[allow(clippy::new_without_default)]
    pub fn new() -> EnvGuard {
        let lock = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        EnvGuard { saved: Vec::new(), _lock: lock }
    }

    /// Set `key=value` for the guard's lifetime.
    pub fn set(&mut self, key: &str, value: &str) -> &mut Self {
        self.save(key);
        std::env::set_var(key, value);
        self
    }

    /// Remove `key` for the guard's lifetime.
    pub fn unset(&mut self, key: &str) -> &mut Self {
        self.save(key);
        std::env::remove_var(key);
        self
    }

    fn save(&mut self, key: &str) {
        // First touch wins: restoring to the state before the *guard*,
        // not before the latest call, keeps set-then-set sequences sane.
        if !self.saved.iter().any(|(k, _)| k == key) {
            self.saved.push((key.to_string(), std::env::var(key).ok()));
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (key, prev) in self.saved.iter().rev() {
            match prev {
                Some(v) => std::env::set_var(key, v),
                None => std::env::remove_var(key),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_unset_restore_previous_state() {
        let key_a = "PMORPH_ENVGUARD_TEST_A";
        let key_b = "PMORPH_ENVGUARD_TEST_B";
        {
            let mut outer = EnvGuard::new();
            outer.set(key_a, "before");
            outer.unset(key_b);
            drop(outer);
            // key_a/key_b are restored; establish a known base instead.
        }
        let mut base = EnvGuard::new();
        base.set(key_a, "base");
        base.unset(key_b);
        {
            // A nested scope cannot take a second guard (deadlock by
            // design), so mutate through the same guard and check the
            // first-touch-wins restore below.
            base.set(key_a, "override").set(key_b, "created");
            assert_eq!(std::env::var(key_a).as_deref(), Ok("override"));
            assert_eq!(std::env::var(key_b).as_deref(), Ok("created"));
        }
        drop(base);
        assert!(std::env::var(key_a).is_err(), "restored to pre-guard (unset)");
        assert!(std::env::var(key_b).is_err());
    }

    #[test]
    fn restore_happens_even_on_panic() {
        let key = "PMORPH_ENVGUARD_TEST_PANIC";
        std::env::remove_var(key);
        let result = std::panic::catch_unwind(|| {
            let mut g = EnvGuard::new();
            g.set(key, "leaky?");
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(std::env::var(key).is_err(), "guard restored during unwind");
    }

    #[test]
    fn guards_serialize_across_threads() {
        // Two threads hammer the same variable through guards; with the
        // process-wide lock each thread always reads back its own write.
        let key = "PMORPH_ENVGUARD_TEST_RACE";
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let want = format!("t{t}i{i}");
                        let mut g = EnvGuard::new();
                        g.set(key, &want);
                        assert_eq!(std::env::var(key).as_deref(), Ok(want.as_str()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}

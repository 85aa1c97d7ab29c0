//! The workspace's worker-count knob. The threads themselves live in
//! `pmorph_exec::sweep`, the one parallel engine; this module only
//! resolves how many of them a sweep (or the job server) should use.

use std::sync::OnceLock;

/// Worker count: `PMORPH_THREADS` if set, else available parallelism.
///
/// The variable is read on every call, so a scoped override takes effect
/// at once; the core count is read once per process, since reading it
/// means reading cgroup files (tens of microseconds per call).
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("PMORPH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvGuard;

    #[test]
    fn pmorph_threads_overrides_available_parallelism() {
        let mut env = EnvGuard::new();
        env.set("PMORPH_THREADS", "5");
        assert_eq!(worker_count(), 5);
        env.set("PMORPH_THREADS", "0");
        assert_eq!(worker_count(), 1, "zero clamps to one worker");
        env.set("PMORPH_THREADS", "many");
        assert!(worker_count() >= 1, "an unparsable override falls back");
        env.unset("PMORPH_THREADS");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(worker_count(), cores, "unset: the host's available parallelism");
        assert_eq!(worker_count(), cores, "and the same once it is cached");
    }
}

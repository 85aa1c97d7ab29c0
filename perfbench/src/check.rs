//! Output checks: every job's bytes against an in-process run of the
//! same spec, payload digests for the default seed, and `repro` stdout.

use crate::client::OpRecord;
use pmorph_serve::{job, ArtifactCache, JobSpec};
use pmorph_util::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The seed whose payload digests are recorded in `expected.json`.
pub const DEFAULT_SEED: u64 = 1;
/// Ops (by sequence index) the recorded payload digest covers: few enough
/// that every run completes them.
pub const DIGEST_OPS: usize = 48;

const EXPECTED: &str = include_str!("../expected.json");

/// FNV-1a, 64-bit. The benchmark's own copy, independent of the
/// program's hashing.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The recorded digest under `key` in `expected.json`.
pub fn expected_digest(key: &str) -> Option<u64> {
    let doc = json::parse(EXPECTED).expect("expected.json is valid JSON");
    let hex = doc.get(key)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// `(digest, length)` of the payload an in-process `job::run` produces
/// for each distinct spec, computed with one sweep worker
/// (`PMORPH_THREADS=1`) on `threads` threads sharing one cache.
pub fn expected_payloads<'a>(
    specs: impl IntoIterator<Item = &'a str>,
    threads: usize,
) -> BTreeMap<String, Result<(u64, usize), String>> {
    let distinct: Vec<&str> = specs.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
    let previous = std::env::var("PMORPH_THREADS").ok();
    std::env::set_var("PMORPH_THREADS", "1");
    let cache = ArtifactCache::new();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&spec) = distinct.get(i) else { return };
                let got = run_in_process(spec, &cache).map(|b| (fnv64(&b), b.len()));
                out.lock().expect("expected-payload lock").insert(spec.to_string(), got);
            });
        }
    });
    match previous {
        Some(v) => std::env::set_var("PMORPH_THREADS", v),
        None => std::env::remove_var("PMORPH_THREADS"),
    }
    out.into_inner().expect("expected-payload lock")
}

/// The payload bytes the server should return for `spec`.
pub fn run_in_process(spec: &str, cache: &ArtifactCache) -> Result<Vec<u8>, String> {
    let doc = json::parse(spec).map_err(|e| format!("spec is not JSON: {e:?}"))?;
    let spec = JobSpec::parse(&doc).map_err(|e| format!("spec rejected: {e}"))?;
    let payload: Value = job::run(&spec, cache, &AtomicBool::new(false))
        .map_err(|e| format!("in-process run failed: {e:?}"))?;
    Ok(payload.to_string_compact().into_bytes())
}

/// Mark every successful op whose bytes differ from the expectation as
/// failed; returns how many were marked.
pub fn verify(
    records: &mut [OpRecord],
    expected: &BTreeMap<String, Result<(u64, usize), String>>,
) -> usize {
    let mut marked = 0;
    for rec in records.iter_mut().filter(|r| r.ok()) {
        let problem = match expected.get(&rec.spec) {
            Some(Ok((digest, len))) if (*digest, *len) == (rec.digest, rec.bytes) => None,
            Some(Ok((_, len))) => Some(format!(
                "payload differs from the in-process run ({} bytes, expected {len})",
                rec.bytes
            )),
            Some(Err(e)) => Some(e.clone()),
            None => Some("no expectation computed".to_string()),
        };
        if problem.is_some() {
            rec.error = problem;
            marked += 1;
        }
    }
    marked
}

/// Order-independent digest of the payloads of ops `0..n` of the
/// sequence, or `None` if any of them is missing or failed.
pub fn payload_digest(records: &[OpRecord], n: usize) -> Option<u64> {
    let mut seen = 0;
    let mut acc: u64 = 0;
    for rec in records.iter().filter(|r| r.idx < n) {
        if !rec.ok() {
            return None;
        }
        seen += 1;
        // fold the per-op digest through one more mixing round so that
        // equal payloads at different ops still count separately
        acc = acc.wrapping_add(fnv64(&rec.digest.to_le_bytes()));
    }
    (seen == n).then_some(acc)
}

/// Check one `repro` stdout against the recorded digest.
pub fn check_stdout(stdout: &[u8], expected: u64) -> Result<(), String> {
    let got = fnv64(stdout);
    if got == expected {
        Ok(())
    } else {
        Err(format!("repro stdout digest {got:016x}, expected {expected:016x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"type":"truth_sweep","circuit":"parity_tree","size":5}"#;

    fn served(spec: &str, bytes: &[u8]) -> OpRecord {
        OpRecord {
            spec: spec.to_string(),
            bytes: bytes.len(),
            digest: fnv64(bytes),
            ..OpRecord::default()
        }
    }

    #[test]
    fn one_flipped_payload_byte_is_caught() {
        let bytes = run_in_process(SPEC, &ArtifactCache::new()).unwrap();
        let expected = expected_payloads([SPEC], 1);
        let mut good = vec![served(SPEC, &bytes)];
        assert_eq!(verify(&mut good, &expected), 0);
        for at in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            let mut recs = vec![served(SPEC, &flipped)];
            assert_eq!(verify(&mut recs, &expected), 1, "flip at byte {at}");
            assert!(!recs[0].ok());
        }
    }

    #[test]
    fn one_changed_stdout_line_is_caught() {
        let stdout = b"E1/Fig3 [OK]\n  row a\nE2/Fig4 [OK]\n  row b\n26 experiments run\n";
        let digest = fnv64(stdout);
        assert!(check_stdout(stdout, digest).is_ok());
        let text = String::from_utf8_lossy(stdout).replace("E2/Fig4 [OK]", "E2/Fig4 [MISMATCH]");
        assert!(check_stdout(text.as_bytes(), digest).is_err());
        let dropped: String = String::from_utf8_lossy(stdout).lines().skip(1).collect();
        assert!(check_stdout(dropped.as_bytes(), digest).is_err());
    }

    #[test]
    fn payload_digest_ignores_order_and_needs_every_op() {
        let mk = |idx, d| OpRecord { idx, digest: d, ..OpRecord::default() };
        let a = [mk(0, 11), mk(1, 22), mk(2, 33)];
        let b = [mk(2, 33), mk(0, 11), mk(1, 22)];
        assert_eq!(payload_digest(&a, 3), payload_digest(&b, 3));
        assert!(payload_digest(&a, 3).is_some());
        assert_eq!(payload_digest(&a[..2], 3), None, "a missing op voids the digest");
        let c = [mk(0, 11), mk(1, 22), mk(2, 34)];
        assert_ne!(payload_digest(&a, 3), payload_digest(&c, 3));
    }

    #[test]
    fn recorded_digests_are_present() {
        for key in ["small_cold", "heavy_cold", "hot_replay", "repro_stdout"] {
            assert!(expected_digest(key).is_some(), "{key}");
        }
    }
}

//! Full-scale `repro` stdout is pinned: its FNV-1a 64 digest must equal
//! the `repro_stdout` digest the end-to-end benchmark records in
//! `perfbench/expected.json`, at one worker, at two (the benchmark's
//! setting, where experiments and their own sweeps overlap) and at
//! eight. A solver edit that moves one printed digit fails here, not
//! only in a benchmark run.

use pmorph_util::hash::fnv1a_64;
use pmorph_util::json;
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const EXPECTED: &str = include_str!("../../../perfbench/expected.json");

fn recorded_digest() -> u64 {
    let doc = json::parse(EXPECTED).expect("expected.json is valid JSON");
    let hex = doc.get("repro_stdout").and_then(|v| v.as_str()).expect("repro_stdout recorded");
    u64::from_str_radix(hex, 16).expect("repro_stdout is a hex digest")
}

#[test]
fn full_scale_repro_stdout_matches_the_recorded_digest_at_1_2_and_8_threads() {
    let want = recorded_digest();
    for threads in ["1", "2", "8"] {
        let mut cmd = Command::new(REPRO);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PMORPH_") {
                cmd.env_remove(key);
            }
        }
        let out = cmd.env("PMORPH_THREADS", threads).output().expect("repro binary runs");
        assert!(
            out.status.success(),
            "repro PMORPH_THREADS={threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = fnv1a_64(&out.stdout);
        assert_eq!(
            got, want,
            "PMORPH_THREADS={threads}: repro stdout digest {got:016x}, recorded {want:016x}"
        );
    }
}

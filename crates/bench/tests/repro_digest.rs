//! Full-scale `repro` stdout is pinned: its FNV-1a 64 digest must equal
//! the `repro_stdout` digest the end-to-end benchmark records in
//! `perfbench/expected.json`, at one worker, at two (the benchmark's
//! setting, where experiments and their own sweeps overlap) and at
//! eight, and at two with observability on (the benchmark's traced run).
//! A solver edit that moves one printed digit fails here, not only in a
//! benchmark run.

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
fn full_scale_repro_stdout_matches_the_recorded_digest_at_1_2_and_8_threads_and_with_obs() {
    let want = recorded_digest();
    for (threads, obs) in [("1", "0"), ("2", "0"), ("8", "0"), ("2", "1")] {
        let mut cmd = Command::new(REPRO);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PMORPH_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("PMORPH_THREADS", threads).env("PMORPH_OBS", obs);
        let out = cmd.output().expect("repro binary runs");
        assert!(
            out.status.success(),
            "repro PMORPH_THREADS={threads} PMORPH_OBS={obs} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = fnv1a_64(&out.stdout);
        assert_eq!(
            got, want,
            "PMORPH_THREADS={threads} PMORPH_OBS={obs}: repro stdout digest {got:016x}, recorded {want:016x}"
        );
    }
}

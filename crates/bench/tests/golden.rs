//! Golden regression: every reproduction experiment (E1–E26) runs in fast
//! mode and reports `[OK]`, and the whole suite is bit-identical from run
//! to run. This is the cheap end-to-end gate `cargo test` applies to the
//! figures; the full-scale figures come from the `repro` binary.

use pmorph_bench::experiments::{self, Experiment, Scale};

#[test]
fn all_26_experiments_report_ok_in_fast_mode() {
    let all = experiments::run_all_with(Scale::fast());
    assert_eq!(all.len(), 26, "experiment index changed — update this count and DESIGN.md");
    for e in &all {
        assert!(e.pass, "{} mismatched the paper's shape:\n{e}", e.id);
    }
    let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 26, "experiment ids must be unique");
}

#[test]
fn fast_suite_is_deterministic_run_to_run() {
    let rows =
        |v: &[Experiment]| -> Vec<Vec<String>> { v.iter().map(|e| e.rows.clone()).collect() };
    let a = experiments::run_all_with(Scale::fast());
    let b = experiments::run_all_with(Scale::fast());
    // Rendered rows embed every measured float, so string equality is
    // bit-level equality of the underlying Monte-Carlo results.
    assert_eq!(rows(&a), rows(&b), "same seeds must reproduce identical rows");
}

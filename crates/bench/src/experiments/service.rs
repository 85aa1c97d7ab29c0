//! E24: the fabric-compilation job server driven in-process — submit →
//! run → resubmit, checking terminal states, content-addressed cache
//! hits, and byte-identical repeat payloads.
//!
//! The platform framing of the paper (compilation as a service) only
//! holds if identical specs yield identical artifacts; this experiment
//! pins that end to end through the real registry and job runner, with
//! no HTTP in the loop. It doubles as the repro's serve coverage for the
//! observability layer: each job run lands a `serve.job.run` span and
//! the submit path samples the queue-depth counter.

use super::Experiment;
use pmorph_serve::job::JobSpec;
use pmorph_serve::registry::{run_one, Registry};
use pmorph_util::json;

/// Submit one spec and drive it to `done` inline (no worker pool — the
/// run happens on this thread, so experiment output stays independent of
/// scheduling). Returns the receipt's cache-hit flag and the payload.
fn run_to_done(registry: &Registry, spec_json: &str) -> (bool, Vec<u8>) {
    let spec = JobSpec::parse(&json::parse(spec_json).expect("spec parses")).expect("spec valid");
    let receipt = registry.submit(spec).expect("registry accepts while not draining");
    if !receipt.cache_hit {
        let (id, spec, cancel) = registry.claim().expect("submitted job is claimable");
        assert_eq!(id, receipt.id, "single-threaded claim returns the job just queued");
        run_one(registry, id, &spec, &cancel);
    }
    let bytes = registry.result_bytes(receipt.id).expect("job reached done");
    (receipt.cache_hit, bytes.to_vec())
}

/// E24: job-server determinism and artifact reuse.
pub fn study_job_server() -> Experiment {
    const SWEEP: &str = r#"{"type":"truth_sweep","circuit":"ripple_adder","size":3}"#;
    // `partitions: 2` forces the hierarchical flow, so the run covers
    // the region-by-region placement (and its `fpga.pnr.stitch` trace
    // span), not just the flat placement search.
    const PNR: &str = concat!(
        r#"{"type":"place_route","circuit":"parity_tree","size":8,"#,
        r#""candidates":4,"seed":7,"partitions":2}"#
    );
    let registry = Registry::new();
    let (hit_sweep, sweep_bytes) = run_to_done(&registry, SWEEP);
    let (hit_pnr, pnr_bytes) = run_to_done(&registry, PNR);
    let (hit_again, again_bytes) = run_to_done(&registry, SWEEP);
    let identical = again_bytes == sweep_bytes;
    let stats = registry.cache().stats();

    let pass = !hit_sweep
        && !hit_pnr
        && hit_again
        && identical
        && stats.result_hits == 1
        && stats.result_misses == 2;
    Experiment {
        id: "E24/§5",
        title: "job server: identical specs, identical artifacts",
        paper: "compilation-as-a-service reuse — a resubmitted spec must return the \
                stored artifact byte-for-byte, never a recompute",
        rows: vec![
            format!(
                "truth_sweep ripple_adder(3): {}-byte payload, cache_hit={hit_sweep}",
                sweep_bytes.len()
            ),
            format!(
                "place_route parity_tree(8, 4 candidates, 2 partitions): \
                 {}-byte payload, cache_hit={hit_pnr}",
                pnr_bytes.len()
            ),
            format!("resubmit truth_sweep: cache_hit={hit_again}, byte-identical={identical}"),
            format!(
                "artifact cache: {} result hit(s), {} miss(es)",
                stats.result_hits, stats.result_misses
            ),
        ],
        pass,
    }
}

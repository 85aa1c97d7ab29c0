//! The per-layer ledger: in-process replays that time calls into each
//! module's public functions from outside, plus readings of the server's
//! own counters.
//!
//! A job's stages run inside `job::run`, where no outside timer reaches.
//! The replay therefore runs every job twice: once through `job::run`
//! (the job layer's total), and once stage by stage through the same
//! public calls `job::run` makes. The job layer's self time ("glue") is
//! the first minus the second.

use crate::client::OpRecord;
use pmorph_core::faults::DefectMap;
use pmorph_exec::SweepConfig;
use pmorph_fpga::pnr::{best_seeded_placement_flat, hier, FpgaTiming};
use pmorph_fpga::{tech_map, MappedDesign};
use pmorph_serve::{http, job, ArtifactCache, JobSpec};
use pmorph_util::json::{self, Value};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accumulated nanoseconds per layer.
#[derive(Default, Debug)]
pub struct Layers {
    pub ns: BTreeMap<&'static str, u64>,
    /// Ops replayed.
    pub ops: usize,
}

impl Layers {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let t = Instant::now();
        let out = black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        *self.ns.entry(layer).or_default() += ns;
        (out, ns)
    }

    /// Mean nanoseconds per replayed op.
    pub fn per_op_ns(&self, layer: &str) -> f64 {
        self.ns.get(layer).copied().unwrap_or(0) as f64 / self.ops.max(1) as f64
    }
}

fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Replays server ops against one in-process cache.
pub struct Replay {
    cache: ArtifactCache,
    designs: HashMap<u64, Arc<MappedDesign>>,
    pub layers: Layers,
}

impl Replay {
    pub fn new() -> Replay {
        Replay { cache: ArtifactCache::new(), designs: HashMap::new(), layers: Layers::default() }
    }

    /// Store `spec`'s payload without timing it (the `hot_replay` pool).
    pub fn prefill(&mut self, spec: &str) {
        let parsed = JobSpec::parse(&json::parse(spec).expect("generated spec is JSON"))
            .expect("generated spec is valid");
        let bytes = crate::check::run_in_process(spec, &self.cache).expect("pool spec runs");
        self.cache.store_result(parsed.cache_key(), &parsed.canonical(), Arc::new(bytes));
    }

    /// Replay `ops` in sequence order until `budget` is spent (at least
    /// one op). Each op makes the calls the server makes for it.
    pub fn run(&mut self, ops: &[OpRecord], budget: Duration) {
        let t0 = Instant::now();
        for rec in ops.iter().filter(|r| r.ok()) {
            if self.layers.ops > 0 && t0.elapsed() > budget {
                break;
            }
            self.op(rec);
            self.layers.ops += 1;
        }
    }

    fn op(&mut self, rec: &OpRecord) {
        let l = &mut self.layers;
        let post = request_bytes("POST", "/jobs", rec.spec.as_bytes());
        let (req, _) = l.time("serve.http.read", || {
            http::read_request(post.as_slice()).expect("in-memory read").expect("valid").unwrap()
        });
        let (spec, _) = l.time("serve.parse", || {
            let doc = json::parse(std::str::from_utf8(&req.body).expect("UTF-8")).expect("JSON");
            JobSpec::parse(&doc).expect("valid spec")
        });
        let ((canonical, key), _) = l.time("serve.canon", || {
            let canonical = spec.canonical();
            let key = spec.cache_key();
            (canonical, key)
        });
        let (hit, _) = l.time("serve.cache.probe", || self.cache.lookup_result(key, &canonical));
        let mut receipt = Value::object();
        receipt.set("id", Value::Str("j-1".into()));
        receipt.set("state", Value::Str(if hit.is_some() { "done" } else { "queued" }.into()));
        receipt.set("cache_hit", Value::Bool(hit.is_some()));
        l.time("serve.http.write", || {
            let mut out = Vec::new();
            http::write_response(&mut out, 200, &receipt).expect("in-memory write");
            out
        });
        let bytes = match hit {
            Some(bytes) => bytes,
            None => {
                let (payload, run_ns) = l.time("serve.job.run", || {
                    job::run(&spec, &self.cache, &AtomicBool::new(false)).expect("job runs")
                });
                let stages_ns = stages(&spec, &mut self.designs, l);
                *l.ns.entry("serve.job.glue").or_default() += run_ns.saturating_sub(stages_ns);
                let (bytes, _) = l
                    .time("serve.serialize", || Arc::new(payload.to_string_compact().into_bytes()));
                l.time("serve.cache.store", || {
                    self.cache.store_result(key, &canonical, Arc::clone(&bytes))
                });
                bytes
            }
        };
        // every poll the served op made, and the result fetch
        let mut status = Value::object();
        status.set("id", Value::Str("j-1".into()));
        status.set("type", Value::Str(spec.kind().into()));
        status.set("state", Value::Str("done".into()));
        status.set("cache_hit", Value::Bool(false));
        status.set("spec", Value::Str(canonical.clone()));
        status.set(
            "history",
            Value::Array(["queued", "running", "done"].map(|s| Value::Str(s.into())).to_vec()),
        );
        status.set("run_ns", Value::Num(rec.run_ns.unwrap_or(0) as f64));
        let poll = request_bytes("GET", "/jobs/j-1", b"");
        for _ in 0..rec.polls {
            l.time("serve.http.read", || {
                http::read_request(poll.as_slice()).expect("read").expect("valid")
            });
            l.time("serve.http.write", || {
                let mut out = Vec::new();
                http::write_response(&mut out, 200, &status).expect("in-memory write");
                out
            });
        }
        let get = request_bytes("GET", "/jobs/j-1/result", b"");
        l.time("serve.http.read", || {
            http::read_request(get.as_slice()).expect("read").expect("valid")
        });
        l.time("serve.http.write", || {
            let mut out = Vec::with_capacity(bytes.len() + 128);
            http::write_response_bytes(&mut out, 200, &bytes).expect("in-memory write");
            out
        });
    }
}

/// Run `spec`'s stages through the public calls `job::run` makes, timing
/// each; returns their total.
fn stages(spec: &JobSpec, designs: &mut HashMap<u64, Arc<MappedDesign>>, l: &mut Layers) -> u64 {
    let cfg = SweepConfig::new();
    let mut design = |circuit: &job::CircuitSpec, l: &mut Layers| -> (Arc<MappedDesign>, u64) {
        if let Some(d) = designs.get(&circuit.design_key()) {
            return (Arc::clone(d), 0);
        }
        let c = circuit.build();
        let (d, ns) =
            l.time("fpga.map", || Arc::new(tech_map(&c.netlist, &c.outputs, 4).expect("maps")));
        designs.insert(circuit.design_key(), Arc::clone(&d));
        (d, ns)
    };
    match spec {
        JobSpec::TruthSweep { circuit } => {
            let (d, map_ns) = design(circuit, l);
            let c = circuit.build();
            let (_, ns) = l.time("sim.bitsim.sweep", || {
                pmorph_sim::vectors::exhaustive_truth(&c.netlist, &d.inputs, &c.outputs)
                    .expect("sweeps")
            });
            map_ns + ns
        }
        JobSpec::SeqSweep { circuit, cycles } => {
            let c = circuit.build();
            let (_, ns) = l.time("sim.bitsim.seq_sweep", || {
                let seq = pmorph_sim::SeqBitSim::new(c.netlist.clone()).expect("levelizes");
                let inputs = seq.input_nets().to_vec();
                pmorph_sim::sweep_seq_truth(&seq, &inputs, &c.outputs, *cycles, &cfg)
            });
            ns
        }
        JobSpec::FaultCampaign { width, height, rate, trials, seed } => {
            let seeds: Vec<u64> =
                (0..*trials).map(|t| pmorph_util::rng::mix_seed(*seed, t as u64)).collect();
            let (_, ns) = l.time("core.faults.sample", || {
                DefectMap::sample_sweep(*width, *height, *rate, &seeds, &cfg)
            });
            ns
        }
        JobSpec::PlaceRoute { circuit, candidates, seed, partitions } => {
            let (d, map_ns) = design(circuit, l);
            let timing = FpgaTiming::default();
            let resolved = match *partitions {
                0 => hier::auto_partitions(d.luts.len()),
                p => p,
            };
            let (_, ns) = l.time("fpga.pnr", || {
                if resolved > 1 {
                    let (r, cp, w, _) = hier::best_seeded_placement_hier(
                        &d,
                        *candidates,
                        *seed,
                        &timing,
                        resolved,
                        &cfg,
                    );
                    (r, cp, w)
                } else {
                    best_seeded_placement_flat(&d, *candidates, *seed, &timing, &cfg)
                }
            });
            map_ns + ns
        }
        JobSpec::PolySweep { truth } => {
            let (s, synth_ns) = l.time("synth.poly.synth", || {
                pmorph_synth::poly::synthesize(truth).expect("synthesizes")
            });
            let (_, verify_ns) =
                l.time("synth.poly.verify", || s.netlist.verify(truth, &cfg).expect("proves"));
            synth_ns + verify_ns
        }
        JobSpec::Sleep { .. } => 0,
    }
}

/// Per-experiment wall time and obs deltas of one in-process pass over
/// `experiments::registry()` at `Scale::full()`.
pub struct ReproLedger {
    pub experiment_ms: Vec<(&'static str, f64)>,
    pub obs: pmorph_obs::Snapshot,
}

/// Build every experiment in process with the metrics layer forced on.
pub fn replay_repro() -> ReproLedger {
    use pmorph_bench::experiments::{registry, Scale};
    pmorph_obs::force(true);
    let base = pmorph_obs::snapshot();
    let mut experiment_ms = Vec::new();
    for (id, build) in registry() {
        let t = Instant::now();
        let e = black_box(build(Scale::full()));
        experiment_ms.push((id, t.elapsed().as_secs_f64() * 1e3));
        assert!(e.pass, "{id} mismatched in process");
    }
    let obs = pmorph_obs::snapshot().delta_since(&base);
    pmorph_obs::force(false);
    ReproLedger { experiment_ms, obs }
}

/// Metric readings between two bodies shaped like the server's
/// `/metrics` (`{"cache": {..}, "metrics": {name: value}}`).
pub struct MetricsDelta<'a> {
    pub before: &'a Value,
    pub after: &'a Value,
}

impl MetricsDelta<'_> {
    fn read(v: &Value, path: &[&str]) -> f64 {
        let mut cur = Some(v);
        for p in path {
            cur = cur.and_then(|c| c.get(p));
        }
        cur.and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn diff(&self, path: &[&str]) -> f64 {
        Self::read(self.after, path) - Self::read(self.before, path)
    }

    /// Change of an obs counter.
    pub fn counter(&self, name: &str) -> f64 {
        self.diff(&["metrics", name])
    }

    /// Change of an obs span's total, in nanoseconds.
    pub fn span_ns(&self, name: &str) -> f64 {
        self.diff(&["metrics", name, "total_ns"])
    }

    /// Change of an obs histogram's sum.
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.diff(&["metrics", name, "sum"])
    }

    /// An obs gauge's reading at the end.
    pub fn gauge(&self, name: &str) -> f64 {
        Self::read(self.after, &["metrics", name])
    }

    /// Change of one of the artifact cache's counters.
    pub fn cache(&self, name: &str) -> f64 {
        self.diff(&["cache", name])
    }
}

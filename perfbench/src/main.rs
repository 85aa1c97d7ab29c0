//! End-to-end benchmark of the job server and `repro`, with a per-layer
//! ledger. See `perfbench/README.md`; normally started through
//! `perfbench/run.py`, which builds the binaries it names.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --serve-bin <path> --repro-bin <path>
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! holding the `end_to_end` metrics of `BENCHMARK.json` (`--trace 0`) or
//! its `per_layer` metrics (`--trace 1`).

mod check;
mod client;
mod ledger;
mod proc;
mod stats;
mod workload;

use client::{OpRecord, Phase};
use ledger::{MetricsDelta, Replay};
use pmorph_util::json::{self, Value};
use proc::{Server, PROGRAM_THREADS};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{OpStream, Workload};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 9;
const HOT_SETUPS: usize = 3;
/// Length of the windows a measured server phase is cut into (see
/// [`window_metrics`]).
const WINDOW_SECONDS: f64 = 2.0;
/// `hot_replay`'s result-cache hit ratio must land in this band.
const HOT_HIT_BAND: (f64, f64) = (0.85, 0.95);
/// The traced run fails when more than this share of the mean op latency
/// is covered by no layer.
const UNATTRIBUTED_MAX_SHARE: f64 = 0.15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: String,
    repro_bin: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace: num("--trace")? == 1,
        serve_bin: get("--serve-bin")?,
        repro_bin: get("--repro-bin")?,
    })
}

/// Metric values by name, plus human-readable notes.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn fail(&mut self, line: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {line}"));
    }

    /// Print the notes, then the result line with exactly the metrics
    /// `BENCHMARK.json` declares for this mode. A layer the workload never
    /// exercises reads 0; a missing end-to-end metric is a bug.
    fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let decl = json::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
        let list = decl
            .get(if trace { "per_layer" } else { "end_to_end" })
            .and_then(Value::as_array)
            .expect("metric list");
        let mut metrics = Vec::new();
        for m in list {
            let name = m.get("name").and_then(Value::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Value::as_str).expect("metric unit");
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("metric {name} not measured"),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#));
        }
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // the in-process replay runs sweeps with the server's thread count,
    // and with the metrics layer off unless forced
    std::env::set_var("PMORPH_THREADS", PROGRAM_THREADS.to_string());
    for (k, _) in std::env::vars() {
        if k.starts_with("PMORPH_OBS") {
            std::env::remove_var(k);
        }
    }
    let outcome = match args.workload {
        Workload::ReproFull => repro_workload(&args),
        _ => server_workload(&args),
    };
    match outcome {
        Ok(report) => {
            report.print(args.trace);
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Start a server (and store the pool) `n` times, keeping the last one;
/// returns it and the median set-up time in seconds.
fn setup_server(
    args: &Args,
    pool: &[String],
    obs: bool,
    n: usize,
) -> Result<(Server, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..n {
        let t0 = Instant::now();
        let server = Server::start(&args.serve_bin, obs)?;
        client::prefill(server.addr, pool)?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == n {
            kept = Some(server);
        } else {
            server.stop()?;
        }
    }
    Ok((kept.expect("n >= 1"), stats::median(&times)))
}

/// Run one measured phase on a fresh server and shut it down cleanly.
/// Every phase replays the workload's op sequence from its start.
fn served_phase(
    args: &Args,
    pool: &[String],
    obs: bool,
    setups: usize,
    seconds: f64,
) -> Result<(Phase, f64), String> {
    let (server, setup_s) = setup_server(args, pool, obs, setups)?;
    let windows = ((seconds / WINDOW_SECONDS).round() as usize).max(1);
    let ops = OpStream::new(args.workload, args.seed).expect("server workload");
    let phase = client::measure(&server, &Mutex::new((ops, 0)), seconds, windows);
    let stopped = server.stop();
    let phase = phase?;
    stopped?;
    Ok((phase, setup_s))
}

/// One stretch of a measured phase: its ok-op latencies (ms), length
/// (s) and the measured processes' CPU time in it (ms).
struct Window {
    latencies: Vec<f64>,
    seconds: f64,
    cpu_ms: f64,
}

/// Set the latency, throughput, success and CPU metrics. Latency
/// quantiles come from every sample of the phase; throughput and CPU per
/// op are computed per window and the median over windows is reported,
/// so a short burst of outside load moves at most a minority of windows.
fn window_metrics(report: &mut Report, windows: &[Window]) {
    let per =
        |f: &dyn Fn(&Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    let all: Vec<f64> = windows.iter().flat_map(|w| w.latencies.iter().copied()).collect();
    let q = stats::tail_quantile(all.len());
    report.set("latency_p50_ms", stats::median(&all));
    report.set("latency_p90_ms", stats::quantile(&all, q));
    report.set("throughput_ops_s", per(&|w| w.latencies.len() as f64 / w.seconds));
    report.set("cpu_ms_per_op", per(&|w| w.cpu_ms / w.latencies.len().max(1) as f64));
    report.set("success_rate", all.len() as f64 / report.attempted.max(1) as f64);
    report.note(format!(
        "samples {} in {} windows; tail quantile {q:.3} leaves {} beyond it; error_rate {:.6}",
        all.len(),
        windows.len(),
        stats::beyond(all.len(), q),
        report.failed as f64 / report.attempted.max(1) as f64
    ));
}

/// Split a served phase into its windows.
fn server_windows(phase: &Phase) -> Vec<Window> {
    let n = phase.window_cpu_ms.len();
    let mut windows: Vec<Window> = phase
        .window_cpu_ms
        .iter()
        .map(|&cpu_ms| Window {
            latencies: Vec::new(),
            seconds: phase.window.as_secs_f64(),
            cpu_ms,
        })
        .collect();
    // the last window runs until the last op completes
    windows[n - 1].seconds = (phase.wall.as_secs_f64()
        - phase.window.as_secs_f64() * (n - 1) as f64)
        .max(phase.window.as_secs_f64());
    for r in phase.records.iter().filter(|r| r.ok()) {
        windows[phase.window_of(r)].latencies.push(ms(r.latency_ns));
    }
    windows
}

fn server_workload(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let pool = OpStream::new(w, args.seed).expect("server workload").pool().to_vec();
    let mut report = Report { correct: true, ..Report::default() };
    report.note(format!(
        "workload {} seed {} seconds {} trace {}: pmorph-serve --workers {}, PMORPH_THREADS={}, {} closed-loop clients",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        proc::SERVER_WORKERS,
        PROGRAM_THREADS,
        client::CLIENTS
    ));
    let setups = if pool.is_empty() { SETUPS } else { HOT_SETUPS };

    // measured phases: one untraced; in a traced run, half the time
    // untraced and half with the server's metrics layer on
    let (mut phases, setup_s) = if args.trace {
        let (untraced, _) = served_phase(args, &pool, false, 1, args.seconds / 2.0)?;
        let (traced, _) = served_phase(args, &pool, true, 1, args.seconds / 2.0)?;
        (vec![untraced, traced], None)
    } else {
        let (phase, setup_s) = served_phase(args, &pool, false, setups, args.seconds)?;
        (vec![phase], Some(setup_s))
    };

    // outputs: every job's bytes against an in-process run at 1 worker
    let expected = check::expected_payloads(
        phases
            .iter()
            .flat_map(|p| p.records.iter().map(|r| r.spec.as_str()))
            .chain(pool.iter().map(String::as_str)),
        proc::SERVER_WORKERS,
    );
    for phase in phases.iter_mut() {
        let wrong = check::verify(&mut phase.records, &expected);
        if wrong > 0 {
            report.fail(format!("{wrong} payloads differ from the in-process run"));
        }
    }
    for (i, phase) in phases.iter().enumerate() {
        let d = MetricsDelta { before: &phase.metrics_before, after: &phase.metrics_after };
        let (hits, misses) = (d.cache("result_hits"), d.cache("result_misses"));
        let ratio = hits / (hits + misses).max(1.0);
        report.note(format!("phase {i}: result-cache hit ratio {ratio:.4}"));
        if pool.is_empty() && hits != 0.0 {
            report.fail(format!("cold run hit the result cache {hits} times"));
        }
        if !pool.is_empty() && !(HOT_HIT_BAND.0..=HOT_HIT_BAND.1).contains(&ratio) {
            report.fail(format!("hot_replay hit ratio {ratio:.4} outside {HOT_HIT_BAND:?}"));
        }
    }
    if args.seed == check::DEFAULT_SEED {
        match (
            check::payload_digest(&phases[0].records, check::DIGEST_OPS),
            check::expected_digest(w.name()),
        ) {
            (Some(got), Some(want)) if got == want => {
                report.note(format!("payload digest {got:016x} matches the recorded one"))
            }
            (got, want) => report.fail(format!(
                "payload digest {got:016x?} of the first {} ops, recorded {want:016x?}",
                check::DIGEST_OPS
            )),
        }
    }
    if !pool.is_empty() {
        let bytes: usize = pool
            .iter()
            .filter_map(|s| expected.get(s))
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.1)
            .sum();
        report.set("serve.cache.pool_kb", bytes as f64 / 1024.0);
        report.note(format!("hot pool: {} specs, {bytes} payload bytes", pool.len()));
    }

    let all: Vec<&OpRecord> = phases.iter().flat_map(|p| p.records.iter()).collect();
    report.attempted = all.len();
    report.failed = all.iter().filter(|r| !r.ok()).count();
    for r in all.iter().filter(|r| !r.ok()).take(3) {
        report.note(format!("op {} failed: {}", r.idx, r.error.as_deref().unwrap_or("")));
    }

    if let Some(setup_s) = setup_s {
        window_metrics(&mut report, &server_windows(&phases[0]));
        report.set("peak_rss_mb", phases[0].peak_rss_mb);
        report.set("setup_s", setup_s);
        return Ok(report);
    }
    let mut replay = Replay::new();
    for spec in &pool {
        replay.prefill(spec);
    }
    replay.run(&phases[1].records, Duration::from_secs_f64(args.seconds));
    server_layers(&mut report, &phases[0], &phases[1], &replay);
    Ok(report)
}

/// The per-layer metrics of a traced server run.
fn server_layers(report: &mut Report, untraced: &Phase, traced: &Phase, replay: &Replay) {
    let ok: Vec<&OpRecord> = traced.records.iter().filter(|r| r.ok()).collect();
    let n = ok.len().max(1) as f64;
    let med = |f: &dyn Fn(&OpRecord) -> Option<f64>| {
        let v: Vec<f64> = ok.iter().filter_map(|r| f(r)).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let l = &replay.layers;
    let us = |layer: &str| l.per_op_ns(layer) / 1e3;
    let lms = |layer: &str| l.per_op_ns(layer) / 1e6;
    report.set(
        "serve.overhead_ms_p50",
        med(&|r| Some(ms(r.latency_ns.saturating_sub(r.run_ns.unwrap_or(0))))),
    );
    let polls: u64 = ok.iter().map(|r| r.polls as u64).sum();
    let polled = ok.iter().filter(|r| r.polls > 0).count() as u64;
    report.set("serve.http.requests_per_op", (2 * ok.len() as u64 + polls) as f64 / n);
    report.set("serve.http.post_ms_p50", med(&|r| Some(ms(r.post_ns))));
    report.set(
        "serve.http.poll_ms_p50",
        med(&|r| (r.polls > 0).then(|| ms(r.poll_ns) / r.polls as f64)),
    );
    report.set("serve.http.result_ms_p50", med(&|r| Some(ms(r.result_ns))));
    report.set("serve.polls_wasted_ratio", (polls - polled) as f64 / polls.max(1) as f64);
    report.set("serve.payload_kb_p50", med(&|r| Some(r.bytes as f64 / 1024.0)));
    report.set("serve.http.read_us", us("serve.http.read"));
    report.set("serve.http.write_us", us("serve.http.write"));
    report.set("serve.parse_us", us("serve.parse"));
    report.set("serve.canon_us", us("serve.canon"));
    report.set("serve.serialize_us", us("serve.serialize"));
    report.set("serve.job.glue_us", us("serve.job.glue"));
    report.set("serve.cache.probe_us", us("serve.cache.probe"));
    report.set("serve.cache.store_us", us("serve.cache.store"));
    let d = MetricsDelta { before: &traced.metrics_before, after: &traced.metrics_after };
    let ratio = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
    report.set(
        "serve.cache.result_hit_ratio",
        ratio(d.cache("result_hits"), d.cache("result_misses")),
    );
    report.set(
        "serve.cache.design_hit_ratio",
        ratio(d.cache("design_hits"), d.cache("design_misses")),
    );
    report.set("serve.run_ms_p50", med(&|r| r.run_ns.map(ms)));
    exec_and_kernel_counters(report, &d, n);
    report.set("fpga.map_ms", lms("fpga.map"));
    report.set("sim.bitsim.sweep_ms", lms("sim.bitsim.sweep"));
    report.set("sim.bitsim.seq_sweep_ms", lms("sim.bitsim.seq_sweep"));
    report.set("synth.poly.synth_ms", lms("synth.poly.synth"));
    report.set("synth.poly.verify_ms", lms("synth.poly.verify"));
    report.set("core.faults.sample_ms", lms("core.faults.sample"));

    // Top-level ledger on the client's timeline: submit, the server's
    // run, the poll that saw it done, the result fetch, and the payload
    // serialisation and store that follow the run on the server. What
    // is left is queue wait, poll detection slack and client glue.
    let lat_mean = stats::mean(&ok.iter().map(|r| ms(r.latency_ns)).collect::<Vec<_>>());
    let covered = stats::mean(
        &ok.iter()
            .map(|r| {
                let run = r.run_ns.map_or(0, |ns| ns + r.final_poll_ns);
                ms(r.post_ns + run + r.result_ns)
            })
            .collect::<Vec<_>>(),
    ) + lms("serve.serialize")
        + lms("serve.cache.store");
    let unattributed = (lat_mean - covered).max(0.0);
    report.set("unattributed_ms", unattributed);
    let base = stats::mean(
        &untraced.records.iter().filter(|r| r.ok()).map(|r| ms(r.latency_ns)).collect::<Vec<_>>(),
    );
    report.set("trace_overhead_pct", (lat_mean - base) / base * 100.0);
    report.note(format!(
        "ledger: mean latency {lat_mean:.4} ms, covered {covered:.4} ms, unattributed {unattributed:.4} ms \
         (limit {:.0}%); replayed {} ops",
        UNATTRIBUTED_MAX_SHARE * 100.0,
        l.ops
    ));
    if unattributed > UNATTRIBUTED_MAX_SHARE * lat_mean {
        report.fail(format!("unattributed {unattributed:.4} ms exceeds the stated share"));
    }
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &ok {
        let kind = r.spec.split('"').nth(3).unwrap_or("?");
        kinds.entry(kind).or_default().push(ms(r.latency_ns));
    }
    let per_kind: Vec<String> = kinds
        .iter()
        .map(|(k, v)| format!("{k} {} ops p50 {:.3} ms", v.len(), stats::median(v)))
        .collect();
    report.note(format!("traced latency by job type: {}", per_kind.join(", ")));
    let job = l.per_op_ns("serve.job.run").max(1.0);
    let share = |names: &[&str]| names.iter().map(|n| l.per_op_ns(n)).sum::<f64>() / job * 100.0;
    report.note(format!(
        "replayed job time: PnR+map {:.1}%, bitsim {:.1}%, poly synth+proof {:.1}%, fault sampling {:.1}%, glue {:.1}%",
        share(&["fpga.pnr", "fpga.map"]),
        share(&["sim.bitsim.sweep", "sim.bitsim.seq_sweep"]),
        share(&["synth.poly.synth", "synth.poly.verify"]),
        share(&["core.faults.sample"]),
        share(&["serve.job.glue"]),
    ));
    report.note(format!(
        "anomalies: serve.overhead_ms_p50 {:.4} vs serve.run_ms_p50 {:.4}; exec.overhead_ms {:.4} per op over {:.2} sweeps; \
         synth.poly.synth_ms {:.4} vs synth.poly.verify_ms {:.4}",
        report.values["serve.overhead_ms_p50"],
        report.values["serve.run_ms_p50"],
        report.values["exec.overhead_ms"],
        report.values["exec.sweeps_per_op"],
        report.values["synth.poly.synth_ms"],
        report.values["synth.poly.verify_ms"],
    ));
}

/// Per-op exec, PnR, bitsim and fault counters over `ops` ops.
fn exec_and_kernel_counters(report: &mut Report, src: &MetricsDelta, ops: f64) {
    let sweep_ns = src.span_ns("exec.sweep");
    let shard_ns = src.hist_sum("exec.shard_ns");
    report.set("exec.sweeps_per_op", src.counter("exec.sweep.runs") / ops);
    report.set(
        "exec.overhead_ms",
        (sweep_ns - shard_ns / PROGRAM_THREADS as f64).max(0.0) / ops / 1e6,
    );
    report.set("exec.imbalance", src.gauge("exec.sweep.imbalance"));
    report.set("fpga.pnr.search_ms", src.span_ns("fpga.pnr.search") / ops / 1e6);
    report.set("fpga.pnr.stitch_ms", src.span_ns("fpga.pnr.stitch") / ops / 1e6);
    report.set("fpga.pnr.candidates", src.counter("fpga.pnr.candidates") / ops);
    report.set("sim.bitsim.words", src.counter("sim.bitsim.words") / ops);
    report.set("sim.bitsim.cycles", src.counter("sim.bitsim.cycles") / ops);
    report.set("core.faults.samples", src.counter("core.faults.samples") / ops);
}

/// `repro.E<n>_ms` names, in registry order.
fn experiment_metric(id: &str) -> String {
    format!("repro.{}_ms", id.split('/').next().unwrap_or(id))
}

/// `repro` invocations until `seconds` have passed.
fn repro_phase(args: &Args, expected: u64, obs: bool, seconds: f64) -> (Vec<f64>, usize, Duration) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (mut lat, mut failed) = (Vec::new(), 0);
    while Instant::now() < deadline {
        let run = proc::repro(&args.repro_bin, &[], obs);
        match run.error.or_else(|| check::check_stdout(&run.stdout, expected).err()) {
            None => lat.push(run.wall.as_secs_f64() * 1e3),
            Some(e) => {
                eprintln!("perfbench: repro failed: {e}");
                failed += 1;
            }
        }
    }
    (lat, failed, t0.elapsed())
}

fn repro_workload(args: &Args) -> Result<Report, String> {
    let mut report = Report { correct: true, ..Report::default() };
    report.note(format!(
        "workload repro_full seconds {} trace {}: one invocation at a time, PMORPH_THREADS={} (the seed does not apply)",
        args.seconds, args.trace as u8, PROGRAM_THREADS
    ));
    let expected = check::expected_digest("repro_stdout").ok_or("no recorded repro digest")?;
    // set-up: an invocation that selects no experiment
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let run = proc::repro(&args.repro_bin, &["--no-such-experiment--"], false);
        if let Some(e) = run.error {
            return Err(e);
        }
        if !String::from_utf8_lossy(&run.stdout).contains("0 experiments run") {
            return Err("a no-experiment repro still ran experiments".into());
        }
        setups.push(run.wall.as_secs_f64());
    }
    let (cpu0, _) = proc::children_usage();
    let half = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let (lat, failed, wall) = repro_phase(args, expected, false, half);
    let (cpu1, rss) = proc::children_usage();
    report.attempted = lat.len() + failed;
    report.failed = failed;
    if failed > 0 {
        report.fail(format!("{failed} repro invocations failed or printed other stdout"));
    }
    if !args.trace {
        let window = Window { latencies: lat, seconds: wall.as_secs_f64(), cpu_ms: cpu1 - cpu0 };
        window_metrics(&mut report, &[window]);
        report.set("peak_rss_mb", rss);
        report.set("setup_s", stats::median(&setups));
        return Ok(report);
    }
    let (traced, failed_b, _) = repro_phase(args, expected, true, half);
    report.attempted += traced.len() + failed_b;
    report.failed += failed_b;
    if failed_b > 0 {
        report.fail(format!("{failed_b} traced repro invocations failed"));
    }
    let ledger = ledger::replay_repro();
    let mut total = 0.0;
    for (id, t) in &ledger.experiment_ms {
        report.set(&experiment_metric(id), *t);
        total += t;
    }
    // the in-process snapshot has the shape of the server's `/metrics`
    let mut after = Value::object();
    after.set("metrics", ledger.obs.to_json());
    let src = MetricsDelta { before: &Value::object(), after: &after };
    exec_and_kernel_counters(&mut report, &src, 1.0);
    report.set("device.variation.study_ms", src.span_ns("device.variation.study") / 1e6);
    report.set("sim.run_ms", src.span_ns("sim.run") / 1e6);
    report.set("sim.events", src.counter("sim.events"));
    report.set("core.faults.sample_ms", src.span_ns("core.faults.sample_sweep") / 1e6);
    // Top-level ledger: one invocation is the experiments it builds;
    // the rest is process start, printing and exit.
    let lat_mean = stats::mean(&traced);
    let unattributed = (lat_mean - total).max(0.0);
    report.set("unattributed_ms", unattributed);
    let base = stats::mean(&lat);
    report.set("trace_overhead_pct", (lat_mean - base) / base * 100.0);
    report.note(format!(
        "ledger: mean invocation {lat_mean:.3} ms, experiments {total:.3} ms, unattributed {unattributed:.3} ms (limit {:.0}%)",
        UNATTRIBUTED_MAX_SHARE * 100.0
    ));
    if unattributed > UNATTRIBUTED_MAX_SHARE * lat_mean {
        report.fail(format!("unattributed {unattributed:.3} ms exceeds the stated share"));
    }
    report.note(format!(
        "anomalies: repro.E18_ms {:.3} (of {total:.3}) vs device.variation.study_ms {:.3}",
        report.values["repro.E18_ms"], report.values["device.variation.study_ms"]
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_metric_name_is_valid_and_unique() {
        let decl = json::parse(BENCHMARK).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for list in ["end_to_end", "per_layer"] {
            for m in decl.get(list).and_then(Value::as_array).unwrap() {
                let name = m.get("name").and_then(Value::as_str).unwrap();
                assert!(seen.insert(name.to_string()), "duplicate {name}");
                assert!(name.len() <= 64);
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
        }
        for (id, _) in pmorph_bench::experiments::registry() {
            assert!(seen.contains(&experiment_metric(id)), "{id} has no per-layer metric");
        }
    }
}

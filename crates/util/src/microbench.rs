//! A micro-benchmark timer with a criterion-shaped API — the workspace's
//! replacement for `criterion` in `crates/bench/benches/*`.
//!
//! Scope: wall-clock mean/min per iteration with adaptive batching and a
//! fixed time budget per benchmark. No statistics beyond that, no HTML
//! reports, no baseline files — regressions are compared by reading the
//! printed table. The API mirrors the subset of criterion the bench files
//! use, so a bench function is written identically against either.
//!
//! Budget: `PMORPH_BENCH_MS` milliseconds of measurement per benchmark
//! (default 300; set it low, e.g. 20, for a smoke pass).
//!
//! Artifact: set `PMORPH_BENCH_JSON=<path>` and the driver writes every
//! result (median/mean/min ns per iteration, throughput, pass/fail checks)
//! plus the suite's required workloads ([`Criterion::require`]) as a JSON
//! document when it is dropped — the mechanism behind `scripts/bench.sh`
//! and the tracked `BENCH_*.json` baselines.

use crate::json::Value;
use std::time::{Duration, Instant};

/// Throughput annotation: scales the report to elements/second.
#[derive(Copy, Clone, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier (`group/function/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier from a function name and a parameter.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{function}/{parameter}") }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to a benchmark closure; [`Bencher::iter`] does the timing.
pub struct Bencher {
    budget: Duration,
    total_ns: u128,
    iters: u64,
    min_ns: f64,
    /// Per-iteration nanoseconds of each timed batch (dt / batch size) —
    /// the population the median is taken over. Fractional, so a routine
    /// faster than 1 ns per iteration still records a positive time.
    samples: Vec<f64>,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher { budget, total_ns: 0, iters: 0, min_ns: f64::INFINITY, samples: Vec::new() }
    }

    /// Time a routine: warm up once, then run batches of doubling size
    /// until the measurement budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        std::hint::black_box(routine()); // warm-up, also primes caches
        let start = Instant::now();
        let mut batch: u64 = 1;
        while start.elapsed() < self.budget {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed().as_nanos().max(1);
            self.total_ns += dt;
            self.iters += batch;
            let per_iter = dt as f64 / batch as f64;
            self.min_ns = self.min_ns.min(per_iter);
            self.samples.push(per_iter);
            if dt < 1_000_000 {
                // batch is too small to time accurately — grow it
                batch = batch.saturating_mul(2);
            }
        }
    }

    fn mean_ns(&self) -> f64 {
        if self.iters == 0 {
            return f64::NAN;
        }
        self.total_ns as f64 / self.iters as f64
    }

    /// Median per-iteration time across timed batches — the headline
    /// number for the JSON baselines (robust against warm-up outliers
    /// and scheduler noise in a way the mean is not). `None` when the
    /// bench never produced a sample (e.g. `iter` was never called):
    /// explicit at the type level, because a NaN here used to serialize
    /// as `null` in the JSON artifact and break `benchcheck`.
    fn median_ns(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut s = self.samples.clone();
        s.sort_unstable_by(f64::total_cmp);
        let mid = s.len() / 2;
        Some(if s.len() % 2 == 1 { s[mid] } else { (s[mid - 1] + s[mid]) / 2.0 })
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns.is_nan() {
        "  (not measured)".into()
    } else if ns < 1e3 {
        format!("{ns:9.1} ns")
    } else if ns < 1e6 {
        format!("{:9.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:9.2} ms", ns / 1e6)
    } else {
        format!("{:9.2} s ", ns / 1e9)
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    budget: Duration,
    /// JSON records accumulated for the `PMORPH_BENCH_JSON` sink.
    records: Vec<Value>,
    /// Named pass/fail assertions recorded alongside the timings.
    checks: Vec<(String, bool)>,
    /// Bench-name prefixes the suite's artifact must contain.
    required: Vec<String>,
    /// Output path for the JSON artifact, if requested.
    json_path: Option<String>,
    /// Median of the most recently reported bench (`None` if it produced
    /// no samples) — lets a bench file compare two of its own runs, e.g.
    /// the observability on/off overhead check.
    last_median_ns: Option<f64>,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("PMORPH_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(300);
        Criterion {
            budget: Duration::from_millis(ms),
            records: Vec::new(),
            checks: Vec::new(),
            required: Vec::new(),
            json_path: std::env::var("PMORPH_BENCH_JSON").ok().filter(|p| !p.is_empty()),
            last_median_ns: None,
        }
    }
}

impl Criterion {
    fn report(&mut self, name: &str, b: &Bencher, throughput: Option<Throughput>) {
        let Some(median) = b.median_ns() else {
            // No samples (the closure never called `iter`, or the budget
            // was zero): skip the record entirely. Recording it would put
            // `median_ns: null` in the artifact, which `benchcheck`
            // rejects — absent is honest, null is corrupt.
            self.last_median_ns = None;
            println!("{name:<52} (no samples — skipped, not recorded)");
            return;
        };
        self.last_median_ns = Some(median);
        let mean = b.mean_ns();
        let mut line = format!(
            "{name:<52} {} /iter  (median {}, min {}, {} iters)",
            fmt_ns(mean),
            fmt_ns(median),
            fmt_ns(b.min_ns),
            b.iters
        );
        let mut rec = Value::object();
        rec.set("name", Value::Str(name.to_string()))
            .set("median_ns", Value::Num(median))
            .set("mean_ns", Value::Num(mean))
            .set("min_ns", Value::Num(b.min_ns))
            .set("iters", Value::Num(b.iters as f64));
        if let Some(tp) = throughput {
            let (count, unit) = match tp {
                Throughput::Elements(n) => (n, "elem"),
                Throughput::Bytes(n) => (n, "B"),
            };
            if median > 0.0 {
                let per_s = count as f64 / (median / 1e9);
                line.push_str(&format!("  [{per_s:.3e} {unit}/s]"));
                rec.set("units_per_iter", Value::Num(count as f64))
                    .set("unit", Value::Str(unit.to_string()))
                    .set("units_per_sec", Value::Num(per_s));
            }
        }
        self.records.push(rec);
        println!("{line}");
    }

    /// Median of the most recently reported benchmark, if it produced
    /// samples. Lets a bench file ratio two of its own measurements
    /// without re-parsing the JSON artifact.
    pub fn last_median_ns(&self) -> Option<f64> {
        self.last_median_ns
    }

    /// Record a named pass/fail assertion into the JSON artifact (e.g. the
    /// allocation-free steady-state check). Prints, records, and returns
    /// `ok` so callers can still `assert!` on it.
    pub fn record_check(&mut self, name: &str, ok: bool) -> bool {
        println!("[check] {name:<44} {}", if ok { "ok" } else { "FAILED" });
        self.checks.push((name.to_string(), ok));
        ok
    }

    /// Declare workloads this suite's artifact must contain: each prefix
    /// must match a throughput-annotated bench. Written to the artifact's
    /// `required` array, which `benchcheck` enforces.
    pub fn require(&mut self, prefixes: &[&str]) -> &mut Self {
        self.required.extend(prefixes.iter().map(|p| p.to_string()));
        self
    }

    /// Run one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        self.report(name, &b, None);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        let name = name.into();
        println!("── {name}");
        BenchGroup { criterion: self, name, throughput: None }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let Some(path) = self.json_path.take() else { return };
        let mut doc = Value::object();
        doc.set("budget_ms", Value::Num(self.budget.as_millis() as f64))
            .set("benches", Value::Array(std::mem::take(&mut self.records)))
            .set("required", Value::Array(self.required.drain(..).map(Value::Str).collect()))
            .set(
                "checks",
                Value::Array(
                    self.checks
                        .drain(..)
                        .map(|(name, pass)| {
                            let mut c = Value::object();
                            c.set("name", Value::Str(name)).set("pass", Value::Bool(pass));
                            c
                        })
                        .collect(),
                ),
            );
        let text = doc.to_string_pretty();
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput annotation.
pub struct BenchGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchGroup<'_> {
    /// Annotate subsequent benchmarks with a throughput scale.
    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.throughput = Some(tp);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.criterion.budget);
        f(&mut b);
        let name = format!("{}/{id}", self.name);
        self.criterion.report(&name, &b, self.throughput);
        self
    }

    /// Run one benchmark parameterised by an input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.criterion.budget);
        f(&mut b, input);
        let name = format!("{}/{id}", self.name);
        self.criterion.report(&name, &b, self.throughput);
        self
    }

    /// End the group (prints nothing; exists for criterion parity).
    pub fn finish(&mut self) {}
}

/// Define a bench group function, criterion-style:
/// `criterion_group!(name, fn_a, fn_b)` produces `pub fn name()`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::microbench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Define the bench binary's `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_criterion(ms: u64) -> Criterion {
        Criterion {
            budget: Duration::from_millis(ms),
            records: Vec::new(),
            checks: Vec::new(),
            required: Vec::new(),
            json_path: None,
            last_median_ns: None,
        }
    }

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(Duration::from_millis(5));
        b.iter(|| std::hint::black_box(1 + 1));
        assert!(b.iters > 0);
        assert!(b.total_ns > 0);
        assert!(b.mean_ns() > 0.0);
        assert!(!b.samples.is_empty());
        assert!(b.median_ns().unwrap() > 0.0);
    }

    #[test]
    fn median_is_order_statistic_not_mean() {
        let mut b = Bencher::new(Duration::from_millis(1));
        b.samples = vec![10.0, 10.0, 10.0, 10.0, 1000.0];
        assert_eq!(b.median_ns(), Some(10.0), "one outlier must not move the median");
        b.samples = vec![4.0, 8.0];
        assert_eq!(b.median_ns(), Some(6.0));
        b.samples.clear();
        assert_eq!(b.median_ns(), None, "empty samples are explicit, not NaN");
    }

    #[test]
    fn sampleless_bench_is_skipped_not_recorded_as_null() {
        let mut c = quiet_criterion(1);
        // The closure never calls `iter`, so the bench has no samples.
        c.bench_function("unit/empty", |_b| {});
        assert_eq!(c.last_median_ns(), None);
        assert!(c.records.is_empty(), "a sampleless bench must not reach the artifact");
        c.bench_function("unit/real", |b| b.iter(|| std::hint::black_box(2 + 2)));
        assert!(c.last_median_ns().unwrap() > 0.0);
        assert_eq!(c.records.len(), 1, "only the sampled bench is recorded");
    }

    #[test]
    fn group_api_composes() {
        let mut c = quiet_criterion(1);
        c.bench_function("unit/add", |b| b.iter(|| 2 + 2));
        let mut g = c.benchmark_group("unit/group");
        g.throughput(Throughput::Elements(4));
        g.bench_function("inline", |b| b.iter(|| (0..4).sum::<u64>()));
        g.bench_with_input(BenchmarkId::from_parameter(8), &8u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(32).to_string(), "32");
        assert_eq!(BenchmarkId::new("f", "x").to_string(), "f/x");
    }

    #[test]
    fn json_sink_writes_benches_and_checks() {
        let path = std::env::temp_dir().join(format!("pmorph_bench_{}.json", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        {
            let mut c = quiet_criterion(1);
            c.json_path = Some(path_s.clone());
            let mut g = c.benchmark_group("unit/json");
            g.throughput(Throughput::Elements(100));
            g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
            g.finish();
            assert!(c.record_check("always_true", true));
            assert!(!c.record_check("always_false", false));
            c.require(&["unit/json/sum"]);
        } // drop writes the file
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = crate::json::parse(&text).unwrap();
        let benches = doc.get("benches").unwrap().as_array().unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("name").unwrap().as_str(), Some("unit/json/sum"));
        assert!(benches[0].get("median_ns").unwrap().as_f64().unwrap() > 0.0);
        assert!(benches[0].get("units_per_sec").unwrap().as_f64().unwrap() > 0.0);
        let checks = doc.get("checks").unwrap().as_array().unwrap();
        assert_eq!(checks.len(), 2);
        assert_eq!(checks[0].get("pass").unwrap().as_bool(), Some(true));
        assert_eq!(checks[1].get("pass").unwrap().as_bool(), Some(false));
        let required = doc.get("required").unwrap().as_array().unwrap();
        assert_eq!(
            required.iter().map(|r| r.as_str()).collect::<Vec<_>>(),
            [Some("unit/json/sum")]
        );
    }
}

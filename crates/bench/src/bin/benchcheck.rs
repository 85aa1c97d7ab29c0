//! Validate a `BENCH_*.json` perf-baseline artifact written by the
//! microbench JSON sink (`PMORPH_BENCH_JSON`).
//!
//! Usage: `benchcheck <path> [--baseline <BENCH_*.json>] [--max-regress-pct <pct>]`
//!
//! Checks, in order:
//! 1. the file parses as the expected document shape
//!    (`budget_ms` / `benches` / `checks` / `required`),
//! 2. every bench record carries positive `median_ns` and `iters` — a
//!    `null` median (the old empty-sample serialization bug) is called
//!    out explicitly,
//! 3. every recorded pass/fail check passed (e.g. the allocation-free
//!    steady-state assertion),
//! 4. each prefix in the artifact's own `required` array — the workloads
//!    the suite declared with `Criterion::require` — matches at least one
//!    bench that reports `units_per_sec` (the throughput figure the
//!    baseline exists to track); an artifact that declares none fails,
//! 5. with `--baseline`, every bench present in both files is within
//!    `--max-regress-pct` (default 10%) of the baseline's `median_ns` —
//!    the teeth behind the observability-overhead check in
//!    `scripts/bench.sh`.
//!
//! Exits non-zero with a message on the first violation — this is the
//! teeth behind the CI bench smoke (`scripts/verify.sh`).

use pmorph_util::json::{self, Value};

fn fail(msg: &str) -> ! {
    eprintln!("benchcheck: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    match json::parse(&text) {
        Ok(d) => d,
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut max_regress_pct = 10.0f64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--baseline" {
            baseline_path = it.next();
            if baseline_path.is_none() {
                fail("--baseline needs a path");
            }
        } else if a == "--max-regress-pct" {
            max_regress_pct = match it.next().as_deref().map(str::parse) {
                Some(Ok(p)) => p,
                _ => fail("--max-regress-pct needs a number"),
            };
        } else if path.is_none() {
            path = Some(a);
        } else {
            fail(&format!("unexpected argument `{a}`: required workloads come from the artifact"));
        }
    }
    let Some(path) = path else {
        fail("usage: benchcheck <BENCH_*.json> [--baseline <BENCH_*.json>] [--max-regress-pct <pct>]");
    };
    let path = path.as_str();

    let doc = load(path);

    if doc.get("budget_ms").and_then(Value::as_f64).is_none() {
        fail(&format!("{path}: missing numeric `budget_ms`"));
    }
    let Some(benches) = doc.get("benches").and_then(Value::as_array) else {
        fail(&format!("{path}: missing `benches` array"));
    };
    if benches.is_empty() {
        fail(&format!("{path}: `benches` is empty"));
    }
    for b in benches {
        let name = b.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        if matches!(b.get("median_ns"), Some(Value::Null)) {
            fail(&format!(
                "{path}: bench `{name}` has `median_ns: null` — an empty-sample \
                 record that should have been skipped at the sink, not serialized"
            ));
        }
        let median = b.get("median_ns").and_then(Value::as_f64);
        let iters = b.get("iters").and_then(Value::as_f64);
        if !median.is_some_and(|m| m > 0.0) {
            fail(&format!("{path}: bench `{name}` has no positive median_ns"));
        }
        if !iters.is_some_and(|i| i >= 1.0) {
            fail(&format!("{path}: bench `{name}` ran zero iterations"));
        }
    }

    let Some(checks) = doc.get("checks").and_then(Value::as_array) else {
        fail(&format!("{path}: missing `checks` array"));
    };
    for c in checks {
        let name = c.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        if c.get("pass").and_then(Value::as_bool) != Some(true) {
            fail(&format!("{path}: check `{name}` failed"));
        }
    }

    let Some(required) = doc.get("required").and_then(Value::as_array) else {
        fail(&format!(
            "{path}: missing `required` array — the suite must declare its workloads \
             with `Criterion::require`"
        ));
    };
    if required.is_empty() {
        fail(&format!("{path}: `required` declares no workloads"));
    }
    for prefix in required {
        let Some(prefix) = prefix.as_str() else {
            fail(&format!("{path}: `required` entry {prefix:?} is not a string"));
        };
        let hit = benches
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str).is_some_and(|n| n.starts_with(prefix)));
        let Some(hit) = hit else {
            fail(&format!("{path}: required workload `{prefix}` is missing"));
        };
        let name = hit.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        if !hit.get("units_per_sec").and_then(Value::as_f64).is_some_and(|r| r > 0.0) {
            fail(&format!("{path}: workload `{name}` reports no units_per_sec throughput"));
        }
    }

    let mut compared = 0usize;
    if let Some(bpath) = &baseline_path {
        let base_doc = load(bpath);
        let Some(base_benches) = base_doc.get("benches").and_then(Value::as_array) else {
            fail(&format!("{bpath}: missing `benches` array"));
        };
        let base_median = |name: &str| -> Option<f64> {
            base_benches
                .iter()
                .find(|b| b.get("name").and_then(Value::as_str) == Some(name))?
                .get("median_ns")
                .and_then(Value::as_f64)
        };
        for b in benches {
            let Some(name) = b.get("name").and_then(Value::as_str) else { continue };
            let Some(base) = base_median(name) else { continue }; // new bench: no baseline yet
            let cur = b.get("median_ns").and_then(Value::as_f64).unwrap_or(f64::INFINITY);
            if base > 0.0 && cur > base * (1.0 + max_regress_pct / 100.0) {
                fail(&format!(
                    "{path}: bench `{name}` regressed {:.1}% vs {bpath} \
                     ({cur:.0} ns vs {base:.0} ns, limit {max_regress_pct}%)",
                    (cur / base - 1.0) * 100.0
                ));
            }
            compared += 1;
        }
    }

    print!(
        "benchcheck: {path} ok ({} benches, {} checks, {} required workloads",
        benches.len(),
        checks.len(),
        required.len()
    );
    if baseline_path.is_some() {
        print!(", {compared} within {max_regress_pct}% of baseline");
    }
    println!(")");
}

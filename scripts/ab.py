#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a base revision against the working tree.

    python3 scripts/ab.py --base <rev> --workload <name|all> --pairs N --seed S > ab.log
    python3 scripts/ab.py --summarize ab.log

The first form checks `<rev>` out into a temporary `git worktree` and
builds it and the working tree, each into its own CARGO_TARGET_DIR (the
working tree's is `.bench_build`, as for `perfbench/run.py` alone). It
then runs N pairs per workload, each side calling its own
`perfbench/run.py --trace 0` for BENCHMARK.json's `run_seconds`, and
alternates which side runs first. Each run prints one JSON line to
stdout as it ends; the table follows. The worktree and the base build
are removed on exit.

The table gives, per workload and metric, each side's median [q1-q3],
the pairs the working tree won (ties count for neither side; the better
direction comes from BENCHMARK.json), the median gap, and whether that
gap exceeds the base's interquartile range. It ends with the count of
runs per side that were not `correct`. `--summarize FILE` re-prints the
table from the JSON lines of a saved run without building anything.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "work")


def usage(msg):
    print(f"ab.py: {msg}", file=sys.stderr)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {"--base": None, "--workload": None, "--pairs": None, "--seed": "1",
            "--summarize": None}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            usage(f"unknown argument `{flag}`")
        value = next(it, None)
        if value is None:
            usage(f"{flag} needs a value")
        opts[flag] = value
    if opts["--summarize"] is not None:
        return opts
    if opts["--base"] is None or opts["--pairs"] is None:
        usage("--base and --pairs are required")
    if opts["--workload"] not in workloads() + ["all"]:
        usage(f"--workload must be one of {', '.join(workloads())} or all")
    for flag in ("--pairs", "--seed"):
        if not opts[flag].isdigit():
            usage(f"{flag} must be a non-negative integer")
    if int(opts["--pairs"]) < 1:
        usage("--pairs must be at least 1")
    return opts


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads():
    return [w["name"] for w in benchmark()["workloads"]]


def run_once(tree, target, workload, seed, seconds):
    """One `perfbench/run.py` run; returns its JSON result, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", seed, "--seconds", seconds, "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"ab.py: build or usage failure in {tree}")
    lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr[-2000:])
        return None


def measure(opts):
    rev = opts["--base"]
    seconds = str(benchmark()["run_seconds"])
    tmp = tempfile.mkdtemp(prefix="ab-")
    base_tree = os.path.join(tmp, "base")
    git = ["git", "-C", ROOT]
    subprocess.run(git + ["worktree", "add", "--detach", "--quiet", base_tree, rev], check=True)
    trees = {
        "base": (base_tree, os.path.join(tmp, "target")),
        "work": (ROOT, os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")),
    }
    records = []
    try:
        names = workloads() if opts["--workload"] == "all" else [opts["--workload"]]
        for name in names:
            for pair in range(int(opts["--pairs"])):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    tree, target = trees[side]
                    result = run_once(tree, target, name, opts["--seed"], seconds)
                    rec = {"workload": name, "seed": int(opts["--seed"]), "pair": pair,
                           "side": side, "result": result}
                    records.append(rec)
                    print(json.dumps(rec), flush=True)
                    ok = result is not None and result.get("correct")
                    print(f"{name} pair {pair} {side}: {'correct' if ok else 'NOT correct'}",
                          file=sys.stderr)
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", base_tree])
        subprocess.run(git + ["worktree", "prune"])
        shutil.rmtree(tmp, ignore_errors=True)
    return records


def directions():
    """Metric name → "lower"/"higher" from BENCHMARK.json."""
    bench = benchmark()
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(records):
    better = directions()
    for name, seed in dict.fromkeys((r["workload"], r["seed"]) for r in records):
        rows = [r for r in records if (r["workload"], r["seed"]) == (name, seed)]
        # a pair is two consecutive runs, so saved logs can be concatenated
        pairs = []
        for r in rows:
            if not pairs or r["side"] in pairs[-1]:
                pairs.append({})
            pairs[-1][r["side"]] = r["result"]
        metrics = dict.fromkeys(
            m for r in rows if r["result"] for m in r["result"].get("metrics", {}))
        print(f"== {name}, seed {seed} ({len(pairs)} pairs)")
        print(f"{'metric':<26} {'base median [q1-q3]':>30} {'work median [q1-q3]':>30}"
              f" {'wins':>6} {'gap':>8} {'>IQR':>5}")
        for m in metrics:
            vals = {s: [r["result"]["metrics"][m]["value"] for r in rows
                        if r["side"] == s and r["result"] and m in r["result"]["metrics"]]
                    for s in SIDES}
            if not vals["base"] or not vals["work"]:
                continue
            med = {s: statistics.median(vals[s]) for s in SIDES}
            quart = {s: quartiles(vals[s]) for s in SIDES}
            cell = {s: f"{med[s]:.4g} [{quart[s][0]:.4g}-{quart[s][1]:.4g}]" for s in SIDES}
            wins, compared = 0, 0
            for sides in pairs:
                b, w = (sides.get(s) for s in SIDES)
                if not (b and w and m in b["metrics"] and m in w["metrics"]):
                    continue
                compared += 1
                bv, wv = b["metrics"][m]["value"], w["metrics"][m]["value"]
                if better.get(m) == "lower":
                    wins += wv < bv
                elif better.get(m) == "higher":
                    wins += wv > bv
            gap = med["work"] - med["base"]
            pct = f"{gap / med['base'] * 100:+.1f}%" if med["base"] else "-"
            wins_col = f"{wins}/{compared}" if m in better else "-"
            beyond = "yes" if abs(gap) > quart["base"][1] - quart["base"][0] else "no"
            print(f"{m:<26} {cell['base']:>30} {cell['work']:>30}"
                  f" {wins_col:>6} {pct:>8} {beyond:>5}")
        bad = {s: sum(1 for r in rows if r["side"] == s
                      and not (r["result"] and r["result"].get("correct"))) for s in SIDES}
        print(f"runs not correct: base {bad['base']}, work {bad['work']}\n")


def saved_records(path):
    """The run records in a saved stdout, skipping the table lines."""
    records = []
    with open(path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "workload" in rec:
                records.append(rec)
    return records


def main():
    opts = parse_args(sys.argv[1:])
    if opts["--summarize"] is not None:
        records = saved_records(opts["--summarize"])
        if not records:
            usage(f"no run records in {opts['--summarize']}")
    else:
        # SIGTERM unwinds like Ctrl-C, so the worktree is still removed
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        records = measure(opts)
    summarize(records)


if __name__ == "__main__":
    main()

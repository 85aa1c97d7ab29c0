#!/usr/bin/env python3
"""Build the job server, `repro` and the `perfbench` binary, then run one workload.

    python3 perfbench/run.py --workload small_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. Build output goes to stderr; the last
stdout line of each run is its JSON result. `CARGO_TARGET_DIR` is honoured
(default `.bench_build`). The exit code is the binary's, or 2 when the
build fails, in which case no result is printed.
"""

import os
import subprocess
import sys

WORKLOADS = ("small_cold", "heavy_cold", "hot_replay", "repro_full")


def usage(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    print(
        "usage: python3 perfbench/run.py --workload <name> --seed <n> "
        "--seconds <s> --trace <0|1>",
        file=sys.stderr,
    )
    sys.exit(2)


def parse_args(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            usage(f"unknown argument `{flag}`")
        value = next(it, None)
        if value is None:
            usage(f"{flag} needs a value")
        opts[flag] = value
    if opts["--workload"] not in WORKLOADS + ("all",):
        usage(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    for flag in ("--seed", "--seconds", "--trace"):
        if not opts[flag].isdigit():
            usage(f"{flag} must be a non-negative integer")
    if opts["--trace"] not in ("0", "1") or int(opts["--seconds"]) < 1:
        usage("--trace must be 0 or 1 and --seconds at least 1")
    return opts


def cargo(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # build chatter goes to stderr so stdout's last line stays the result
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print(f"run.py: `{' '.join(cmd)}` failed", file=sys.stderr)
        sys.exit(2)


def main():
    opts = parse_args(sys.argv[1:])
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("run.py: no Cargo.toml here; run from the repository root", file=sys.stderr)
        sys.exit(2)

    # The measured programs see none of the caller's PMORPH_* settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PMORPH_")}
    target = env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    env["CARGO_NET_OFFLINE"] = "true"

    cargo(["-p", "pmorph-serve", "--bin", "pmorph-serve", "-p", "pmorph-bench", "--bin", "repro"], env)
    cargo(["--manifest-path", os.path.join(bench_dir, "Cargo.toml")], env)

    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    names = WORKLOADS if opts["--workload"] == "all" else (opts["--workload"],)
    worst = 0
    for name in names:
        cmd = [
            os.path.join(release, "perfbench"),
            "--workload", name,
            "--seed", opts["--seed"],
            "--seconds", opts["--seconds"],
            "--trace", opts["--trace"],
            "--serve-bin", os.path.join(release, "pmorph-serve"),
            "--repro-bin", os.path.join(release, "repro"),
        ]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, env=env).returncode)
    sys.exit(worst)


if __name__ == "__main__":
    main()

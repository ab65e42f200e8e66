#!/usr/bin/env python3
"""Build and run the vHadoop-rs end-to-end host-time benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/harness` (a crate with
a workspace of its own that path-depends on `crates/`) in release mode
into `$CARGO_TARGET_DIR`, or `.bench_build` when unset, then runs one
workload in a process of its own. The last line of stdout is the
harness's JSON result. `--workload all` runs every workload in turn, one
process each; without `--trace` each workload runs once untraced and once
traced, so that every end-to-end and per-layer metric is printed. The
exit code is non-zero if any run failed its checks.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ["wordcount", "tpcxhs", "datacenter", "whatif"]
# One run measures for --seconds; the slowest repetition and the checks
# around it stay well inside this.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    """First line of `cmd`'s stdout, or "unknown"."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    line = out.stdout.strip().splitlines()[:1]
    return line[0] if out.returncode == 0 and line else "unknown"


def build():
    """Builds the harness; returns the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"no program sources under {ROOT}/crates: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)  # relative paths are relative to the checkout
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        # Cargo's progress goes to stderr, keeping stdout for results.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_one(exe, workload, trace, args, rev, rustc):
    cmd = [
        exe, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--rev", rev, "--rustc", rustc,
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    exe = build()
    rev = capture(["git", "rev-parse", "--short", "HEAD"])
    rustc = capture(["rustc", "--version"])
    names = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    runs = [(w, t) for w in names for t in traces]
    failed = [f"{w}/trace={t}" for w, t in runs if run_one(exe, w, t, args, rev, rustc) != 0]
    if failed:
        print(f"perfbench: failed: {' '.join(failed)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

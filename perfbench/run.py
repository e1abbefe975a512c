#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload attack_large --seed 1 --seconds 15 --trace 0

Run from the root of the source tree. The driver (perfbench/CMakeLists.txt)
is built in Release mode under $CARGO_TARGET_DIR (default .bench_build) on
the first run and incrementally after that; build output goes to stderr, so
the last line of stdout is the driver's result object. Extra flags after the
four required ones (--size tiny, --reference FILE, --record) pass through to
the driver. Exits non-zero without a result when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure and build nh_perfbench; returns the binary path. Both steps
    are incremental, so after the first run they take about a second."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", out, "--target", "nh_perfbench",
         "-j", str(cpu_count())],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "nh_perfbench")


def git_commit():
    """HEAD of the tree when it is a git checkout, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    results = os.path.join(build_dir(), "results")
    # Every thread pool in the library sizes itself from NH_THREADS: keep the
    # run at no more threads than usable cores.
    env = dict(os.environ, NH_THREADS=str(cpu_count()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", os.path.join(ROOT, "perfbench", "reference.json"),
           "--baselines", os.path.join(ROOT, "baselines"),
           "--out-dir", results, "--commit", git_commit()] + extra
    return subprocess.run(cmd, cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

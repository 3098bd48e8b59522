#!/usr/bin/env python3
"""Builds and runs one workload of the cqcs end-to-end benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the benchmark package, which builds the library from src/) in
Release mode under .bench_build/; later calls rebuild incrementally. The
benchmark binary's stdout is passed through: a provenance line, notes, and
as the last line the JSON result {"correct", "attempted", "failed",
"metrics"}. --trace 1 also writes the span file and the per-layer summary
under .bench_build/perfbench-out/.

Exit code: 0 when every request succeeded and every answer matched its
oracle, 1 on a failed request or a mismatch, 2 when the build, the arguments
or the set-up fail (no result line).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_hot", "serve_churn", "engine_cyclic")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                           "cqcs_perfbench", "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return build_dir / "cqcs_perfbench"


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no cqcs sources (CMakeLists.txt and src/)")
    binary = build(root, root / ".bench_build" / "perfbench")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--out-dir", str(root / ".bench_build" / "perfbench-out"),
               "--git-sha", git_sha(root)]
    # The measured window plus set-up, oracle and a traced run's extra work.
    timeout_s = args.seconds + 150
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout_s:g} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1):
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        fail("the benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

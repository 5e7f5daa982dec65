#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads T]

Builds the measuring program (perfbench/CMakeLists.txt, which compiles
the library from src/) into .bench_build/perfbench, runs it, checks the
metric names and units it reports against BENCHMARK.json, and prints as
its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Human-readable detail (sample counts, thread counts, the
traced run's attribution table) comes before it.  Every file it writes
stays under .bench_build/ in the repository root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
SCRATCH = OUT / "scratch"
# The program measures for --seconds plus set-up and probes; this caps a
# hung run well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    # Compilers and the library put temporary files in TMPDIR; keep
    # them inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources at src/: run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ksa_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def read_report(path):
    """Returns (metrics, unmeasured, run) from the program's report."""
    entries = json.loads(path.read_text())["entries"]
    metrics, unmeasured, run = {}, set(), None
    for e in entries:
        if e["kind"] == "metric":
            value = e["num"] / e["den"] if e["den"] else 0.0
            metrics[e["name"]] = {"value": value, "unit": e["unit"]}
        elif e["kind"] == "unmeasured":
            unmeasured.add(e["name"])
        elif e["kind"] == "run":
            run = e
    return metrics, unmeasured, run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads (default: min(4, nproc))")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found in the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["end_to_end" if args.trace == 0 else "per_layer"]

    env = environment()
    build(env)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    report = SCRATCH / f"report-{os.getpid()}.json"
    command = [str(BUILD / "ksa_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(SCRATCH), "--report", str(report)]
    if args.threads > 0:
        command += ["--threads", str(args.threads)]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the program on timeout.
        status = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"the program did not finish within {RUN_TIMEOUT_S} s")
    if status != 0 or not report.is_file():
        fail(f"the program exited with status {status}")
    metrics, unmeasured, run = read_report(report)
    report.unlink()

    problems = []
    for m in declared:
        got = metrics.get(m["name"])
        if got is None and m["name"] not in unmeasured:
            problems.append(f"metric {m['name']} missing from the output")
        elif got is not None and got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, declared {m['unit']}")
    names = {m["name"] for m in declared}
    problems += [f"undeclared metric {name}" for name in metrics if name not in names]
    for p in problems:
        print(f"perfbench: {p}")
    failed = run["failed"]
    print(f"error_rate = {failed / run['attempted']:.6g} "
          f"({failed} failed / {run['attempted']} attempted)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in declared if m["name"] in metrics},
    }))


if __name__ == "__main__":
    main()

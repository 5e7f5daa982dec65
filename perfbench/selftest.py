#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

Checks, with short runs of perfbench/run.py:

  * every workload in BENCHMARK.json prints exactly the declared
    end-to-end metrics (--trace 0) and per-layer metrics (--trace 1),
    with their units, as a result line with exactly the keys correct,
    attempted, failed and metrics, and with no failed operation;
  * fast-n4 keeps its pinned exact-engine counts, and the explorer
    workloads their counts, under several seeds;
  * reduced-n5-spill spills and fast-n4 and symmetric-n5 do not;
  * outside a full checkout (only BENCHMARK.json and perfbench/), the
    command fails without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED_COUNTS = ("core.states", "core.expansions", "core.dedup_hits",
               "core.por_skips", "store.spilled_records")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, seed, seconds, trace):
    """Returns (exit status, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}

    traced = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            status, result = run(ROOT, name, 1, args.seconds, trace)
            where = f"{name} --trace {trace}"
            check(status == 0 and result is not None, f"{where}: exits 0 with a result line")
            if result is None:
                continue
            check(set(result) == RESULT_KEYS, f"{where}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: correct, no failed operation")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[trace]}
            check(got == want, f"{where}: metric names and units match BENCHMARK.json")
            if trace == 1:
                traced[name] = result["metrics"]

    spilled = {name: m["store.spilled_records"]["value"] for name, m in traced.items()}
    check(spilled.get("reduced-n5-spill", 0) > 0, "reduced-n5-spill spills")
    check(spilled.get("fast-n4") == 0 and spilled.get("symmetric-n5") == 0,
          "fast-n4 and symmetric-n5 do not spill")

    # Seed invariance: the state spaces are isomorphic, so counts repeat
    # exactly; fast-n4's pins are checked by the program itself
    # (`correct` is false when they break).
    for name in ("fast-n4", "reduced-n5-spill", "symmetric-n5"):
        for seed in (2, 3):
            status, result = run(ROOT, name, seed, args.seconds, 1)
            ok = status == 0 and result is not None and result["correct"] and name in traced
            if ok:
                ok = all(result["metrics"][c]["value"] == traced[name][c]["value"]
                         for c in SEED_COUNTS)
            check(ok, f"{name} seed {seed}: correct, counts equal to seed 1")

    # Outside a full checkout the command must fail without a result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    status, result = run(bare, spec["workloads"][0]["name"], 1, args.seconds, 0)
    check(status != 0 and result is None, "bare directory: nonzero exit, no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-check of the verdict benchmark: one short pass per workload.

Runs every workload named in BENCHMARK.json once untraced and once
traced, with any seed, and fails unless each run prints, as its last
line, a JSON object whose metrics are exactly the declared end-to-end
(untraced) or per-layer (traced) metrics, each with its declared unit
and a finite value, with `correct` true and no failed operation.

    python3 verdictbench/selfcheck.py [--seed N]

Run it from the repository root; it builds the benchmark on first use.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append(f"ops_failed = {result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    for name in sorted(set(want) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')}, declared {want[name]}")
        v = m.get("value")
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            problems.append(f"{name}: value {v!r}")
        elif not trace and v == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    if problems:
        problems += [f"  | {line}" for line in lines if "FAILED" in line]
    return problems


def main():
    seed = 7
    if len(sys.argv) == 3 and sys.argv[1] == "--seed":
        seed = int(sys.argv[2])
    elif len(sys.argv) != 1:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], seed, trace)
            status = "ok" if not problems else "FAILED"
            print(f"{w['name']:16} trace {trace}: {status}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

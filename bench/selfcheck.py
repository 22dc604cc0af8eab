"""Self-check of the benchmark at a tiny size.

    python3 bench/selfcheck.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced at
the tiny size, and checks that each run is correct and prints every declared
end-to-end or per-layer metric, with its declared unit and a numeric value.
On ``bound-p2`` it also checks that the tracer's orbit outcome counts equal
the report's own status counts.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "42", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = next(line.split(": ", 1)[1] for line in proc.stderr.splitlines()
                if line.startswith("result file: "))
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def check_metrics(result, declared, where):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: run not correct: {result}")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        result, _ = run_once(name, 0)
        problems += check_metrics(result, bench["end_to_end"], f"{name} trace=0")
        result, record = run_once(name, 1)
        problems += check_metrics(result, bench["per_layer"], f"{name} trace=1")
        if name == "bound-p2" and not record["repetitions"][-1].get("trace_counts_match"):
            problems.append("bound-p2: traced orbit outcomes differ from the report's counts")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

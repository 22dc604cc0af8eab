"""ffdyn benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload bound-p2 --seed 42 --seconds 18 --trace 0

Run from the root of a source checkout; ffdyn is imported from ``src/``.
Every timed repetition runs in a fresh single-threaded interpreter
(``worker.py``), so ffdyn's module-level caches start cold, as they do for
every ``ffdyn`` command.

``--trace 0`` repeats the workload until the timed verdicts add up to
``--seconds``, at least once.  It then takes set-up-only samples until there
are ``SETUP_SAMPLES``, stopping early once they have used a tenth of
``--seconds`` and there are ``MIN_SETUP_SAMPLES``.  It reports medians of the
end-to-end metrics.  ``--trace 1`` runs the workload once untraced and once
traced, and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object;
a stamped result file is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import NO_WAIT_NOTE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("bound-p2", "residue-p5", "props-p3")
SETUP_SAMPLES = 9
MIN_SETUP_SAMPLES = 2
RUN_LIMIT_S = 170.0  # every run must end within 180 s

# a child is one single-threaded process with a fixed hash seed
CHILD_ENV = {
    "PYTHONPATH": SRC,
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_sha256():
    """Digest of the package sources; identifies the code where git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ffdyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8") + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def stamp(args):
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "fresh_interpreter_per_repetition": True,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def spawn(args, mode, workdir, deadline, trace_file=None):
    """Run one repetition in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--workdir", workdir, "--src", SRC]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, **CHILD_ENV)
    timeout = max(1.0, deadline - _now())
    started = _now()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(_now())], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s", "wall_s": _now() - started}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        res = {}
    if not isinstance(res, dict):
        res = {}
    res["wall_s"] = _now() - started
    if proc.returncode != 0 or not res.get("ok"):
        res["ok"] = False
        res.setdefault("error", f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return res


def end_to_end(reps, setups):
    ok = [r for r in reps if r["ok"]]
    metrics = {
        "pass_ratio": {"value": len(ok) / len(reps), "unit": "ratio"},
    }
    if ok:
        metrics["verdict_s"] = {"value": statistics.median(r["verdict_s"] for r in ok), "unit": "s"}
        metrics["items_per_s"] = {
            "value": statistics.median(r["items"] / r["verdict_s"] for r in ok), "unit": "1/s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in ok), "unit": "MB"}
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-check only")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ffdyn", "__init__.py")):
        print(f"error: no ffdyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    compileall.compile_dir(os.path.join(SRC, "ffdyn"), quiet=1)

    begin = _now()
    deadline = begin + RUN_LIMIT_S
    info = stamp(args)
    os.makedirs(RESULTS, exist_ok=True)
    tag = (f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{args.workload}"
           f"-s{args.seed}-t{args.trace}-{os.getpid()}")
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        reps, setups, layers = [], [], {}
        if args.trace:
            reps.append(spawn(args, "full", workdir, deadline))
            trace_file = os.path.join(RESULTS, tag + "-spans.json")
            traced = spawn(args, "trace", workdir, deadline, trace_file)
            reps.append(traced)
            if traced["ok"] and reps[0]["ok"]:
                layers = dict(traced["layers"])
                layers["trace.verdict_s"] = traced["verdict_s"]
                layers["trace.overhead_s"] = traced["verdict_s"] - reps[0]["verdict_s"]
                layers["trace.overhead_ratio"] = traced["verdict_s"] / reps[0]["verdict_s"] - 1.0
        else:
            measured = 0.0
            while True:
                rep = spawn(args, "full", workdir, deadline)
                reps.append(rep)
                if not rep["ok"]:
                    break
                measured += rep["verdict_s"]
                if measured >= args.seconds or _now() + rep["wall_s"] > deadline:
                    break
            setups = [r["setup_s"] for r in reps if r["ok"]]
            extra_s = 0.0
            while reps[-1]["ok"] and len(setups) < SETUP_SAMPLES and (
                    len(setups) < MIN_SETUP_SAMPLES or extra_s < args.seconds / 10):
                rep = spawn(args, "setup", workdir, deadline)
                extra_s += rep["wall_s"]
                if not rep["ok"]:
                    reps.append(rep)
                    break
                setups.append(rep["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in reps if not r["ok"])
    if args.trace:
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"] if m["name"] in layers}
    else:
        metrics = end_to_end(reps, setups)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}

    record = {"stamp": info, "result": result, "setup_samples": setups,
              "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps]}
    if layers:
        record["layers"] = layers
        record["no_wait"] = NO_WAIT_NOTE
    path = os.path.join(RESULTS, tag + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for r in reps:
        if not r["ok"]:
            print(f"failed repetition: {r.get('error')}", file=sys.stderr)
    if layers:
        print("# per-layer metrics (traced run); " + record["no_wait"])
        for name in sorted(layers):
            print(f"{name:48s} {layers[name]}")
    print(f"result file: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

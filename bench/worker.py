"""One timed repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so module-level caches in
ffdyn start cold, as they do for every ``ffdyn`` command.  The last line of
standard output is one JSON object with the repetition's measurements.

Modes: ``full`` sets up, runs and checks; ``setup`` stops after set-up (an
extra set-up sample); ``trace`` is ``full`` with the layer tracer installed
before set-up, and writes the stored spans to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _now():
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_and_check(wl, state):
    return wl.check(state, wl.run(state))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--mode", choices=("full", "setup", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    import ffdyn

    if not os.path.abspath(ffdyn.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"ffdyn was imported from {ffdyn.__file__}, not from {args.src}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tr = None
    if args.mode == "trace":
        import tracer  # only traced children pay for the tracer

        tr = tracer.Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}")
        tr.install()

    phase = tr.phase if tr is not None else (lambda _name, fn, *fn_args: fn(*fn_args))
    out = {"ok": False}
    try:
        state = phase("bench.setup", wl.setup, args.seed, args.size, args.workdir)
        t0 = _now()
        out["setup_s"] = t0 - args.spawned_at
        if args.mode != "setup":
            items, verdict = phase("bench.verdict", _run_and_check, wl, state)
            out["verdict_s"] = _now() - t0
            out["items"] = items
            out["verdict"] = verdict
        out["ok"] = True
    except workloads.VerdictError as exc:
        out["error"] = f"wrong verdict: {exc}"
    except Exception:  # a crashing workload is a failed repetition, not a crashed benchmark
        out["error"] = traceback.format_exc()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.uninstall()
        layers = tr.layer_metrics()
        out["layers"] = layers
        if args.workload == "bound-p2" and out["ok"]:
            # the tracer's orbit outcomes must match the report's own counts
            out["trace_counts_match"] = all(
                layers["orbits.iterate_orbit." + k] == v
                for k, v in out["verdict"]["status_counts"].items())
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({"trace_id": tr.trace_id, "no_wait": tracer.NO_WAIT_NOTE,
                           "span_fields": ["id", "parent", "name", "start_s", "duration_s",
                                           "child_s", "evaluations", "extra"],
                           "spans": tr.spans}, fh, separators=(",", ":"))
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

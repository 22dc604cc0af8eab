"""Outside-in layer tracer for the ffdyn benchmark.

Timing wrappers are patched onto the public functions and methods of
``ffdyn.algebra``, ``funcfield``, ``geometry``, ``dynamics``, ``orbits``,
``harness`` and ``cli`` from here, never inside the package.  A module-level
function is replaced under every name that binds it in any ``ffdyn`` module,
so re-exports such as ``from .orbits import iterate_orbit`` in ``harness``
and ``cli`` are traced too.

Memory stays bounded: hot leaves (millions of ``FpPoly`` multiplies) are
aggregated in place as calls, total time and child time per name.  Only
coarse boundaries (one orbit, one check, one campaign phase) are stored as
individual spans, each with the run's trace identifier and its parent span.
Self time is span time minus the time covered by child spans.

The program is serial and single-threaded, so no layer waits on another:
there is no wait time to report, only busy (self) time.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
import time

LAYERS = ("algebra", "funcfield", "geometry", "dynamics", "orbits", "harness", "cli")

NO_WAIT_NOTE = ("every layer runs serially on one thread, so no layer waits on "
                "another; only busy (self) time is reported")

# (module, owner attribute or None for a module-level function, attribute, traced name)
_AGGREGATED = [
    ("algebra", "FpPoly", "__mul__", "algebra.mul"),
    ("algebra", "FpPoly", "__rmul__", "algebra.mul"),
    ("algebra", "FpPoly", "__add__", "algebra.add"),
    ("algebra", "FpPoly", "__radd__", "algebra.add"),
    ("algebra", "FpPoly", "__sub__", "algebra.add"),
    ("algebra", "FpPoly", "__rsub__", "algebra.add"),
    ("algebra", "FpPoly", "__neg__", "algebra.add"),
    ("algebra", "FpPoly", "__divmod__", "algebra.divmod"),
    ("algebra", "FpPoly", "gcd", "algebra.gcd"),
    ("algebra", "FpPoly", "xgcd", "algebra.gcd"),
    ("algebra", "ResidueElem", "inverse", "algebra.residue_inverse"),
    ("algebra", None, "factor", "algebra.factor"),
    ("algebra", None, "mult_order", "algebra.mult_order"),
    ("funcfield", None, "valuation", "funcfield.valuation"),
    ("funcfield", None, "poly_valuation", "funcfield.valuation"),
    ("funcfield", "RatFunc", "__add__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__radd__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__sub__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__rsub__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__neg__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__mul__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__rmul__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__truediv__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__rtruediv__", "funcfield.ratfunc_ops"),
    ("funcfield", "RatFunc", "__pow__", "funcfield.ratfunc_ops"),
    ("geometry", None, "log_distance", "geometry.log_distance"),
    ("geometry", None, "reduce_point", "geometry.reduce_point"),
    ("geometry", None, "all_residue_points", "geometry.all_residue_points"),
    ("geometry", None, "enumerate_points", "geometry.enumerate_points"),
    ("dynamics", "HomogMap", "evaluate", "dynamics.evaluate"),
    ("dynamics", "HomogMap", "__init__", "dynamics.map_init"),
    ("dynamics", "HomogMap", "reduce_map", "dynamics.reduce_map"),
    ("dynamics", "HomogMap", "conjugate", "dynamics.conjugate"),
    ("dynamics", "ResidueMap", "apply", "dynamics.residue_apply"),
    ("dynamics", None, "iterate_map", "dynamics.iterate_map"),
    ("orbits", None, "residue_dynamics", "orbits.residue_dynamics"),
    ("orbits", None, "residue_cycle_multiplier", "orbits.residue_cycle_multiplier"),
    ("orbits", None, "cross_product_support", "orbits.cross_product_support"),
]

# coarse boundaries: one stored span per call
_SPANS = [
    ("orbits", None, "iterate_orbit", "orbits.iterate_orbit"),
    ("orbits", None, "verify_mst", "orbits.verify_mst"),
    ("orbits", None, "check_prop_61", "orbits.check_prop_61"),
    ("orbits", None, "check_prop_51", "orbits.check_prop_51"),
    ("orbits", None, "check_prop_52", "orbits.check_prop_52"),
    ("orbits", None, "check_lemma_pab", "orbits.check_lemma_pab"),
    ("harness", None, "gen_maps", "harness.gen_maps"),
    ("harness", None, "run_bound_campaign", "harness.run_bound_campaign"),
    ("harness", None, "run_property_campaign", "harness.run_property_campaign"),
    ("harness", None, "emit_report", "harness.emit_report"),
    ("cli", None, "main", "cli.main"),
]

TRACED_NAMES = tuple(dict.fromkeys(n for *_, n in _AGGREGATED + _SPANS))


class Tracer:
    """Per-name aggregates plus stored coarse spans for one workload run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}  # calls, total, child
        self._child = [0.0]  # child-time accumulator of each open traced call
        self._open = [0]  # ids of open stored spans; 0 is the run itself
        self._ids = itertools.count(1)
        self.spans = []  # (id, parent, name, start, duration, child, evals, extra)
        self.mul_operand_len = 0
        self.orbit_outcomes = {}
        self.rejection_returned = 0
        self.rejection_constructed = 0
        self.report_bytes = 0
        self.residue_keys = set()
        self._map_seq = 0
        self._last_map = None
        self._patched = []

    # -- wrappers --------------------------------------------------------------

    def _aggregated(self, name, fn):
        rec = self.stats[name]
        child = self._child
        clock = self.clock

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += child.pop()
                child[-1] += dt

        return traced

    def _mul(self, fn):
        # _aggregated plus the operand-length count behind algebra.mul.mean_len,
        # kept separate so no other hot wrapper pays for it
        rec = self.stats["algebra.mul"]
        child = self._child
        clock = self.clock
        tracer = self

        def traced(a, b):
            tracer.mul_operand_len += len(a.coeffs) + len(getattr(b, "coeffs", (b,)))
            child.append(0.0)
            t0 = clock()
            try:
                return fn(a, b)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += child.pop()
                child[-1] += dt

        return traced

    def _span(self, name, fn):
        rec = self.stats[name]
        evals = self.stats["dynamics.evaluate"]
        maps_built = self.stats["dynamics.map_init"]
        child = self._child
        open_spans = self._open
        spans = self.spans
        clock = self.clock
        origin = self.origin
        after = getattr(self, "_after_" + name.split(".", 1)[1], None)
        ids = self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = open_spans[-1]
            open_spans.append(sid)
            ev0, built0 = evals[0], maps_built[0]
            result = None
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                c = child.pop()
                child[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += c
                open_spans.pop()
                extra = after(args, result, built0) if after is not None else None
                spans.append((sid, parent, name, t0 - origin, dt, c, evals[0] - ev0, extra))

        return traced

    def phase(self, name, fn, *args):
        """Run ``fn(*args)`` as a stored span of the benchmark's own phase."""
        self.stats.setdefault(name, [0, 0.0, 0.0])
        return self._span(name, fn)(*args)

    # -- per-span hooks: outcome counts measured where the work happens ---------

    def _after_iterate_orbit(self, args, result, _built0):
        phi = args[0]
        if phi is not self._last_map:
            self._last_map = phi
            self._map_seq += 1
        status = result.status.value if result is not None else "error"
        self.orbit_outcomes[status] = self.orbit_outcomes.get(status, 0) + 1
        return [status, self._map_seq]

    def _after_gen_maps(self, args, result, built0):
        spec = args[0]
        if spec.family == "RejectionRandom" and result is not None:
            self.rejection_returned += len(result)
            self.rejection_constructed += self.stats["dynamics.map_init"][0] - built0
        return [spec.family, len(result) if result is not None else None]

    def _after_emit_report(self, _args, result, _built0):
        if result is not None:
            self.report_bytes += len(result.encode("utf-8"))
        return None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module("ffdyn." + m) for m in LAYERS}
        residue_keys = self.residue_keys
        for entries, make in ((_AGGREGATED, self._aggregated), (_SPANS, self._span)):
            for module, owner, attr, name in entries:
                mod = modules[module]
                if owner is not None:
                    cls = getattr(mod, owner)
                    orig = cls.__dict__[attr]
                    wrapper = self._mul(orig) if name == "algebra.mul" else make(name, orig)
                    setattr(cls, attr, wrapper)
                    self._patched.append((cls, attr, orig))
                    continue
                orig = getattr(mod, attr)
                fn = orig
                if name == "orbits.residue_dynamics":
                    def fn(phi, place, *rest, _orig=orig, **kw):
                        residue_keys.add((phi, place))
                        return _orig(phi, place, *rest, **kw)
                wrapper = make(name, fn)
                for mname, m in list(sys.modules.items()):
                    if mname != "ffdyn" and not mname.startswith("ffdyn."):
                        continue
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patched):
            setattr(target, attr, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics by name, as plain numbers.  A ``self_share`` is
        the name's self time over the whole traced run (set-up and verdict)."""
        out = {}
        traced_s = sum(total - child for _, total, child in self.stats.values())
        for name, (calls, total, child) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = total - child
            out[name + ".self_share"] = (total - child) / traced_s if traced_s else 0.0
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                total - child for name, (_, total, child) in self.stats.items()
                if name.startswith(layer + "."))
        muls = self.stats["algebra.mul"][0]
        out["algebra.mul.mean_len"] = self.mul_operand_len / (2 * muls) if muls else 0.0

        orbit_spans = [s for s in self.spans if s[2] == "orbits.iterate_orbit"]
        attempts = len(orbit_spans)
        for status in ("finite", "height_escape", "step_limit"):
            out["orbits.iterate_orbit." + status] = self.orbit_outcomes.get(status, 0)
        orbit_evals = sum(s[6] for s in orbit_spans)
        escape_evals = sum(s[6] for s in orbit_spans if s[7][0] == "height_escape")
        out["orbits.finite_ratio"] = (self.orbit_outcomes.get("finite", 0) / attempts
                                      if attempts else 0.0)
        out["orbits.escape_eval_share"] = escape_evals / orbit_evals if orbit_evals else 0.0
        out["orbits.evals_per_orbit"] = orbit_evals / attempts if attempts else 0.0
        per_map = {}
        for s in orbit_spans:
            per_map[s[7][1]] = per_map.get(s[7][1], 0.0) + s[4]
        scan = sorted(per_map.values())
        out["orbits.map_scan_s.p50"] = _quantile(scan, 0.50)
        out["orbits.map_scan_s.p99"] = _quantile(scan, 0.99)
        out["orbits.maps_scanned"] = len(scan)
        rd_calls = self.stats["orbits.residue_dynamics"][0]
        out["orbits.residue_graph_reuse_ratio"] = (len(self.residue_keys) / rd_calls
                                                   if rd_calls else 0.0)
        mst_checks = self.stats["orbits.verify_mst"][0]
        out["dynamics.reduce_map.per_check"] = (self.stats["dynamics.reduce_map"][0] / mst_checks
                                                if mst_checks else 0.0)
        out["harness.rejection_accept_ratio"] = (
            self.rejection_returned / self.rejection_constructed
            if self.rejection_constructed else 0.0)
        out["harness.report_bytes"] = self.report_bytes
        out["trace.spans"] = len(self.spans)
        return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values)))) - 1
    return sorted_values[k]

"""The three benchmark workloads: inputs from a seed, the timed call into
ffdyn, and the check of its verdict.

Each workload has three steps.  ``setup`` builds the inputs and is timed as
set-up; ``run`` is the first call into ffdyn's entry point; ``check`` turns
the outcome into an item count and a verdict, and raises ``VerdictError``
when the verdict is wrong.  ``run`` and ``check`` together are the timed
verdict.

At seed 42 and full size the verdict is compared with the values recorded
in ``expected_seed42.json``.  Only verdict fields are compared, never the
config echo or raw report bytes, so a deliberate report-format change does
not score as a failure.  Other seeds check only the bound and decomposition
verdicts.
"""

from __future__ import annotations

import hashlib
import json
import os

from ffdyn import cli, funcfield, geometry, harness, orbits

EXPECTED_SEED = 42
_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "expected_seed42.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class VerdictError(Exception):
    """The program's outcome differs from the correct verdict."""


def _require(cond, what):
    if not cond:
        raise VerdictError(what)


def _compare_expected(name, seed, size, verdict):
    if seed != EXPECTED_SEED or size != "full":
        return
    want = EXPECTED[name]
    for key, value in want.items():
        _require(verdict.get(key) == value,
                 f"{key} differs from the value recorded at seed {EXPECTED_SEED}: "
                 f"{verdict.get(key)!r} != {value!r}")


def _load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class BoundP2:
    """p = 2 acceptance bound campaign through the CLI: 650 maps x 129 points
    at full size.  Items are orbits."""

    name = "bound-p2"
    sizes = {
        "full": ["--maps", "500", "--conjugates", "100", "--rejection", "50", "--height", "3"],
        "tiny": ["--maps", "6", "--conjugates", "3", "--rejection", "2", "--height", "2"],
    }

    def setup(self, seed, size, workdir):
        out = os.path.join(workdir, "bound-p2.json")
        argv = ["verify-bounds", "-p", "2", *self.sizes[size], "--seed", str(seed), "--out", out]
        return {"seed": seed, "size": size, "argv": argv, "out": out}

    def run(self, state):
        return cli.main(state["argv"])

    def check(self, state, exit_code):
        _require(exit_code == 0, f"verify-bounds exited {exit_code}")
        report = _load_report(state["out"])
        _require(report["violations"] == [], "the report lists violations")
        status = report["status_counts"]
        orbits_run = sum(status.values())
        _require(orbits_run == report["maps_generated"] * report["points_per_map"],
                 "status counts do not cover every (map, point) pair")
        limits = report["thresholds"]
        _require(all(r["ok"] and r["cycle"] <= limits["period"]
                     and r["orbit_size"] <= limits["orbit_size"] for r in report["orbit_rows"]),
                 "an orbit row exceeds its ceiling")
        _require(len(report["orbit_rows"]) == report["finite_orbits"] == status["finite"],
                 "finite orbit counts disagree")
        rows = json.dumps(report["orbit_rows"], sort_keys=True, separators=(",", ":"))
        verdict = {
            "exit_code": exit_code,
            "violations": 0,
            "status_counts": status,
            "period_histogram": report["period_histogram"],
            "orbit_size_histogram": report["orbit_size_histogram"],
            "orbit_rows_sha256": hashlib.sha256(rows.encode("utf-8")).hexdigest(),
        }
        _compare_expected(self.name, state["seed"], state["size"], verdict)
        return orbits_run, verdict


class ResidueP5:
    """Criterion 6 at p = 5: ``check_prop_61`` on every periodic point of the
    seeded p = 5 acceptance bound campaign, then ``verify_mst`` at every place
    of degree <= 3.  Items are (point, place) decompositions."""

    name = "residue-p5"
    # the p = 5 acceptance campaign: MonicPoly(d=2, deg<=1), ConjugatedMonicPoly
    # and RejectionRandom(deg 0) maps over the height-1 box; ``verify-bounds``
    # with these flags builds exactly these generators in this order
    sizes = {"full": ((80, 10, 10), 3), "tiny": ((8, 1, 1), 1)}

    def setup(self, seed, size, workdir):
        (monic, conjugated, rejection), place_degree = self.sizes[size]
        out = os.path.join(workdir, "residue-p5-campaign.json")
        argv = ["verify-bounds", "-p", "5", "--maps", str(monic), "--degrees", "2",
                "--conjugates", str(conjugated), "--rejection", str(rejection),
                "--coeff-degree", "1", "--height", "1", "--seed", str(seed), "--out", out]
        code = cli.main(argv)
        if code != 0:
            raise VerdictError(f"the set-up campaign exited {code}")
        report = _load_report(out)
        maps = []
        for family, count, coeff_degree in (("MonicPoly", monic, 1),
                                            ("ConjugatedMonicPoly", conjugated, 1),
                                            ("RejectionRandom", rejection, 0)):
            spec = harness.MapGenSpec(family, 5, 2, coeff_degree, seed=seed)
            maps.extend(harness.gen_maps(spec, count))
        instances = [(maps[inst["map_id"]], geometry.ProjPoint.parse(5, inst["point"]),
                      inst["period"]) for inst in report["periodic_instances"]]
        places = funcfield.finite_places_up_to(5, place_degree)
        return {"seed": seed, "size": size, "instances": instances, "places": places}

    def run(self, state):
        prop61 = []
        decompositions = []
        for phi, P, n in state["instances"]:
            prop61.append(orbits.check_prop_61(phi, P, n))
            for place in state["places"]:
                decompositions.append(orbits.verify_mst(phi, P, n, place))
        return prop61, decompositions

    def check(self, state, outcome):
        prop61, decompositions = outcome
        _require(prop61 and all(prop61), "check_prop_61 failed on a periodic point")
        cases = {"i": 0, "ii": 0, "iii": 0, "violation": 0}
        r_infinite = 0
        for dec in decompositions:
            cases[dec.case] += 1
            if dec.r is None:
                r_infinite += 1
                _require(dec.case == "i", "r = infinity outside case (i)")
        _require(cases["violation"] == 0, f"{cases['violation']} period decompositions fail")
        _require(len(decompositions) == len(prop61) * len(state["places"]),
                 "a decomposition is missing")
        verdict = {
            "periodic_points": len(prop61),
            "prop61_true": sum(prop61),
            "cases": cases,
            "r_infinite": r_infinite,
        }
        _compare_expected(self.name, state["seed"], state["size"], verdict)
        return len(decompositions), verdict


class PropsP3:
    """``verify-props`` at p = 3 with all six checkers at CLI defaults.
    Items are checker instances."""

    name = "props-p3"
    sizes = {
        "full": [],
        "tiny": ["--maps", "4", "--triples", "20", "--instances", "20", "--height", "1"],
    }

    def setup(self, seed, size, workdir):
        out = os.path.join(workdir, "props-p3.json")
        argv = ["verify-props", "-p", "3", *self.sizes[size], "--seed", str(seed), "--out", out]
        return {"seed": seed, "size": size, "argv": argv, "out": out}

    def run(self, state):
        return cli.main(state["argv"])

    def check(self, state, exit_code):
        _require(exit_code == 0, f"verify-props exited {exit_code}")
        report = _load_report(state["out"])
        _require(report["violations"] == [], "the report lists violations")
        counts = report["checker_counts"]
        _require(all(c["failed"] == 0 and c["passed"] == c["run"] for c in counts.values()),
                 "a checker instance failed")
        verdict = {"exit_code": exit_code, "violations": 0, "checker_counts": counts}
        _compare_expected(self.name, state["seed"], state["size"], verdict)
        return sum(c["run"] for c in counts.values()), verdict


WORKLOADS = {w.name: w for w in (BoundP2(), ResidueP5(), PropsP3())}

"""Seeded map generators, verification campaigns, and report emission.

Campaigns generate endomorphisms with good reduction at every finite place,
scan a height box of starting points, and compare every observed minimal
period and finite orbit size against the characteristic-dependent ceilings

    period:      3 (p=2),  72 (p=3),  (p^2-1)*p   (p>=5)
    orbit size:  9 (p=2), 288 (p=3),  (p+1)*(p^2-1)*p (p>=5).

Any orbit beyond its ceiling is recorded as a violation; a report with an
empty violation list maps to process exit code 0.  Reports are serialized
with stable field order, and a fixed master seed yields byte-identical
reports whether maps are scanned serially or by a worker pool.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from io import StringIO
from typing import Optional

from .algebra import FpPoly, _check_prime
from .dynamics import HomogMap, iterate_map
from .funcfield import finite_places_up_to
from .geometry import ProjPoint, enumerate_points
from .orbits import (
    OrbitStatus,
    check_lemma_equal_distances,
    check_lemma_pab,
    check_prop_51,
    check_prop_52,
    check_prop_61,
    checker_record,
    iterate_orbit,
    verify_mst,
)

__all__ = [
    "FAMILIES",
    "MapGenSpec",
    "CampaignConfig",
    "CampaignReport",
    "gen_maps",
    "run_bound_campaign",
    "run_property_campaign",
    "emit_report",
    "period_bound",
    "orbit_bound",
]

FAMILIES = ("MonicPoly", "ConjugatedMonicPoly", "RejectionRandom")

REJECTION_CAP_FACTOR = 200
CONJUGATION_DEPTH = 3


def period_bound(p: int) -> int:
    """Ceiling for minimal periods of maps with good reduction everywhere."""
    if p == 2:
        return 3
    if p == 3:
        return 72
    return (p * p - 1) * p


def orbit_bound(p: int) -> int:
    """Ceiling for finite orbit sizes of maps with good reduction everywhere."""
    if p == 2:
        return 9
    if p == 3:
        return 288
    return (p + 1) * (p * p - 1) * p


@dataclass(frozen=True)
class MapGenSpec:
    """Deterministic generator settings for one family of maps."""

    family: str
    p: int
    d: int
    coeff_degree_bound: int
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        _check_prime(self.p)
        if self.d < 2:
            raise ValueError("map degree must be >= 2")
        if self.coeff_degree_bound < 0:
            raise ValueError("coefficient degree bound must be >= 0")

    def echo(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "d": self.d,
            "coeff_degree_bound": self.coeff_degree_bound,
            "seed": self.seed,
        }


def _random_poly(rng: random.Random, p: int, max_degree: int) -> FpPoly:
    return FpPoly(p, [rng.randrange(p) for _ in range(max_degree + 1)])


def _monic_map(rng: random.Random, spec: MapGenSpec) -> HomogMap:
    p, d = spec.p, spec.d
    F = [FpPoly.zero(p)] * (d + 1)
    F[0] = FpPoly.one(p)
    for i in range(d):  # coefficient of x^i, stored at descending index d-i
        F[d - i] = _random_poly(rng, p, spec.coeff_degree_bound)
    G = [FpPoly.zero(p)] * (d + 1)
    G[d] = FpPoly.one(p)
    return HomogMap(F, G, p=p)


def _random_mobius_word(rng: random.Random, spec: MapGenSpec) -> HomogMap:
    """A product of random translations x+b, inversions 1/x and scalings u*x,
    as a degree-1 map with a unit resultant; each factor acts on the columns
    of the matrix [[a, b], [c, d]]."""
    p = spec.p
    a, b, c, d = FpPoly.one(p), FpPoly.zero(p), FpPoly.zero(p), FpPoly.one(p)
    for _ in range(CONJUGATION_DEPTH):
        kind = rng.randrange(3)
        if kind == 0:
            beta = _random_poly(rng, p, spec.coeff_degree_bound)
            b, d = a * beta + b, c * beta + d
        elif kind == 1:
            a, b, c, d = b, a, d, c
        else:
            u = FpPoly.constant(p, rng.randrange(1, p))
            a, c = a * u, c * u
    return HomogMap([a, b], [c, d], p=p)


def gen_maps(spec: MapGenSpec, count: int) -> list[HomogMap]:
    """Generate `count` maps; every returned map has bad_places() == {} by
    construction (asserted).  RejectionRandom may fall short when its
    attempt cap is exhausted; the shorter list reports the shortfall."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out: list[HomogMap] = []
    if spec.family == "RejectionRandom":
        p, d = spec.p, spec.d
        attempts = 0
        while len(out) < count and attempts < REJECTION_CAP_FACTOR * count:
            rng = random.Random(f"{spec.seed}:{spec.family}:{p}:{d}:try{attempts}")
            attempts += 1
            F = [_random_poly(rng, p, spec.coeff_degree_bound) for _ in range(d + 1)]
            G = [_random_poly(rng, p, spec.coeff_degree_bound) for _ in range(d + 1)]
            try:
                phi = HomogMap(F, G, p=p)
            except ValueError:
                continue
            if phi.resultant().is_constant():
                out.append(phi)
        return out
    for i in range(count):
        rng = random.Random(f"{spec.seed}:{spec.family}:{spec.p}:{spec.d}:{i}")
        phi = _monic_map(rng, spec)
        if spec.family == "ConjugatedMonicPoly":
            phi = phi.conjugate(_random_mobius_word(rng, spec))
        assert not phi.bad_places(), "good-reduction family produced a bad place"
        out.append(phi)
    return out


def mst_place_degree(p: int) -> int:
    """Degree bound on the places the property campaign checks the MST
    decomposition at: the largest D <= 3 with p^D <= 23^2.  Within that
    bound the degree-D places add at most about 60% to a 40-map, height-1
    campaign; degree 3 at p = 11 or 13 nearly doubles it."""
    return max((D for D in (2, 3) if p ** D <= 23 ** 2), default=1)


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one campaign; all of them are echoed in the report.
    `generators` pairs each MapGenSpec with a requested map count."""

    p: int
    generators: tuple[tuple[MapGenSpec, int], ...]
    height_bound: int = 3
    seed: int = 0
    prop51_count: int = 1000
    prop52_count: int = 1000

    def __post_init__(self):
        _check_prime(self.p)
        if self.height_bound < 0:
            raise ValueError("height bound must be >= 0")
        if not self.generators:
            raise ValueError("at least one generator entry is required")
        for spec, count in self.generators:
            if spec.p != self.p:
                raise ValueError("generator characteristic differs from campaign p")
            if count < 0:
                raise ValueError("map counts must be >= 0")
        if self.prop51_count < 0 or self.prop52_count < 0:
            raise ValueError("prop51_count and prop52_count must be >= 0")

    def echo(self) -> dict:
        return {
            "p": self.p,
            "generators": [
                {"spec": spec.echo(), "count": count} for spec, count in self.generators
            ],
            "height_bound": self.height_bound,
            "seed": self.seed,
            "prop51_count": self.prop51_count,
            "prop52_count": self.prop52_count,
            "mst_place_degree": mst_place_degree(self.p),
        }


@dataclass
class CampaignReport:
    """Aggregated campaign outcome; `violations` empty <=> exit code 0."""

    kind: str
    config: dict
    thresholds: dict
    maps_requested: int = 0
    maps_generated: int = 0
    points_per_map: int = 0
    status_counts: dict = field(default_factory=dict)
    periodic_points: int = 0
    finite_orbits: int = 0
    period_histogram: dict = field(default_factory=dict)
    orbit_size_histogram: dict = field(default_factory=dict)
    max_period: int = 0
    max_orbit_size: int = 0
    per_family: dict = field(default_factory=dict)
    orbit_rows: list = field(default_factory=list)
    periodic_instances: list = field(default_factory=list)
    checker_counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "thresholds": self.thresholds,
            "maps_requested": self.maps_requested,
            "maps_generated": self.maps_generated,
            "points_per_map": self.points_per_map,
            "status_counts": dict(sorted(self.status_counts.items())),
            "periodic_points": self.periodic_points,
            "finite_orbits": self.finite_orbits,
            "period_histogram": {str(k): v for k, v in sorted(self.period_histogram.items())},
            "orbit_size_histogram": {str(k): v for k, v in sorted(self.orbit_size_histogram.items())},
            "max_period": self.max_period,
            "max_orbit_size": self.max_orbit_size,
            "per_family": {k: self.per_family[k] for k in sorted(self.per_family)},
            "checker_counts": {k: self.checker_counts[k] for k in sorted(self.checker_counts)},
            "orbit_rows": self.orbit_rows,
            "periodic_instances": self.periodic_instances,
            "violations": self.violations,
        }


# ---------------------------------------------------------------------------
# bound campaign
# ---------------------------------------------------------------------------

_SCAN_CTX: dict = {}


def _scan_init(points):
    _SCAN_CTX["points"] = points


def _scan_one(phi: HomogMap) -> dict:
    """Scan every box point under one map; pure function of the map and the
    box `_scan_init` installed once per worker process."""
    statuses = {s.value: 0 for s in OrbitStatus}
    finite = []
    for P in _SCAN_CTX["points"]:
        rep = iterate_orbit(phi, P)
        statuses[rep.status.value] += 1
        if rep.status is OrbitStatus.FINITE_ORBIT:
            finite.append((str(P), rep.tail, rep.cycle, rep.orbit_size))
    return {"statuses": statuses, "finite": finite}


def run_bound_campaign(config: CampaignConfig, workers: int = 1) -> CampaignReport:
    """Generate maps, scan the height box under each, and compare every
    minimal period and finite orbit size against the p-dependent ceilings.
    `workers` > 1 scans the maps in that many processes; the report is the
    same for every worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    p = config.p
    pb, ob = period_bound(p), orbit_bound(p)
    report = CampaignReport(
        kind="bounds",
        config=config.echo(),
        thresholds={"period": pb, "orbit_size": ob},
    )
    maps: list[HomogMap] = []
    provenance: list[tuple[str, int]] = []  # (family, d)
    for spec, count in config.generators:
        generated = gen_maps(spec, count)
        report.maps_requested += count
        fam = report.per_family.setdefault(
            spec.family, {"maps_requested": 0, "maps_generated": 0,
                          "finite_orbits": 0, "periodic_points": 0}
        )
        fam["maps_requested"] += count
        fam["maps_generated"] += len(generated)
        maps.extend(generated)
        provenance.extend((spec.family, spec.d) for _ in generated)
    report.maps_generated = len(maps)

    points = enumerate_points(p, config.height_bound)
    report.points_per_map = len(points)

    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_scan_init,
            initargs=(points,),
        ) as pool:
            results = list(pool.map(_scan_one, maps, chunksize=8))
    else:
        _scan_init(points)
        results = [_scan_one(phi) for phi in maps]

    # every orbit ends closed or escaping; the constant key stays because
    # bench/expected_seed42.json pins all three status counts
    statuses = {s.value: 0 for s in OrbitStatus} | {"step_limit": 0}
    for map_id, (res, (family, d)) in enumerate(zip(results, provenance)):
        for k, v in res["statuses"].items():
            statuses[k] += v
        for point_str, tail, cycle, size in res["finite"]:
            report.finite_orbits += 1
            report.per_family[family]["finite_orbits"] += 1
            report.period_histogram[cycle] = report.period_histogram.get(cycle, 0) + 1
            report.orbit_size_histogram[size] = report.orbit_size_histogram.get(size, 0) + 1
            report.max_period = max(report.max_period, cycle)
            report.max_orbit_size = max(report.max_orbit_size, size)
            ok = cycle <= pb and size <= ob
            report.orbit_rows.append({
                "map_id": map_id,
                "family": family,
                "d": d,
                "point": point_str,
                "tail": tail,
                "cycle": cycle,
                "orbit_size": size,
                "threshold": ob,
                "ok": ok,
            })
            if tail == 0:
                report.periodic_points += 1
                report.per_family[family]["periodic_points"] += 1
                report.periodic_instances.append({
                    "map_id": map_id,
                    "family": family,
                    "d": d,
                    "point": point_str,
                    "period": cycle,
                })
            if cycle > pb:
                report.violations.append(checker_record(
                    "period_bound", f"map {map_id} point {point_str}", False,
                    {"cycle": cycle, "threshold": pb}))
            if size > ob:
                report.violations.append(checker_record(
                    "orbit_bound", f"map {map_id} point {point_str}", False,
                    {"orbit_size": size, "threshold": ob}))
    report.status_counts = statuses
    return report


# ---------------------------------------------------------------------------
# property campaign
# ---------------------------------------------------------------------------

def _random_point(rng: random.Random, p: int, height: int) -> ProjPoint:
    while True:
        x = FpPoly(p, [rng.randrange(p) for _ in range(height + 1)])
        y = FpPoly(p, [rng.randrange(p) for _ in range(height + 1)])
        if not (x.is_zero() and y.is_zero()):
            return ProjPoint.from_coords(x, y)


def _distinct_points(rng, p, height, k):
    pts = []
    while len(pts) < k:
        q = _random_point(rng, p, height)
        if q not in pts:
            pts.append(q)
    return pts


def _tally(report: CampaignReport, name: str, passed: bool, instance: str,
           witness: Optional[dict] = None):
    counts = report.checker_counts.setdefault(name, {"run": 0, "passed": 0, "failed": 0})
    counts["run"] += 1
    if passed:
        counts["passed"] += 1
    else:
        counts["failed"] += 1
        report.violations.append(checker_record(name, instance, False, witness))


def run_property_campaign(config: CampaignConfig) -> CampaignReport:
    """Execute all six structural checkers over seeded random instances
    plus every periodic and preperiodic instance found in the height box."""
    p = config.p
    report = CampaignReport(
        kind="properties",
        config=config.echo(),
        thresholds={"period": period_bound(p), "orbit_size": orbit_bound(p)},
    )
    maps: list[HomogMap] = []
    for spec, count in config.generators:
        generated = gen_maps(spec, count)
        report.maps_requested += count
        maps.extend(generated)
    report.maps_generated = len(maps)
    if not maps:
        raise ValueError("property campaign needs at least one map")
    rng = random.Random(f"props:{config.seed}:{p}")
    B = config.height_bound

    for _ in range(config.prop51_count):
        P1, P2, P3 = _distinct_points(rng, p, B, 3)
        _tally(report, "prop51", check_prop_51(P1, P2, P3), f"{P1} {P2} {P3}")

    done = 0
    while done < config.prop52_count:
        phi = maps[rng.randrange(len(maps))]
        P, Q = _distinct_points(rng, p, B, 2)
        if phi.evaluate(P) == phi.evaluate(Q):
            continue
        _tally(report, "prop52", check_prop_52(phi, P, Q), f"map {phi} {P} {Q}")
        done += 1

    mst_places = finite_places_up_to(p, mst_place_degree(p))
    points = enumerate_points(p, B)
    for map_id, phi in enumerate(maps):
        for P in points:
            rep = iterate_orbit(phi, P)
            if rep.status is not OrbitStatus.FINITE_ORBIT:
                continue
            if rep.tail == 0:
                n = rep.cycle
                _tally(report, "prop61", check_prop_61(phi, P, n),
                       f"map {map_id} point {P} n={n}")
                for place in mst_places:
                    dec = verify_mst(phi, P, n, place)
                    _tally(report, "mst", not dec.is_violation,
                           f"map {map_id} point {P} n={n} at {place}",
                           None if not dec.is_violation else
                           {"m": dec.m, "r": dec.r, "n": n})
            else:
                # P is strictly preperiodic, so its psi-orbit ends at a
                # point that psi fixes
                psi = iterate_map(phi, rep.cycle) if rep.cycle > 1 else phi
                chain = iterate_orbit(psi, P).points
                _tally(report, "lemma_pab", check_lemma_pab(psi, chain),
                       f"map {map_id} tail from {P}")

    constants = [ProjPoint.of_constant(p, c) for c in range(p)]
    constants.append(ProjPoint.infinity(p))
    hyp, bound = check_lemma_equal_distances(constants, p)
    _tally(report, "lemma_eq", hyp and bound, f"{p + 1} constant points")
    for i in range(20):
        pts = _distinct_points(rng, p, B, min(p * p + 1, 6, len(points)))
        hyp, bound = check_lemma_equal_distances(pts, p)
        _tally(report, "lemma_eq", bound, f"random configuration {i}")
    return report


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_report(report: CampaignReport, fmt: str = "json") -> str:
    """Serialize with stable field order; identical campaigns yield
    identical bytes."""
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    if fmt == "csv":
        out = StringIO()
        if report.kind == "bounds":
            out.write("map_id,family,d,point,tail,cycle,orbit_size,threshold,ok\n")
            for row in report.orbit_rows:
                out.write(
                    f"{row['map_id']},{row['family']},{row['d']},\"{row['point']}\","
                    f"{row['tail']},{row['cycle']},{row['orbit_size']},"
                    f"{row['threshold']},{row['ok']}\n"
                )
        else:
            out.write("checker,run,passed,failed\n")
            for name in sorted(report.checker_counts):
                c = report.checker_counts[name]
                out.write(f"{name},{c['run']},{c['passed']},{c['failed']}\n")
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")

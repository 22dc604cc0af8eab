"""Orbits over F_p(t) and over residue fields, and executable checkers.

`iterate_orbit` walks a point forward with exact equality detection on
canonical coordinates, so the tail/cycle split of a finite orbit is exact.
Escape is one predicate, `HomogMap.proved_escaping` (its certificates are
derived in the `dynamics` module docstring), asked of the start point and
of every orbit point, so `HEIGHT_ESCAPE` proves the orbit infinite at
every degree; a monic-family start point usually needs no evaluation.
Every orbit ends closed or escaping, so there is no step budget (the
reason is in the `iterate_orbit` docstring).
`residue_dynamics` builds the full functional graph of the reduced map on
P^1(k(pi)) by applying `ResidueMap.apply` to every point; `verify_mst`
reads the reduced period off the cross products of the global cycle.

The checkers turn the structural facts used by the bound arguments into
executable predicates, each decided at every finite place at once.  The
distance of canonical points at a finite place pi is the multiplicity of pi
in their monic cross product D = `geometry.distance_poly`, so an equality of
distances at every finite place is an equality of D's, an inequality
v(D) <= v(D') at every finite place is the divisibility D | D', and
min(v(a), v(b)) = v(gcd(a, b)).  No factoring and no place list is needed.

* ``check_prop_51``: the logarithmic distance satisfies the ultrametric
  triangle comparison at every place, infinity included.
* ``check_prop_52``: a map with good reduction everywhere does not decrease
  the logarithmic distance at any finite place.
* ``check_prop_61``: along a periodic cycle the distances are shift
  invariant, and pairs of iterates whose index gap is coprime to the period
  are all at the distance of the first step, at every finite place.
* ``check_lemma_pab``: along a tail falling into a fixed point, distances
  to the fixed point are monotone and pairwise distances equal the distance
  of the earlier point to the fixed point, at every finite place.
* ``check_lemma_equal_distances``: a family of points pairwise at one
  common distance at every finite place cannot be larger than p**2
  (for the base field with one exceptional place).
* ``verify_mst``: the minimal period n factors against the residue data as
  n = m, n = m*r, or n = p^e*m*r, where m is the period of the reduced
  point and r the multiplicative order of the reduced cycle multiplier
  (r = infinity when the reduced multiplier vanishes, which forces n = m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .algebra import FpPoly, ResidueElem, factor, mult_order
from .dynamics import HomogMap, ResidueMap, _chain_rule
from .funcfield import Place
from .geometry import (
    ProjPoint,
    ResiduePoint,
    all_residue_points,
    distance_poly,
    enumerate_points,
    log_distance,
    reduce_point,
)

__all__ = [
    "OrbitStatus",
    "OrbitReport",
    "FunctionalGraph",
    "MstDecomposition",
    "iterate_orbit",
    "residue_dynamics",
    "residue_cycle_multiplier",
    "find_periodic_points",
    "verify_mst",
    "check_prop_51",
    "check_prop_52",
    "check_prop_61",
    "check_lemma_pab",
    "check_lemma_equal_distances",
    "cross_product_support",
    "checker_record",
]

RESIDUE_GRAPH_CAP = 10 ** 4


class OrbitStatus(enum.Enum):
    FINITE_ORBIT = "finite"
    HEIGHT_ESCAPE = "height_escape"


@dataclass(frozen=True)
class OrbitReport:
    """Result of iterating a point: the distinct visited points in order,
    plus the exact tail/cycle split when the orbit closed up."""

    start: ProjPoint
    status: OrbitStatus
    points: tuple[ProjPoint, ...]
    tail: Optional[int] = None
    cycle: Optional[int] = None

    @property
    def orbit_size(self) -> Optional[int]:
        if self.status is not OrbitStatus.FINITE_ORBIT:
            return None
        return self.tail + self.cycle

    def is_periodic_start(self) -> bool:
        return self.status is OrbitStatus.FINITE_ORBIT and self.tail == 0


def iterate_orbit(phi: HomogMap, P: ProjPoint) -> OrbitReport:
    """Iterate until the orbit revisits a point or is proved escaping by
    ``phi.proved_escaping``, asked of the start point and every orbit point.

    The loop needs no step budget: for d >= 2 every point it visits has
    height at most the escape height, and there are finitely many such
    points; for d = 1 an orbit not proved escaping closes within p^2 - 1.
    """
    if phi.proved_escaping(P):
        return OrbitReport(P, OrbitStatus.HEIGHT_ESCAPE, (P,))
    seen = {P: 0}
    pts = [P]
    cur = P
    while True:
        nxt = phi.evaluate(cur)
        hit = seen.get(nxt)
        if hit is not None:
            return OrbitReport(P, OrbitStatus.FINITE_ORBIT, tuple(pts),
                               tail=hit, cycle=len(pts) - hit)
        if phi.proved_escaping(nxt):
            return OrbitReport(P, OrbitStatus.HEIGHT_ESCAPE, tuple(pts))
        seen[nxt] = len(pts)
        pts.append(nxt)
        cur = nxt


@dataclass(frozen=True)
class FunctionalGraph:
    """Image, tail length and eventual cycle length for every point of
    P^1(k(pi)) under a reduced map."""

    modulus: FpPoly
    points: tuple[ResiduePoint, ...]
    image: tuple[int, ...]
    tail: tuple[int, ...]
    cycle_len: tuple[int, ...]


def _analyze_functional_graph(image: Sequence[int]) -> tuple[list[int], list[int]]:
    """Tail length and eventual cycle length for every node of a functional
    graph given by its image array.  Each walk stops at a resolved node or at
    a revisit on its own path, so every node is resolved once."""
    n = len(image)
    tail: list = [None] * n  # None: unresolved
    cycle_len = [0] * n
    for start in range(n):
        path, pos, v = [], {}, start
        while tail[v] is None and v not in pos:
            pos[v] = len(path)
            path.append(v)
            v = image[v]
        if tail[v] is None:  # the walk closed a new cycle path[pos[v]:]
            k = pos[v]
            for u in path[k:]:
                tail[u], cycle_len[u] = 0, len(path) - k
            del path[k:]
        for u in reversed(path):
            w = image[u]
            tail[u], cycle_len[u] = tail[w] + 1, cycle_len[w]
    return tail, cycle_len


def residue_dynamics(phi: HomogMap, place: Place) -> FunctionalGraph:
    """Full functional graph of the reduced map on P^1(k(pi)) by applying
    `ResidueMap.apply` to every point, of which there may be at most
    RESIDUE_GRAPH_CAP."""
    if not place.is_finite:
        raise ValueError("residue dynamics requires a finite place")
    pi = place.pi
    q = phi.p ** pi.degree
    if q + 1 > RESIDUE_GRAPH_CAP:
        raise ValueError(f"residue field too large: {q + 1} points > cap {RESIDUE_GRAPH_CAP}")
    red = phi.reduce_map(place)
    points = all_residue_points(pi)
    index = {pt: i for i, pt in enumerate(points)}
    image = [index[red.apply(pt)] for pt in points]
    tail, cycle_len = _analyze_functional_graph(image)
    return FunctionalGraph(pi, tuple(points), tuple(image), tuple(tail), tuple(cycle_len))


def find_periodic_points(phi: HomogMap, height_bound: int) -> list[tuple[ProjPoint, int]]:
    """Scan every point of height <= height_bound and report those whose
    orbit returns to the start, with the exact minimal period.

    Every orbit ends closed or proved escaping, and a periodic orbit is
    never proved escaping, so no periodic point of the box is missed.
    """
    out = []
    for P in enumerate_points(phi.p, height_bound):
        rep = iterate_orbit(phi, P)
        if rep.is_periodic_start():
            out.append((P, rep.cycle))
    return out


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _orbit_cycle(phi: HomogMap, P: ProjPoint, n: int) -> list[ProjPoint]:
    """The points P, phi(P), ..., phi^(n-1)(P); raises unless P is periodic
    with minimal period exactly n."""
    rep = iterate_orbit(phi, P)
    if not (rep.is_periodic_start() and rep.cycle == n):
        raise ValueError(f"{P} is not periodic of minimal period {n}")
    return list(rep.points)


@dataclass(frozen=True)
class MstDecomposition:
    """How a minimal period n relates to residue data at a place: the period
    m of the reduced point, the order r of the reduced multiplier (None
    encodes r = infinity, forcing the n = m case), and the exponent e in the
    n = p^e*m*r case."""

    place: Place
    n: int
    m: int
    r: Optional[int]
    e: Optional[int]
    case: str  # "i" | "ii" | "iii" | "violation"

    @property
    def is_violation(self) -> bool:
        return self.case == "violation"


def residue_cycle_multiplier(red: ResidueMap, point: ResiduePoint, m: int) -> ResidueElem:
    """Multiplier of a length-m cycle of the reduced map: `_chain_rule` run
    on the reduced forms from the raw coordinates of the point, with one
    division in k(pi) at the end.

    This is the reduction of the m-th iterate's derivative; computing it on
    the residue side keeps it well defined even when a global orbit point
    reduces to infinity, where a fixed global affine chart degenerates.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num, den = _chain_rule(red.f_coeffs, red.g_coeffs, point.x, point.y, m,
                           ResidueElem.one(red.modulus), ResidueElem.zero(red.modulus))
    return num / den


def verify_mst(phi: HomogMap, P: ProjPoint, n: int, place: Place) -> MstDecomposition:
    """Match the minimal period of P against its residue data at a place of
    good reduction; see the module docstring for the three admissible cases.

    Good reduction carries the n-cycle of P onto a cycle of the reduced map
    whose length m divides n, and two canonical points reduce to the same
    point exactly when pi divides their cross product.  So m is the first
    k in 1..n-1 with pi | D(P, phi^k(P)), or n when there is none.  The
    reduced multiplier is computed on the residue side (the multiplier of
    the reduced cycle), which equals the reduction of the m-th iterate's
    derivative at P whenever that reduction is defined.
    """
    if phi.d < 2:
        raise ValueError("the period decomposition applies to degree >= 2")
    if not place.is_finite:
        raise ValueError("a finite place is required")
    if not phi.has_good_reduction(place):
        raise ValueError(f"bad reduction at {place}")
    pts = _orbit_cycle(phi, P, n)
    m = next((k for k in range(1, n) if _divides(place.pi, distance_poly(P, pts[k]))), n)
    red = phi.reduce_map(place)
    reduced = reduce_point(P, place)
    lam_bar = residue_cycle_multiplier(red, reduced, m)
    p = phi.p
    if lam_bar.is_zero():
        r = None
        case = "i" if n == m else "violation"
        return MstDecomposition(place, n, m, r, None, case)
    r = mult_order(lam_bar)
    if n == m:
        return MstDecomposition(place, n, m, r, None, "i")
    if n == m * r:
        return MstDecomposition(place, n, m, r, None, "ii")
    q, rem = divmod(n, m * r)
    if rem == 0 and q > 1:
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        if q == 1 and e >= 1:
            return MstDecomposition(place, n, m, r, e, "iii")
    return MstDecomposition(place, n, m, r, None, "violation")


def _divides(a: FpPoly, b: FpPoly) -> bool:
    return (b % a).is_zero()


def check_prop_51(P1: ProjPoint, P2: ProjPoint, P3: ProjPoint) -> bool:
    """d(P1,P3) >= min(d(P1,P2), d(P2,P3)) at every place, for pairwise
    distinct points: gcd(D12, D23) | D13 at the finite places, and a direct
    comparison at infinity."""
    if P1 == P2 or P2 == P3 or P1 == P3:
        raise ValueError("points must be pairwise distinct")
    if not _divides(distance_poly(P1, P2).gcd(distance_poly(P2, P3)),
                    distance_poly(P1, P3)):
        return False
    inf = Place.infinity(P1.p)
    return log_distance(P1, P3, inf) >= min(
        log_distance(P1, P2, inf), log_distance(P2, P3, inf)
    )


def check_prop_52(phi: HomogMap, P: ProjPoint, Q: ProjPoint) -> bool:
    """d(phi(P), phi(Q)) >= d(P, Q) at every finite place, i.e.
    D(P, Q) | D(phi(P), phi(Q)); requires good reduction everywhere."""
    if phi.bad_places():
        raise ValueError("good reduction at every finite place is required")
    if P == Q:
        raise ValueError("points must be distinct")
    fP, fQ = phi.evaluate(P), phi.evaluate(Q)
    if fP == fQ:
        raise ValueError("image points coincide; the distance is undefined")
    return _divides(distance_poly(P, Q), distance_poly(fP, fQ))


def cross_product_support(points: Sequence[ProjPoint]) -> list[Place]:
    """All finite places dividing some pairwise cross product x_i*y_j - x_j*y_i.

    Outside this (finite, computed) support every pairwise logarithmic
    distance vanishes, so a per-place statement about the points needs
    checking only here.
    """
    out: set[Place] = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            _, factors = factor(distance_poly(points[i], points[j]))
            out.update(Place.finite(pi) for pi in factors)
    return sorted(out, key=Place.sort_key)


def check_prop_61(phi: HomogMap, P: ProjPoint, n: int) -> bool:
    """Shift invariance and the coprime-gap equality of cycle distances, at
    every finite place: equalities between the cycle's cross products.

    Requires good reduction at every finite place; iterate indices are read
    modulo the period n.
    """
    if phi.bad_places():
        raise ValueError("good reduction at every finite place is required")
    pts = _orbit_cycle(phi, P, n)
    if n == 1:
        return True
    dist = {(i, j): distance_poly(pts[i], pts[j])
            for i in range(n) for j in range(i + 1, n)}

    def dd(i, j):
        i %= n
        j %= n
        return dist[(i, j) if i < j else (j, i)]

    base = dd(1, 0)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(1, n):
                if dd(i + k, j + k) != dist[(i, j)]:
                    return False
            if gcd(i - j, n) == 1 and dist[(i, j)] != base:
                return False
    return True


def check_lemma_pab(phi: HomogMap, orbit: Sequence[ProjPoint]) -> bool:
    """Tail-into-fixed-point distance laws at every finite place, for a map
    with good reduction everywhere: D(P_-b, T) | D(P_-a, T) and
    D(P_-b, P_-a) = D(P_-b, T) for 1 <= a < b.

    `orbit` lists consecutive iterates ending in a fixed point: the last
    entry T satisfies phi(T) = T and each entry maps to the next.  The
    statement does not depend on coordinates: a change of coordinates by a
    degree-1 map with a unit resultant (say one moving T to [0 : 1])
    multiplies every cross product by a unit, so the monic D's are the same.
    """
    if phi.bad_places():
        raise ValueError("good reduction at every finite place is required")
    pts = list(orbit)
    if not pts:
        raise ValueError("empty orbit")
    for a, b in zip(pts, pts[1:]):
        if phi.evaluate(a) != b:
            raise ValueError("orbit is not consistent with the map")
    if phi.evaluate(pts[-1]) != pts[-1]:
        raise ValueError("the terminal point must be fixed")
    if len(set(pts)) != len(pts):
        raise ValueError("orbit points must be distinct")
    pts.reverse()  # pts[j] is P_{-j}, pts[0] the fixed point T
    to_terminal = [None] + [distance_poly(Q, pts[0]) for Q in pts[1:]]
    for b in range(2, len(pts)):
        for a in range(1, b):
            if not _divides(to_terminal[b], to_terminal[a]):
                return False
            if distance_poly(pts[b], pts[a]) != to_terminal[b]:
                return False
    return True


def check_lemma_equal_distances(points: Sequence[ProjPoint], p: int) -> tuple[bool, bool]:
    """Equal-pairwise-distance hypothesis and the p**2 cardinality bound.

    Returns ``(hypothesis, bound_ok)``: `hypothesis` holds iff every pair of
    the given points is at the distance of the first pair at every finite
    place, i.e. every pairwise cross product equals the first, and
    `bound_ok` is the implication hypothesis => len <= p**2.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    if any(q.p != p for q in pts):
        raise ValueError("points must live over F_p(t) for the given p")
    if len(pts) < 2:
        return True, True
    base = distance_poly(pts[0], pts[1])
    hypothesis = all(distance_poly(pts[i], pts[j]) == base
                     for i in range(len(pts)) for j in range(i + 1, len(pts)))
    bound_ok = (not hypothesis) or len(pts) <= p * p
    return hypothesis, bound_ok


def checker_record(checker: str, instance: str, result: bool,
                   witness: Optional[dict] = None) -> dict:
    """Uniform JSON shape for checker outcomes."""
    return {
        "instance": instance,
        "checker": checker,
        "result": bool(result),
        "witness": witness,
    }

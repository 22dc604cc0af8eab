"""Orbits over F_p(t) and over residue fields, and executable checkers.

`iterate_orbit` walks a point forward with exact equality detection on
canonical coordinates, so the tail/cycle split of a finite orbit is exact.
Escape is one predicate, `HomogMap.proved_escaping` (its certificates are
derived in the `dynamics` module docstring), asked of the start point and
of every orbit point, so `HEIGHT_ESCAPE` means the orbit is proved
infinite and a monic-family start point usually needs no evaluation.
Every orbit ends closed or escaping, so there is no step budget (the
reason is in the `iterate_orbit` docstring).
`residue_dynamics` builds the full functional graph of the reduced map on
P^1(k(pi)) by applying `ResidueMap.apply` to every point; `verify_mst` only
steps one reduced orbit.

The checkers turn the structural facts used by the bound arguments into
executable predicates:

* ``check_prop_51``: the logarithmic distance satisfies the ultrametric
  triangle comparison.
* ``check_prop_52``: a map with good reduction at a place does not decrease
  the logarithmic distance there.
* ``check_prop_61``: along a periodic cycle the distances are shift
  invariant, and pairs of iterates whose index gap is coprime to the period
  are all at the distance of the first step.
* ``check_lemma_pab``: along a tail falling into a fixed point, distances
  to the fixed point are monotone and pairwise distances equal the distance
  of the earlier point to the fixed point.
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
from .dynamics import HomogMap, ResidueMap, _chain_rule, mobius_sending_to_origin
from .funcfield import Place
from .geometry import (
    ProjPoint,
    ResiduePoint,
    all_residue_points,
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


def iterate_orbit(phi: HomogMap, P: ProjPoint,
                  max_height: Optional[int] = None) -> OrbitReport:
    """Iterate until the orbit revisits a point or is proved escaping.

    The loop needs no step budget: every point visited before it stops has
    height at most the escape height (or `max_height`), and there are
    finitely many such points over F_p(t).

    By default the start point and every orbit point are tested with
    ``phi.proved_escaping``, so a ``HEIGHT_ESCAPE`` report proves the orbit
    infinite.  An explicit `max_height` replaces that test with a plain
    height cap without any certificate: an orbit may pass it and still
    close.  Degree-1 maps have no certificate and need an explicit
    `max_height`.
    """
    if max_height is None:
        if phi.escape_height is None:
            raise ValueError("a degree-1 map has no certified escape height; "
                             "pass max_height")
        escaped = phi.proved_escaping
        if escaped(P):
            return OrbitReport(P, OrbitStatus.HEIGHT_ESCAPE, (P,))
    elif max_height < 0:
        raise ValueError("max_height must be >= 0")
    else:
        def escaped(Q: ProjPoint) -> bool:
            return Q.height > max_height
    seen = {P: 0}
    pts = [P]
    cur = P
    while True:
        nxt = phi.evaluate(cur)
        hit = seen.get(nxt)
        if hit is not None:
            return OrbitReport(P, OrbitStatus.FINITE_ORBIT, tuple(pts),
                               tail=hit, cycle=len(pts) - hit)
        if escaped(nxt):
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

    def index(self, point: ResiduePoint) -> int:
        try:
            return self._index_map()[point]
        except KeyError:
            raise ValueError(f"{point} is not a point of this graph") from None

    def _index_map(self):
        # dataclass(frozen) caches via object.__setattr__ on first use
        cached = getattr(self, "_idx", None)
        if cached is None:
            cached = {pt: i for i, pt in enumerate(self.points)}
            object.__setattr__(self, "_idx", cached)
        return cached

    def image_of(self, point: ResiduePoint) -> ResiduePoint:
        return self.points[self.image[self.index(point)]]

    def period_of(self, point: ResiduePoint) -> int:
        """Cycle length of a periodic point (tail must be zero)."""
        i = self.index(point)
        if self.tail[i] != 0:
            raise ValueError(f"{point} is preperiodic, not periodic")
        return self.cycle_len[i]


def _analyze_functional_graph(image: Sequence[int]) -> tuple[list[int], list[int]]:
    """Tail length and eventual cycle length for every node of a functional
    graph given by its image array."""
    n = len(image)
    tail = [0] * n
    cycle_len = [0] * n
    state = [0] * n  # 0 unvisited, 1 on current path, 2 resolved
    for start in range(n):
        if state[start] != 0:
            continue
        path = []
        pos = {}
        v = start
        while state[v] == 0:
            state[v] = 1
            pos[v] = len(path)
            path.append(v)
            v = image[v]
        if state[v] == 1:
            k = pos[v]
            length = len(path) - k
            for u in path[k:]:
                tail[u] = 0
                cycle_len[u] = length
                state[u] = 2
            for i in range(k - 1, -1, -1):
                u = path[i]
                tail[u] = k - i
                cycle_len[u] = length
                state[u] = 2
        else:
            base_tail = tail[v]
            length = cycle_len[v]
            for i in range(len(path) - 1, -1, -1):
                u = path[i]
                tail[u] = base_tail + (len(path) - i)
                cycle_len[u] = length
                state[u] = 2
    return tail, cycle_len


def residue_dynamics(phi: HomogMap, place: Place, cap: int = 10 ** 4) -> FunctionalGraph:
    """Full functional graph of the reduced map on P^1(k(pi)) by applying
    `ResidueMap.apply` to every point; requires p**deg(pi) + 1 <= cap."""
    if not place.is_finite:
        raise ValueError("residue dynamics requires a finite place")
    pi = place.pi
    q = phi.p ** pi.degree
    if q + 1 > cap:
        raise ValueError(f"residue field too large: {q + 1} points > cap {cap}")
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
    if phi.d < 2:
        raise ValueError("periodic-point search expects degree >= 2")
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
    pts = [P]
    cur = P
    for _ in range(n - 1):
        cur = phi.evaluate(cur)
        if cur == P:
            raise ValueError(f"{P} has period smaller than {n}")
        pts.append(cur)
    if phi.evaluate(cur) != P:
        raise ValueError(f"{P} is not periodic of period {n}")
    if len(set(pts)) != n:
        raise ValueError(f"{P} has period smaller than {n}")
    return pts


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
    """Multiplier of a length-m cycle of the reduced map: the chain rule of
    `HomogMap.multiplier` run on the reduced forms, with one division in
    k(pi) at the end.

    This is the reduction of the m-th iterate's derivative; computing it on
    the residue side keeps it well defined even when a global orbit point
    reduces to infinity, where a fixed global affine chart degenerates.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num, den = _chain_rule(red.f_coeffs, red.g_coeffs, ResiduePoint.from_elems, point, m,
                           ResidueElem.one(red.modulus), ResidueElem.zero(red.modulus))
    return num / den


def verify_mst(phi: HomogMap, P: ProjPoint, n: int, place: Place) -> MstDecomposition:
    """Match the minimal period of P against its residue data at a place of
    good reduction; see the module docstring for the three admissible cases.

    The period m is found by stepping the reduced point with the reduced map
    until it returns; good reduction carries the n-cycle onto a cycle whose
    length divides n, so at most n steps are taken.  The reduced multiplier
    is computed on the residue side (the multiplier of the reduced cycle),
    which equals the reduction of the m-th iterate's derivative at P
    whenever that reduction is defined.
    """
    if phi.d < 2:
        raise ValueError("the period decomposition applies to degree >= 2")
    if not place.is_finite:
        raise ValueError("a finite place is required")
    if not phi.has_good_reduction(place):
        raise ValueError(f"bad reduction at {place}")
    _orbit_cycle(phi, P, n)
    red = phi.reduce_map(place)
    reduced = reduce_point(P, place)
    cur = red.apply(reduced)
    m = 1
    while cur != reduced:
        if m == n:
            raise AssertionError(f"reduced point did not return within {n} steps")
        cur = red.apply(cur)
        m += 1
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


def check_prop_51(P1: ProjPoint, P2: ProjPoint, P3: ProjPoint, place: Place) -> bool:
    """d(P1,P3) >= min(d(P1,P2), d(P2,P3)) for pairwise distinct points."""
    if P1 == P2 or P2 == P3 or P1 == P3:
        raise ValueError("points must be pairwise distinct")
    return log_distance(P1, P3, place) >= min(
        log_distance(P1, P2, place), log_distance(P2, P3, place)
    )


def check_prop_52(phi: HomogMap, P: ProjPoint, Q: ProjPoint, place: Place) -> bool:
    """d(phi(P), phi(Q)) >= d(P, Q) at a finite place of good reduction."""
    if not place.is_finite:
        raise ValueError("a finite place is required")
    if not phi.has_good_reduction(place):
        raise ValueError(f"bad reduction at {place} violates the precondition")
    if P == Q:
        raise ValueError("points must be distinct")
    fP, fQ = phi.evaluate(P), phi.evaluate(Q)
    if fP == fQ:
        raise ValueError("image points coincide; the distance is undefined")
    return log_distance(fP, fQ, place) >= log_distance(P, Q, place)


def cross_product_support(points: Sequence[ProjPoint]) -> list[Place]:
    """All finite places dividing some pairwise cross product x_i*y_j - x_j*y_i.

    Outside this (finite, computed) support every pairwise logarithmic
    distance vanishes, which makes place-quantified equalities decidable.
    """
    out: set[Place] = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            cross = points[i].x * points[j].y - points[j].x * points[i].y
            if cross.is_zero():
                raise ValueError("points must be pairwise distinct")
            if not cross.is_constant():
                out.update(Place.finite(pi) for pi in factor(cross)[1])
    return sorted(out, key=Place.sort_key)


def check_prop_61(phi: HomogMap, P: ProjPoint, n: int) -> bool:
    """Shift invariance and the coprime-gap equality of cycle distances, at
    every finite place in the joint support of the cycle's cross products.

    Requires good reduction at every finite place; iterate indices are read
    modulo the period n.
    """
    if phi.bad_places():
        raise ValueError("good reduction at every finite place is required")
    pts = _orbit_cycle(phi, P, n)
    if n == 1:
        return True
    for place in cross_product_support(pts):
        dist = {}
        for i in range(n):
            for j in range(i + 1, n):
                dist[(i, j)] = log_distance(pts[i], pts[j], place)

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


def check_lemma_pab(phi: HomogMap, orbit: Sequence[ProjPoint], place: Place,
                    move_terminal_to_origin: bool = False) -> bool:
    """Tail-into-fixed-point distance laws at a finite place of good
    reduction.

    `orbit` lists consecutive iterates ending in a fixed point: the last
    entry T satisfies phi(T) = T and each entry maps to the next.  With
    ``move_terminal_to_origin`` the whole configuration is first conjugated
    by a unit-determinant matrix taking T to [0 : 1]; both paths agree.
    """
    if not place.is_finite:
        raise ValueError("a finite place is required")
    if not phi.has_good_reduction(place):
        raise ValueError(f"bad reduction at {place} violates the precondition")
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
    if move_terminal_to_origin:
        N = mobius_sending_to_origin(pts[-1])
        phi = phi.conjugate(N.inverse())
        pts = [N.apply(Q) for Q in pts]
    L = len(pts)
    terminal = pts[-1]

    def p_minus(j):  # P_{-j}
        return pts[L - 1 - j]

    for b in range(2, L):
        for a in range(1, b):
            if log_distance(p_minus(b), terminal, place) > \
               log_distance(p_minus(a), terminal, place):
                return False
            if log_distance(p_minus(b), p_minus(a), place) != \
               log_distance(p_minus(b), terminal, place):
                return False
    return True


def check_lemma_equal_distances(points: Sequence[ProjPoint], p: int) -> tuple[bool, bool]:
    """Equal-pairwise-distance hypothesis and the p**2 cardinality bound.

    Returns ``(hypothesis, bound_ok)``: `hypothesis` holds iff every pair of
    the given points is at the distance of the first pair at every finite
    place (checked on the computed joint support; elsewhere all distances
    vanish), and `bound_ok` is the implication hypothesis => len <= p**2.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    if any(q.p != p for q in pts):
        raise ValueError("points must live over F_p(t) for the given p")
    if len(pts) < 2:
        return True, True
    hypothesis = True
    for place in cross_product_support(pts):
        base = log_distance(pts[0], pts[1], place)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if log_distance(pts[i], pts[j], place) != base:
                    hypothesis = False
                    break
            if not hypothesis:
                break
        if not hypothesis:
            break
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

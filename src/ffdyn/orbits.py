"""Orbits over F_p(t) and over residue fields, and executable checkers.

`iterate_orbit` walks a point forward with exact equality detection on
canonical coordinates, so the tail/cycle split of a finite orbit is exact.
Escape is one predicate, `HomogMap.proved_escaping` (its certificates are
derived in the `dynamics` module docstring), asked of the start point and
of every orbit point, so `HEIGHT_ESCAPE` proves the orbit infinite at
every degree; a monic-family start point usually needs no evaluation.
Every orbit ends closed or escaping, so there is no step budget (the
reason is in the `iterate_orbit` docstring).  `finite_orbits` is the one
scan of a box of start points: the bound and property campaigns and
`find_periodic_points` all read its closed orbits.
`residue_dynamics` builds the full functional graph of the reduced map on
P^1(k(pi)) by applying `ResidueMap.apply` to every point; `verify_mst`
reads the reduced period and multiplier off one pass over the global
cycle, as derived below.

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
  of the earlier point to the fixed point, at every finite place; read for
  phi^c off every c-th point of the phi-orbit, so no map is composed.
* ``check_lemma_equal_distances``: a family of points pairwise at one
  common distance at every finite place cannot be larger than p**2
  (for the base field with one exceptional place).
* ``verify_mst``: the minimal period n factors against the residue data as
  n = m, n = m*r, or n = p^e*m*r, where m is the period of the reduced
  point and r the multiplicative order of the reduced cycle multiplier
  (r = infinity when the reduced multiplier vanishes, which forces n = m).
  Past n = m the last two cases are one p-adic strip: m*r must divide n,
  and stripping every factor p from q = n/(m*r) must leave 1; e = 0 is
  n = m*r, e >= 1 is n = p^e*m*r.

The reduced multiplier without charts.  Let Phi = (F, G) be the normalized
model of degree d and s = (F_X*G - F*G_X)/Y, a form of degree 2d - 2
(`dynamics._multiplier_form`): Euler's identity X*F_X + Y*F_Y = d*F gives
d*(F_X*G - F*G_X) = Y*(F_X*G_Y - F_Y*G_X), and in every characteristic the
X^(2d-1) coefficient d*f_0*g_0 - f_0*d*g_0 of F_X*G - F*G_X vanishes, so Y
divides it.  In the chart Y = 1 the derivative of x -> F/G at a point
u = (x, y) with y != 0 is y^2*s(u)/G(u)^2, homogeneous of degree 0 in u.
Along the canonical cycle u_0, ..., u_(n-1) of P write Phi(u_k) =
c_k*u_(k+1) (indices mod n), with c_k in F_p[t]; c_k divides the
resultant, so it is a unit mod every good pi.  At a good place pi the
reduced cycle has length m and u_m = zeta*u_0 mod pi for some zeta in
k(pi)* (zeta = 1 when m = n).  The chain rule over the reduced cycle
telescopes the y^2 factors:

    lambda-bar = prod_(k<m) y_k^2*s(u_k)/(c_k*y_(k+1))^2
               = S_m/(C_m^2*zeta^2),   S_m = prod_(k<m) s(u_k),
                                       C_m = prod_(k<m) c_k,

all read mod pi.  The right side names no chart, so it holds also when
some u_k reduces to infinity: s is the Jacobian determinant over d, so
for det A = 1 the map A^(-1)*Phi*A has s(A*v) for its own s(v) (over Q,
hence as an identity over Z), while the c_k and zeta stay the same; an A
over an extension of k(pi) that moves the reduced cycle off infinity
reduces the claim to the chart Y = 1.  S and C do not depend on pi: they
are computed once per cycle over F_p[t], and each place costs a few
remainders, one division in k(pi) and the order of lambda-bar, which
vanishes exactly when pi | S_m.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from .algebra import FpPoly, ResidueElem, factor, mult_order
from .dynamics import HomogMap, ResidueMap, _chain_rule, _eval_pair, _multiplier_form
from .funcfield import Place
from .geometry import (
    ProjPoint,
    ResiduePoint,
    all_residue_points,
    distance_poly,
    enumerate_points,
    log_distance,
)

__all__ = [
    "OrbitStatus",
    "OrbitReport",
    "FunctionalGraph",
    "MstDecomposition",
    "iterate_orbit",
    "residue_dynamics",
    "residue_cycle_multiplier",
    "finite_orbits",
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


def finite_orbits(phi: HomogMap, points: Sequence[ProjPoint]) -> list[OrbitReport]:
    """The one box scan: `iterate_orbit` from every start in `points`, and
    the reports of the orbits that close, in order.  Every other orbit is
    proved escaping."""
    reports = (iterate_orbit(phi, P) for P in points)
    return [rep for rep in reports if rep.status is OrbitStatus.FINITE_ORBIT]


def find_periodic_points(phi: HomogMap, height_bound: int) -> list[tuple[ProjPoint, int]]:
    """Every point of height <= height_bound whose orbit returns to the
    start, with the exact minimal period.

    Every orbit ends closed or proved escaping, and a periodic orbit is
    never proved escaping, so no periodic point of the box is missed.
    """
    return [(rep.start, rep.cycle)
            for rep in finite_orbits(phi, enumerate_points(phi.p, height_bound))
            if rep.tail == 0]


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
    `verify_mst` reads the same value off its per-cycle products (module
    docstring), so this chart-by-chart walk is the reference that tests
    compare against, kept here because the benchmark tracer patches it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num, den = _chain_rule(red.f_coeffs, red.g_coeffs, point.x, point.y, m,
                           ResidueElem.one(red.modulus), ResidueElem.zero(red.modulus))
    return num / den


@lru_cache(maxsize=1)
def _cycle_data(phi: HomogMap, P: ProjPoint, n: int):
    """The place-free data of the n-cycle of P, over F_p[t]: the cycle
    u_0 = P, ..., u_(n-1), the cross products D_k = D(P, u_k) (D_0 unused)
    and the prefix products S_k = prod_(j<k) s(u_j) and C_k = prod_(j<k) c_j
    for k = 0..n, where Phi(u_j) = c_j*u_(j+1) (module docstring).

    One entry is kept: callers check every place of one cycle in a row.
    A wrong n raises from `_orbit_cycle` and is not cached.
    """
    pts = _orbit_cycle(phi, P, n)
    one, zero = FpPoly.one(phi.p), FpPoly.zero(phi.p)
    s_form = _multiplier_form(phi.nf, phi.ng)
    no_form = [zero] * len(s_form)  # s is evaluated alone
    S, C = [one], [one]
    for j, u in enumerate(pts):
        fval, gval = _eval_pair(phi.nf, phi.ng, u.x, u.y, one, zero)
        nxt = pts[(j + 1) % n]
        c = gval.exact_div(nxt.y) if nxt.y else fval  # nxt = [1 : 0] when y = 0
        S.append(S[-1] * _eval_pair(s_form, no_form, u.x, u.y, one, zero)[0])
        C.append(C[-1] * c)
    cross = (None, *(distance_poly(P, u) for u in pts[1:]))
    return tuple(pts), cross, tuple(S), tuple(C)  # shared by every hit: immutable


def _reduced_cycle(phi: HomogMap, P: ProjPoint, n: int, pi: FpPoly) -> tuple[int, ResidueElem]:
    """The period m and the multiplier lambda-bar of the reduced cycle of P
    at a good place pi, read off `_cycle_data` (see `verify_mst`)."""
    pts, cross, S, C = _cycle_data(phi, P, n)
    m = next((k for k in range(1, n) if _divides(pi, cross[k])), n)
    lam_bar = ResidueElem(pi, S[m])
    if lam_bar.is_zero():
        return m, lam_bar
    scale = ResidueElem(pi, C[m])
    if m < n:  # divide by zeta^2 = (a_m/a_0)^2
        a0, am = (P.x, pts[m].x) if _divides(pi, P.y) else (P.y, pts[m].y)
        lam_bar, scale = lam_bar * ResidueElem(pi, a0 * a0), scale * ResidueElem(pi, am)
    return m, lam_bar / (scale * scale)


def verify_mst(phi: HomogMap, P: ProjPoint, n: int, place: Place) -> MstDecomposition:
    """Match the minimal period of P against its residue data at a place of
    good reduction; see the module docstring for the three admissible cases.

    Good reduction carries the n-cycle of P onto a cycle of the reduced map
    whose length m divides n, and two canonical points reduce to the same
    point exactly when pi divides their cross product.  So m is the first
    k in 1..n-1 with pi | D_k = D(P, phi^k(P)), or n when there is none.
    The reduced multiplier is lambda-bar = S_m/(C_m^2*zeta^2) in k(pi),
    from the module docstring: Euler's identity makes s = (F_X*G - F*G_X)/Y
    a form, Phi(u_k) = c_k*u_(k+1) along the cycle, and u_m = zeta*u_0 mod
    pi, so zeta = a_m/a_0 for a coordinate a of u_0 that pi does not divide
    (zeta = 1 at m = n).  S, C and the D_k come once per cycle from
    `_cycle_data`, and `_reduced_cycle` reads m and lambda-bar off them;
    lambda-bar = 0, so r = infinity, exactly when pi | S_m.
    """
    if phi.d < 2:
        raise ValueError("the period decomposition applies to degree >= 2")
    if not place.is_finite:
        raise ValueError("a finite place is required")
    if not phi.has_good_reduction(place):
        raise ValueError(f"bad reduction at {place}")
    m, lam_bar = _reduced_cycle(phi, P, n, place.pi)
    r = None if lam_bar.is_zero() else mult_order(lam_bar)
    if n == m:
        return MstDecomposition(place, n, m, r, None, "i")
    if r is not None:
        # one p-adic strip of q = n/(m*r): q = 1 is case (ii), q = p^e case (iii)
        q, rem = divmod(n, m * r)
        e = 0
        while rem == 0 and q % phi.p == 0:
            q, e = q // phi.p, e + 1
        if rem == 0 and q == 1:
            return MstDecomposition(place, n, m, r, e or None, "iii" if e else "ii")
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
    if not phi.resultant().is_constant():
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
    if not phi.resultant().is_constant():
        raise ValueError("good reduction at every finite place is required")
    pts = _orbit_cycle(phi, P, n)
    if n == 1:
        return True
    dist = {(i, j): distance_poly(pts[i], pts[j])
            for i in range(n) for j in range(i + 1, n)}
    # invariance under the shift by one gives every shift by induction
    base = dist[(0, 1)]
    for (i, j), D in dist.items():
        if dist[(i + 1, j + 1) if j + 1 < n else (0, i + 1)] != D:
            return False
        if gcd(j - i, n) == 1 and D != base:
            return False
    return True


def check_lemma_pab(phi: HomogMap, P: ProjPoint) -> bool:
    """Tail-into-fixed-point distance laws at every finite place, for a map
    with good reduction everywhere: D(P_-b, T) | D(P_-a, T) and
    D(P_-b, P_-a) = D(P_-b, T) for 1 <= a < b.

    The chain is the psi-orbit of a strictly preperiodic P for psi = phi^c,
    c its cycle length: every c-th point of the phi-orbit, ending at a cycle
    point T that psi fixes; psi has good reduction since phi does.  Moving
    coordinates by a degree-1 map with a unit resultant (say T to [0 : 1])
    multiplies every cross product by a unit, so the monic D's stay the same.
    """
    if not phi.resultant().is_constant():
        raise ValueError("good reduction at every finite place is required")
    rep = iterate_orbit(phi, P)
    if rep.status is not OrbitStatus.FINITE_ORBIT or rep.tail == 0:
        raise ValueError(f"{P} is not strictly preperiodic")
    pts = rep.points[::rep.cycle][::-1]  # pts[j] is P_{-j}, pts[0] the fixed point T
    to_terminal = [None] + [distance_poly(Q, pts[0]) for Q in pts[1:]]
    for b in range(2, len(pts)):
        for a in range(1, b):
            if not _divides(to_terminal[b], to_terminal[a]):
                return False
            if distance_poly(pts[b], pts[a]) != to_terminal[b]:
                return False
    return True


def check_lemma_equal_distances(points: Sequence[ProjPoint]) -> tuple[bool, bool]:
    """Equal-pairwise-distance hypothesis and the p**2 cardinality bound.

    Returns ``(hypothesis, bound_ok)``: `hypothesis` holds iff every pair of
    the given points is at the distance of the first pair at every finite
    place, i.e. every pairwise cross product equals the first, and
    `bound_ok` is the implication hypothesis => len <= p**2, with p read
    off the points: once the hypothesis holds every pair has been compared,
    so `distance_poly` has raised on points over different primes.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    if len(pts) < 2:
        return True, True
    base = distance_poly(pts[0], pts[1])
    hypothesis = all(distance_poly(pts[i], pts[j]) == base
                     for i in range(len(pts)) for j in range(i + 1, len(pts)))
    bound_ok = (not hypothesis) or len(pts) <= pts[0].p ** 2
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

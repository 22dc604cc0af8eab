"""Reference computations that only the tests use.

`multiplier` is the global chain-rule multiplier over F_p(t), the reference
for the residue-side `orbits.residue_cycle_multiplier`; `log_distance_raw`
applies the defining formula of the logarithmic distance, min-terms
included, to arbitrary (non-normalized) coordinates, the reference for
`geometry.log_distance` on canonical points.  `poly_valuation_stepwise`
divides by pi once per unit of multiplicity, the reference for
`funcfield.poly_valuation`.  `functional_graph_by_walks` walks every node
of a functional graph on its own until a node repeats, the reference for
`orbits._analyze_functional_graph`.  `orbit_with_height_cap` is the orbit
walk with a plain height cap in place of the escape certificate, the
reference for `orbits.iterate_orbit`; `mobius_order` finds the order of a
degree-1 map by composing its powers, the reference for the degree-1
certificate of `HomogMap.proved_escaping`.  `sylvester_det` is the
Bareiss determinant (`_bareiss_det`) of an explicitly built Sylvester
matrix, the reference for the fraction-free Euclid of
`dynamics.sylvester_resultant`, which every `HomogMap.resultant` runs.

The function-field helpers below are checked by the tests but run by no
command or campaign: S-integers and S-units for an exceptional set S
(default S = {infinity}, for which the S-integers are F_p[t] and the
S-units F_p*), the product formula, reduction of a rational function into
a residue field, and `normalize` of arbitrary rational coordinates.
"""

from typing import Iterable, Optional

from ffdyn.algebra import FpPoly, ResidueElem, factor
from ffdyn.dynamics import HomogMap, _chain_rule, compose_maps
from ffdyn.funcfield import INFINITE_VALUATION, Place, RatFunc, valuation
from ffdyn.geometry import ProjPoint
from ffdyn.orbits import OrbitReport, OrbitStatus


def multiplier(phi: HomogMap, P: ProjPoint, n: int) -> RatFunc:
    """Chain-rule derivative of the n-th iterate of phi along the orbit of P.

    Each orbit point is read in its own affine chart (the standard one, or
    1/x at the point at infinity), so the product is always defined; for P
    periodic of period dividing n this is the cycle multiplier.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return RatFunc(*_chain_rule(phi.nf, phi.ng, P.x, P.y, n,
                                FpPoly.one(phi.p), FpPoly.zero(phi.p)))


def log_distance_raw(x1: RatFunc, y1: RatFunc, x2: RatFunc, y2: RatFunc,
                     place: Place) -> int:
    """Logarithmic distance from arbitrary homogeneous coordinates.

    Accepts non-normalized rational-function coordinates and applies the
    defining formula with its min-terms; the result agrees with
    `log_distance` on the corresponding canonical points.
    """
    cross = x1 * y2 - x2 * y1
    if cross.is_zero():
        raise ValueError("coordinates describe equal (or degenerate) points")
    m1 = min(valuation(x1, place), valuation(y1, place))
    m2 = min(valuation(x2, place), valuation(y2, place))
    if m1 is INFINITE_VALUATION or m2 is INFINITE_VALUATION:
        raise ValueError("(0, 0) is not a projective point")
    return valuation(cross, place) - m1 - m2


def functional_graph_by_walks(image: list[int]) -> tuple[list[int], list[int]]:
    """Tail length and eventual cycle length of every node, one independent
    walk per node (quadratic in the worst case)."""
    tail, cycle_len = [], []
    for v in range(len(image)):
        seen = {}
        while v not in seen:
            seen[v] = len(seen)
            v = image[v]
        tail.append(seen[v])
        cycle_len.append(len(seen) - seen[v])
    return tail, cycle_len


def orbit_with_height_cap(phi: HomogMap, P: ProjPoint, max_height: int) -> OrbitReport:
    """Iterate until the orbit revisits a point or passes `max_height`.

    A ``HEIGHT_ESCAPE`` report here proves nothing: an orbit may pass the
    cap and still close.  The start point is not tested against the cap.
    """
    seen = {P: 0}
    pts = [P]
    cur = P
    while True:
        nxt = phi.evaluate(cur)
        hit = seen.get(nxt)
        if hit is not None:
            return OrbitReport(P, OrbitStatus.FINITE_ORBIT, tuple(pts),
                               tail=hit, cycle=len(pts) - hit)
        if nxt.height > max_height:
            return OrbitReport(P, OrbitStatus.HEIGHT_ESCAPE, tuple(pts))
        seen[nxt] = len(pts)
        pts.append(nxt)
        cur = nxt


def mobius_order(M: HomogMap) -> Optional[int]:
    """The least k < p^2 with M^k the identity in PGL_2(F_p(t)), or None.

    A finite order divides p or p^2 - 1, so None means infinite order."""
    if M.d != 1:
        raise ValueError("a degree-1 map is required")
    identity = HomogMap([1, 0], [0, 1], p=M.p)
    power = M
    for k in range(1, M.p * M.p):
        if power == identity:
            return k
        power = compose_maps(M, power)
    return None


def _bareiss_det(M: list[list[FpPoly]], p: int) -> FpPoly:
    """Exact determinant over F_p[t] by fraction-free elimination."""
    n = len(M)
    if n == 0:
        return FpPoly.one(p)
    sign = 1
    prev = FpPoly.one(p)
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if not M[i][k].is_zero()), None)
        if pivot_row is None:
            return FpPoly.zero(p)
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        pivot = M[k][k]
        for i in range(k + 1, n):
            row_i = M[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * M[k][j]).exact_div(prev)
            row_i[k] = FpPoly.zero(p)
        prev = pivot
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_det(f: list[FpPoly], g: list[FpPoly]) -> FpPoly:
    """Resultant of two forms (descending coefficients, degrees m and n) as
    the determinant of their (m+n) x (m+n) Sylvester matrix, whatever their
    shape."""
    p, m, n = f[0].p, len(f) - 1, len(g) - 1
    zero = FpPoly.zero(p)
    rows = [[zero] * r + list(f) + [zero] * (n - 1 - r) for r in range(n)]
    rows += [[zero] * r + list(g) + [zero] * (m - 1 - r) for r in range(m)]
    return _bareiss_det(rows, p)


def poly_valuation_stepwise(f: FpPoly, place: Place):
    """Multiplicity of pi in f by one exact division per power of pi
    (INFINITE_VALUATION for 0, -deg(f) at infinity)."""
    if f.is_zero():
        return INFINITE_VALUATION
    if not place.is_finite:
        return -f.degree
    pi = place.pi
    if f.degree < pi.degree:
        return 0
    count = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return count
        count += 1
        f = q
        if f.is_constant():
            return count


def standard_S(p: int) -> frozenset[Place]:
    """The package's standard exceptional set S = {infinity}."""
    return frozenset((Place.infinity(p),))


def product_formula_check(x: RatFunc) -> bool:
    """Sum over all places of deg(place) * v(x) vanishes for x != 0."""
    if x.is_zero():
        raise ValueError("the product formula applies to nonzero elements")
    total = x.den.degree - x.num.degree  # contribution of infinity
    for part in (x.num, x.den):
        sign = 1 if part is x.num else -1
        _, factors = factor(part)
        for pi, m in factors.items():
            total += sign * m * pi.degree
    return total == 0


def _support_places(x: RatFunc) -> tuple[set[Place], set[Place]]:
    """Finite places dividing the numerator resp. the denominator."""
    num_support = set()
    den_support = set()
    if not x.num.is_constant():
        num_support = {Place.finite(pi) for pi in factor(x.num)[1]}
    if not x.den.is_constant():
        den_support = {Place.finite(pi) for pi in factor(x.den)[1]}
    return num_support, den_support


def is_S_integer(x: RatFunc, S: Optional[Iterable[Place]] = None) -> bool:
    """True iff v(x) >= 0 at every place outside S (default S = {infinity})."""
    if x.is_zero():
        return True
    S = standard_S(x.p) if S is None else frozenset(S)
    _, den_support = _support_places(x)
    if not den_support <= S:
        return False
    inf = Place.infinity(x.p)
    if inf not in S and valuation(x, inf) < 0:
        return False
    return True


def is_S_unit(x: RatFunc, S: Optional[Iterable[Place]] = None) -> bool:
    """True iff v(x) = 0 at every place outside S (default S = {infinity})."""
    if x.is_zero():
        return False
    S = standard_S(x.p) if S is None else frozenset(S)
    num_support, den_support = _support_places(x)
    if not (num_support | den_support) <= S:
        return False
    inf = Place.infinity(x.p)
    if inf not in S and valuation(x, inf) != 0:
        return False
    return True


def reduce_mod(x: RatFunc, place: Place) -> ResidueElem:
    """Image of a place-integral rational function in the residue field k(pi)."""
    if not place.is_finite:
        raise ValueError("reduction is defined at finite places only")
    pi = place.pi
    den_bar = ResidueElem(pi, x.den % pi)
    if den_bar.is_zero():
        raise ValueError(f"{x} has a pole at {place}, cannot reduce")
    num_bar = ResidueElem(pi, x.num % pi)
    return num_bar / den_bar


def normalize(a: RatFunc, b: RatFunc) -> ProjPoint:
    """Canonical point [a : b] from arbitrary rational-function coordinates."""
    if a.is_zero() and b.is_zero():
        raise ValueError("(0, 0) is not a projective point")
    return ProjPoint.from_coords(a.num * b.den, b.num * a.den)

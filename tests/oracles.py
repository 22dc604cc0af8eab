"""Reference computations that only the tests use.

`_chain_rule` differentiates an iterate point by point, each point in its
own affine chart.  It runs over F_p[t] in `multiplier`, the global
chain-rule multiplier over F_p(t), and over k(pi) in
`residue_chain_rule_multiplier`: the references for the one product
formula S_m/C_m^2 of `orbits.residue_cycle_multiplier` and
`orbits.verify_mst`, which names no chart.  `log_distance_raw`
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
matrix, the reference for the subresultant remainder sequence of
`dynamics.sylvester_resultant`, which every `HomogMap.resultant` runs.
`field_gcd_by_primitive_remainders` is Euclid on pseudo-remainders made
`primitive` at every step, the reference for `dynamics._field_gcd`, which
reads the last subresultant instead.  `reduce_map_by_kx_euclid` reduces a
map mod pi and cancels the common factor by Euclid with monic remainders on
ascending `ResidueElem` lists (`_kx_trim`, `_kx_divmod`, `_kx_gcd`), the
reference for `HomogMap.reduce_map`, which runs the same subresultant
sequence over k(pi) on descending lists.  `pow_mod_by_objects` and
`xgcd_by_objects` are square-and-multiply and the extended Euclid with every
intermediate an `FpPoly` and every product and remainder taken by its
operators, the references for `algebra.pow_mod` and `FpPoly.xgcd`, which run
the same loops on coefficient tuples.  `eval_pair_by_objects` evaluates a
pair of forms with every power, product and sum an `FpPoly` or
`ResidueElem`, the reference for `dynamics._eval_pair`, which runs the same
loop on coefficient tuples; `_chain_rule` evaluates with it.
`mul_tuples_schoolbook` multiplies coefficient tuples by the schoolbook
loop alone, the reference for the byte-slot Kronecker products of
`algebra._mul_tuples`.  `primitive_by_objects` divides by a gcd folded with
`FpPoly.gcd` and scales every entry as an `FpPoly`
(`monic_first_by_objects`), the reference for `algebra.primitive`, which
runs the one normal-form kernel `_primitive_tuples` on coefficient tuples.

The function-field helpers below are checked by the tests but run by no
command or campaign: S-integers and S-units for an exceptional set S
(default S = {infinity}, for which the S-integers are F_p[t] and the
S-units F_p*), the product formula, reduction of a rational function into
a residue field, and `normalize` of arbitrary rational coordinates.
"""

from typing import Iterable, Optional

from ffdyn.algebra import FpPoly, ResidueElem, factor, primitive
from ffdyn.dynamics import HomogMap, ResidueMap, _form_dx, compose_maps
from ffdyn.funcfield import INFINITE_VALUATION, Place, RatFunc, valuation
from ffdyn.geometry import ProjPoint, ResiduePoint
from ffdyn.orbits import OrbitReport, OrbitStatus


def pow_mod_by_objects(base: FpPoly, e: int, modulus: FpPoly) -> FpPoly:
    """base**e reduced modulo `modulus`."""
    result = FpPoly.one(base.p)
    base = base % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def xgcd_by_objects(self: FpPoly, other: FpPoly):
    """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
    p = self.p
    a, b = self, self._coerce(other)
    u0, v0 = FpPoly.one(p), FpPoly.zero(p)
    u1, v1 = FpPoly.zero(p), FpPoly.one(p)
    while b.coeffs:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    a, u0, v0 = monic_first_by_objects((a, u0, v0))
    return a, u0, v0


def monic_first_by_objects(polys):
    """Scale a sequence by the inverse of the leading coefficient of its
    first nonzero entry; the input itself when that coefficient is 1."""
    for f in polys:
        if f.coeffs:
            lead = f.coeffs[-1]
            break
    else:
        return polys
    if lead == 1:
        return polys
    p = f.p
    inv = pow(lead, p - 2, p)
    return [FpPoly._make(p, tuple((c * inv) % p for c in g.coeffs)) for g in polys]


def primitive_by_objects(polys):
    """The normal form of a nonzero sequence of polynomials up to a common
    factor in F_p(t)*: divide by the gcd of all entries, then scale so the
    first nonzero entry is monic.  Returns a list, or `polys` itself when it
    is in this form."""
    g = polys[0]
    for i in range(1, len(polys)):
        g = g.gcd(polys[i])
    if not g.coeffs:
        raise ValueError("(0, 0) is not a projective point")
    if g.coeffs != (1,):
        polys = [f.exact_div(g) for f in polys]
    return monic_first_by_objects(polys)


def eval_pair_by_objects(fc, gc, x, y):
    """(F(x, y), G(x, y)) for two forms of one degree d over F_p[t] or k(pi),
    by the kernel loop; a form of degree 0 evaluates to its coefficient."""
    d = len(fc) - 1
    if d == 0:
        return fc[0], gc[0]
    xs, ys = [None, x], [None, y]  # x^0, y^0 are never read
    for _ in range(d - 1):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    fval = gval = x - x
    for i, (a, b) in enumerate(zip(fc, gc)):
        a_zero, b_zero = a.is_zero(), b.is_zero()
        if a_zero and b_zero:
            continue
        mono = xs[d] if i == 0 else ys[d] if i == d else xs[d - i] * ys[i]
        if not a_zero:
            fval = fval + a * mono
        if not b_zero:
            gval = gval + b * mono
    return fval, gval


def mul_tuples_schoolbook(p: int, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    la, lb = len(a), len(b)
    if la == 1:
        c = a[0]
        return tuple((c * x) % p for x in b)
    if lb == 1:
        c = b[0]
        return tuple((c * x) % p for x in a)
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(c % p for c in out)


def _chain_rule(fc, gc, x, y, n, one):
    """Derivative of the n-th iterate of [F : G] along the orbit of (x, y),
    as a (numerator, denominator) pair.

    Each orbit point is read in its own chart, so the product is always
    defined: chart coordinates (u, w) are (x, y), or (y, x) with reversed
    coefficients when y = 0, and N, D swap when the image has y = 0.  A step
    contributes w*(N_X*D - N*D_X)/D^2, which holds when p divides the degree
    (no Euler identity, no division by d) and is homogeneous of degree 0 in
    (u, w), so the orbit follows the raw pairs (F(x, y), G(x, y)).
    """
    num = den = one
    for _ in range(n):
        n_val, d_val = eval_pair_by_objects(fc, gc, x, y)
        if y.is_zero():
            N, D, u, w = fc[::-1], gc[::-1], y, x
        else:
            N, D, u, w = fc, gc, x, y
        x, y = n_val, d_val
        if d_val.is_zero():
            N, D, n_val, d_val = D, N, d_val, n_val
        nx_val, dx_val = eval_pair_by_objects(_form_dx(N), _form_dx(D), u, w)
        if d_val.is_zero():
            raise AssertionError("chart choice prevents poles")
        num = num * w * (nx_val * d_val - n_val * dx_val)
        den = den * d_val * d_val
    return num, den


def multiplier(phi: HomogMap, P: ProjPoint, n: int) -> RatFunc:
    """Chain-rule derivative of the n-th iterate of phi along the orbit of P.

    Each orbit point is read in its own affine chart (the standard one, or
    1/x at the point at infinity), so the product is always defined; for P
    periodic of period dividing n this is the cycle multiplier.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return RatFunc(*_chain_rule(phi.nf, phi.ng, P.x, P.y, n, FpPoly.one(phi.p)))


def residue_chain_rule_multiplier(red: ResidueMap, point: ResiduePoint, m: int) -> ResidueElem:
    """Multiplier of a length-m cycle of the reduced map: `_chain_rule` run
    on the reduced forms from the raw coordinates of the point, with one
    division in k(pi) at the end."""
    if m < 1:
        raise ValueError("m must be >= 1")
    num, den = _chain_rule(red.f_coeffs, red.g_coeffs, point.x, point.y, m,
                           ResidueElem.one(red.modulus))
    return num / den


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


def _pseudo_rem_scaled_where_needed(f: list, g) -> list:
    """R with g0^k * F = Q*G + R, R of formal degree n - 1 (all of F when
    m < n), for descending coefficient lists over F_p[t] of formal degrees
    m, n with g0 = g[0] != 0, scaling by g0 only at the steps that need it.
    Overwrites f."""
    m, n = len(f) - 1, len(g) - 1
    g0 = g[0]
    for i in range(m - n + 1):
        c = f[i]
        if c and not g0.is_one():
            f[i + 1:] = [a * g0 for a in f[i + 1:]]
        for j in range(1, n + 1):
            f[i + j] = f[i + j] - c * g[j]
    return f[max(m - n + 1, 0):]


def _lead_trim(cs) -> list:
    return list(cs[next((i for i, c in enumerate(cs) if c), len(cs)):])


def field_gcd_by_primitive_remainders(a, b) -> list:
    """A gcd over F_p(t) of two polynomials given by descending coefficient
    lists over F_p[t], by Euclid on pseudo-remainders made `primitive`:
    primitive with no leading zeros, or [] when both are zero."""
    a, b = _lead_trim(a), _lead_trim(b)
    while b:
        b = primitive(b)
        a, b = b, _lead_trim(_pseudo_rem_scaled_where_needed(a, b))
    return primitive(a) if a else a


def _kx_trim(cs: list) -> list:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _kx_divmod(a: list, b: list):
    """Quotient and trimmed remainder of a by b in k(pi)[x], for ascending
    `ResidueElem` coefficient lists; b is trimmed."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial over a field")
    rem = list(a)
    if len(a) < len(b):
        return [], _kx_trim(rem)
    inv = None if b[-1].is_one() else b[-1].inverse()
    quo = [None] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if not c.is_zero():
            if inv is not None:
                c = c * inv
            for j in range(len(b) - 1):
                rem[k + j] = rem[k + j] - c * b[j]
        quo[k] = c
    return quo, _kx_trim(rem[: len(b) - 1])


def _kx_gcd(a: list, b: list) -> list:
    """Monic gcd in k(pi)[x] of two trimmed ascending coefficient lists."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _kx_divmod(a, b)[1]
    if a and not a[-1].is_one():
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def reduce_map_by_kx_euclid(phi: HomogMap, place: Place) -> ResidueMap:
    """The reduction of phi mod pi with the monic gcd h of the two reduced
    forms (read as polynomials in x = X/Y, ascending) cancelled."""
    pi = place.pi
    f = _kx_trim([ResidueElem(pi, c) for c in reversed(phi.nf)])
    g = _kx_trim([ResidueElem(pi, c) for c in reversed(phi.ng)])
    # when one form vanishes mod pi, h is the other one made monic
    h = _kx_gcd(f, g)
    if len(h) > 1:
        f, g = _kx_divmod(f, h)[0], _kx_divmod(g, h)[0]
    d_red = max(len(f), len(g)) - 1
    zero = ResidueElem.zero(pi)
    # c*x^j lands at descending index d_red - j: pad on the X-high side
    return ResidueMap(pi, phi.d, [zero] * (d_red + 1 - len(f)) + f[::-1],
                      [zero] * (d_red + 1 - len(g)) + g[::-1])


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

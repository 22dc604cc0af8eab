"""Endomorphisms of P^1 over F_p(t) as coprime pairs of binary forms.

A :class:`HomogMap` is given the d+1 coefficients of two degree-d forms
F, G (X-degree descending) with coefficients in F_p(t) and keeps only their
*normalized model*: the same coefficients cleared to F_p[t] and put in the
normal form `algebra.primitive` (divided by their joint gcd, the first
nonzero coefficient in scan order, F first, then G, made monic); its JSON
form prints this model.  The homogeneous resultant of the normalized model
is fixed at construction, and a zero resultant (forms sharing a factor) is
rejected on every path.  Every map, conjugates and composites included,
computes it from its own model through `sylvester_resultant`: fraction-free
Euclid over F_p[t] (pseudo-remainders divided by their content); for
G = c*Y^d (every polynomial map and its iterates) it is F[0]^d * c^d after
one step.

Good reduction at a finite place pi means the resultant is a pi-unit,
equivalently that reducing the normalized model mod pi and cancelling any
common factor leaves a map of the same degree; both criteria are exposed
and tested against each other.

One binary-form kernel (`_form_mul`, `_substitute`, `_eval_pair`,
`_form_dx`, `_chain_rule`, `_form_str`) is the one place where forms are
multiplied, substituted, evaluated, differentiated and printed.
Conjugation and composition substitute into the normalized model, so they
stay in F_p[t]; cycle multipliers run the one chain rule.

Evaluation maps canonical points to canonical points.  When the resultant
is a unit of F_p[t] the image coordinates of a coprime pair are
automatically coprime, so evaluation skips the gcd step entirely; this is
what makes large search campaigns cheap.

Every map of degree d >= 2 also carries a certified *escape height*.  Let
h be the largest coefficient degree of the normalized model.  The
resultant identity A*F + B*G = Res*X^(2d-1) (and its Y counterpart) has
cofactor coefficients of degree at most (2d-1)*h, and the gcd of F(P) and
G(P) divides Res, so every point satisfies

    h(phi(P)) >= d*h(P) - (2d-1)*h,

with or without good reduction.  Above T = floor((2d-1)*h/(d-1)) heights
therefore rise strictly forever, so an orbit that passes T is infinite.

A map whose normalized model is a polynomial f with a unit leading
coefficient (F = c'*X^d + ..., G = c*Y^d with c, c' in F_p*) also carries a
*monic model* (R, M): the map is M^(-1) . f . M, with M a degree-1 map
whose resultant (its determinant, up to sign) is a unit of F_p[t], or None
for the identity, and R = max floor(deg a_i / (d - i)) over the nonzero
lower coefficients a_i of f (0 when there are none).  Good reduction with a
totally ramified fixed point is exactly this shape up to conjugation.  Let
(x, y) = M(P), coprime because the resultant of M is a unit.  If
deg y >= 1, f(x/y) has denominator y^d, coprime to its numerator, so the
denominator degree multiplies by d at every step; if y is a unit and
deg x > R, every a_i*x^i has degree below d*deg x, so deg f(x) = d*deg x.
Either way the orbit of P is infinite, which `HomogMap.proved_escaping`
decides without evaluating the map.  (The bound h/(d-1) in place of R
misses the a_(d-1) term: at p = 2, x^3 + (t^2+1)*x^2 + 1 has the 2-cycle
t^2+1 <-> 1.)

A map of degree 1 is a matrix M = [[a, b], [c, d]] with tr = a + d and
det = a*d - b*c != 0; it has no escape height but a closed-form
certificate.  Its eigenvalue ratio z satisfies z + 1/z + 2 = tr^2/det.
M has finite order in PGL_2(F_p(t)) iff tr^2/det lies in F_p: a root of
unity z is algebraic over F_p, and F_p is algebraically closed in F_p(t);
conversely z then lies in F_(p^2), so M is a scalar times a unipotent
(z = 1, order dividing p) or diagonalizes with the order of z (dividing
p^2 - 1), and every orbit closes within p^2 - 1 points.  If M has
infinite order, a finite orbit is a fixed point: M^k(P) = P with M^k not
the identity puts P in Fix(M^k), at most 2 points, permuted by M and
containing the nonempty Fix(M), so M fixes both.  So for d = 1 the orbit
of P is proved infinite iff M has infinite order and M(P) != P.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Sequence

from .algebra import FpPoly, ResidueElem, _check_prime, _monic_first, factor, parse_poly, primitive
from .funcfield import Place, RatFunc
from .geometry import ProjPoint, ResiduePoint

__all__ = [
    "HomogMap",
    "ResidueMap",
    "sylvester_resultant",
    "compose_maps",
    "iterate_map",
    "from_rational_function",
    "parse_affine_map",
    "parse_map",
    "map_to_json",
]


# ---------------------------------------------------------------------------
# univariate polynomials over a residue field k(pi): ascending lists
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def sylvester_resultant(f_coeffs: Sequence[FpPoly], g_coeffs: Sequence[FpPoly]) -> FpPoly:
    """Resultant of two binary forms over F_p[t] given by descending
    coefficient lists (a form of formal degree m has m+1 entries, zero
    entries included), the determinant of their Sylvester matrix, by
    fraction-free Euclid over F_p[t] on three rules, with f0, g0 the X^m,
    X^n coefficients:

    - Res(F, Y^z*G') = f0^z * Res(F, G'), and Res(F, c) = c^m;
    - if g0 != 0, the pseudo-remainder R in g0^k * F = Q*G + R keeps formal
      degree m, and Res_{m,n}(F, G) = (-1)^(mn) * Res_{n,m}(G, R) / g0^(k*n),
      where k <= max(m - n + 1, 0) counts the division steps scaled by g0;
    - Res_{n,m}(G, c*R') = c^n * Res_{n,m}(G, R'), which replaces each R by
      its normal form R' = `algebra.primitive`(R): c is the gcd of the
      coefficients of R (its content) times a unit.

    The scalar factors stay an F_p[t] numerator and denominator, divided
    once at the end.  For G = c*Y^n, every polynomial map, the first rule is
    all it takes."""
    if not f_coeffs or not g_coeffs:
        raise ValueError("forms need at least one coefficient")
    f, g = list(f_coeffs), list(g_coeffs)
    num = den = FpPoly.one(f[0].p)
    zero = FpPoly.zero(num.p)
    while True:
        m, n = len(f) - 1, len(g) - 1
        # G = Y^z * G' with g'0 != 0, or z = n when G = c*Y^n (c = 0 too)
        z = next((i for i, c in enumerate(g[:-1]) if c), n)
        if z:
            g, n, num = g[z:], n - z, num * f[0] ** z
        if n == 0:
            return (num * g[0] ** m).exact_div(den)
        g0, k = g[0], 0
        for i in range(m - n + 1):
            c = f[i]
            if c and not g0.is_one():  # scale by g0 only where a step needs it
                k += 1
                f[i + 1:] = [a * g0 for a in f[i + 1:]]
            for j in range(1, n + 1):
                f[i + j] = f[i + j] - c * g[j]
        den = den * g0 ** (k * n)
        r = f[max(m - n + 1, 0):]
        if not any(r):
            return zero
        # R = c * R' with R' = primitive(R), the third rule
        r_prim = primitive(r)
        if r_prim is not r:
            num = num * next(a.exact_div(b) for a, b in zip(r, r_prim) if b) ** n
        if m * n % 2:
            num = -num
        f, g = g, [zero] * (m + 1 - len(r)) + r_prim


# ---------------------------------------------------------------------------
# binary forms: X-degree descending coefficient lists over F_p[t] or k(pi)
# ---------------------------------------------------------------------------

def _form_mul(u, v) -> list[FpPoly]:
    """Product of two forms over F_p[t]."""
    out = [FpPoly.zero(u[0].p)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if not a.is_zero():
            for j, b in enumerate(v):
                out[i + j] = out[i + j] + a * b
    return out


def _substitute(F, U, V) -> list[FpPoly]:
    """F(U, V) for a form F and two forms U, V of one degree, over F_p[t]."""
    e = len(F) - 1
    one = [FpPoly.one(U[0].p)]
    u_pows, v_pows = [one], [one]
    for _ in range(e):
        u_pows.append(_form_mul(u_pows[-1], U))
        v_pows.append(_form_mul(v_pows[-1], V))
    out = [FpPoly.zero(U[0].p)] * ((len(U) - 1) * e + 1)
    for i, c in enumerate(F):
        if not c.is_zero():
            for j, w in enumerate(_form_mul(u_pows[e - i], v_pows[i])):
                out[j] = out[j] + c * w
    return out


def _eval_pair(fc, gc, x, y, one, zero):
    """(F(x, y), G(x, y)) for two forms of one degree; monomials whose F and
    G coefficients are both zero are skipped."""
    d = len(fc) - 1
    xs = [one, x]
    ys = [one, y]
    for _ in range(d - 1):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    fval = gval = zero
    for i in range(d + 1):
        a, b = fc[i], gc[i]
        a_zero, b_zero = a.is_zero(), b.is_zero()
        if a_zero and b_zero:
            continue
        mono = xs[d - i] * ys[i]
        if not a_zero:
            fval = fval + a * mono
        if not b_zero:
            gval = gval + b * mono
    return fval, gval


def _form_dx(form) -> list:
    """The X-partial of a degree-k form: coefficients (k - i)*c_i."""
    k = len(form) - 1
    return [c * (k - i) for i, c in enumerate(form[:-1])]


def _chain_rule(fc, gc, x, y, n, one, zero):
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
        n_val, d_val = _eval_pair(fc, gc, x, y, one, zero)
        if y.is_zero():
            N, D, u, w = fc[::-1], gc[::-1], y, x
        else:
            N, D, u, w = fc, gc, x, y
        x, y = n_val, d_val
        if d_val.is_zero():
            N, D, n_val, d_val = D, N, d_val, n_val
        nx_val, dx_val = _eval_pair(_form_dx(N), _form_dx(D), u, w, one, zero)
        if d_val.is_zero():
            raise AssertionError("chart choice prevents poles")
        num = num * w * (nx_val * d_val - n_val * dx_val)
        den = den * d_val * d_val
    return num, den


def _form_str(coeffs) -> str:
    """Print a binary form from its X-degree descending coefficients."""
    d = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        xpow = d - i
        mono = []
        if xpow:
            mono.append("X" if xpow == 1 else f"X^{xpow}")
        if i:
            mono.append("Y" if i == 1 else f"Y^{i}")
        head = "*".join(mono) if mono else "1"
        if not c.is_one() or not mono:
            head = f"({c})*{head}" if mono else f"({c})"
        parts.append(head)
    return " + ".join(parts) if parts else "0"


class ResidueMap:
    """Reduction of an endomorphism modulo a finite place.

    Coefficients of the normalized model are reduced into k(pi) and any
    common homogeneous factor of the two reduced forms is cancelled; the
    remaining degree `reduced_degree` equals the original degree exactly
    when the map has good reduction at the place.
    """

    __slots__ = ("modulus", "degree", "reduced_degree", "f_coeffs", "g_coeffs")

    def __init__(self, modulus: FpPoly, degree: int,
                 f_coeffs: Sequence[ResidueElem], g_coeffs: Sequence[ResidueElem]):
        self.modulus = modulus
        self.degree = degree
        self.reduced_degree = len(f_coeffs) - 1
        self.f_coeffs = tuple(f_coeffs)
        self.g_coeffs = tuple(g_coeffs)

    @property
    def good_reduction(self) -> bool:
        return self.reduced_degree == self.degree

    def apply(self, point: ResiduePoint) -> ResiduePoint:
        if point.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        fval, gval = _eval_pair(self.f_coeffs, self.g_coeffs, point.x, point.y,
                                ResidueElem.one(self.modulus), ResidueElem.zero(self.modulus))
        return ResiduePoint.from_elems(fval, gval)

    def __str__(self):
        return (f"[{_form_str(self.f_coeffs)} : {_form_str(self.g_coeffs)}]"
                f" mod {self.modulus} (degree {self.reduced_degree})")

    def __repr__(self):
        return (f"ResidueMap({self.modulus!r}, degree={self.degree}, "
                f"reduced_degree={self.reduced_degree})")


# ---------------------------------------------------------------------------
# the main map type
# ---------------------------------------------------------------------------

def _coerce_coeff(p: int, c) -> RatFunc:
    if isinstance(c, RatFunc):
        return c
    if isinstance(c, FpPoly):
        return RatFunc.from_poly(c)
    if isinstance(c, int):
        return RatFunc.constant(p, c)
    raise TypeError(f"cannot use {c!r} as a map coefficient")


def _poly_lcm(a: FpPoly, b: FpPoly) -> FpPoly:
    return (a * b).exact_div(a.gcd(b)).monic()


class HomogMap:
    """Endomorphism [F(X, Y) : G(X, Y)] of P^1 over F_p(t), degree >= 1."""

    __slots__ = ("p", "d", "nf", "ng", "escape_height", "monic_model",
                 "_finite_order", "_resultant", "_unit_resultant", "_bad_places")

    def __init__(self, F_coeffs: Sequence, G_coeffs: Sequence, p: Optional[int] = None):
        coeffs = list(F_coeffs) + list(G_coeffs)
        if p is None:
            probe = next((c for c in coeffs if isinstance(c, (RatFunc, FpPoly))), None)
            if probe is None:
                raise ValueError("cannot infer the characteristic; pass p=")
            p = probe.p
        _check_prime(p)
        if len(F_coeffs) != len(G_coeffs) or len(F_coeffs) < 2:
            raise ValueError("need two coefficient lists of equal length d+1 >= 2")
        self.p = p
        self.d = len(F_coeffs) - 1
        self.nf, self.ng = self._normalized_model([_coerce_coeff(p, c) for c in coeffs])
        res = sylvester_resultant(self.nf, self.ng)
        if res.is_zero():
            raise ValueError("the two forms share a common factor (zero resultant)")
        self._resultant = res
        self._unit_resultant = res.is_constant()
        self._bad_places = None
        # every point above this height has an infinite orbit (see the module
        # docstring); degree 1 has no such height but a closed-form test
        h = max(c.degree for c in self.nf + self.ng)
        self.escape_height = (2 * self.d - 1) * h // (self.d - 1) if self.d > 1 else None
        self.monic_model = self._detect_monic_model()
        self._finite_order = False
        if self.d == 1:  # finite order iff tr^2/det lies in F_p; det = Res
            tr, det = self.nf[0] + self.ng[1], res
            tr2 = tr * tr
            self._finite_order = (tr.is_zero() or
                                  tr2 * det.leading_coeff == det * tr2.leading_coeff)

    def _detect_monic_model(self):
        """(R, None) when the normalized model is a polynomial of degree >= 2
        with a unit leading coefficient, else None (see the module
        docstring).  Normalization makes a unit nf[0] equal to 1, and the
        zero-resultant gate makes ng[-1] nonzero once the rest of G is zero.
        The coefficient of x^(d-j) sits at index j."""
        nf, ng = self.nf, self.ng
        if self.d < 2 or not nf[0].is_one() or not ng[-1].is_constant() \
                or any(not c.is_zero() for c in ng[:-1]):
            return None
        return max((c.degree // j for j, c in enumerate(nf) if j and not c.is_zero()),
                   default=0), None

    def _normalized_model(self, all_coeffs: list[RatFunc]):
        lcm = FpPoly.one(self.p)
        for c in all_coeffs:
            if not c.den.is_one():
                lcm = _poly_lcm(lcm, c.den)
        polys = [c.num if lcm.is_one() else c.num * lcm.exact_div(c.den) for c in all_coeffs]
        if not any(polys):
            raise ValueError("a map needs at least one nonzero coefficient")
        polys = primitive(polys)
        k = self.d + 1
        return tuple(polys[:k]), tuple(polys[k:])

    # -- basic queries -------------------------------------------------------

    def resultant(self) -> FpPoly:
        """Sylvester resultant of the normalized model (canonical up to F_p*)."""
        return self._resultant

    def bad_places(self) -> frozenset[Place]:
        """Finite places where the resultant of the normalized model vanishes."""
        if self._bad_places is None:
            _, factors = factor(self._resultant)
            self._bad_places = frozenset(Place.finite(pi) for pi in factors)
        return self._bad_places

    def has_good_reduction(self, place: Place) -> bool:
        if not place.is_finite:
            raise ValueError("good reduction is defined at finite places")
        return place not in self.bad_places()

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, P: ProjPoint) -> ProjPoint:
        if P.p != self.p:
            raise ValueError("mixed characteristics")
        fval, gval = _eval_pair(self.nf, self.ng, P.x, P.y,
                                FpPoly.one(self.p), FpPoly.zero(self.p))
        if self._unit_resultant:
            # a unit resultant makes the image of a coprime pair coprime
            gval, fval = _monic_first((gval, fval))
            return ProjPoint._make(fval, gval)
        return ProjPoint.from_coords(fval, gval)

    def proved_escaping(self, P: ProjPoint) -> bool:
        """True when the orbit of P is proved infinite (see the module
        docstring): for d = 1 the map has infinite order and moves P; for
        d >= 2 P lies above the escape height, or the monic model's degree
        test holds at M(P), and False means only that no test applies."""
        if self.d == 1:
            return not self._finite_order and self.evaluate(P) != P
        if P.height > self.escape_height:
            return True
        if self.monic_model is None:
            return False
        R, M = self.monic_model
        x, y = P.x, P.y
        if M is not None:
            (a, b), (c, d) = M.nf, M.ng
            x, y = a * x + b * y, c * x + d * y
        if y.is_zero():
            return False  # M(P) is the fixed point at infinity
        return y.degree >= 1 or x.degree > R

    # -- reduction -----------------------------------------------------------

    def reduce_map(self, place: Place) -> ResidueMap:
        """Reduce the normalized model mod pi and cancel the common factor."""
        if not place.is_finite:
            raise ValueError("maps reduce at finite places only")
        pi = place.pi
        fbar = [ResidueElem(pi, c) for c in self.nf]
        gbar = [ResidueElem(pi, c) for c in self.ng]
        d = self.d

        def split(coeffs):
            # descending list -> (ascending dehomogenization, Y-multiplicity)
            uni = _kx_trim(list(reversed(coeffs)))
            return uni, (d - (len(uni) - 1)) if uni else d + 1

        f_uni, f_ymult = split(fbar)
        g_uni, g_ymult = split(gbar)
        if not f_uni and not g_uni:
            raise AssertionError("normalized model cannot vanish identically mod pi")
        # when one form vanishes mod pi, h is the other one made monic
        h = _kx_gcd(f_uni, g_uni)
        if len(h) > 1:
            f_uni = _kx_divmod(f_uni, h)[0]
            g_uni = _kx_divmod(g_uni, h)[0]
        y_common = min(f_ymult, g_ymult)
        d_red = d - (len(h) - 1) - y_common

        def rebuild(uni):
            # form = Y^(ymult - y_common) * homogenization of uni; the term
            # c*x^j lands at descending index d_red - j
            out = [ResidueElem.zero(pi)] * (d_red + 1)
            for j, c in enumerate(uni):
                out[d_red - j] = c
            return out

        return ResidueMap(pi, d, rebuild(f_uni), rebuild(g_uni))

    # -- conjugation -----------------------------------------------------------

    def conjugate(self, M: HomogMap) -> HomogMap:
        """The map M^(-1) . phi . M for a degree-1 map M whose resultant is a
        unit of F_p[t]; degree and bad places are preserved."""
        if M.p != self.p:
            raise ValueError("mixed characteristics")
        if M.d != 1 or not M._unit_resultant:
            raise ValueError("conjugation needs a degree-1 map with a unit resultant")
        (a, b), (c, d) = M.nf, M.ng
        Fm = _substitute(self.nf, (a, b), (c, d))
        Gm = _substitute(self.ng, (a, b), (c, d))
        newF = [d * u - b * v for u, v in zip(Fm, Gm)]
        newG = [a * v - c * u for u, v in zip(Fm, Gm)]
        out = HomogMap(newF, newG, p=self.p)
        if self.monic_model is not None:
            # M^(-1) N^(-1) f N M = (N M)^(-1) f (N M)
            R, N = self.monic_model
            out.monic_model = (R, M if N is None else compose_maps(N, M))
        return out

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "F": [str(c) for c in self.nf],
            "G": [str(c) for c in self.ng],
        }

    def __eq__(self, other):
        if not isinstance(other, HomogMap):
            return NotImplemented
        return self.p == other.p and self.nf == other.nf and self.ng == other.ng

    def __hash__(self):
        return hash((self.p, self.nf, self.ng))

    def __str__(self):
        return f"[{_form_str(self.nf)} : {_form_str(self.ng)}]"

    def __repr__(self):
        return f"HomogMap(p={self.p}, d={self.d}, {[str(c) for c in self.nf]}, {[str(c) for c in self.ng]})"


def compose_maps(outer: HomogMap, inner: HomogMap) -> HomogMap:
    """The composite outer . inner, of degree deg(outer) * deg(inner)."""
    if outer.p != inner.p:
        raise ValueError("mixed characteristics")
    return HomogMap(_substitute(outer.nf, inner.nf, inner.ng),
                    _substitute(outer.ng, inner.nf, inner.ng), p=outer.p)


def iterate_map(phi: HomogMap, k: int) -> HomogMap:
    """The k-th iterate of phi (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = phi
    for _ in range(k - 1):
        out = compose_maps(phi, out)
    return out


# ---------------------------------------------------------------------------
# construction from univariate rational functions, parsing
# ---------------------------------------------------------------------------

def from_rational_function(num_coeffs: Sequence, den_coeffs: Sequence,
                           p: Optional[int] = None) -> HomogMap:
    """Homogenize f(x) = num(x)/den(x) (ascending coefficient lists over K)
    to a degree-d pair of forms, d = max(deg num, deg den).

    A common factor of num and den is a common factor of the two forms, so
    `HomogMap` rejects it by its zero resultant."""
    num, den = list(num_coeffs), list(den_coeffs)
    while num and num[-1] == 0:
        num.pop()
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("zero denominator polynomial")
    if not num:
        raise ValueError("the zero map is not an endomorphism of P^1")
    d = max(len(num), len(den)) - 1
    if d < 1:
        raise ValueError("constant maps are not endomorphisms of degree >= 1")
    # x^i -> X^i Y^(d-i), descending storage index d-i
    return HomogMap([0] * (d + 1 - len(num)) + num[::-1],
                    [0] * (d + 1 - len(den)) + den[::-1], p=p)


MAX_MAP_DEGREE = 1000  # in map text, as a power of x or the JSON "d"

_TERM_RE = re.compile(r"(?:(.+)\*)?x(?:\^(\d+))?")


def _split_top(text: str, sep: str) -> list[str]:
    """Split at every occurrence of `sep` outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_affine_map(p: int, text: str) -> HomogMap:
    """Parse the affine shorthand, e.g. ``x^2+t`` or ``(x^2+t)/x``.

    Coefficients are polynomials in t; a parenthesized coefficient may be a
    full polynomial, e.g. ``(t^2+1)*x^2+t*x+1``, and a parenthesized sum is
    a sum, e.g. ``(x^2)+(t)``.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty map text")
    sides = _split_top(s, "/")
    if len(sides) > 2:
        raise ValueError(f"more than one top-level '/' in {text!r}")

    def strip_parens(u: str) -> str:
        while u.startswith("(") and u.endswith(")"):
            depth = 0
            for i, ch in enumerate(u):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0 and i != len(u) - 1:
                        return u
            u = u[1:-1]
        return u

    def parse_side(u: str) -> list[FpPoly]:
        coeffs: dict[int, FpPoly] = {}
        sums = [u]  # parenthesized sums still to expand
        while sums:
            for term in _split_top(strip_parens(sums.pop()), "+"):
                if not term:
                    raise ValueError(f"empty term in {text!r}")
                if strip_parens(term) != term:
                    sums.append(term)
                    continue
                m = _TERM_RE.fullmatch(term)
                if m:
                    k = int(m.group(2) or 1)
                    if k > MAX_MAP_DEGREE:
                        raise ValueError(f"exponent {k} of x is above the limit {MAX_MAP_DEGREE}")
                    c = parse_poly(p, strip_parens(m.group(1))) if m.group(1) else FpPoly.one(p)
                else:
                    k, c = 0, parse_poly(p, term)
                coeffs[k] = coeffs.get(k, 0) + c
        return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]

    return from_rational_function(parse_side(sides[0]),
                                  parse_side(sides[1]) if len(sides) == 2 else [1], p=p)


def parse_map(text: str, p: Optional[int] = None) -> HomogMap:
    """Parse a map from JSON (``{"p":..,"d":..,"F":[..],"G":[..]}``), from a
    ``@file`` reference to such JSON, or from the affine shorthand (which
    requires p).  Forms are dense, so the degree is at most `MAX_MAP_DEGREE`."""
    s = text.strip()
    if s.startswith("@"):
        with open(s[1:], "r", encoding="utf-8") as fh:
            s = fh.read().strip()
    if s.startswith("{"):
        data = json.loads(s)
        if not isinstance(data, dict):
            raise ValueError("map JSON must be an object")
        for key in ("F", "G"):
            if not isinstance(data.get(key), list) or \
               not all(isinstance(c, str) for c in data[key]):
                raise ValueError(f"map JSON field {key!r} must be a list of strings")
        for key in ("p", "d"):
            if not isinstance(data.get(key), int) or isinstance(data[key], bool):
                raise ValueError(f"map JSON field {key!r} must be an integer")
        jp, d = data["p"], data["d"]
        if d > MAX_MAP_DEGREE:
            raise ValueError(f"map degree {d} is above the limit {MAX_MAP_DEGREE}")
        if p is not None and p != jp:
            raise ValueError(f"p mismatch: flag says {p}, JSON says {jp}")
        F = [RatFunc.parse(jp, c) for c in data["F"]]
        G = [RatFunc.parse(jp, c) for c in data["G"]]
        if len(F) != d + 1 or len(G) != d + 1:
            raise ValueError("coefficient lists must have length d+1")
        return HomogMap(F, G, p=jp)
    if p is None:
        raise ValueError("affine map shorthand requires the characteristic p")
    return parse_affine_map(p, s)


def map_to_json(phi: HomogMap) -> str:
    return json.dumps(phi.to_json_dict(), sort_keys=False)

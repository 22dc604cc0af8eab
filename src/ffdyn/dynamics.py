"""Endomorphisms of P^1 over F_p(t) as coprime pairs of binary forms.

A :class:`HomogMap` is given the d+1 coefficients of two degree-d forms
F, G (X-degree descending) with coefficients in F_p(t) and keeps only their
*normalized model*: the same coefficients cleared to F_p[t] and put in the
normal form `algebra.primitive` (divided by their joint gcd, the first
nonzero coefficient in scan order, F first, then G, made monic); its JSON
form prints this model.  Every map, conjugates and composites included,
fixes the homogeneous resultant of its normalized model at construction by
the subresultant remainder sequence of `sylvester_resultant` (exact
divisions only), and a zero resultant (forms sharing a factor) is rejected.

Good reduction at a finite place pi means that pi does not divide the
resultant; good reduction at every finite place, that the resultant lies
in F_p*.  `has_good_reduction` decides the first with one remainder, and
`bad_places` factors the resultant to list the bad places.  Tests check
both against the reduced degree of `reduce_map`: reducing the normalized
model mod pi and cancelling any common factor leaves a map of degree d
exactly at the good places.  The reduced degree is one identity: read the
reduced forms as polynomials f, g in x = X/Y over k(pi), so a common power
of Y lowers both degrees, and let h = gcd(f, g), made monic; the reduced
map is [f/h : g/h], of degree d_red = max(deg f, deg g) - deg h.

One remainder sequence, `_subresultant_prs` on descending lists, runs over
F_p[t] and over k(pi) alike: it gives the resultant, the gcd `_field_gcd`
of the monic-model candidate (made `primitive`) and the h of `reduce_map`.
One binary-form kernel (`_form_mul`, `_form_div`, `_substitute`,
`_eval_pair`, `_form_dx`, `_multiplier_form`, `_form_str`) multiplies,
divides, substitutes, evaluates, differentiates and prints forms over
F_p[t] or k(pi) alike, taking its zeros from its inputs.  Substitution and
evaluation run one loop on a pair of forms: power ladders start at their
base, the end monomials are the top powers, and a monomial with two zero
coefficients is skipped.
Evaluation follows the layering rule of `algebra`: `_eval_pair` works on
coefficient tuples, over F_p[t] or, given pi's tuple, over k(pi), and its
callers (`HomogMap.evaluate`, `HomogMap.proved_escaping`,
`ResidueMap.apply`, `orbits._cycle_products`) read tuples off their
inputs and wrap one object per result.  So every map keeps its normalized
model as coefficient tuples too, and so does the chart M of its monic model.
Conjugation and composition substitute into the normalized model, so they
stay in F_p[t].  Both cycle multipliers, `orbits.verify_mst` over F_p[t]
and `orbits.residue_cycle_multiplier` over k(pi), multiply values of the
one form `_multiplier_form` along a cycle in one product loop (its
derivation is in the `orbits` docstring).

Evaluation maps canonical points to canonical points.  When the resultant
is a unit of F_p[t] the image coordinates of a coprime pair are
automatically coprime, so evaluation skips the gcd step entirely and only
makes y monic (`_monic_tuples`, not `_primitive_tuples`); this is what
makes large search campaigns cheap.

Every map of degree d >= 2 also carries a certified *escape height*.  Let
h be the largest coefficient degree of the normalized model.  The
resultant identity A*F + B*G = Res*X^(2d-1) (and its Y counterpart) has
cofactor coefficients of degree at most (2d-1)*h, and the gcd of F(P) and
G(P) divides Res, so every point satisfies

    h(phi(P)) >= d*h(P) - (2d-1)*h,

with or without good reduction.  Above T = floor((2d-1)*h/(d-1)) heights
therefore rise strictly forever, so an orbit that passes T is infinite.

A map of degree d >= 2 may also have a *monic model* (R, M): the map is
M^(-1) . f . M for a polynomial f with a unit leading coefficient
(F = c'*X^d + ..., G = c*Y^d with c, c' in F_p*) and a degree-1 map M
with a unit determinant, or None for the identity, and
R = max floor(deg a_i / (d - i)) over the nonzero lower coefficients a_i
of f (0 when there are none).  Good reduction with a totally ramified
fixed point Q = M^(-1)(inf) is exactly this shape up to conjugation, and
the model is derived from the normalized model on first use.  Q = inf is
the shape test itself, with M = None.  A finite Q = [s : 1] is one iff
F - s*G = (f_0 - s*g_0)*(X - s*Y)^d (f_i, g_i the X^(d-i)*Y^i
coefficients), that is iff s is a root of every
P_i(s) = f_i - s*g_i - C(d, i)*(-s)^i*(f_0 - s*g_0), i = 1..d.  The
candidate is a linear gcd c_1*s + c_0 of P_1 and P_2 over F_p(t), read
off the same sequence without factoring: Q = [-c_0 : c_1] is coprime, and
`xgcd` gives a*x_Q + b*y_Q = 1, so M = [[-a, -b], [y_Q, -x_Q]] has
determinant 1 and sends Q to inf.  M . phi . M^(-1) must pass the shape
test, which keeps the model sound whatever the candidate.  A map with two
or more finite totally ramified fixed points, such as the purely
inseparable [X^2 : (t^4+t)*X^2 + Y^2] at p = 2 or a conjugate of x^d,
has no linear gcd and no model: its escape height alone certifies it.
Let (x, y) = M(P), coprime because det M is a unit.  If
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

from .algebra import (FpPoly, ResidueElem, _add_tuples, _check_prime, _divmod_tuples, _monic_tuples,
                      _mul_tuples, _mulmod_tuples, _primitive_tuples, factor, parse_poly, primitive)
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
# the remainder sequence over F_p[t] or k(pi): resultants and gcds
# ---------------------------------------------------------------------------

def _lead_trim(cs) -> list:
    """A descending coefficient list without its leading zeros."""
    return list(cs[next((i for i, c in enumerate(cs) if c), len(cs)):])


def _pseudo_rem(f: list, g) -> list:
    """g0^(m-n+1) * F mod G without leading zeros, for descending lists over
    F_p[t] or k(pi) of degrees m >= n and g0 = g[0] != 0; f is not changed."""
    m, n, g0, f = len(f) - 1, len(g) - 1, g[0], list(f)
    for i in range(m - n + 1):
        c = f[i]
        if not g0.is_one():
            f[i + 1:] = [a * g0 for a in f[i + 1:]]
        if c:
            for j in range(1, n + 1):
                f[i + j] = f[i + j] - c * g[j]
    return _lead_trim(f[m - n + 1:])


def _subresultant_prs(a, b):
    """(B, Res(a, b)) for polynomials over F_p[t] or k(pi) given in either
    order by descending coefficient lists of their true degrees (one entry
    for a constant, 0 included), by Cohen, GTM 138, Alg. 3.3.7, which holds
    over any integral domain: for deg a >= deg b, the next member is the
    pseudo-remainder of a by b divided exactly by c*h^delta, delta = deg a -
    deg b, c = lc(a) and h the scale of a (1 and 1 at the start); b's scale
    is lc(b)^delta / h^(delta-1).  B is the last nonzero member, a gcd over
    the fraction field; Res is +-(the scale of B) when B is a constant, else
    0, with a sign (-1)^(deg a * deg b) per swap and step.  For a, b reduced
    mod pi from polynomials over F_p[t] whose leading coefficients pi does
    not divide, Res is their resultant reduced mod pi."""
    neg = len(a) < len(b) and (len(a) - 1) * (len(b) - 1) % 2 == 1
    a, b = (b, a) if len(a) < len(b) else (a, b)
    c = h = a[0] ** 0
    while b:
        k = len(a) - len(b)
        # the scale of b; k = 0 only while h = 1
        hb = b[0] ** k if k <= 1 else (b[0] ** k).exact_div(h ** (k - 1))
        if len(b) == 1:
            return b, -hb if neg else hb
        neg ^= (len(a) - 1) * (len(b) - 1) % 2 == 1
        r, div = _pseudo_rem(a, b), c * h ** k
        a, b, c, h = b, r if div.is_one() else [x.exact_div(div) for x in r], b[0], hb
    return a, c * 0


def _field_gcd(a, b) -> list:
    """A gcd over the fraction field of two descending coefficient lists
    over F_p[t] or k(pi): the last subresultant of the two without leading
    zeros, not normalized (each caller puts it in its own normal form), or
    [] when both are zero."""
    a, b = _lead_trim(a), _lead_trim(b)
    return _subresultant_prs(a, b)[0] if a and b else a or b


def sylvester_resultant(f_coeffs: Sequence[FpPoly], g_coeffs: Sequence[FpPoly]) -> FpPoly:
    """Resultant of two binary forms over F_p[t] given by descending
    coefficient lists (a form of formal degree m has m+1 entries, zero
    entries included), the determinant of their Sylvester matrix.  With
    f0, g0 the X^m, X^n coefficients, Y-factors go first:

    - Res(F, Y^z*G') = f0^z * Res(F, G');
    - Res(Y^z*F', G) = ((-1)^n * g0)^z * Res(F', G);
    - Y-factors on both sides give 0.

    `_subresultant_prs` gives the rest, with Res(F, c) = c^m and
    Res(c, G) = c^n for a constant c: G = c*Y^n, every polynomial map, takes
    no pseudo-remainder."""
    if not f_coeffs or not g_coeffs:
        raise ValueError("forms need at least one coefficient")
    f, g = list(f_coeffs), list(g_coeffs)
    m, n = len(f) - 1, len(g) - 1
    # F = Y^zf * F', G = Y^zg * G' with f'0, g'0 != 0, or z = m, n for c*Y^m, c*Y^n
    zf = next((i for i, c in enumerate(f[:-1]) if c), m)
    zg = next((i for i, c in enumerate(g[:-1]) if c), n)
    if zf and zg:
        return FpPoly.zero(f[0].p)
    scale = f[0] ** zg if zg else (-g[0] if n % 2 else g[0]) ** zf
    return scale * _subresultant_prs(f[zf:], g[zg:])[1]


# ---------------------------------------------------------------------------
# binary forms: X-degree descending coefficient lists over F_p[t] or k(pi)
# ---------------------------------------------------------------------------

def _form_mul(u, v) -> list:
    """Product of two forms over F_p[t] or k(pi)."""
    out = [u[0] - u[0]] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if not a.is_zero():
            for j, b in enumerate(v):
                out[i + j] = out[i + j] + a * b
    return out


def _form_div(a, b) -> list:
    """The quotient of a by b for descending lists over a field, when b
    divides a as a polynomial in x = X/Y."""
    a, q, inv = list(a), [], b[0].inverse()
    for i in range(len(a) - len(b) + 1):
        q.append(a[i] * inv)
        for j in range(1, len(b)):
            a[i + j] = a[i + j] - q[-1] * b[j]
    return q


def _substitute(F, G, U, V):
    """(F(U, V), G(U, V)) for forms F, G of degree e >= 1 and U, V of one degree."""
    e = len(F) - 1
    us, vs = [None, U], [None, V]  # U^0, V^0 are never read
    for _ in range(e - 1):
        us.append(_form_mul(us[-1], U))
        vs.append(_form_mul(vs[-1], V))
    fout = [U[0] - U[0]] * ((len(U) - 1) * e + 1)
    gout = list(fout)
    for i, (a, b) in enumerate(zip(F, G)):
        a_zero, b_zero = a.is_zero(), b.is_zero()
        if a_zero and b_zero:
            continue
        mono = us[e] if i == 0 else vs[e] if i == e else _form_mul(us[e - i], vs[i])
        for j, w in enumerate(mono):
            if not a_zero:
                fout[j] = fout[j] + a * w
            if not b_zero:
                gout[j] = gout[j] + b * w
    return fout, gout


def _conjugate_forms(F, G, U, V):
    """The forms of N^(-1) . [F : G] . N for the degree-1 map N = [U : V],
    with N^(-1) its adjugate, so exact up to a power of det(N)."""
    (a, b), (c, d) = U, V
    return _substitute((d, -b), (-c, a), *_substitute(F, G, U, V))


def _monic_radius(fc, gc) -> Optional[int]:
    """R when [F : G] has the shape F = c'*X^d + ..., G = c*Y^d with c, c'
    in F_p*, else None (module docstring); the coefficient of x^(d-j) sits
    at index j, and no degree depends on the scale of the forms."""
    if fc[0].degree != 0 or gc[-1].degree != 0 or any(gc[:-1]):
        return None
    return max((c.degree // j for j, c in enumerate(fc) if j and c), default=0)


def _eval_pair(p: int, fc, gc, x, y, m=None):
    """(F(x, y), G(x, y)) as coefficient tuples, for two forms of one degree d
    given by their coefficient tuples over F_p[t], or over k(pi) when m is
    pi's tuple and every value is reduced mod m; a form of degree 0
    evaluates to its coefficient.  Monomial i is x^(d-i)*y^i, the ends are
    the top powers of ladders that start at x and y, and when y is the unit
    (1,) monomial i is x^(d-i): no ladder of ones is built, and the last
    coefficients are added as they are."""
    d = len(fc) - 1
    if d == 0:
        return fc[0], gc[0]
    xs = [None, x]  # x^0 is never read
    for _ in range(d - 1):
        xs.append(_mulmod_tuples(p, xs[-1], x, m))
    if y == (1,):
        ys, fval, gval, top = None, fc[d], gc[d], d
    else:
        ys, fval, gval, top = [None, y], (), (), d + 1
        for _ in range(d - 1):
            ys.append(_mulmod_tuples(p, ys[-1], y, m))
    for i in range(top):
        a, b = fc[i], gc[i]
        if not (a or b):
            continue
        mono = (xs[d - i] if i == 0 or ys is None else ys[d] if i == d
                else _mulmod_tuples(p, xs[d - i], ys[i], m))
        if a:
            fval = _add_tuples(p, fval, _mul_tuples(p, a, mono))
        if b:
            gval = _add_tuples(p, gval, _mul_tuples(p, b, mono))
    if m is not None:
        fval, gval = _divmod_tuples(p, fval, m)[1], _divmod_tuples(p, gval, m)[1]
    return fval, gval


def _tuples(values) -> tuple:
    """The coefficient tuples of values in F_p[t] or k(pi)."""
    return tuple(v.coeffs if isinstance(v, FpPoly) else v.rep.coeffs for v in values)


def _form_dx(form) -> list:
    """The X-partial of a degree-k form: coefficients (k - i)*c_i."""
    k = len(form) - 1
    return [c * (k - i) for i, c in enumerate(form[:-1])]


def _multiplier_form(fc, gc) -> list:
    """s = (F_X*G - F*G_X)/Y over F_p[t] or k(pi), a form of degree 2d - 2.

    The X^(2d-1) coefficient of F_X*G - F*G_X is d*f_0*g_0 - f_0*d*g_0 = 0
    in every characteristic, so dividing by Y drops that first entry.
    """
    fx_g, f_gx = _form_mul(_form_dx(fc), gc), _form_mul(fc, _form_dx(gc))
    return [a - b for a, b in zip(fx_g[1:], f_gx[1:])]


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

    __slots__ = ("modulus", "degree", "reduced_degree", "f_coeffs", "g_coeffs", "_fc", "_gc")

    def __init__(self, modulus: FpPoly, degree: int,
                 f_coeffs: Sequence[ResidueElem], g_coeffs: Sequence[ResidueElem]):
        self.modulus = modulus
        self.degree = degree
        self.reduced_degree = len(f_coeffs) - 1
        self.f_coeffs = tuple(f_coeffs)
        self.g_coeffs = tuple(g_coeffs)
        self._fc, self._gc = _tuples(f_coeffs), _tuples(g_coeffs)

    @property
    def good_reduction(self) -> bool:
        return self.reduced_degree == self.degree

    def apply(self, point: ResiduePoint) -> ResiduePoint:
        if point.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        pi = self.modulus
        p = pi.p
        fval, gval = _eval_pair(p, self._fc, self._gc, point.x.rep.coeffs,
                                point.y.rep.coeffs, pi.coeffs)
        return ResiduePoint.from_elems(ResidueElem._make(pi, FpPoly._make(p, fval)),
                                       ResidueElem._make(pi, FpPoly._make(p, gval)))

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


class HomogMap:
    """Endomorphism [F(X, Y) : G(X, Y)] of P^1 over F_p(t), degree >= 1."""

    __slots__ = ("p", "d", "nf", "ng", "_fc", "_gc", "escape_height", "_monic_model",
                 "_finite_order", "_resultant", "_unit_resultant")

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
        self._fc, self._gc = _tuples(self.nf), _tuples(self.ng)
        res = sylvester_resultant(self.nf, self.ng)
        if res.is_zero():
            raise ValueError("the two forms share a common factor (zero resultant)")
        self._resultant = res
        self._unit_resultant = res.is_constant()
        # every point above this height has an infinite orbit (see the module
        # docstring); degree 1 has no such height but a closed-form test
        h = max(c.degree for c in self.nf + self.ng)
        self.escape_height = (2 * self.d - 1) * h // (self.d - 1) if self.d > 1 else None
        self._finite_order = False
        if self.d == 1:  # finite order iff tr^2/det lies in F_p; det = Res
            tr, det = self.nf[0] + self.ng[1], res
            tr2 = tr * tr
            self._finite_order = (tr.is_zero() or
                                  tr2 * det.leading_coeff == det * tr2.leading_coeff)

    @property
    def monic_model(self):
        """The monic model (R, M) or None, derived from the normalized model
        on first use and kept (see the module docstring)."""
        try:
            return self._monic_model
        except AttributeError:
            self._monic_model = self._derive_monic_model()
            return self._monic_model

    def _derive_monic_model(self):
        if self.d == 1:
            return None
        nf, ng = self.nf, self.ng
        R = _monic_radius(nf, ng)
        if R is not None:
            return R, None
        d, (f0, f1, f2), (g0, g1, g2) = self.d, nf[:3], ng[:3]
        c = d * (d - 1) // 2  # P_1, P_2 of the module docstring, descending in s
        g = _field_gcd([-d * g0, d * f0 - g1, f1], [c * g0, -c * f0, -g2, f2])
        if len(g) != 2:
            return None
        y, x = primitive([g[0], -g[1]])  # Q = [x : y] = [-c_0 : c_1], coprime
        _, a, b = x.xgcd(y)
        # M = [[-a, -b], [y, -x]] sends [x : y] to infinity, and
        # M . phi . M^(-1) is the conjugate by its adjugate
        R = _monic_radius(*_conjugate_forms(nf, ng, (-x, b), (-y, -a)))
        return None if R is None else (R, HomogMap((-a, -b), (y, -x), p=self.p))

    def _normalized_model(self, all_coeffs: list[RatFunc]):
        # any common multiple of the denominators clears them, since
        # `primitive` divides out the excess: take their product
        common = FpPoly.one(self.p)
        for den in {c.den for c in all_coeffs if not c.den.is_one()}:
            common = common * den
        polys = [c.num if common.is_one() else c.num * common.exact_div(c.den)
                 for c in all_coeffs]
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
        """Finite places where the resultant of the normalized model
        vanishes, found by factoring it on each call."""
        return frozenset(Place.finite(pi) for pi in factor(self._resultant)[1])

    def has_good_reduction(self, place: Place) -> bool:
        """True when pi does not divide the resultant: one remainder."""
        if not place.is_finite:
            raise ValueError("good reduction is defined at finite places")
        pi = place.pi
        if pi.p != self.p:
            raise ValueError("mixed characteristics")
        return bool(_divmod_tuples(self.p, self._resultant.coeffs, pi.coeffs)[1])

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, P: ProjPoint) -> ProjPoint:
        p = self.p
        if P.x.p != p:
            raise ValueError("mixed characteristics")
        fval, gval = _eval_pair(p, self._fc, self._gc, P.x.coeffs, P.y.coeffs)
        # a unit resultant makes the image of a coprime pair coprime, so only y,
        # or x at infinity, is made monic; else the pair may share a factor of it
        y, x = (_monic_tuples if self._unit_resultant else _primitive_tuples)(p, (gval, fval))
        return ProjPoint._make(FpPoly._make(p, x), FpPoly._make(p, y))

    def proved_escaping(self, P: ProjPoint) -> bool:
        """True when the orbit of P is proved infinite (see the module
        docstring): for d = 1 the map has infinite order and moves P; for
        d >= 2 P lies above the escape height, or the monic model's degree
        test holds at M(P), and False means only that no test applies.
        Heights are read off the lengths of the coordinate tuples."""
        p = self.p
        if P.x.p != p:
            raise ValueError("mixed characteristics")
        if self.d == 1:
            return not self._finite_order and self.evaluate(P) != P
        x, y = P.x.coeffs, P.y.coeffs
        if max(len(x), len(y)) > self.escape_height + 1:
            return True
        model = self.monic_model
        if model is None:
            return False
        R, M = model
        if M is not None:
            x, y = _eval_pair(p, M._fc, M._gc, x, y)
        if not y:
            return False  # M(P) is the fixed point at infinity
        return len(y) > 1 or len(x) > R + 1

    # -- reduction -----------------------------------------------------------

    def reduce_map(self, place: Place) -> ResidueMap:
        """Reduce the normalized model mod pi and cancel the common factor
        h, made monic, by the degree identity of the module docstring."""
        if not place.is_finite:
            raise ValueError("maps reduce at finite places only")
        pi = place.pi
        f = _lead_trim([ResidueElem(pi, c) for c in self.nf])
        g = _lead_trim([ResidueElem(pi, c) for c in self.ng])
        # when one form vanishes mod pi, h is the other one
        h = _field_gcd(f, g)
        h = [c / h[0] for c in h]
        f, g = _form_div(f, h), _form_div(g, h)
        d_red = max(len(f), len(g)) - 1
        zero = ResidueElem.zero(pi)
        # c*x^j lands at descending index d_red - j: pad on the X-high side
        return ResidueMap(pi, self.d, [zero] * (d_red + 1 - len(f)) + f,
                          [zero] * (d_red + 1 - len(g)) + g)

    # -- conjugation -----------------------------------------------------------

    def conjugate(self, M: HomogMap) -> HomogMap:
        """The map M^(-1) . phi . M for a degree-1 map M whose resultant is a
        unit of F_p[t]; degree and bad places are preserved."""
        if M.p != self.p:
            raise ValueError("mixed characteristics")
        if M.d != 1 or not M._unit_resultant:
            raise ValueError("conjugation needs a degree-1 map with a unit resultant")
        return HomogMap(*_conjugate_forms(self.nf, self.ng, M.nf, M.ng), p=self.p)

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
        # equal models have equal coefficient tuples
        return hash((self.p, self._fc, self._gc))

    def __str__(self):
        return f"[{_form_str(self.nf)} : {_form_str(self.ng)}]"

    def __repr__(self):
        return f"HomogMap(p={self.p}, d={self.d}, {[str(c) for c in self.nf]}, {[str(c) for c in self.ng]})"


def compose_maps(outer: HomogMap, inner: HomogMap) -> HomogMap:
    """The composite outer . inner, of degree deg(outer) * deg(inner)."""
    if outer.p != inner.p:
        raise ValueError("mixed characteristics")
    return HomogMap(*_substitute(outer.nf, outer.ng, inner.nf, inner.ng), p=outer.p)


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

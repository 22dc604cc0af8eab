"""Endomorphisms of P^1 over F_p(t) as coprime pairs of binary forms.

A :class:`HomogMap` is given the d+1 coefficients of two degree-d forms
F, G (X-degree descending) with coefficients in F_p(t) and keeps only their
*normalized model*: the same coefficients cleared to F_p[t] and put in the
normal form `algebra.primitive` (divided by their joint gcd, the first
nonzero coefficient in scan order, F first, then G, made monic); its JSON
form prints this model.  The homogeneous resultant of the normalized model
is fixed at construction, and a zero resultant (forms sharing a factor) is
rejected on every path.  Every map, conjugates and composites included,
computes it from its own model by the fraction-free Euclid over F_p[t] of
`sylvester_resultant`.

Good reduction at a finite place pi means that pi does not divide the
resultant; good reduction at every finite place, that the resultant lies
in F_p*.  `has_good_reduction` decides the first with one remainder, and
`bad_places` factors the resultant to list the bad places.  Tests check
both against the reduced degree of `reduce_map`: reducing the normalized
model mod pi and cancelling any common factor leaves a map of degree d
exactly at the good places.  The reduced degree is one identity: read the
reduced forms as polynomials f, g in x = X/Y over k(pi), so a common power
of Y lowers both degrees, and let h = gcd(f, g); the reduced map is
[f/h : g/h], of degree d_red = max(deg f, deg g) - deg h.

One binary-form kernel (`_form_mul`, `_substitute`, `_eval_pair`,
`_form_dx`, `_multiplier_form`, `_chain_rule`, `_form_str`) multiplies,
substitutes, evaluates, differentiates and prints forms.  Substitution and
evaluation run one loop on a pair of forms: power ladders start at their
base, the end monomials are the top powers, and a monomial with two zero
coefficients is skipped.
Conjugation and composition substitute into the normalized model, so they
stay in F_p[t]; the reference cycle multipliers run the one chain rule, and
`orbits.verify_mst` multiplies values of the one form `_multiplier_form`
along a cycle instead (its derivation is in the `orbits` docstring).

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
candidate is a linear gcd c_1*s + c_0 of P_1 and P_2 over F_p(t), found
by pseudo-remainders without factoring: Q = [-c_0 : c_1] is coprime, and
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

def _pseudo_rem(f: list, g) -> tuple[list, int]:
    """(R, k) with g0^k * F = Q*G + R, R of formal degree n - 1 (all of F
    when m < n), for descending coefficient lists over F_p[t] of formal
    degrees m, n with g0 = g[0] != 0.  Overwrites f."""
    m, n = len(f) - 1, len(g) - 1
    g0, k = g[0], 0
    for i in range(m - n + 1):
        c = f[i]
        if c and not g0.is_one():  # scale by g0 only where a step needs it
            k += 1
            f[i + 1:] = [a * g0 for a in f[i + 1:]]
        for j in range(1, n + 1):
            f[i + j] = f[i + j] - c * g[j]
    return f[max(m - n + 1, 0):], k


def _lead_trim(cs) -> list:
    """A descending coefficient list without its leading zeros."""
    return list(cs[next((i for i, c in enumerate(cs) if c), len(cs)):])


def _field_gcd(a, b) -> list:
    """A gcd over F_p(t) of two polynomials given by descending coefficient
    lists over F_p[t], by Euclid on pseudo-remainders made `primitive`:
    primitive with no leading zeros, or [] when both are zero."""
    a, b = _lead_trim(a), _lead_trim(b)
    while b:
        b = primitive(b)
        a, b = b, _lead_trim(_pseudo_rem(a, b)[0])
    return primitive(a) if a else a


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
        r, k = _pseudo_rem(f, g)
        den = den * g[0] ** (k * n)
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


def _substitute(F, G, U, V):
    """(F(U, V), G(U, V)) for forms F, G of degree e >= 1 and U, V of one degree."""
    e = len(F) - 1
    us, vs = [None, U], [None, V]  # U^0, V^0 are never read
    for _ in range(e - 1):
        us.append(_form_mul(us[-1], U))
        vs.append(_form_mul(vs[-1], V))
    fout = [FpPoly.zero(U[0].p)] * ((len(U) - 1) * e + 1)
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


def _eval_pair(fc, gc, x, y, one, zero):
    """(F(x, y), G(x, y)) for two forms of one degree d, by the kernel loop."""
    d = len(fc) - 1
    xs, ys = [one, x], [one, y]  # one is read only when d = 0
    for _ in range(d - 1):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    fval = gval = zero
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


def _form_dx(form) -> list:
    """The X-partial of a degree-k form: coefficients (k - i)*c_i."""
    k = len(form) - 1
    return [c * (k - i) for i, c in enumerate(form[:-1])]


def _multiplier_form(fc, gc) -> list[FpPoly]:
    """s = (F_X*G - F*G_X)/Y over F_p[t], a form of degree 2d - 2.

    The X^(2d-1) coefficient of F_X*G - F*G_X is d*f_0*g_0 - f_0*d*g_0 = 0
    in every characteristic, so dividing by Y drops that first entry.
    """
    fx_g, f_gx = _form_mul(_form_dx(fc), gc), _form_mul(fc, _form_dx(gc))
    return [a - b for a, b in zip(fx_g[1:], f_gx[1:])]


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


class HomogMap:
    """Endomorphism [F(X, Y) : G(X, Y)] of P^1 over F_p(t), degree >= 1."""

    __slots__ = ("p", "d", "nf", "ng", "escape_height", "_monic_model",
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
        x, y = -g[1], g[0]
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
        return not (self._resultant % place.pi).is_zero()

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
        """Reduce the normalized model mod pi and cancel the common factor
        by the degree identity of the module docstring."""
        if not place.is_finite:
            raise ValueError("maps reduce at finite places only")
        pi = place.pi
        f = _kx_trim([ResidueElem(pi, c) for c in reversed(self.nf)])
        g = _kx_trim([ResidueElem(pi, c) for c in reversed(self.ng)])
        # when one form vanishes mod pi, h is the other one made monic
        h = _kx_gcd(f, g)
        if len(h) > 1:
            f, g = _kx_divmod(f, h)[0], _kx_divmod(g, h)[0]
        d_red = max(len(f), len(g)) - 1
        zero = ResidueElem.zero(pi)
        # c*x^j lands at descending index d_red - j: pad on the X-high side
        return ResidueMap(pi, self.d, [zero] * (d_red + 1 - len(f)) + f[::-1],
                          [zero] * (d_red + 1 - len(g)) + g[::-1])

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
        return hash((self.p, self.nf, self.ng))

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

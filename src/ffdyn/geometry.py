"""Points of P^1(F_p(t)) in canonical coprime coordinates.

A :class:`ProjPoint` stores a coprime pair of polynomials [x : y] scaled so
that y is monic (or, when y = 0, so the point is exactly [1 : 0]): (y, x)
is in the normal form `algebra.primitive`.  This makes representatives
unique, point equality bit-equality, and reduction modulo any finite place
well defined.

`log_distance` is the place-wise logarithmic distance between distinct
points,

    v(x1*y2 - x2*y1) - min(v(x1), v(y1)) - min(v(x2), v(y2)),

which is nonnegative at finite places in canonical coordinates and measures
how deeply the two points collide after reduction.  In canonical coordinates
the min-terms vanish at every finite place, so the monic cross product
`distance_poly` carries the distance at all finite places at once: its
multiplicity at pi is the distance at pi.
"""

from __future__ import annotations

import re

from .algebra import (FpPoly, ResidueElem, parse_poly, polynomials_up_to, monic_polys_of_degree,
                      primitive, residue_elements)
from .funcfield import Place, poly_valuation

__all__ = [
    "ProjPoint",
    "ResiduePoint",
    "distance_poly",
    "log_distance",
    "reduce_point",
    "enumerate_points",
    "all_residue_points",
]


class ProjPoint:
    """Point of P^1(F_p(t)) with canonical coprime coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: FpPoly, y: FpPoly):
        if tuple(primitive((y, x))) != (y, x):
            raise ValueError(f"ProjPoint({x}, {y}) is not in canonical form; use from_coords")
        self.x = x
        self.y = y

    @classmethod
    def _make(cls, x: FpPoly, y: FpPoly) -> "ProjPoint":
        self = object.__new__(cls)
        self.x = x
        self.y = y
        return self

    @classmethod
    def from_coords(cls, x: FpPoly, y: FpPoly) -> "ProjPoint":
        """Canonicalize an arbitrary nonzero coordinate pair."""
        y, x = primitive((y, x))
        return cls._make(x, y)

    @classmethod
    def infinity(cls, p: int) -> "ProjPoint":
        return cls._make(FpPoly.one(p), FpPoly.zero(p))

    @classmethod
    def of_constant(cls, p: int, c: int) -> "ProjPoint":
        return cls.from_coords(FpPoly.constant(p, c), FpPoly.one(p))

    @classmethod
    def parse(cls, p: int, text: str) -> "ProjPoint":
        s = re.sub(r"\s+", "", text)
        m = re.fullmatch(r"\[([^:\[\]]+):([^:\[\]]+)\]", s)
        if not m:
            raise ValueError(f"bad point text {text!r}, expected [x : y]")
        return cls.from_coords(parse_poly(p, m.group(1)), parse_poly(p, m.group(2)))

    @property
    def p(self) -> int:
        return self.x.p

    @property
    def height(self) -> int:
        """max(deg x, deg y) of the canonical coordinates."""
        return max(self.x.degree, self.y.degree)

    def is_infinity(self) -> bool:
        return self.y.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __str__(self):
        return f"[{self.x} : {self.y}]"

    def __repr__(self):
        return f"ProjPoint({self.x!r}, {self.y!r})"


class ResiduePoint:
    """Point of P^1(k(pi)) in canonical form ([x : 1], or [1 : 0])."""

    __slots__ = ("modulus", "x", "y")

    def __init__(self, modulus: FpPoly, x: ResidueElem, y: ResidueElem):
        if x.modulus != modulus or y.modulus != modulus:
            raise ValueError("modulus mismatch")
        if x.is_zero() and y.is_zero():
            raise ValueError("(0, 0) is not a projective point")
        if not (y.is_one() or (y.is_zero() and x.is_one())):
            raise ValueError("not in canonical form; use from_elems")
        self.modulus = modulus
        self.x = x
        self.y = y

    @classmethod
    def _make(cls, modulus, x, y) -> "ResiduePoint":
        self = object.__new__(cls)
        self.modulus = modulus
        self.x = x
        self.y = y
        return self

    @classmethod
    def from_elems(cls, x: ResidueElem, y: ResidueElem) -> "ResiduePoint":
        if y.is_zero():
            if x.is_zero():
                raise ValueError("(0, 0) is not a projective point")
            return cls._make(x.modulus, ResidueElem.one(x.modulus), y)
        return cls._make(x.modulus, x / y, ResidueElem.one(y.modulus))

    @classmethod
    def infinity(cls, modulus: FpPoly) -> "ResiduePoint":
        return cls._make(modulus, ResidueElem.one(modulus), ResidueElem.zero(modulus))

    def is_infinity(self) -> bool:
        return self.y.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ResiduePoint):
            return NotImplemented
        return self.modulus == other.modulus and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.modulus, self.x, self.y))

    def __str__(self):
        return f"[{self.x} : {self.y}]"

    def __repr__(self):
        return f"ResiduePoint({self.modulus!r}, {self.x!r}, {self.y!r})"


def distance_poly(P: ProjPoint, Q: ProjPoint) -> FpPoly:
    """The monic cross product x_P*y_Q - x_Q*y_P of distinct canonical points;
    its multiplicity at a finite place pi is the logarithmic distance at pi."""
    if P == Q:
        raise ValueError("the logarithmic distance requires distinct points")
    return (P.x * Q.y - Q.x * P.y).monic()


def log_distance(P: ProjPoint, Q: ProjPoint, place: Place) -> int:
    """Logarithmic distance between distinct points at a place.

    In canonical coordinates the two min-terms vanish at finite places; at
    infinity they contribute the heights of the points.
    """
    D = distance_poly(P, Q)
    if place.is_finite:
        return poly_valuation(D, place)
    return P.height + Q.height - D.degree


def reduce_point(P: ProjPoint, place: Place) -> ResiduePoint:
    """Coordinate-wise reduction modulo a finite place.

    Well defined because canonical coordinates are coprime, so they do not
    both vanish modulo pi.
    """
    if not place.is_finite:
        raise ValueError("points reduce at finite places only")
    pi = place.pi
    xbar = ResidueElem(pi, P.x)
    ybar = ResidueElem(pi, P.y)
    return ResiduePoint.from_elems(xbar, ybar)


def enumerate_points(p: int, height_bound: int) -> list[ProjPoint]:
    """All points of P^1(F_p(t)) of height <= height_bound, without
    duplicates, in a deterministic order ([1 : 0] last)."""
    if height_bound < 0:
        raise ValueError("height bound must be >= 0")
    out = []
    for ydeg in range(height_bound + 1):
        for y in monic_polys_of_degree(p, ydeg):
            for x in polynomials_up_to(p, height_bound):
                if x.gcd(y).is_one():
                    out.append(ProjPoint._make(x, y))
    out.append(ProjPoint.infinity(p))
    return out


def all_residue_points(modulus: FpPoly) -> list[ResiduePoint]:
    """The p**deg(pi) + 1 points of P^1(k(pi)), deterministic order."""
    one = ResidueElem.one(modulus)
    pts = [ResiduePoint._make(modulus, a, one) for a in residue_elements(modulus)]
    pts.append(ResiduePoint.infinity(modulus))
    return pts

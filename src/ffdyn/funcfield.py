"""The rational function field K = F_p(t): fractions, places and valuations.

A :class:`RatFunc` is a canonical quotient of two polynomials (coprime,
monic denominator, zero is 0/1: (den, num) is in the normal form
`algebra.primitive`), so equality of values is equality of
representations.  A :class:`Place` is either a monic irreducible polynomial
of F_p[t] or the place at infinity, whose valuation of f/g is
deg(g) - deg(f).  The valuation of 0 is the distinguished sentinel
:data:`INFINITE_VALUATION`, which compares above every integer and rejects
arithmetic.

The closed-form orbit-length ceiling `eta_bound` lives here as well.
"""

from __future__ import annotations

import math
import re
from typing import Optional

from .algebra import (
    FpPoly,
    _check_prime,
    _is_irreducible_cached,
    enumerate_monic_irreducibles,
    parse_poly,
    primitive,
)

__all__ = [
    "RatFunc",
    "Place",
    "INFINITE_VALUATION",
    "valuation",
    "poly_valuation",
    "finite_places_up_to",
    "eta_bound",
]


class _InfiniteValuation:
    """Sentinel for the valuation of zero: larger than every integer,
    arithmetic deliberately unsupported."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("INFINITE_VALUATION")

    def __repr__(self):
        return "+inf"


INFINITE_VALUATION = _InfiniteValuation()


class RatFunc:
    """Element of F_p(t) as a normalized fraction num/den.

    Invariants: den != 0, gcd(num, den) = 1, den monic; zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: FpPoly, den: Optional[FpPoly] = None):
        if den is None:
            den = FpPoly.one(num.p)
        if num.p != den.p:
            raise ValueError("mixed characteristics")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.den, self.num = primitive((den, num))

    @classmethod
    def _make(cls, num: FpPoly, den: FpPoly) -> "RatFunc":
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def zero(cls, p: int) -> "RatFunc":
        return cls._make(FpPoly.zero(p), FpPoly.one(p))

    @classmethod
    def one(cls, p: int) -> "RatFunc":
        return cls._make(FpPoly.one(p), FpPoly.one(p))

    @classmethod
    def constant(cls, p: int, c: int) -> "RatFunc":
        return cls(FpPoly.constant(p, c))

    @classmethod
    def from_poly(cls, f: FpPoly) -> "RatFunc":
        return cls._make(f, FpPoly.one(f.p))

    @classmethod
    def parse(cls, p: int, text: str) -> "RatFunc":
        """Parse ``num/den`` (each side in the polynomial grammar); a bare
        polynomial means den = 1."""
        s = re.sub(r"\s+", "", text)
        if s.count("/") > 1:
            raise ValueError(f"bad rational function text {text!r}")
        if "/" in s:
            a, b = s.split("/")
            return cls(parse_poly(p, a), parse_poly(p, b))
        return cls.from_poly(parse_poly(p, s))

    @property
    def p(self) -> int:
        return self.num.p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, FpPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, int):
            return RatFunc.constant(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-e), self.num ** (-e))
        return RatFunc._make(self.num ** e, self.den ** e)

    def __eq__(self, other):
        if isinstance(other, (RatFunc, FpPoly, int)):
            o = self._coerce(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


class Place:
    """A place of F_p(t): a monic irreducible polynomial or infinity."""

    __slots__ = ("p", "pi")

    def __init__(self, p: int, pi: Optional[FpPoly]):
        _check_prime(p)
        if pi is not None:
            if pi.p != p:
                raise ValueError("mixed characteristics")
            if not pi.is_monic() or not _is_irreducible_cached(pi):
                raise ValueError("finite places carry a monic irreducible polynomial")
        self.p = p
        self.pi = pi

    @classmethod
    def finite(cls, pi: FpPoly) -> "Place":
        return cls(pi.p, pi)

    @classmethod
    def infinity(cls, p: int) -> "Place":
        return cls(p, None)

    @classmethod
    def parse(cls, p: int, text: str) -> "Place":
        s = text.strip()
        if s == "inf":
            return cls.infinity(p)
        return cls.finite(parse_poly(p, s))

    @property
    def is_finite(self) -> bool:
        return self.pi is not None

    @property
    def degree(self) -> int:
        """Residue degree; the infinite place of F_p(t) has degree 1."""
        return self.pi.degree if self.pi is not None else 1

    def sort_key(self):
        if self.pi is None:
            return (1, 0, ())
        return (0, len(self.pi.coeffs), self.pi.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.p == other.p and self.pi == other.pi

    def __hash__(self):
        return hash((self.p, self.pi))

    def __str__(self):
        return "inf" if self.pi is None else str(self.pi)

    def __repr__(self):
        return f"Place({self.p}, {self.pi!r})"


def finite_places_up_to(p: int, max_degree: int) -> list[Place]:
    """All finite places of degree <= max_degree, deterministic order."""
    out = []
    for d in range(1, max_degree + 1):
        out.extend(Place.finite(pi) for pi in enumerate_monic_irreducibles(p, d))
    return out


def poly_valuation(f: FpPoly, place: Place):
    """Order of vanishing of a polynomial at a place (INFINITE_VALUATION for 0).

    At a finite place this is the multiplicity e of pi in f: divide by
    pi, pi^2, pi^4, ... in turn while the power divides; what is left has
    multiplicity below the exponent 2^k of the first power that failed, so
    dividing by pi^(2^(k-1)), ..., pi^2, pi where each divides finds the
    rest.  e costs O(log e) divisions.  At infinity it is -deg(f).
    """
    if f.is_zero():
        return INFINITE_VALUATION
    if not place.is_finite:
        return -f.degree
    powers = [place.pi]  # powers[k] = pi^(2^k)
    count = 0
    while f.degree >= powers[-1].degree:
        q, r = divmod(f, powers[-1])
        if not r.is_zero():
            break
        f = q
        count += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for k in range(len(powers) - 2, -1, -1):
        if f.degree >= powers[k].degree:
            q, r = divmod(f, powers[k])
            if r.is_zero():
                f = q
                count += 1 << k
    return count


def valuation(x, place: Place):
    """Valuation of a rational function (or polynomial) at a place."""
    if isinstance(x, FpPoly):
        return poly_valuation(x, place)
    if not isinstance(x, RatFunc):
        raise TypeError("valuation expects a RatFunc or FpPoly")
    if x.is_zero():
        return INFINITE_VALUATION
    if not place.is_finite:
        return x.den.degree - x.num.degree
    return poly_valuation(x.num, place) - poly_valuation(x.den, place)


def eta_bound(p: int, D: int, s: int):
    """Ceiling on the size of a finite forward orbit, as a function of the
    characteristic p (0 allowed), the relative field degree D and the number
    of exceptional places s.

    Positive characteristic gives the exact integer
    (p*s)**(4D) * max((p*s)**(2D), p**(4s-2)); characteristic zero gives the
    real value of the corresponding max formula (natural logarithm).
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if s < 1:
        raise ValueError("|S| must be >= 1")
    if p == 0:
        try:
            first = (2 ** (16 * s - 8) + 3) * (12 * s * math.log(5 * s)) ** D
            second = (12 * (s + 2) * math.log(5 * s + 5)) ** (4 * D)
            value = float(max(first, second))
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise OverflowError(f"eta_bound(0, {D}, {s}) exceeds the float range")
        return value
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"characteristic must be 0 or a prime, got {p!r}")
    return (p * s) ** (4 * D) * max((p * s) ** (2 * D), p ** (4 * s - 2))

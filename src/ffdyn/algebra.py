"""Exact arithmetic over F_p, the polynomial ring F_p[t], and residue fields.

Polynomials are dense coefficient tuples, lowest degree first, with every
coefficient reduced into [0, p) and a nonzero leading coefficient (the zero
polynomial is the empty tuple).  The characteristic is restricted to primes
p <= 97 so coefficient arithmetic stays in single machine words.

Residue fields k(pi) = F_p[t]/(pi) are realised by :class:`ResidueElem`,
which carries its monic irreducible modulus.  Factorization uses squarefree
decomposition, distinct-degree splitting and equal-degree splitting; the
randomized splitting step is seeded from the input polynomial, so `factor`
is a pure function of its argument.

All values in this module are immutable after construction and hashable.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "FpPoly",
    "ResidueElem",
    "is_irreducible",
    "factor",
    "enumerate_monic_irreducibles",
    "mult_order",
    "monic_polys_of_degree",
    "polynomials_up_to",
    "residue_elements",
    "parse_poly",
]

_PRIMES_LE_97 = frozenset(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
     71, 73, 79, 83, 89, 97)
)


def _check_prime(p: int) -> None:
    if p not in _PRIMES_LE_97:
        raise ValueError(f"characteristic must be a prime <= 97, got {p!r}")


# ---------------------------------------------------------------------------
# coefficient-tuple kernels
# ---------------------------------------------------------------------------

def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _add_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _sub_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    la, lb = len(a), len(b)
    out = list(a) + [0] * (lb - la)
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
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


def _divmod_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    la, lb = len(a), len(b)
    if la < lb:
        return (), a
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * (la - lb + 1)
    for k in range(la - lb, -1, -1):
        c = rem[k + lb - 1]
        if c:
            c = (c * inv_lead) % p
            quo[k] = c
            for j in range(lb - 1):
                rem[k + j] = (rem[k + j] - c * b[j]) % p
            rem[k + lb - 1] = 0
    return _trim(quo), _trim(rem[: lb - 1])


def _gcd_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    while b:
        a, b = b, _divmod_tuples(p, a, b)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


class FpPoly:
    """Dense polynomial over F_p, lowest-degree coefficient first.

    Instances are immutable; arithmetic returns new values.  Mixed
    arithmetic with ``int`` treats the integer as a constant polynomial.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        _check_prime(p)
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, p: int, coeffs: tuple[int, ...]) -> "FpPoly":
        # trusted constructor: coeffs already reduced and trimmed
        self = object.__new__(cls)
        self.p = p
        self.coeffs = coeffs
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls(p, (1,))

    @classmethod
    def constant(cls, p: int, c: int) -> "FpPoly":
        return cls(p, (c,))

    @classmethod
    def gen(cls, p: int) -> "FpPoly":
        """The variable t."""
        return cls(p, (0, 1))

    @classmethod
    def monomial(cls, p: int, c: int, k: int) -> "FpPoly":
        return cls(p, (0,) * k + (c,))

    @classmethod
    def parse(cls, p: int, text: str) -> "FpPoly":
        return parse_poly(p, text)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading_coeff(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def sort_key(self):
        """Deterministic total order: by degree, then coefficient tuple."""
        return (len(self.coeffs), self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            c = other % self.p
            return FpPoly._make(self.p, (c,) if c else ())
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpPoly._make(self.p, _add_tuples(self.p, self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpPoly._make(self.p, _sub_tuples(self.p, self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpPoly._make(self.p, _sub_tuples(self.p, o.coeffs, self.coeffs))

    def __neg__(self):
        p = self.p
        return FpPoly._make(p, tuple((-c) % p for c in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpPoly._make(self.p, _mul_tuples(self.p, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = FpPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q, r = _divmod_tuples(self.p, self.coeffs, o.coeffs)
        return FpPoly._make(self.p, q), FpPoly._make(self.p, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "FpPoly") -> "FpPoly":
        """Quotient by a known divisor; raises if the division leaves a remainder."""
        q, r = divmod(self, other)
        if r.coeffs:
            raise ArithmeticError(f"{self} is not divisible by {other}")
        return q

    def monic(self) -> "FpPoly":
        """Scale by the inverse of the leading coefficient (zero stays zero)."""
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return FpPoly._make(self.p, tuple((c * inv) % self.p for c in self.coeffs))

    def gcd(self, other: "FpPoly") -> "FpPoly":
        """Monic greatest common divisor."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("gcd expects an FpPoly")
        return FpPoly._make(self.p, _gcd_tuples(self.p, self.coeffs, o.coeffs))

    def xgcd(self, other: "FpPoly"):
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
        if a.coeffs and a.coeffs[-1] != 1:
            c = FpPoly.constant(p, pow(a.coeffs[-1], p - 2, p))
            a, u0, v0 = c * a, c * u0, c * v0
        return a, u0, v0

    def derivative(self) -> "FpPoly":
        p = self.p
        return FpPoly._make(
            p, _trim([(i * c) % p for i, c in enumerate(self.coeffs)][1:])
        )

    def shift(self, k: int) -> "FpPoly":
        """Multiply by t**k."""
        if not self.coeffs:
            return self
        return FpPoly._make(self.p, (0,) * k + self.coeffs)

    def evaluate(self, a: int) -> int:
        """Value at a constant argument, as a residue in [0, p)."""
        p = self.p
        a %= p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
        return acc

    # -- comparisons / formatting -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FpPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            o = self._coerce(other)
            return self.coeffs == o.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return "+".join(parts)

    def __repr__(self):
        return f"FpPoly({self.p}, {self.coeffs!r})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_CONST_RE = re.compile(r"^(\d+)$")
_T_RE = re.compile(r"^(?:(\d+)\*)?t(?:\^(\d+))?$")


def parse_poly(p: int, text: str) -> FpPoly:
    """Parse the strict polynomial grammar: terms ``c``, ``t``, ``t^k``,
    ``c*t^k`` with ``c`` in [0, p), joined by ``+``.  Whitespace is ignored.
    """
    _check_prime(p)
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        m = _CONST_RE.match(term)
        if m:
            c, k = int(m.group(1)), 0
        else:
            m = _T_RE.match(term)
            if not m:
                raise ValueError(f"bad polynomial term {term!r}")
            c = int(m.group(1)) if m.group(1) is not None else 1
            k = int(m.group(2)) if m.group(2) is not None else 1
        if not 0 <= c < p:
            raise ValueError(f"coefficient {c} out of range for F_{p}")
        coeffs[k] = (coeffs.get(k, 0) + c) % p
    deg = max(coeffs) if coeffs else 0
    out = [0] * (deg + 1)
    for k, c in coeffs.items():
        out[k] = c
    return FpPoly(p, out)


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------

def _prime_factors_int(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def pow_mod(base: FpPoly, e: int, modulus: FpPoly) -> FpPoly:
    """base**e reduced modulo `modulus`."""
    result = FpPoly.one(base.p)
    base = base % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def is_irreducible(f: FpPoly) -> bool:
    """Irreducibility over F_p via the Frobenius criterion:
    f of degree n is irreducible iff t^(p^n) == t (mod f) and
    gcd(t^(p^(n/q)) - t, f) = 1 for every prime q dividing n.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("irreducibility is defined for degree >= 1")
    n = f.degree
    if n == 1:
        return True
    p = f.p
    t = FpPoly.gen(p)
    for q in _prime_factors_int(n):
        h = t
        for _ in range(n // q):
            h = pow_mod(h, p, f)
        if not (h - t).gcd(f).is_one():
            return False
    h = t
    for _ in range(n):
        h = pow_mod(h, p, f)
    return (h - t) % f == FpPoly.zero(p)


_is_irreducible_cached = lru_cache(maxsize=8192)(is_irreducible)


def _pth_root(f: FpPoly) -> FpPoly:
    # f = g(t^p) over F_p; coefficients are fixed by Frobenius, so the
    # p-th root just keeps every p-th coefficient
    p = f.p
    return FpPoly._make(p, _trim(list(f.coeffs[::p])))


def _squarefree_decomposition(f: FpPoly) -> dict[FpPoly, int]:
    """Monic f -> {monic squarefree factor: multiplicity}."""
    p = f.p
    out: dict[FpPoly, int] = {}
    df = f.derivative()
    if df.is_zero():
        for g, m in _squarefree_decomposition(_pth_root(f)).items():
            out[g] = out.get(g, 0) + m * p
        return out
    c = f.gcd(df)
    w = f.exact_div(c)
    i = 1
    while not w.is_one():
        y = w.gcd(c)
        z = w.exact_div(y)
        if not z.is_one():
            out[z] = out.get(z, 0) + i
        w = y
        c = c.exact_div(y)
        i += 1
    if not c.is_one():
        for g, m in _squarefree_decomposition(_pth_root(c)).items():
            out[g] = out.get(g, 0) + m * p
    return out


def _distinct_degree(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Monic squarefree f -> [(product of its irreducible factors of degree d, d)]."""
    p = f.p
    t = FpPoly.gen(p)
    out = []
    h = t % f
    rest = f
    d = 0
    while rest.degree >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, rest)
        g = (h - t).gcd(rest)
        if not g.is_one():
            out.append((g, d))
            rest = rest.exact_div(g)
            h = h % rest
    if not rest.is_one():
        out.append((rest, rest.degree))
    return out


def _random_poly_below(rng: random.Random, p: int, degree: int) -> FpPoly:
    return FpPoly(p, [rng.randrange(p) for _ in range(degree)])


def _equal_degree_split(f: FpPoly, d: int, rng: random.Random) -> list[FpPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    p = f.p
    n = f.degree
    if n == d:
        return [f]
    while True:
        a = _random_poly_below(rng, p, n)
        if a.is_zero() or a.is_constant():
            continue
        g = a.gcd(f)
        if not g.is_one() and g.degree < n:
            break
        if p == 2:
            # trace map of a over F_{2^d}
            b = a % f
            c = a % f
            for _ in range(d - 1):
                c = pow_mod(c, 2, f)
                b = (b + c) % f
        else:
            b = pow_mod(a, (p ** d - 1) // 2, f) - FpPoly.one(p)
        g = b.gcd(f)
        if not g.is_one() and g.degree < n:
            break
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f.exact_div(g), d, rng)


def factor(f: FpPoly) -> tuple[int, dict[FpPoly, int]]:
    """Complete factorization into monic irreducibles.

    Returns ``(unit, factors)`` with ``unit`` in F_p* and ``factors`` a dict
    mapping monic irreducible polynomials to multiplicities, such that
    unit * prod(g**m) == f.  Keys are inserted in deterministic sorted order.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading_coeff
    if f.is_constant():
        return unit, {}
    rng = random.Random(f"edf:{f.p}:{f.coeffs}")
    pieces: dict[FpPoly, int] = {}
    for sqfree, mult in _squarefree_decomposition(f.monic()).items():
        for prod_d, d in _distinct_degree(sqfree):
            for irr in _equal_degree_split(prod_d, d, rng):
                pieces[irr] = pieces.get(irr, 0) + mult
    ordered = sorted(pieces.items(), key=lambda kv: kv[0].sort_key())
    return unit, dict(ordered)


def monic_polys_of_degree(p: int, d: int) -> Iterator[FpPoly]:
    """All monic polynomials of degree exactly d, lexicographic on the
    low-to-high coefficient vector."""
    _check_prime(p)
    for rest in itertools.product(range(p), repeat=d):
        yield FpPoly._make(p, rest + (1,))


def polynomials_up_to(p: int, max_degree: int) -> Iterator[FpPoly]:
    """All polynomials of degree <= max_degree (zero first), deterministic order."""
    _check_prime(p)
    yield FpPoly.zero(p)
    for d in range(max_degree + 1):
        for lead in range(1, p):
            for rest in itertools.product(range(p), repeat=d):
                yield FpPoly._make(p, rest + (lead,))


def enumerate_monic_irreducibles(p: int, d: int) -> list[FpPoly]:
    """Complete sorted list of monic irreducibles of degree exactly d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return [f for f in monic_polys_of_degree(p, d) if is_irreducible(f)]


# ---------------------------------------------------------------------------
# residue fields k(pi) = F_p[t]/(pi)
# ---------------------------------------------------------------------------

class ResidueElem:
    """Element of the residue field F_p[t]/(pi), pi monic irreducible.

    The representative is stored fully reduced (deg rep < deg pi).
    """

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: FpPoly, rep: FpPoly):
        if not modulus.is_monic() or not _is_irreducible_cached(modulus):
            raise ValueError("modulus must be a monic irreducible polynomial")
        if rep.p != modulus.p:
            raise ValueError("mixed characteristics")
        self.modulus = modulus
        self.rep = rep % modulus

    @classmethod
    def _make(cls, modulus: FpPoly, rep: FpPoly) -> "ResidueElem":
        self = object.__new__(cls)
        self.modulus = modulus
        self.rep = rep
        return self

    @classmethod
    def zero(cls, modulus: FpPoly) -> "ResidueElem":
        return cls(modulus, FpPoly.zero(modulus.p))

    @classmethod
    def one(cls, modulus: FpPoly) -> "ResidueElem":
        return cls(modulus, FpPoly.one(modulus.p))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def field_size(self) -> int:
        return self.p ** self.modulus.degree

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_one(self) -> bool:
        return self.rep.is_one()

    def _check(self, other: "ResidueElem") -> None:
        if not isinstance(other, ResidueElem) or other.modulus != self.modulus:
            raise ValueError("operands must share the residue field modulus")

    def __add__(self, other):
        self._check(other)
        return ResidueElem._make(self.modulus, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return ResidueElem._make(self.modulus, self.rep - other.rep)

    def __neg__(self):
        return ResidueElem._make(self.modulus, -self.rep)

    def __mul__(self, other):
        if isinstance(other, int):
            return ResidueElem._make(self.modulus, self.rep * other)
        self._check(other)
        return ResidueElem._make(self.modulus, (self.rep * other.rep) % self.modulus)

    def inverse(self) -> "ResidueElem":
        """Multiplicative inverse via extended gcd with the modulus."""
        if self.rep.is_zero():
            raise ZeroDivisionError("inverse of zero in residue field")
        g, u, _ = self.rep.xgcd(self.modulus)
        if not g.is_one():
            raise ArithmeticError("modulus is not irreducible")
        return ResidueElem._make(self.modulus, u % self.modulus)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return ResidueElem._make(self.modulus, pow_mod(self.rep, e, self.modulus))

    def __eq__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self.modulus == other.modulus and self.rep == other.rep

    def __hash__(self):
        return hash((self.modulus, self.rep))

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"ResidueElem({self.modulus!r}, {self.rep!r})"


def residue_elements(modulus: FpPoly) -> Iterator[ResidueElem]:
    """All elements of k(pi) in deterministic order (coefficient-lex)."""
    p = modulus.p
    for cs in itertools.product(range(p), repeat=modulus.degree):
        yield ResidueElem._make(modulus, FpPoly._make(p, _trim(list(cs))))


def mult_order(x: ResidueElem) -> int:
    """Least r >= 1 with x**r == 1; divides p**deg(pi) - 1."""
    if x.is_zero():
        raise ValueError("multiplicative order of zero is undefined")
    order = x.field_size - 1
    for q in _prime_factors_int(order):
        while order % q == 0 and (x ** (order // q)).is_one():
            order //= q
    return order

"""Exact arithmetic over F_p, the polynomial ring F_p[t], and residue fields.

Polynomials are dense coefficient tuples, lowest degree first, with every
coefficient reduced into [0, p) and a nonzero leading coefficient (the zero
polynomial is the empty tuple).  The characteristic is restricted to primes
p <= 97 so coefficient arithmetic stays in single machine words.

The arithmetic is layered: the kernels (`_add_tuples`, `_sub_tuples`,
`_mul_tuples`, `_mulmod_tuples`, `_divmod_tuples`, `_gcd_tuples`,
`_xgcd_tuples`, `_pow_tuples`, `_order_tuples`, `_monic_tuples`,
`_primitive_tuples`) work on bare coefficient tuples; the `FpPoly` and
`ResidueElem` methods, `pow_mod`, `mult_order`, `primitive`, the form
evaluation of `dynamics` and the cycle products and reduced multiplier of
`orbits` call them and wrap one object per result.  There is one long
division (`_divmod_tuples`), one square-and-multiply loop (`_pow_tuples`),
one extended Euclid (`_xgcd_tuples`), one scaling step (`_monic_tuples`:
make the first nonzero entry monic) and one normal form
(`_primitive_tuples`: divide by the gcd, then scale).

`_mul_tuples` takes a Kronecker product when (p-1)^2*min(la, lb) < 256
for operand lengths la, lb: it reads each operand as an integer with one
coefficient per byte, multiplies the two integers and reduces every byte
of the product mod p by one `bytes.translate` table.  The bound is exact:
each coefficient of the integer product is a sum of at most min(la, lb)
products of two coefficients below p, so it stays below 256 and no carry
crosses into the next byte.  Longer operands, and every operand at
p >= 17, take the schoolbook loop.

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
    "primitive",
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


# byte -> byte mod p, per characteristic: the reduction step of a
# Kronecker product in `_mul_tuples`
_MOD_P_BYTES = {p: bytes(v % p for v in range(256)) for p in _PRIMES_LE_97}


def _mul_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    if a == (1,):  # monic coefficients and unit coordinates
        return b
    if b == (1,):
        return a
    la, lb = len(a), len(b)
    if (p - 1) * (p - 1) * min(la, lb) < 256:
        # the byte-slot Kronecker product of the module docstring; the top
        # byte, a unit times a unit, stays nonzero mod p
        prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        return tuple(prod.to_bytes(la + lb - 1, "little").translate(_MOD_P_BYTES[p]))
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


def _mulmod_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...], m) -> tuple[int, ...]:
    """a*b, reduced mod the modulus m unless m is None."""
    prod = _mul_tuples(p, a, b)
    return prod if m is None else _divmod_tuples(p, prod, m)[1]


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


def _pow_tuples(p: int, a: tuple[int, ...], e: int, m) -> tuple[int, ...]:
    # square and multiply; with a modulus m the base and every product are
    # reduced mod m, while e = 0 returns 1 unreduced
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if m is not None:
        a = _divmod_tuples(p, a, m)[1]
    result = (1,)
    while e:
        if e & 1:
            result = _mulmod_tuples(p, result, a, m)
        e >>= 1
        if e:
            a = _mulmod_tuples(p, a, a, m)
    return result


def _monic_tuples(p: int, seq):
    """Scale tuples by the inverse lead of the first nonzero entry; `seq`
    itself when that lead is 1 or every entry is zero."""
    for f in seq:
        if f:
            if f[-1] == 1:
                break
            inv = pow(f[-1], p - 2, p)
            return [tuple([c * inv % p for c in g]) for g in seq]
    return seq


def _primitive_tuples(p: int, seq):
    """`primitive` on coefficient tuples: the exact quotients by the gcd of
    all entries, made `_monic_tuples`; `seq` itself when in this form."""
    g = seq[0]
    for f in seq[1:]:
        g = _gcd_tuples(p, g, f)
    if not g:
        raise ValueError("(0, 0) is not a projective point")
    if g != (1,):
        seq = [_divmod_tuples(p, f, g)[0] for f in seq]
    return _monic_tuples(p, seq)


def _gcd_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    while b:
        a, b = b, _divmod_tuples(p, a, b)[1]
    return _monic_tuples(p, (a,))[0]


def _xgcd_tuples(p: int, a: tuple[int, ...], b: tuple[int, ...]):
    # (g, u, v) with u*a + v*b = g, g monic (or zero)
    u0, u1, v0, v1 = (1,), (), (), (1,)
    while b:
        q, r = _divmod_tuples(p, a, b)
        a, b = b, r
        u0, u1 = u1, _sub_tuples(p, u0, _mul_tuples(p, q, u1))
        v0, v1 = v1, _sub_tuples(p, v0, _mul_tuples(p, q, v1))
    return tuple(_monic_tuples(p, (a, u0, v0)))


class FpPoly:
    """Dense polynomial over F_p, lowest-degree coefficient first.

    Instances are immutable; arithmetic returns new values.  Mixed
    arithmetic with ``int`` treats the integer as a constant polynomial.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        _check_prime(p)
        self.p = p
        self.coeffs = _trim([int(c) % p for c in coeffs])

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
        return FpPoly._make(self.p, _pow_tuples(self.p, self.coeffs, e, None))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q, r = _divmod_tuples(self.p, self.coeffs, o.coeffs)
        return FpPoly._make(self.p, q), FpPoly._make(self.p, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpPoly._make(self.p, _divmod_tuples(self.p, self.coeffs, o.coeffs)[1])

    def exact_div(self, other: "FpPoly") -> "FpPoly":
        """Quotient by a known divisor; raises if the division leaves a remainder."""
        q, r = divmod(self, other)
        if r.coeffs:
            raise ArithmeticError(f"{self} is not divisible by {other}")
        return q

    def monic(self) -> "FpPoly":
        """Scale by the inverse of the leading coefficient (zero stays zero)."""
        cs = _monic_tuples(self.p, (self.coeffs,))[0]
        return self if cs is self.coeffs else FpPoly._make(self.p, cs)

    def gcd(self, other: "FpPoly") -> "FpPoly":
        """Monic greatest common divisor."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("gcd expects an FpPoly")
        return FpPoly._make(self.p, _gcd_tuples(self.p, self.coeffs, o.coeffs))

    def xgcd(self, other: "FpPoly"):
        """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("xgcd expects an FpPoly")
        return tuple(FpPoly._make(self.p, f) for f in _xgcd_tuples(self.p, self.coeffs, o.coeffs))

    def derivative(self) -> "FpPoly":
        p = self.p
        return FpPoly._make(
            p, _trim([(i * c) % p for i, c in enumerate(self.coeffs)][1:])
        )

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

MAX_T_EXPONENT = 100_000  # t^k in text is stored densely, as k+1 coefficients

_CONST_RE = re.compile(r"^(\d+)$")
_T_RE = re.compile(r"^(?:(\d+)\*)?t(?:\^(\d+))?$")


def primitive(polys):
    """The normal form of a nonzero sequence of polynomials up to a common
    factor in F_p(t)*: divide by the gcd of all entries, then scale so the
    first nonzero entry is monic (`_primitive_tuples`).  Canonical points,
    fractions and map models are this form of their coordinate, (den, num)
    and coefficient sequences.  Returns a list, or `polys` itself when it
    is in this form."""
    p = polys[0].p
    seq = [f.coeffs for f in polys if f.p == p]
    if len(seq) < len(polys):
        raise ValueError("mixed characteristics")
    out = _primitive_tuples(p, seq)
    return polys if out is seq else [FpPoly._make(p, cs) for cs in out]


def parse_poly(p: int, text: str) -> FpPoly:
    """Parse the strict polynomial grammar: terms ``c``, ``t``, ``t^k``,
    ``c*t^k`` with ``c`` in [0, p) and ``k`` at most `MAX_T_EXPONENT`,
    joined by ``+``.  Whitespace is ignored.
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
        if k > MAX_T_EXPONENT:
            raise ValueError(f"exponent {k} of t is above the limit {MAX_T_EXPONENT}")
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
    """base**e reduced modulo `modulus`, for an integer e >= 0 (a negative
    e raises ValueError).  e = 0 gives 1 whatever the modulus, so a constant
    modulus gives 1 at e = 0 and 0 for every e >= 1."""
    m = base._coerce(modulus)
    if m is None:
        raise TypeError("pow_mod expects an FpPoly modulus")
    return FpPoly._make(base.p, _pow_tuples(base.p, base.coeffs, e, m.coeffs))


def is_irreducible(f: FpPoly) -> bool:
    """Irreducibility over F_p: the monic associate g is squarefree and its
    distinct-degree split (the Frobenius loop of `factor`) finds no factor
    of degree below deg g.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("irreducibility is defined for degree >= 1")
    g = f.monic()
    return g.gcd(g.derivative()).is_one() and _distinct_degree(g) == [(g, g.degree)]


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


# the most monic candidates `enumerate_monic_irreducibles` tests, at about
# 0.1 to 0.3 ms each: 3^11 takes about a minute on a 2-core Xeon VM
MAX_MONIC_CANDIDATES = 2 * 10 ** 5


def enumerate_monic_irreducibles(p: int, d: int) -> list[FpPoly]:
    """Complete sorted list of monic irreducibles of degree exactly d.  A
    degree with more than `MAX_MONIC_CANDIDATES` monic polynomials is refused
    before any is tested."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    # p >= 2, so a degree of the limit's bit length is over it already
    if d >= MAX_MONIC_CANDIDATES.bit_length() or p ** d > MAX_MONIC_CANDIDATES:
        raise ValueError(f"degree {d} at p = {p} has {p}^{d} monic polynomials, "
                         f"above the limit {MAX_MONIC_CANDIDATES}")
    return [f for f in monic_polys_of_degree(p, d) if _is_irreducible_cached(f)]


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

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_one(self) -> bool:
        return self.rep.is_one()

    def __bool__(self):
        return bool(self.rep)

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
        m = self.modulus
        p = m.p
        prod = _mulmod_tuples(p, self.rep.coeffs, other.rep.coeffs, m.coeffs)
        return ResidueElem._make(m, FpPoly._make(p, prod))

    def inverse(self) -> "ResidueElem":
        """Multiplicative inverse via extended gcd with the modulus; the
        cofactor u of a reduced rep has degree below deg pi, so it is the
        reduced inverse."""
        if self.rep.is_zero():
            raise ZeroDivisionError("inverse of zero in residue field")
        m = self.modulus
        g, u, _ = _xgcd_tuples(m.p, self.rep.coeffs, m.coeffs)
        if g != (1,):
            raise ArithmeticError("modulus is not irreducible")
        return ResidueElem._make(m, FpPoly._make(m.p, u))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    exact_div = __truediv__  # a field divides exactly

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


def _order_tuples(p: int, x: tuple[int, ...], m: tuple[int, ...]) -> int:
    """Multiplicative order of a nonzero x reduced mod the irreducible m,
    from the group order N (Cohen, GTM 138, Alg. 1.4.3): N = p - 1 for a
    constant x, which lies in F_p*, and p**deg(m) - 1 otherwise.  For each
    prime power l^v exactly dividing N, the running exponent e drops l^v,
    y = x^e is one power, and y is raised to the l-th power until it is 1,
    at most v - 1 times: y has order dividing l^v."""
    N = p - 1 if len(x) == 1 else p ** (len(m) - 1) - 1
    e = N
    for l in _prime_factors_int(N):
        v = 0
        while e % l == 0:
            e, v = e // l, v + 1
        y = _pow_tuples(p, x, e, m)
        for step in range(v):
            if y == (1,):
                break
            e *= l
            if step < v - 1:
                y = _pow_tuples(p, y, l, m)
    return e


def mult_order(x: ResidueElem) -> int:
    """Least r >= 1 with x**r == 1; divides p**deg(pi) - 1."""
    if x.is_zero():
        raise ValueError("multiplicative order of zero is undefined")
    m = x.modulus
    return _order_tuples(m.p, x.rep.coeffs, m.coeffs)

import random

import pytest
from hypothesis import given, settings, strategies as st

from ffdyn.algebra import (
    FpPoly,
    ResidueElem,
    _check_prime,
    enumerate_monic_irreducibles,
    factor,
    is_irreducible,
    monic_polys_of_degree,
    mult_order,
    parse_poly,
    polynomials_up_to,
    primitive,
    residue_elements,
)

SMALL_PRIMES = [2, 3, 5, 7]


def poly(p, s):
    return FpPoly.parse(p, s)


@st.composite
def fp_polys(draw, primes=SMALL_PRIMES, max_degree=8):
    p = draw(st.sampled_from(primes))
    coeffs = draw(st.lists(st.integers(0, 96), max_size=max_degree + 1))
    return FpPoly(p, coeffs)


def test_prime_field_validation():
    _check_prime(2)
    _check_prime(97)
    with pytest.raises(ValueError):
        _check_prime(4)
    with pytest.raises(ValueError):
        _check_prime(101)
    with pytest.raises(ValueError):
        FpPoly(1, [1])


def test_construction_reduces_and_trims():
    f = FpPoly(3, [4, 3, 6])
    assert f.coeffs == (1,)
    assert FpPoly(2, []).is_zero()
    assert FpPoly(5, [0, 0, 0]).degree == -1


def test_parse_and_str_round_trip_examples():
    f = parse_poly(3, "t^2+2*t+1")
    assert f.coeffs == (1, 2, 1)
    assert str(f) == "t^2+2*t+1"
    assert str(FpPoly.zero(2)) == "0"
    assert parse_poly(2, " t ^ 2 + 1 ") == poly(2, "t^2+1")
    with pytest.raises(ValueError):
        parse_poly(2, "2*t")  # coefficient out of range
    with pytest.raises(ValueError):
        parse_poly(2, "t^2 - 1")
    with pytest.raises(ValueError):
        parse_poly(2, "")


@given(fp_polys())
@settings(max_examples=150)
def test_str_parse_round_trip(f):
    assert parse_poly(f.p, str(f)) == f


def test_spec_arith_examples():
    # gcd(t^2+t, t) over F_2 -> t
    assert poly(2, "t^2+t").gcd(poly(2, "t")) == poly(2, "t")
    # (t^2+1) divrem (t+1) over F_2 -> (t+1, 0)
    q, r = divmod(poly(2, "t^2+1"), poly(2, "t+1"))
    assert q == poly(2, "t+1") and r.is_zero()
    # derivative(t^3+t) over F_3 -> 1
    assert poly(3, "t^3+t").derivative() == FpPoly.one(3)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(poly(2, "t"), FpPoly.zero(2))


def test_large_multiplication_matches_schoolbook():
    # products of long operands against an independent schoolbook product
    # that reduces mod p after every step
    rng = random.Random(99)
    for p in (2, 5, 97):
        for _ in range(5):
            a = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(60, 140))])
            b = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(60, 140))])
            if a.is_zero() or b.is_zero():
                continue
            out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
            for i, ai in enumerate(a.coeffs):
                for j, bj in enumerate(b.coeffs):
                    out[i + j] = (out[i + j] + ai * bj) % p
            while out and out[-1] == 0:
                out.pop()
            assert (a * b).coeffs == tuple(out)


@given(fp_polys(), fp_polys())
@settings(max_examples=150)
def test_divrem_reconstructs(a, b):
    if a.p != b.p or b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(fp_polys(), fp_polys())
@settings(max_examples=150)
def test_gcd_divides_both(a, b):
    if a.p != b.p:
        return
    g = a.gcd(b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.is_monic()
    assert (a % g).is_zero()
    assert (b % g).is_zero()


def test_xgcd_bezout():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        a = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 7))])
        b = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 7))])
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = a.xgcd(b)
        assert u * a + v * b == g
        assert g == a.gcd(b)


def test_primitive_normal_form_random():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(300):
            common = FpPoly(p, [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)])
            polys = [common * FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(4))])
                     for _ in range(rng.randrange(1, 5))]
            if not any(polys):
                continue
            out = primitive(polys)
            assert len(out) == len(polys)
            g = FpPoly.zero(p)
            for f in out:
                g = g.gcd(f)
            assert g.is_one()
            assert next(f for f in out if f).is_monic()
            # out * g * c == polys for the input gcd g and one unit c
            g = FpPoly.zero(p)
            for f in polys:
                g = g.gcd(f)
            c = next(f for f in polys if f).leading_coeff
            assert [f * g * c for f in out] == polys


def test_primitive_errors():
    with pytest.raises(ValueError, match="not a projective point"):
        primitive((FpPoly.zero(3), FpPoly.zero(3)))
    with pytest.raises(ValueError, match="mixed characteristics"):
        primitive((FpPoly.one(2), FpPoly.one(3)))


def test_is_irreducible_examples():
    assert is_irreducible(poly(2, "t^2+t+1"))
    assert not is_irreducible(poly(2, "t^2+1"))      # (t+1)^2
    assert is_irreducible(FpPoly.parse(5, "t"))
    with pytest.raises(ValueError):
        is_irreducible(FpPoly.zero(2))
    with pytest.raises(ValueError):
        is_irreducible(FpPoly.constant(3, 2))


def _irreducible_by_trial_division(f):
    # independent oracle: search for a monic factor of degree 1..deg/2
    p = f.p
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys_of_degree(p, d):
            if (f % g).is_zero():
                return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_is_irreducible_vs_trial_division(p):
    for d in range(1, 5):
        for f in monic_polys_of_degree(p, d):
            assert is_irreducible(f) == _irreducible_by_trial_division(f), str(f)


def test_factor_examples():
    unit, fs = factor(poly(2, "t^3+t"))
    assert unit == 1
    assert fs == {poly(2, "t"): 1, poly(2, "t+1"): 2}
    unit, fs = factor(poly(3, "2*t"))
    assert unit == 2
    assert fs == {poly(3, "t"): 1}
    assert factor(FpPoly.one(2)) == (1, {})
    with pytest.raises(ValueError):
        factor(FpPoly.zero(2))


def test_factor_recompose_1000_random():
    rng = random.Random(2024)
    for p in SMALL_PRIMES:
        for _ in range(250):
            f = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 14))])
            if f.is_zero():
                continue
            unit, fs = factor(f)
            g = FpPoly.constant(p, unit)
            for irr, m in fs.items():
                assert irr.is_monic() and is_irreducible(irr)
                g = g * irr ** m
            assert g == f, str(f)


def test_factor_is_deterministic():
    f = poly(5, "t^6+4*t^3+t+2")
    assert factor(f) == factor(FpPoly(5, f.coeffs))


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _necklace_count(p, d):
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * p ** (d // e)
    return total // d


def test_enumerate_monic_irreducibles_examples():
    assert enumerate_monic_irreducibles(2, 1) == [poly(2, "t"), poly(2, "t+1")]
    assert enumerate_monic_irreducibles(2, 2) == [poly(2, "t^2+t+1")]
    assert len(enumerate_monic_irreducibles(3, 1)) == 3
    with pytest.raises(ValueError):
        enumerate_monic_irreducibles(2, 0)


@pytest.mark.parametrize("p,dmax", [(2, 6), (3, 6), (5, 4), (7, 3)])
def test_enumerate_matches_necklace_count(p, dmax):
    for d in range(1, dmax + 1):
        found = enumerate_monic_irreducibles(p, d)
        assert len(found) == _necklace_count(p, d)
        assert len(set(found)) == len(found)
        assert all(f.is_monic() and f.degree == d for f in found)


def test_polynomials_up_to_is_complete_and_deterministic():
    polys = list(polynomials_up_to(2, 2))
    assert len(polys) == 8  # 0 plus 7 nonzero of degree <= 2
    assert len(set(polys)) == 8
    assert polys == list(polynomials_up_to(2, 2))


def test_residue_ops_examples():
    pi = poly(2, "t^2+t+1")
    x = ResidueElem(pi, poly(2, "t"))
    assert x.inverse() == ResidueElem(pi, poly(2, "t+1"))
    one = ResidueElem.one(pi)
    assert one * x == x
    assert (x + (-x)).is_zero()
    assert x / x == one
    with pytest.raises(ZeroDivisionError):
        ResidueElem.zero(pi).inverse()
    with pytest.raises(ValueError):
        ResidueElem(poly(2, "t^2+1"), poly(2, "t"))  # reducible modulus
    with pytest.raises(ValueError):
        ResidueElem(poly(2, "t"), poly(2, "t")) + ResidueElem(poly(2, "t+1"), poly(2, "t"))


def test_residue_field_axioms_random():
    rng = random.Random(5)
    pi = poly(3, "t^2+1")
    elems = list(residue_elements(pi))
    assert len(elems) == 9
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == ResidueElem.one(pi)


def test_mult_order_examples():
    assert mult_order(ResidueElem(poly(3, "t"), poly(3, "2"))) == 2
    assert mult_order(ResidueElem.one(poly(3, "t"))) == 1
    assert mult_order(ResidueElem(poly(2, "t^2+t+1"), poly(2, "t"))) == 3
    with pytest.raises(ValueError):
        mult_order(ResidueElem.zero(poly(2, "t")))


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (2, 6), (3, 2), (3, 4),
                                 (5, 2), (7, 2), (79, 1)])
def test_mult_order_divides_group_order_exhaustive(p, d):
    pis = enumerate_monic_irreducibles(p, d)
    pi = pis[0]
    group = p ** d - 1
    seen_orders = set()
    for x in residue_elements(pi):
        if x.is_zero():
            continue
        r = mult_order(x)
        assert group % r == 0
        assert (x ** r).is_one()
        qq = r
        for q in range(2, r + 1):
            if qq % q == 0:
                assert not (x ** (r // q)).is_one()  # r is minimal
                while qq % q == 0:
                    qq //= q
        seen_orders.add(r)
    assert group in seen_orders  # the group is cyclic, a generator exists


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_kernels_agree_with_sympy(p):
    # differential oracle: sympy's dense polynomials over GF(p) share no code
    # with the kernels under test
    sympy = pytest.importorskip("sympy")
    from ffdyn.dynamics import sylvester_resultant

    t, x = sympy.symbols("t x")

    def to_sympy(f):
        return sympy.Poly(list(reversed(f.coeffs)), t, modulus=p)

    def from_sympy(g):
        return FpPoly(p, [int(c) for c in reversed(g.all_coeffs())])

    def rand_poly(lo, hi):
        return FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(lo, hi))]
                      + [rng.randrange(1, p)])

    rng = random.Random(f"sympy:{p}")
    for _ in range(25):
        f = rand_poly(1, 8)
        if rng.random() < 0.5:
            f = f * rand_poly(0, 2) ** 2  # repeated factors
        unit, factors = factor(f)
        s_unit, s_factors = to_sympy(f).factor_list()
        assert unit == int(s_unit) % p
        assert factors == {from_sympy(g): m for g, m in s_factors}
        assert is_irreducible(f) == to_sympy(f).is_irreducible

        h = rand_poly(0, 3)
        a, b = h * rand_poly(0, 4), h * rand_poly(0, 4)
        assert a.gcd(b) == from_sympy(to_sympy(a).gcd(to_sympy(b)).monic())

    def form_expr(coeffs):
        m = len(coeffs) - 1
        return sum(to_sympy(c).as_expr() * x ** (m - i) for i, c in enumerate(coeffs))

    for _ in range(10):
        # leading coefficients nonzero, so the formal and actual x-degrees
        # agree; deg F >= deg G, because for deg F < deg G sympy 1.14 can
        # differ from the Sylvester determinant in sign (Res(x, x^3+1) = -1)
        n = rng.randint(1, 3)
        F = [rand_poly(0, 2)] + [FpPoly(p, [rng.randrange(p) for _ in range(3)])
                                 for _ in range(rng.randint(n, 3))]
        G = [rand_poly(0, 2)] + [FpPoly(p, [rng.randrange(p) for _ in range(3)])
                                 for _ in range(n)]
        res = sympy.Poly(form_expr(F), x, t, modulus=p).resultant(
            sympy.Poly(form_expr(G), x, t, modulus=p))
        expected = FpPoly.zero(p) if res.is_zero else from_sympy(
            sympy.Poly(res.as_expr(), t, modulus=p))
        assert sylvester_resultant(F, G) == expected

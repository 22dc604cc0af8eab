import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ffdyn.algebra import FpPoly
from ffdyn.funcfield import (
    INFINITE_VALUATION,
    Place,
    RatFunc,
    eta_bound,
    finite_places_up_to,
    poly_valuation,
    valuation,
)
from oracles import (
    is_S_integer,
    is_S_unit,
    poly_valuation_stepwise,
    product_formula_check,
    reduce_mod,
    standard_S,
)

SMALL_PRIMES = [2, 3, 5, 7]


def rf(p, s):
    return RatFunc.parse(p, s)


def _random_ratfunc(rng, p, max_deg=5, nonzero=False):
    while True:
        num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(max_deg + 1))])
        den = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, max_deg + 1))])
        if den.is_zero():
            continue
        if nonzero and num.is_zero():
            continue
        return RatFunc(num, den)


def test_ratfunc_invariants():
    x = RatFunc(FpPoly.parse(2, "t^2+t"), FpPoly.parse(2, "t"))
    assert x.num == FpPoly.parse(2, "t+1") and x.den.is_one()
    x = RatFunc(FpPoly.parse(3, "t"), FpPoly.parse(3, "2*t^2"))
    assert x.den.is_monic()
    assert x.num.gcd(x.den).is_one()
    z = RatFunc(FpPoly.zero(3), FpPoly.parse(3, "t^2"))
    assert z.is_zero() and z.den.is_one()
    with pytest.raises(ZeroDivisionError):
        RatFunc(FpPoly.one(2), FpPoly.zero(2))


def test_ratfunc_canonical_on_1000_random_pairs():
    rng = random.Random(11)
    for p in SMALL_PRIMES:
        for _ in range(250):
            x = _random_ratfunc(rng, p)
            mul = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            if mul.is_zero():
                continue
            y = RatFunc(x.num * mul, x.den * mul)
            assert x == y and hash(x) == hash(y)
            # cross-product equality implies identical representation
            assert x.num * y.den == y.num * x.den


def test_ratfunc_field_ops():
    rng = random.Random(12)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        a = _random_ratfunc(rng, p)
        b = _random_ratfunc(rng, p)
        c = _random_ratfunc(rng, p)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFunc.zero(p)
        if not b.is_zero():
            assert (a / b) * b == a


def test_ratfunc_parse():
    assert rf(2, "t^2+1/t").num == FpPoly.parse(2, "t^2+1")
    assert rf(2, "t+1") == RatFunc.from_poly(FpPoly.parse(2, "t+1"))
    with pytest.raises(ValueError):
        rf(2, "t/t/t")


def test_place_construction_and_parse():
    t = Place.parse(2, "t")
    assert t.is_finite and t.degree == 1
    inf = Place.parse(2, "inf")
    assert not inf.is_finite and inf.degree == 1
    with pytest.raises(ValueError):
        Place.parse(2, "t^2+1")  # reducible
    assert str(Place.parse(3, "t^2+1")) == "t^2+1"  # irreducible over F_3
    assert Place.finite(FpPoly.parse(2, "t")) == t
    assert len({t, Place.parse(2, "t"), inf}) == 2


def test_valuation_examples():
    assert valuation(rf(2, "t^3/t+1"), Place.parse(2, "t")) == 3
    assert valuation(rf(2, "t^2"), Place.infinity(2)) == -2
    assert valuation(rf(2, "t/t+1"), Place.parse(2, "t+1")) == -1
    assert valuation(RatFunc.zero(2), Place.parse(2, "t")) is INFINITE_VALUATION
    assert valuation(RatFunc.zero(2), Place.infinity(2)) is INFINITE_VALUATION


def test_infinite_valuation_sentinel():
    assert INFINITE_VALUATION > 10 ** 12
    assert not (INFINITE_VALUATION < 0)
    assert min(5, INFINITE_VALUATION) == 5
    assert INFINITE_VALUATION == INFINITE_VALUATION
    with pytest.raises(TypeError):
        INFINITE_VALUATION + 1


def test_valuation_laws_random():
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        places = finite_places_up_to(p, 2) + [Place.infinity(p)]
        v = rng.choice(places)
        x = _random_ratfunc(rng, p, nonzero=True)
        y = _random_ratfunc(rng, p, nonzero=True)
        assert valuation(x * y, v) == valuation(x, v) + valuation(y, v)
        s = x + y
        if not s.is_zero():
            assert valuation(s, v) >= min(valuation(x, v), valuation(y, v))


def test_poly_valuation_matches_stepwise_division():
    rng = random.Random(29)
    for _ in range(400):
        p = rng.choice(SMALL_PRIMES)
        place = rng.choice(finite_places_up_to(p, 2) + [Place.infinity(p)])
        pi = place.pi if place.is_finite else FpPoly.parse(p, "t")
        f = _random_ratfunc(rng, p).num * pi ** rng.randrange(70)
        assert poly_valuation(f, place) == poly_valuation_stepwise(f, place)


def test_product_formula_examples():
    assert product_formula_check(rf(2, "t/t+1"))
    assert product_formula_check(RatFunc.constant(3, 2))
    assert product_formula_check(rf(2, "t^2+t+1/t"))
    with pytest.raises(ValueError):
        product_formula_check(RatFunc.zero(2))


def test_product_formula_1000_random():
    rng = random.Random(14)
    for p in SMALL_PRIMES:
        for _ in range(250):
            assert product_formula_check(_random_ratfunc(rng, p, nonzero=True))


def test_s_integers_examples():
    assert is_S_integer(rf(2, "t^2+1"))
    assert not is_S_integer(rf(2, "1/t"))
    S = standard_S(2) | {Place.parse(2, "t")}
    assert is_S_integer(rf(2, "1/t"), S)
    assert is_S_integer(RatFunc.zero(2))


def test_s_units_examples():
    assert is_S_unit(RatFunc.constant(3, 2))
    assert is_S_unit(RatFunc.one(2))
    assert not is_S_unit(rf(2, "t"))
    assert not is_S_unit(RatFunc.zero(5))
    S = standard_S(3) | {Place.parse(3, "t")}
    assert is_S_unit(rf(3, "t"), S)
    assert is_S_unit(rf(3, "2*t^2"), S)
    assert not is_S_unit(rf(3, "t+1"), S)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_s_unit_group_has_p_minus_1_elements(p):
    # exhaustive over constants: exactly the nonzero ones are S-units
    units = [c for c in range(p) if is_S_unit(RatFunc.constant(p, c))]
    assert len(units) == p - 1
    # and low-degree non-constants never are
    for num_c in range(p):
        x = RatFunc(FpPoly(p, [num_c, 1]))
        assert not is_S_unit(x)
        assert not is_S_unit(RatFunc.one(p) / x)


def test_finite_places_up_to():
    places = finite_places_up_to(2, 2)
    assert [str(v) for v in places] == ["t", "t+1", "t^2+t+1"]
    assert all(v.is_finite for v in places)


def test_reduce_mod():
    pi = Place.parse(2, "t^2+t+1")
    # t^2 = t+1 in F_4, so t^2/(t+1) reduces to 1
    assert reduce_mod(rf(2, "t^2/t+1"), pi).is_one()
    # 1/(t+1) = t in F_4 since t(t+1) = 1
    assert reduce_mod(rf(2, "1/t+1"), pi).rep == FpPoly.parse(2, "t")
    with pytest.raises(ValueError):
        reduce_mod(rf(2, "1/t"), Place.parse(2, "t"))
    with pytest.raises(ValueError):
        reduce_mod(rf(2, "t"), Place.infinity(2))


def test_eta_bound_positive_characteristic_exact():
    assert eta_bound(2, 1, 1) == 64
    assert eta_bound(3, 1, 1) == 729
    assert eta_bound(5, 1, 1) == 15625
    assert eta_bound(2, 1, 2) == 256 * max(16, 64)
    assert eta_bound(2, 2, 1) == 2 ** 8 * max(2 ** 4, 2 ** 2)
    assert isinstance(eta_bound(97, 3, 4), int)


def test_eta_bound_characteristic_zero():
    val = eta_bound(0, 1, 1)
    expected = max((2 ** 8 + 3) * (12 * math.log(5)), (36 * math.log(10)) ** 4)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(47214213.31669025, rel=1e-9)


def test_eta_bound_errors():
    with pytest.raises(ValueError):
        eta_bound(2, 0, 1)
    with pytest.raises(ValueError):
        eta_bound(2, 1, 0)
    with pytest.raises(ValueError):
        eta_bound(4, 1, 1)


@given(st.integers(2, 30).filter(lambda n: all(n % q for q in range(2, n))),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_eta_bound_formula(p, D, s):
    assert eta_bound(p, D, s) == (p * s) ** (4 * D) * max((p * s) ** (2 * D), p ** (4 * s - 2))

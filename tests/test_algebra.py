import random

import pytest
from hypothesis import given, settings, strategies as st

from ffdyn.algebra import (
    FpPoly,
    ResidueElem,
    _check_prime,
    _is_irreducible_cached,
    enumerate_monic_irreducibles,
    factor,
    is_irreducible,
    monic_polys_of_degree,
    mult_order,
    parse_poly,
    polynomials_up_to,
    pow_mod,
    primitive,
    residue_elements,
)
from ffdyn import algebra
from ffdyn.funcfield import Place
from oracles import mul_tuples_schoolbook, pow_mod_by_objects, primitive_by_objects, xgcd_by_objects

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


@st.composite
def pow_mod_cases(draw):
    # any nonzero modulus, monic or not, degree 0 included; one base in
    # four a multiple of the modulus
    p = draw(st.sampled_from(SMALL_PRIMES))
    cs = draw(st.lists(st.integers(0, p - 1), max_size=6))
    modulus = FpPoly(p, cs + [draw(st.integers(1, p - 1))])
    base = FpPoly(p, draw(st.lists(st.integers(0, p - 1), max_size=9)))
    if draw(st.integers(0, 3)) == 0:
        base = base * modulus
    e = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 400)))
    return base, e, modulus


@given(pow_mod_cases())
@settings(max_examples=300)
def test_pow_mod_equals_the_object_reference(case):
    base, e, modulus = case
    assert pow_mod(base, e, modulus) == pow_mod_by_objects(base, e, modulus)


def test_pow_mod_edge_cases():
    pi = poly(2, "t^2+t+1")
    with pytest.raises(ValueError):
        pow_mod(poly(2, "t"), -1, pi)
    with pytest.raises(ValueError):
        poly(2, "t") ** -1
    # the inverse-first route of k(pi)
    x = ResidueElem(pi, poly(2, "t"))
    assert x ** -1 == x.inverse() and x ** -2 * x ** 2 == ResidueElem.one(pi)
    with pytest.raises(ZeroDivisionError):
        pow_mod(poly(2, "t"), 3, FpPoly.zero(2))
    # a constant modulus: 1 at e = 0, 0 for every e >= 1, as the reference
    for p in SMALL_PRIMES:
        c = FpPoly.constant(p, p - 1)
        for e in (0, 1, 2, 5):
            expected = FpPoly.one(p) if e == 0 else FpPoly.zero(p)
            assert pow_mod(poly(p, "t+1"), e, c) == expected
            assert pow_mod_by_objects(poly(p, "t+1"), e, c) == expected
    # a base that is a multiple of the modulus, and a non-monic modulus
    assert pow_mod(pi * poly(2, "t"), 0, pi).is_one()
    assert pow_mod(pi * poly(2, "t"), 5, pi).is_zero()
    m = poly(5, "3*t^2+1")
    assert pow_mod(poly(5, "t"), 2, m) == poly(5, "3")  # t^2 = -1/3 = 3 mod m


@st.composite
def xgcd_pairs(draw):
    # operands of independent lengths, either or both zero
    p = draw(st.sampled_from(SMALL_PRIMES))
    a, b = (FpPoly(p, draw(st.lists(st.integers(0, p - 1), max_size=n)))
            for n in draw(st.sampled_from([(0, 6), (6, 0), (1, 9), (9, 3), (5, 5)])))
    return a, b


@given(xgcd_pairs())
@settings(max_examples=300)
def test_xgcd_equals_the_object_reference(pair):
    a, b = pair
    assert a.xgcd(b) == xgcd_by_objects(a, b)
    g, u, v = a.xgcd(b)
    assert u * a + v * b == g


@pytest.mark.parametrize("p, inside", [(2, 255), (3, 63), (5, 15), (7, 7), (17, 0)])
def test_kronecker_product_on_both_sides_of_the_byte_bound(p, inside):
    # `_mul_tuples` packs a byte per coefficient while (p-1)^2*min(la, lb) <
    # 256: `inside` is the largest such min length, inside + 1 the smallest
    # outside it (none inside at p = 17, where 16*16 = 256 already overflows a
    # byte); all coefficients p - 1 reach the largest sums of the bound
    rng = random.Random(p)

    def operand(n, top):
        if top:
            return (p - 1,) * n
        return tuple(rng.randrange(p) for _ in range(n - 1)) + (rng.randrange(1, p),)

    for k in {inside, inside + 1} - {0}:
        for la, lb in ((k, k), (k, k + 4), (k + 9, k)):
            for top in (True, False):
                a, b = operand(la, top), operand(lb, top)
                assert algebra._mul_tuples(p, a, b) == mul_tuples_schoolbook(p, a, b)
                assert algebra._mul_tuples(p, b, a) == mul_tuples_schoolbook(p, a, b)
    # empty and length-1 operands, against short and long ones
    for a in ((), (1,), (p - 1,)):
        for b in ((), (1,), (p - 1,), operand(3, True), operand(inside + 1, False)):
            assert algebra._mul_tuples(p, a, b) == mul_tuples_schoolbook(p, a, b)
            assert algebra._mul_tuples(p, b, a) == mul_tuples_schoolbook(p, a, b)


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 97]), st.data())
@settings(max_examples=300, deadline=None)
def test_mul_tuples_equals_the_schoolbook_product(p, data):
    # operand lengths 0 and 1 come up often, and long ones leave the byte bound
    def operand():
        size = data.draw(st.sampled_from([1, 2, 70]))
        return FpPoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=size))).coeffs

    a, b = operand(), operand()
    assert algebra._mul_tuples(p, a, b) == mul_tuples_schoolbook(p, a, b)


def test_pow_mod_residue_mul_and_inverse_build_one_poly_per_result(monkeypatch):
    # the k(pi) arithmetic runs on coefficient tuples: pow_mod wraps one
    # FpPoly whatever e is and multiplies only operands reduced mod the
    # modulus, and a k(pi) product and an inverse each wrap one
    made = []
    real_make = FpPoly._make.__func__

    def counting_make(cls, p, coeffs):
        made.append(coeffs)
        return real_make(cls, p, coeffs)

    operand_lens = []
    real_mul_tuples = algebra._mul_tuples

    def recording_mul_tuples(p, a, b):
        operand_lens.append(max(len(a), len(b)))
        return real_mul_tuples(p, a, b)

    rng = random.Random(30)
    for p in (2, 5):
        for d in range(1, 7):
            pi = FpPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
            base = FpPoly(p, [rng.randrange(p) for _ in range(3 * d)] + [1])
            for e in (0, 1, 2, 7, 300, 10 ** 6):
                made.clear()
                operand_lens.clear()
                monkeypatch.setattr(FpPoly, "_make", classmethod(counting_make))
                monkeypatch.setattr(algebra, "_mul_tuples", recording_mul_tuples)
                out = pow_mod(base, e, pi)
                monkeypatch.undo()
                assert len(made) == 1 and out == pow_mod_by_objects(base, e, pi)
                assert max(operand_lens, default=0) <= d
    inverse_counts = set()
    for p in (2, 5):
        for d in range(1, 6):
            pi = enumerate_monic_irreducibles(p, d)[-1]
            x = ResidueElem(pi, FpPoly(p, [rng.randrange(p) for _ in range(d - 1)] + [1]))
            y = ResidueElem(pi, FpPoly(p, [rng.randrange(1, p) for _ in range(d)]))
            made.clear()
            monkeypatch.setattr(FpPoly, "_make", classmethod(counting_make))
            xy = x * y
            monkeypatch.undo()
            assert len(made) == 1 and xy.rep == (x.rep * y.rep) % pi
            made.clear()
            monkeypatch.setattr(FpPoly, "_make", classmethod(counting_make))
            inv = x.inverse()
            monkeypatch.undo()
            inverse_counts.add(len(made))
            assert (x * inv).is_one()
    assert inverse_counts == {1}  # the cofactor u, already reduced mod pi


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


@st.composite
def poly_sequences(draw):
    """1 to 6 multiples of one common factor whose lead need not be 1;
    entries may be zero, and so may the whole sequence."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), max_size=4)
    common = FpPoly(p, draw(st.lists(st.integers(0, p - 1), max_size=2))
                    + [draw(st.integers(1, p - 1))])
    return [common * FpPoly(p, cs) for cs in draw(st.lists(coeffs, min_size=1, max_size=6))]


@settings(max_examples=300, deadline=None)
@given(poly_sequences())
def test_primitive_matches_the_object_reference(polys):
    if not any(polys):
        for normal_form in (primitive, primitive_by_objects):
            with pytest.raises(ValueError, match="not a projective point"):
                normal_form(polys)
        return
    out, ref = primitive(polys), primitive_by_objects(polys)
    assert list(out) == list(ref)
    assert (out is polys) == (ref is polys)
    assert primitive(out) is out  # an input in normal form comes back as itself


def test_monic_scales_by_the_inverse_lead():
    zero, f = FpPoly.zero(5), poly(5, "t^2+3")
    assert zero.monic() is zero and f.monic() is f
    assert poly(5, "3*t^2+t+4").monic().coeffs == (3, 2, 1)
    assert FpPoly(7, [3]).monic().is_one()


def test_a_non_polynomial_operand_is_a_type_error():
    f = FpPoly(2, [1, 1])
    for operand in ("s", 1.5):
        for call in (f.gcd, f.xgcd, lambda o: pow_mod(f, 3, o)):
            with pytest.raises(TypeError, match="expects an FpPoly"):
                call(operand)


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
    # the enumeration proves irreducibility through the cache that Place
    # validation reads, so validating its places proves nothing twice
    _is_irreducible_cached.cache_clear()
    places = [Place.finite(pi) for pi in enumerate_monic_irreducibles(5, 3)]
    info = _is_irreducible_cached.cache_info()
    assert (len(places), info.misses, info.hits) == (40, 125, 40)


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
    assert x / x == one and x.exact_div(x) == one
    assert one and not ResidueElem.zero(pi)  # a zero residue is falsy, as a zero FpPoly
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


@pytest.mark.parametrize("p,dmax", [(2, 4), (5, 3)])
def test_mult_order_and_inverse_by_successive_products(p, dmax):
    # every nonzero element of k(pi) at every place of degree <= dmax: the
    # order is the first r with x*x*...*x = 1 by repeated `*`, which shares
    # no code with pow_mod, and x times its inverse is one
    for d in range(1, dmax + 1):
        for pi in enumerate_monic_irreducibles(p, d):
            one = ResidueElem.one(pi)
            for x in residue_elements(pi):
                if x.is_zero():
                    continue
                y, r = x, 1
                while not y.is_one():
                    y, r = y * x, r + 1
                assert mult_order(x) == r
                assert x * x.inverse() == one


@pytest.mark.parametrize("p,d", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_mult_order_takes_one_power_per_prime_factor(monkeypatch, p, d):
    # Cohen's order algorithm: for each l^v exactly dividing the group order
    # N (p - 1 for a constant, p^d - 1 otherwise), one power of x and then
    # l-th powers until 1, at most v - 1 of them; x of order r needs
    # min(v_l(r), v - 1).  A constant x raises only constants.
    calls = []
    real_pow_tuples = algebra._pow_tuples

    def recording_pow_tuples(p, a, e, m):
        calls.append((a, e))
        return real_pow_tuples(p, a, e, m)

    def valuation(n, l):
        v = 0
        while n % l == 0:
            n, v = n // l, v + 1
        return v

    pi = enumerate_monic_irreducibles(p, d)[0]
    monkeypatch.setattr(algebra, "_pow_tuples", recording_pow_tuples)
    for x in residue_elements(pi):
        if x.is_zero():
            continue
        y, r = x, 1
        while not y.is_one():
            y, r = y * x, r + 1
        calls.clear()
        assert mult_order(x) == r
        N = p - 1 if x.rep.is_constant() else p ** d - 1
        primes = [l for l in range(2, N + 1) if N % l == 0 and all(l % k for k in range(2, l))]
        assert len(calls) == sum(1 + min(valuation(r, l), valuation(N, l) - 1) for l in primes)
        if primes:  # the first power strips the smallest prime's l^v from N
            assert calls[0] == (x.rep.coeffs, N // primes[0] ** valuation(N, primes[0]))
        assert all(a == x.rep.coeffs or e in primes for a, e in calls)
        if x.rep.is_constant():
            assert all(len(a) <= 1 for a, _ in calls)


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

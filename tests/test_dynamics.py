import json
import random

import pytest

from ffdyn.algebra import FpPoly
from ffdyn.funcfield import Place, RatFunc, finite_places_up_to, valuation
from ffdyn.geometry import ProjPoint, all_residue_points, enumerate_points, reduce_point
from ffdyn.dynamics import (
    HomogMap,
    compose_maps,
    from_rational_function,
    iterate_map,
    map_to_json,
    parse_affine_map,
    parse_map,
    sylvester_resultant,
)
from ffdyn.harness import MapGenSpec, _random_mobius_word, gen_maps
from oracles import multiplier, normalize, sylvester_det


def pt(p, s):
    return ProjPoint.parse(p, s)


def fp(p, s):
    return FpPoly.parse(p, s)


def _inverse(M):
    """The adjugate of a degree-1 map [aX + bY : cX + dY], its inverse."""
    (a, b), (c, d) = M.nf, M.ng
    return HomogMap([d, -b], [-c, a])


def test_from_rational_function_examples():
    m = parse_affine_map(2, "x^2+t")
    assert m.nf == (fp(2, "1"), fp(2, "0"), fp(2, "t"))
    assert m.ng == (fp(2, "0"), fp(2, "0"), fp(2, "1"))
    m = parse_affine_map(2, "1/x^2")
    assert m.nf == (fp(2, "0"), fp(2, "0"), fp(2, "1"))
    assert m.ng == (fp(2, "1"), fp(2, "0"), fp(2, "0"))
    m = parse_affine_map(3, "(x^2+2*t)/x")
    assert m.nf == (fp(3, "1"), fp(3, "0"), fp(3, "2*t"))
    assert m.ng == (fp(3, "0"), fp(3, "1"), fp(3, "0"))


def test_from_rational_function_rejects_common_factor():
    with pytest.raises(ValueError):
        # x^2 / x shares the factor x
        from_rational_function([RatFunc.zero(2), RatFunc.zero(2), RatFunc.one(2)],
                               [RatFunc.zero(2), RatFunc.one(2)])
    with pytest.raises(ZeroDivisionError):
        from_rational_function([RatFunc.one(2)], [])


def test_homogmap_construction_gate():
    with pytest.raises(ValueError):
        HomogMap([fp(2, "1"), fp(2, "0"), fp(2, "0")],
                 [fp(2, "0"), fp(2, "1"), fp(2, "0")], p=2)  # X^2 and XY share X
    with pytest.raises(ValueError):
        HomogMap([0, 0, 0], [0, 0, 0], p=2)
    # degree-1 maps are allowed at construction
    m = HomogMap([fp(2, "1"), fp(2, "0")], [fp(2, "0"), fp(2, "1")], p=2)
    assert m.d == 1


def test_normalized_model_clears_denominators_and_content():
    half = RatFunc(fp(3, "1"), fp(3, "t"))
    m = HomogMap([half, RatFunc.zero(3), RatFunc.one(3)],
                 [RatFunc.zero(3), RatFunc.zero(3), RatFunc.one(3)], p=3)
    # [X^2/t + Y^2 : Y^2] clears to [X^2 + tY^2 : tY^2]
    assert m.nf == (fp(3, "1"), fp(3, "0"), fp(3, "t"))
    assert m.ng == (fp(3, "0"), fp(3, "0"), fp(3, "t"))
    m2 = HomogMap([fp(2, "t^2+t"), 0, fp(2, "t")], [0, 0, fp(2, "t")], p=2)
    # joint content t is removed
    assert m2.nf == (fp(2, "t+1"), fp(2, "0"), fp(2, "1"))


def test_evaluate_examples():
    m = parse_affine_map(2, "x^2+t")
    assert m.evaluate(pt(2, "[0:1]")) == pt(2, "[t:1]")
    inv = parse_affine_map(2, "1/x^2")
    assert inv.evaluate(pt(2, "[0:1]")) == pt(2, "[1:0]")
    assert m.evaluate(pt(2, "[t:1]")) == pt(2, "[t^2+t:1]")


def test_evaluate_fast_path_matches_general_normalize():
    rng = random.Random(31)
    for p in (2, 3):
        maps = gen_maps(MapGenSpec("MonicPoly", p, 2, 2, seed=3), 5)
        maps += gen_maps(MapGenSpec("RejectionRandom", p, 2, 0, seed=3), 5)
        box = enumerate_points(p, 2)
        for phi in maps:
            assert phi.resultant().is_constant()
            for _ in range(20):
                P = box[rng.randrange(len(box))]
                got = phi.evaluate(P)
                # independent route: raw form values, then full normalization
                d = phi.d
                fval = FpPoly.zero(p)
                gval = FpPoly.zero(p)
                for i in range(d + 1):
                    mono = P.x ** (d - i) * P.y ** i
                    fval = fval + phi.nf[i] * mono
                    gval = gval + phi.ng[i] * mono
                assert got == normalize(RatFunc.from_poly(fval), RatFunc.from_poly(gval))


def test_escape_height_certificate_random_maps_and_points():
    # h(phi(P)) >= d*h(P) - (2d-1)*h(phi) for every point, good reduction or
    # not; above the escape height the height therefore strictly increases
    rng = random.Random(37)

    def rand_poly(p, deg):
        return FpPoly(p, [rng.randrange(p) for _ in range(deg + 1)])

    bad_reduction_maps = 0
    for p in (2, 3, 5):
        for d in (2, 3, 4):
            built = 0
            while built < 6:
                F = [rand_poly(p, rng.randrange(3)) for _ in range(d + 1)]
                G = [rand_poly(p, rng.randrange(3)) for _ in range(d + 1)]
                try:
                    phi = HomogMap(F, G, p=p)
                except ValueError:
                    continue
                built += 1
                bad_reduction_maps += not phi.resultant().is_constant()
                h_phi = max(c.degree for c in phi.nf + phi.ng)
                assert phi.escape_height == (2 * d - 1) * h_phi // (d - 1)
                for _ in range(8):
                    x, y = rand_poly(p, rng.randrange(7)), rand_poly(p, rng.randrange(7))
                    if x.is_zero() and y.is_zero():
                        continue
                    P = ProjPoint.from_coords(x, y)
                    image_height = phi.evaluate(P).height
                    assert image_height >= d * P.height - (2 * d - 1) * h_phi
                    if P.height > phi.escape_height:
                        assert image_height > P.height
    assert bad_reduction_maps >= 20


def test_resultant_examples():
    assert parse_affine_map(2, "x^2+t").resultant().is_one()
    r = parse_affine_map(3, "(x^2+2*t)/x").resultant()
    assert r.degree == 1 and (r % fp(3, "t")).is_zero()  # unit * t
    r = HomogMap([fp(2, "t"), 0, 0], [0, 0, 1], p=2).resultant()
    assert r == fp(2, "t^2")
    assert parse_affine_map(2, "1/x^2").resultant().is_constant()


def test_resultant_vs_split_form_product():
    # Res(prod(a_i X + b_i Y), prod(c_j X + d_j Y)) = prod(a_i d_j - b_i c_j)
    rng = random.Random(32)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)

        def rand_linear():
            while True:
                a = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
                b = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
                if not (a.is_zero() and b.is_zero()):
                    return a, b

        def expand(linears):
            out = [FpPoly.one(p)]
            for a, b in linears:
                nxt = [FpPoly.zero(p)] * (len(out) + 1)
                for i, w in enumerate(out):
                    nxt[i] = nxt[i] + w * a
                    nxt[i + 1] = nxt[i + 1] + w * b
                out = nxt
            return out

        fs = [rand_linear() for _ in range(m)]
        gs = [rand_linear() for _ in range(n)]
        expected = FpPoly.one(p)
        for a, b in fs:
            for c, d in gs:
                expected = expected * (a * d - b * c)
        assert sylvester_resultant(expand(fs), expand(gs)) == expected


def test_resultant_multiplicativity():
    rng = random.Random(33)
    for _ in range(100):
        p = rng.choice([2, 3, 5])

        def rand_form(deg):
            while True:
                cs = [FpPoly(p, [rng.randrange(p) for _ in range(2)]) for _ in range(deg + 1)]
                if any(not c.is_zero() for c in cs):
                    return cs

        F = rand_form(rng.randrange(1, 3))
        G1 = rand_form(rng.randrange(1, 3))
        G2 = rand_form(rng.randrange(1, 3))

        def mul_forms(u, v):
            out = [FpPoly.zero(p)] * (len(u) + len(v) - 1)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    out[i + j] = out[i + j] + a * b
            return out

        lhs = sylvester_resultant(F, mul_forms(G1, G2))
        rhs = sylvester_resultant(F, G1) * sylvester_resultant(F, G2)
        # equal up to a unit of F_p
        if lhs.is_zero() or rhs.is_zero():
            assert lhs.is_zero() and rhs.is_zero()
        else:
            assert lhs.monic() == rhs.monic()


def test_sylvester_resultant_matches_explicit_determinant():
    # fraction-free Euclid over F_p[t] against the Sylvester determinant:
    # G = c*Y^n takes the Y-factor rule alone, zeroed leading X-coefficients
    # keep their formal degree, and m != n with coefficients of degree 0-3
    # tell the exponents of f0, c and g0, the content power and the swap
    # sign (-1)^(mn) apart.  Equal degrees m = n = d with coefficients of
    # degree h are the shapes where the remainders' contents and g0 grow
    rng = random.Random(34)

    def rand_form(p, k):
        return [FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(4) + 1)])
                for _ in range(k + 1)]

    def zero_head(form, z):
        return [FpPoly.zero(form[0].p)] * z + form[z:]

    for shape in ("G = c*Y^n", "F head zero", "G head zero", "both heads zero", "generic"):
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 97])
            m, n = rng.sample(range(1, 6), 2)
            f, g = rand_form(p, m), rand_form(p, n)
            if shape == "G = c*Y^n":
                g = zero_head(g, n)
            if shape in ("F head zero", "both heads zero"):
                f = zero_head(f, rng.randint(1, m))
            if shape in ("G head zero", "both heads zero"):
                g = zero_head(g, rng.randint(1, n))
            res = sylvester_resultant(f, g)
            assert res == sylvester_det(f, g)
            if shape == "both heads zero":
                assert res.is_zero()
    for p, d, h in ((5, 4, 3), (2, 6, 4), (2, 1, 3)):
        for _ in range(8):
            f, g = ([FpPoly(p, [rng.randrange(p) for _ in range(h + 1)]) for _ in range(d + 1)]
                    for _ in range(2))
            assert sylvester_resultant(f, g) == sylvester_det(f, g)


def test_bad_places_examples():
    assert parse_affine_map(2, "x^2+t").bad_places() == frozenset()
    assert parse_affine_map(3, "(x^2+2*t)/x").bad_places() == {Place.parse(3, "t")}
    m = HomogMap([fp(2, "t"), 0, 0], [0, 0, 1], p=2)
    assert m.bad_places() == {Place.parse(2, "t")}


def test_good_reduction_examples():
    assert parse_affine_map(2, "x^2+t").has_good_reduction(Place.parse(2, "t"))
    assert not parse_affine_map(3, "(x^2+2*t)/x").has_good_reduction(Place.parse(3, "t"))
    inv = parse_affine_map(2, "1/x^2")
    for v in finite_places_up_to(2, 2):
        assert inv.has_good_reduction(v)
    with pytest.raises(ValueError):
        inv.has_good_reduction(Place.infinity(2))


def test_reduce_map_examples():
    m = parse_affine_map(2, "x^2+t")
    red = m.reduce_map(Place.parse(2, "t"))
    assert red.reduced_degree == 2 and red.good_reduction
    assert [c.rep for c in red.f_coeffs] == [fp(2, "1"), fp(2, "0"), fp(2, "0")]
    red = parse_affine_map(3, "(x^2+2*t)/x").reduce_map(Place.parse(3, "t"))
    assert red.reduced_degree == 1 and not red.good_reduction  # [X : Y]
    assert [c.rep for c in red.f_coeffs] == [fp(3, "1"), fp(3, "0")]
    assert [c.rep for c in red.g_coeffs] == [fp(3, "0"), fp(3, "1")]
    red = parse_affine_map(2, "x^2+t").reduce_map(Place.parse(2, "t+1"))
    assert red.reduced_degree == 2
    assert [c.rep for c in red.f_coeffs] == [fp(2, "1"), fp(2, "0"), fp(2, "1")]
    # full cancellation of one side: the gcd of 0 and G is G made monic
    red = HomogMap([fp(2, "t"), 0, 0], [0, 0, 1], p=2).reduce_map(Place.parse(2, "t"))
    assert red.reduced_degree == 0
    assert red.f_coeffs[0].is_zero() and red.g_coeffs[0].is_one()
    red = HomogMap([1, 0, 0], [0, 0, fp(2, "t")], p=2).reduce_map(Place.parse(2, "t"))
    assert str(red) == "[(1) : 0] mod t (degree 0)"
    # over F_3 the constant left on the other side is a unit, not always 1
    red = parse_affine_map(3, "t*x^2/2").reduce_map(Place.parse(3, "t"))
    assert str(red) == "[0 : (2)] mod t (degree 0)"
    for P in all_residue_points(fp(3, "t")):
        assert str(red.apply(P)) == "[0 : 1]"


def test_map_and_reduction_printing():
    m = parse_affine_map(3, "(x^2+2*t)/x")
    assert str(m) == "[X^2 + (2*t)*Y^2 : X*Y]"
    assert str(m.reduce_map(Place.parse(3, "t"))) == "[X : Y] mod t (degree 1)"
    red = parse_affine_map(5, "x^2+(t+1)*x+2").reduce_map(Place.parse(5, "t^2+2"))
    assert str(red) == "[X^2 + (t+1)*X*Y + (2)*Y^2 : Y^2] mod t^2+2 (degree 2)"


def test_degree_drop_iff_resultant_valuation_positive():
    rng = random.Random(34)
    maps = []
    maps += gen_maps(MapGenSpec("MonicPoly", 2, 2, 2, seed=4), 5)
    maps += gen_maps(MapGenSpec("RejectionRandom", 3, 2, 0, seed=4), 5)
    # maps with bad reduction somewhere
    for p in (2, 3):
        for _ in range(10):
            while True:
                F = [FpPoly(p, [rng.randrange(p) for _ in range(3)]) for _ in range(3)]
                G = [FpPoly(p, [rng.randrange(p) for _ in range(3)]) for _ in range(3)]
                try:
                    maps.append(HomogMap(F, G, p=p))
                    break
                except ValueError:
                    continue
    for phi in maps:
        for place in finite_places_up_to(phi.p, 2):
            drop = phi.reduce_map(place).reduced_degree < phi.d
            assert drop == (valuation(phi.resultant(), place) > 0)
            assert phi.has_good_reduction(place) == (not drop)


def test_evaluate_commutes_with_reduction_at_good_places():
    maps = gen_maps(MapGenSpec("MonicPoly", 2, 2, 2, seed=5), 4)
    maps += gen_maps(MapGenSpec("RejectionRandom", 2, 2, 0, seed=5), 4)
    box = enumerate_points(2, 2)
    places = finite_places_up_to(2, 2)
    for phi in maps:
        for place in places:
            red = phi.reduce_map(place)
            for P in box:
                lhs = reduce_point(phi.evaluate(P), place)
                rhs = red.apply(reduce_point(P, place))
                assert lhs == rhs


def _oracle_multiplier(phi, P, n):
    # independent route: symbolic n-fold composition, then the derivative of
    # the composite in the charts at P and at its image (1/x at infinity)
    comp = iterate_map(phi, n)
    Q = P
    for _ in range(n):
        Q = phi.evaluate(Q)
    num = [RatFunc.from_poly(c) for c in comp.nf]
    den = [RatFunc.from_poly(c) for c in comp.ng]
    if P.is_infinity():
        num, den = num[::-1], den[::-1]
    if Q.is_infinity():
        num, den = den, num
    x0 = RatFunc(P.y, P.x) if P.is_infinity() else RatFunc(P.x, P.y)

    def horner(desc):  # value at x0 of the polynomial sum c_i x^(deg - i)
        acc = RatFunc.zero(phi.p)
        for c in desc:
            acc = acc * x0 + c
        return acc

    def derivative(desc):
        deg = len(desc) - 1
        return [c * (deg - i) for i, c in enumerate(desc[:-1])]

    a, b = horner(num), horner(den)
    return (horner(derivative(num)) * b - a * horner(derivative(den))) / (b * b)


def test_multiplier_examples():
    sq2 = parse_affine_map(2, "x^2")
    assert multiplier(sq2, pt(2, "[1:1]"), 1) == RatFunc.zero(2)  # 2 = 0 in F_2
    sq3 = parse_affine_map(3, "x^2")
    assert multiplier(sq3, pt(3, "[1:1]"), 1) == RatFunc.constant(3, 2)
    # superattracting two-cycle through 0 and infinity: multiplier 0
    inv3 = parse_affine_map(3, "1/x^2")
    assert multiplier(inv3, pt(3, "[0:1]"), 2) == RatFunc.zero(3)
    # multiplier at a fixed critical point vanishes
    assert multiplier(sq3, pt(3, "[0:1]"), 1) == RatFunc.zero(3)
    assert multiplier(sq3, pt(3, "[1:0]"), 1) == RatFunc.zero(3)
    with pytest.raises(ValueError):
        multiplier(sq3, pt(3, "[1:1]"), 0)


def test_multiplier_matches_composition_oracle():
    rng = random.Random(35)
    for p in (2, 3, 5):
        maps = gen_maps(MapGenSpec("MonicPoly", p, 2, 1, seed=6), 3)
        maps += gen_maps(MapGenSpec("RejectionRandom", p, 2, 0, seed=6), 3)
        for phi in maps:
            for _ in range(5):
                x = FpPoly(p, [rng.randrange(p) for _ in range(2)])
                y = FpPoly(p, [rng.randrange(p) for _ in range(2)])
                if x.is_zero() and y.is_zero():
                    continue
                P = ProjPoint.from_coords(x, y)
                for n in (1, 2, 3):
                    assert multiplier(phi, P, n) == _oracle_multiplier(phi, P, n)


def test_multiplier_is_conjugation_invariant_on_cycles():
    inv2 = parse_affine_map(2, "1/x^2")
    M = parse_affine_map(2, "x+t")
    conj = inv2.conjugate(M)
    P = pt(2, "[0:1]")
    Pc = _inverse(M).evaluate(P)
    assert conj.evaluate(conj.evaluate(Pc)) == Pc
    assert multiplier(inv2, P, 2) == multiplier(conj, Pc, 2)


def test_mobius_basics():
    # a Mobius map is a degree-1 map; conjugation needs a unit resultant
    m = parse_affine_map(2, "x^2+t")
    with pytest.raises(ValueError, match="unit resultant"):
        m.conjugate(parse_affine_map(2, "t*x"))  # resultant t
    with pytest.raises(ValueError, match="degree-1"):
        m.conjugate(parse_affine_map(2, "x^2"))
    with pytest.raises(ValueError, match="mixed"):
        m.conjugate(parse_affine_map(3, "x+t"))
    M = parse_affine_map(2, "x+t")
    assert compose_maps(_inverse(M), M) == parse_affine_map(2, "x")
    assert M.evaluate(pt(2, "[t:1]")) == pt(2, "[0:1]")  # t+t = 0 in char 2
    assert M.resultant().is_constant()


def test_conjugate_examples():
    sq2 = parse_affine_map(2, "x^2")
    assert sq2.conjugate(parse_affine_map(2, "x+t")) == parse_affine_map(2, "x^2+(t^2+t)")
    m = parse_affine_map(2, "x^2+t")
    assert m.conjugate(parse_affine_map(2, "x")) == m
    assert m.conjugate(parse_affine_map(2, "1/x")).bad_places() == frozenset()


def test_conjugation_preserves_bad_places_200_random():
    rng = random.Random(36)
    count = 0
    while count < 200:
        p = rng.choice([2, 3])
        while True:
            F = [FpPoly(p, [rng.randrange(p) for _ in range(2)]) for _ in range(3)]
            G = [FpPoly(p, [rng.randrange(p) for _ in range(2)]) for _ in range(3)]
            try:
                phi = HomogMap(F, G, p=p)
                break
            except ValueError:
                continue
        M = parse_affine_map(p, "x")
        for _ in range(3):
            k = rng.randrange(3)
            if k == 0:
                beta = FpPoly(p, [rng.randrange(p) for _ in range(2)])
                M = compose_maps(M, from_rational_function([beta, 1], [1], p=p))
            elif k == 1:
                M = compose_maps(M, parse_affine_map(p, "1/x"))
            else:
                M = compose_maps(M, parse_affine_map(p, f"{rng.randrange(1, p)}*x"))
        assert phi.conjugate(M).bad_places() == phi.bad_places()
        count += 1


def test_conjugate_resultant_matches_explicit_determinant():
    # a conjugate computes its resultant from its own model; raw forms have
    # resultant det(M)^(d^2+d) * Res(phi), and the model divides them by some
    # lam, so a unit det(M) leaves Res(phi) up to F_p*.  Scalings u != 1 give
    # det(M) != 1, and at p = 5, 7 the unit lam that makes the model monic
    # has lam^(2d) != 1
    rng = random.Random(35)
    dets, nonunit = set(), 0
    for _ in range(100):
        p, d = rng.choice([2, 3, 5, 7]), rng.randrange(2, 5)

        def coeff():
            den = FpPoly(p, [rng.randrange(p) for _ in range(2)])
            return RatFunc(FpPoly(p, [rng.randrange(p) for _ in range(2)]),
                           den if den else None)

        while True:
            try:
                phi = HomogMap([coeff() for _ in range(d + 1)], [coeff() for _ in range(d + 1)], p=p)
                break
            except ValueError:
                continue
        M = _random_mobius_word(rng, MapGenSpec("ConjugatedMonicPoly", p, d, 1))
        conj = phi.conjugate(M)
        assert conj.resultant() == sylvester_det(list(conj.nf), list(conj.ng))
        assert M.resultant().is_constant()
        assert conj.resultant().monic() == phi.resultant().monic()
        dets.add(M.resultant())
        nonunit += not phi.resultant().is_constant()
    assert nonunit >= 50 and len(dets) >= 4


def test_conjugation_is_functorial_on_points():
    # evaluate(conj(phi, M), M^-1 P) == M^-1 evaluate(phi, P)
    rng = random.Random(37)
    phi = parse_affine_map(3, "x^2+t")
    M = compose_maps(parse_affine_map(3, "x+t^2"), parse_affine_map(3, "1/x"))
    conj = phi.conjugate(M)
    Minv = _inverse(M)
    for _ in range(40):
        x = FpPoly(3, [rng.randrange(3) for _ in range(3)])
        y = FpPoly(3, [rng.randrange(3) for _ in range(3)])
        if x.is_zero() and y.is_zero():
            continue
        P = ProjPoint.from_coords(x, y)
        assert conj.evaluate(Minv.evaluate(P)) == Minv.evaluate(phi.evaluate(P))


def test_compose_and_iterate():
    phi = parse_affine_map(2, "x^2+t")
    psi = parse_affine_map(2, "1/x^2")
    comp = compose_maps(phi, psi)
    assert comp.d == 4
    for s in ("[0:1]", "[1:0]", "[t:1]", "[t+1:t]"):
        P = pt(2, s)
        assert comp.evaluate(P) == phi.evaluate(psi.evaluate(P))
    sq = iterate_map(phi, 2)
    assert sq.evaluate(pt(2, "[1:1]")) == phi.evaluate(phi.evaluate(pt(2, "[1:1]")))
    with pytest.raises(ValueError):
        iterate_map(phi, 0)


def test_map_json_round_trip():
    m = parse_affine_map(3, "(x^2+2*t)/x")
    text = map_to_json(m)
    data = json.loads(text)
    assert data["p"] == 3 and data["d"] == 2
    m2 = parse_map(text)
    assert m2 == m
    # a map keeps only its normalized model, and prints that model
    m = parse_map(json.dumps({"p": 3, "d": 2, "F": ["1/t", "0", "2"], "G": ["0", "0", "1"]}))
    data = json.loads(map_to_json(m))
    assert data["F"] == ["1", "0", "2*t"] and data["G"] == ["0", "0", "t"]
    assert parse_map(map_to_json(m)) == m
    assert repr(m) == "HomogMap(p=3, d=2, ['1', '0', '2*t'], ['0', '0', 't'])"
    with pytest.raises(ValueError):
        parse_map(json.dumps({"p": 3, "d": 2, "F": ["1"], "G": ["1"]}))
    with pytest.raises(ValueError):
        parse_map("x^2+t")  # shorthand without p


def test_map_json_from_file(tmp_path):
    m = parse_affine_map(2, "x^2+t")
    path = tmp_path / "map.json"
    path.write_text(map_to_json(m), encoding="utf-8")
    assert parse_map(f"@{path}") == m


def test_affine_parse_variants():
    m = parse_affine_map(2, "(t^2+1)*x^2+t*x+1")
    assert m.nf == (fp(2, "t^2+1"), fp(2, "t"), fp(2, "1"))
    m = parse_affine_map(2, "x^3")
    assert m.d == 3
    with pytest.raises(ValueError):
        parse_affine_map(2, "x^2 - t")
    with pytest.raises(ValueError):
        parse_affine_map(2, "")
    with pytest.raises(ValueError):
        parse_affine_map(2, "y^2")
    # redundant parentheses, repeated powers and a parenthesized denominator
    x2t = parse_affine_map(3, "x^2+t")
    assert parse_affine_map(3, "((x^2+t))") == x2t
    assert parse_affine_map(3, "(x^2)+(t)") == x2t
    assert parse_affine_map(3, "x^2+x^2+t") == parse_affine_map(3, "2*x^2+t")
    assert parse_affine_map(3, "((t))*x^2+1") == parse_affine_map(3, "t*x^2+1")
    m = parse_affine_map(2, "x^2/(t*x+1)")
    assert m.nf == (fp(2, "1"), fp(2, "0"), fp(2, "0"))
    assert m.ng == (fp(2, "0"), fp(2, "t"), fp(2, "1"))
    # a parenthesized sum is a sum, not a coefficient: (t+1*x) is x + t
    assert parse_affine_map(3, "(t+1*x)") == parse_affine_map(3, "x+t")
    with pytest.raises(ValueError, match="more than one top-level '/'"):
        parse_affine_map(2, "x^2/x/1")
    for text in ("x^2++t", "*x", "x^"):
        with pytest.raises(ValueError):
            parse_affine_map(2, text)

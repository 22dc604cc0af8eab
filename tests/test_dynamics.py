import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ffdyn.algebra import FpPoly, ResidueElem, enumerate_monic_irreducibles, primitive
from ffdyn.funcfield import Place, RatFunc, finite_places_up_to, valuation
from ffdyn.geometry import ProjPoint, all_residue_points, enumerate_points, reduce_point
from ffdyn import algebra, dynamics
from ffdyn.dynamics import (
    HomogMap,
    _field_gcd,
    compose_maps,
    from_rational_function,
    iterate_map,
    map_to_json,
    parse_affine_map,
    parse_map,
    sylvester_resultant,
)
from ffdyn.harness import MapGenSpec, _random_mobius_word, gen_maps
from oracles import (
    _kx_gcd,
    _kx_trim,
    eval_pair_by_objects,
    field_gcd_by_primitive_remainders,
    multiplier,
    normalize,
    reduce_map_by_kx_euclid,
    sylvester_det,
)


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


def test_evaluate_divides_out_the_common_factor_when_the_resultant_is_not_a_unit():
    # t*x^2 has resultant t^2: [1:t] goes to [t : t^2] = [1:t], and the orbit
    # that `ffdyn orbit "t*x^2" "[1:1]" -p 2` prints is [1:1], [t:1], [t^3:1]
    phi = parse_affine_map(2, "t*x^2")
    assert not phi.resultant().is_constant()
    assert phi.evaluate(pt(2, "[1:1]")) == pt(2, "[t:1]")
    assert phi.evaluate(pt(2, "[t:1]")) == pt(2, "[t^3:1]")
    assert phi.evaluate(pt(2, "[1:t]")) == pt(2, "[1:t]")
    assert phi.evaluate(pt(2, "[1:0]")) == pt(2, "[1:0]")
    # 2*t*x^2 + t at p = 3 has the model [t*X^2 + 2*t*Y^2 : 2*Y^2]: [1:t] goes
    # to [t + 2*t^3 : 2*t^2], then to [2*t^2 + 1 : 2*t] and [t^2 + 2 : t]
    psi = parse_affine_map(3, "2*t*x^2+t")
    assert psi.evaluate(pt(3, "[1:t]")) == pt(3, "[t^2+2:t]")
    assert psi.evaluate(pt(3, "[1:0]")) == pt(3, "[1:0]")


def test_evaluate_equals_the_object_kernel_made_canonical():
    # unit and non-unit resultants, degree 1 included, at random points,
    # infinity and zero; every image built from one FpPoly per coordinate
    rng = random.Random(41)
    nonunit = 0
    for p in (2, 3, 5):
        for d in range(1, 5):
            for end_zero in _END_ZEROS:
                phi = _random_map(rng, p, d, end_zero)
                nonunit += not phi.resultant().is_constant()
                for P in _random_points(rng, p, 4):
                    want = ProjPoint.from_coords(*eval_pair_by_objects(phi.nf, phi.ng, P.x, P.y))
                    assert phi.evaluate(P) == want
    assert nonunit >= 30


def test_evaluate_builds_one_poly_per_coordinate(monkeypatch):
    made = []
    real_make, real_init = FpPoly._make.__func__, FpPoly.__init__

    def counting_make(cls, p, coeffs):
        made.append(coeffs)
        return real_make(cls, p, coeffs)

    def counting_init(self, *args):
        made.append(args)
        real_init(self, *args)

    rng = random.Random(43)
    for p in (2, 3):
        for d in (1, 2, 4):
            phi = _random_map(rng, p, d)
            for P in _random_points(rng, p, 3):
                made.clear()
                monkeypatch.setattr(FpPoly, "_make", classmethod(counting_make))
                monkeypatch.setattr(FpPoly, "__init__", counting_init)
                phi.evaluate(P)
                monkeypatch.undo()
                assert len(made) == 2


def test_evaluate_skips_the_gcd_exactly_on_unit_resultant_maps(monkeypatch):
    # the gcd of the normal form is what a unit resultant saves; patched under
    # both module names, so a gcd bound into `dynamics` is counted too
    calls = []
    real_gcd = algebra._gcd_tuples

    def counting_gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(algebra, "_gcd_tuples", counting_gcd)
    monkeypatch.setattr(dynamics, "_gcd_tuples", counting_gcd, raising=False)
    rng = random.Random(47)
    maps = [parse_affine_map(2, "x^2+t*x+1"), parse_affine_map(3, "x^3+t^2*x+t"),
            parse_affine_map(3, "1/x+t"), HomogMap([1, 0, 0], [fp(2, "t^4+t"), 0, 1], p=2)]
    maps += [_random_map(rng, p, d) for p in (2, 3) for d in (1, 2, 3)]
    assert {phi._unit_resultant for phi in maps} == {True, False}
    for phi in maps:
        for P in _random_points(rng, phi.p, 3):
            calls.clear()
            phi.evaluate(P)
            assert bool(calls) != phi._unit_resultant


def test_proved_escaping_rejects_a_point_of_another_characteristic():
    # a monic map, a conjugated map, a map with no monic model and a degree-1
    # map; a point above the escape height is refused too, as evaluate does
    maps = [parse_affine_map(2, "x^2+t*x+1"),
            parse_affine_map(2, "x^3+(t^2+1)*x^2+1").conjugate(parse_affine_map(2, "1/x")),
            HomogMap([1, 0, 0], [fp(2, "t^4+t"), 0, 1], p=2),
            parse_affine_map(2, "t*x+1")]
    assert maps[1].monic_model[1] is not None and maps[2].monic_model is None
    for phi in maps:
        for P in (pt(3, "[t:1]"), pt(3, "[t^40:1]"), ProjPoint.infinity(3)):
            with pytest.raises(ValueError, match="mixed characteristics"):
                phi.proved_escaping(P)
            with pytest.raises(ValueError, match="mixed characteristics"):
                phi.evaluate(P)


@st.composite
def _forms_and_values(draw):
    """p, two forms of one degree 0..5 as coefficient lists of FpPoly (or
    ResidueElem when a modulus pi is drawn), a coordinate pair (x, y) in which
    0 and 1 come up often, and pi or None."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.sampled_from([0, 0, 1, 2, 3]))  # the degree of pi, 0 for F_p[t]
    pi = draw(st.sampled_from(enumerate_monic_irreducibles(p, k))) if k else None
    d = draw(st.integers(0, 5))

    def value(max_len):
        kind = draw(st.sampled_from(["zero", "one", "poly", "poly"]))
        cs = {"zero": [], "one": [1]}.get(kind) or draw(
            st.lists(st.integers(0, p - 1), max_size=max_len))
        f = FpPoly(p, cs)
        return f if pi is None else ResidueElem(pi, f)

    fc = [value(4) for _ in range(d + 1)]
    gc = [value(4) for _ in range(d + 1)]
    return p, fc, gc, value(6), value(6), pi


@given(_forms_and_values())
@settings(max_examples=400, deadline=None)
def test_eval_pair_on_tuples_equals_the_object_kernel(case):
    # over F_p[t] and over k(pi), y = 1, y = 0, x = 0, zero coefficients and
    # forms of degree 0 to 5
    p, fc, gc, x, y, pi = case
    tup = dynamics._tuples
    m = None if pi is None else pi.coeffs
    got = dynamics._eval_pair(p, tup(fc), tup(gc), *tup((x, y)), m)
    assert got == tup(eval_pair_by_objects(fc, gc, x, y))


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
    # the subresultant sequence against the Sylvester determinant:
    # G = c*Y^n takes the Y-factor rule alone, zeroed leading X-coefficients
    # keep their formal degree, and m != n with coefficients of degree 0-3
    # tell the exponents of f0, c and g0, the scales h and the swap sign
    # (-1)^(mn) apart.  Sparse forms have gaps that give steps with
    # delta >= 2, where the divisor c*h^delta and the scale update
    # lc^delta / h^(delta-1) differ from their delta = 1 values; formal
    # degree 0 (a zero constant too) takes the constant rule, and a trimmed
    # F shorter than G the swap.  Equal degrees m = n = d with coefficients
    # of degree h are the shapes where the members' coefficients grow
    rng = random.Random(34)

    def rand_form(p, k):
        return [FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(4) + 1)])
                for _ in range(k + 1)]

    def zero_head(form, z):
        return [FpPoly.zero(form[0].p)] * z + form[z:]

    def sparse(form):
        # the end coefficients as drawn, each middle one with chance 0.3
        zero = FpPoly.zero(form[0].p)
        return [c if i in (0, len(form) - 1) or rng.random() < 0.3 else zero
                for i, c in enumerate(form)]

    for shape in ("G = c*Y^n", "F head zero", "G head zero", "both heads zero", "generic",
                  "sparse", "F shorter after trim"):
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 97])
            m, n = rng.sample(range(1, 6), 2)
            if shape == "F shorter after trim":
                m, n = rng.randint(3, 7), rng.randint(2, 5)
            f, g = rand_form(p, m), rand_form(p, n)
            if shape == "G = c*Y^n":
                g = zero_head(g, n)
            if shape in ("F head zero", "both heads zero"):
                f = zero_head(f, rng.randint(1, m))
            if shape in ("G head zero", "both heads zero"):
                g = zero_head(g, rng.randint(1, n))
            if shape == "sparse":
                m, n = rng.randint(2, 8), rng.randint(2, 8)
                f, g = sparse(rand_form(p, m)), sparse(rand_form(p, n))
            if shape == "F shorter after trim":
                f = zero_head(f, rng.randint(m - n + 1, m - 1))
            res = sylvester_resultant(f, g)
            assert res == sylvester_det(f, g)
            if shape == "both heads zero":
                assert res.is_zero()
    for p in (2, 3, 5, 97):
        for _ in range(20):
            # formal degree 0 on either side, the constant 0 included
            m, n = rng.randrange(0, 6), rng.randrange(0, 6)
            f, g = rand_form(p, m), rand_form(p, n)
            c = f[0] if rng.random() < 0.5 else FpPoly.zero(p)
            if rng.random() < 0.5:
                f = [c]
            else:
                g = [c]
            assert sylvester_resultant(f, g) == sylvester_det(f, g)
    for p, d, h in ((5, 4, 3), (2, 6, 4), (2, 1, 3)):
        for _ in range(8):
            f, g = ([FpPoly(p, [rng.randrange(p) for _ in range(h + 1)]) for _ in range(d + 1)]
                    for _ in range(2))
            assert sylvester_resultant(f, g) == sylvester_det(f, g)


def test_sylvester_resultant_products_stay_subresultant_sized(monkeypatch):
    # the p = 2, d = 8, seed-0 ConjugatedMonicPoly map, h = 1.  Members of
    # the subresultant sequence and their scales are subresultants, minors
    # of the Sylvester matrix, so their coefficients have degree at most
    # (m + n)*h; a step multiplies a member by powers of leading
    # coefficients and scales, and over this map's steps (delta <= 2) no
    # product passes 3*(m + n)*h.  A scalar carried through every step would
    # grow with the number of steps instead
    phi = parse_map(json.dumps({"p": 2, "d": 8, "F": ["1"] + ["0"] * 8,
                                "G": ["t+1", "0", "t", "1", "t", "1", "t+1", "t", "1"]}))
    m = n = phi.d
    h = max(c.degree for c in phi.nf + phi.ng)
    top = []
    mul = FpPoly.__mul__

    def tracked(a, b):
        out = mul(a, b)
        top.append(out.degree)
        return out

    monkeypatch.setattr(FpPoly, "__mul__", tracked)
    assert sylvester_resultant(list(phi.nf), list(phi.ng)).is_one()
    assert top and max(top) <= 3 * (m + n) * h


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


def test_reduce_map_cancels_common_x_and_y_factors():
    t, place = fp(3, "t"), Place.parse(3, "t")
    # X divides both reductions: [X^2 + t*Y^2 : X*Y] -> [X : Y]
    red = HomogMap([1, 0, t], [0, 1, 0], p=3).reduce_map(place)
    assert str(red) == "[X : Y] mod t (degree 1)"
    # Y divides both reductions: [t*X^2 + X*Y + Y^2 : t*X^2 + Y^2] -> [X + Y : Y]
    red = HomogMap([t, 1, 1], [t, 0, 1], p=3).reduce_map(place)
    assert str(red) == "[X + Y : Y] mod t (degree 1)"
    # F vanishes mod t and G does not: [t*X^2 : X^2 + Y^2] -> [0 : 1]
    red = HomogMap([t, 0, 0], [1, 0, 1], p=3).reduce_map(place)
    assert str(red) == "[0 : (1)] mod t (degree 0)"


def test_form_kernel_over_k_pi_is_the_reduction_of_the_kernel_over_fp_t():
    # the kernel takes its zeros from its inputs, so it runs on ResidueElem
    # lists and commutes with reduction mod pi; d = 1 gives an s of degree 0
    rng = random.Random(41)
    for p in (2, 3, 5):
        for place in finite_places_up_to(p, 2):
            for d in range(1, 5):
                phi = _random_map(rng, p, d, _END_ZEROS[rng.randrange(5)])

                def bar(form):
                    return [ResidueElem(place.pi, c) for c in form]

                fbar, gbar = bar(phi.nf), bar(phi.ng)
                assert dynamics._form_mul(fbar, gbar) == bar(dynamics._form_mul(phi.nf, phi.ng))
                assert (dynamics._multiplier_form(fbar, gbar)
                        == bar(dynamics._multiplier_form(phi.nf, phi.ng)))


def test_reduce_map_is_the_reduction_with_the_common_factor_cancelled():
    # [F' : G'] = reduce_map is [F-bar : G-bar] as a map, F-bar*G' = G-bar*F'
    # as binary forms over k(pi), and F', G' are coprime: their x = X/Y
    # polynomials have gcd 1 and their X^(d_red) coefficients are not both 0.
    # It prints as the reference Euclid on ascending lists does, on forms of
    # degree 1-5, some with leading zeros, at places of degree <= 3
    rng = random.Random(17)
    seen, deep_drops = set(), 0
    for p in (2, 3, 5, 7):
        places = finite_places_up_to(p, 3)
        for _ in range(16):
            d = rng.randrange(1, 6)
            while True:
                F = [FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(4))]) for _ in range(d + 1)]
                G = [FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(4))]) for _ in range(d + 1)]
                if rng.random() < 0.3:
                    z = rng.randrange(1, d + 1)
                    (F if rng.random() < 0.5 else G)[:z] = [FpPoly.zero(p)] * z
                try:
                    phi = HomogMap(F, G, p=p)
                    break
                except ValueError:
                    continue
            for place in rng.sample(places, min(len(places), 12)):
                red = phi.reduce_map(place)
                assert str(red) == str(reduce_map_by_kx_euclid(phi, place))
                fbar = [ResidueElem(place.pi, c) for c in phi.nf]
                gbar = [ResidueElem(place.pi, c) for c in phi.ng]
                f_red, g_red = list(red.f_coeffs), list(red.g_coeffs)
                assert len(f_red) == len(g_red) == red.reduced_degree + 1
                assert dynamics._form_mul(fbar, g_red) == dynamics._form_mul(gbar, f_red)
                assert not (f_red[0].is_zero() and g_red[0].is_zero())
                gcd = _kx_gcd(_kx_trim(f_red[::-1]), _kx_trim(g_red[::-1]))
                assert len(gcd) == 1 and gcd[0].is_one()
                seen.add(red.good_reduction)
                deep_drops += red.reduced_degree <= phi.d - 2  # a gcd of degree >= 2
    assert seen == {True, False} and deep_drops >= 10


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


def test_monic_model_is_derived_from_the_map_alone():
    # a finite totally ramified fixed point gets the det-1 chart that sends
    # it to infinity, read off a linear gcd of P_1 and P_2
    conj = parse_affine_map(2, "x^3+(t^2+1)*x^2+1").conjugate(parse_affine_map(2, "1/x"))
    R, M = conj.monic_model
    assert R == 2 and M.evaluate(pt(2, "[0:1]")) == pt(2, "[1:0]")
    big = parse_map(json.dumps({"p": 2, "d": 300, "F": ["1"] + ["0"] * 300, "G": ["1"] * 301}))
    assert big.monic_model == (0, parse_affine_map(2, "1/x"))
    # no chart: no totally ramified fixed point; a purely inseparable map,
    # whose every fixed point is totally ramified; and a chart polynomial
    # t*x^2 + 1 whose leading coefficient t is not a unit
    assert parse_affine_map(2, "(x^3+t)/(t*x^2+x+1)").monic_model is None
    assert HomogMap([1, 0, 0], [fp(2, "t^4+t"), 0, 1], p=2).monic_model is None
    assert parse_affine_map(3, "t*x^2+1").conjugate(parse_affine_map(3, "1/x")).monic_model is None


def test_subresultant_prs_is_the_resultant_mod_pi_and_leaves_its_arguments():
    # the one remainder sequence runs over F_p[t] and over k(pi); where
    # both leading coefficients are units mod pi it gives Res mod pi, zero
    # included, and neither run changes the lists it is given
    rng = random.Random(41)
    checked = vanishing = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        a, b = ([FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
                 for _ in range(rng.randrange(1, 7))] for _ in range(2))
        if a[0].is_zero() or b[0].is_zero():
            continue
        a_in, b_in, res = list(a), list(b), sylvester_resultant(a, b)
        assert dynamics._subresultant_prs(a, b)[1] == res
        assert (a, b) == (a_in, b_in)
        for place in rng.sample(finite_places_up_to(p, 3), 3):
            pi = place.pi
            abar, bbar = ([ResidueElem(pi, c) for c in form] for form in (a, b))
            if not (abar[0] and bbar[0]):
                continue
            abar_in, bbar_in = list(abar), list(bbar)
            got = dynamics._subresultant_prs(abar, bbar)[1]
            assert (abar, bbar) == (abar_in, bbar_in)
            assert got == ResidueElem(pi, res)
            checked += 1
            vanishing += not got
    assert checked >= 250 and vanishing >= 10


def test_field_gcd_matches_primitive_remainder_euclid():
    # the monic-model gcd is the last subresultant, made primitive by its
    # caller; the reference is Euclid on pseudo-remainders made primitive.
    # Three pairs in ten share a random factor, and pairs include leading
    # zeros, equal lengths and one or both inputs zero
    rng = random.Random(39)

    def primitive_gcd(a, b):
        g = _field_gcd(a, b)
        return primitive(g) if g else g

    def rand_poly(p, k):
        return [FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(4))])
                for _ in range(k)]

    shared = 0
    for _ in range(600):
        p = rng.choice([2, 3, 5, 7, 97])
        la = rng.randrange(1, 7)
        lb = la if rng.random() < 0.25 else rng.randrange(1, 7)
        a, b = rand_poly(p, la), rand_poly(p, lb)
        if rng.random() < 0.3:
            common = rand_poly(p, rng.randrange(2, 4))
            a, b = dynamics._form_mul(a, common), dynamics._form_mul(b, common)
        for form in (a, b):
            if rng.random() < 0.25:  # leading zeros; z = len(form) zeroes it
                z = rng.randrange(1, len(form) + 1)
                form[:z] = [FpPoly.zero(p)] * z
        got = primitive_gcd(list(a), list(b))
        assert got == field_gcd_by_primitive_remainders(list(a), list(b))
        shared += len(got) > 1
    assert shared >= 50
    zero, g = FpPoly.zero(5), [fp(5, "2*t"), fp(5, "4*t^2"), FpPoly.zero(5)]
    for a, b in (([zero], [zero, zero]), ([zero, zero], g), (g, [zero])):
        assert primitive_gcd(a, b) == field_gcd_by_primitive_remainders(list(a), list(b))
    assert _field_gcd([zero], [zero, zero]) == [] and primitive_gcd(g, [zero]) == [1, fp(5, "2*t"), 0]


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


def _random_map(rng, p, d, end_zero=None):
    """A random map of degree d over F_p[t]; end_zero = (form, end) zeroes the
    first (end 0) or last (end -1) coefficient of F (form 0) or G (form 1)
    and keeps it nonzero in the other form."""
    def coeff():
        return FpPoly(p, [rng.randrange(p) for _ in range(3)])

    while True:
        forms = [[coeff() for _ in range(d + 1)] for _ in range(2)]
        if end_zero is not None:
            form, end = end_zero
            forms[form][end] = FpPoly.zero(p)
            while forms[1 - form][end].is_zero():
                forms[1 - form][end] = coeff()
        try:
            return HomogMap(*forms, p=p)
        except ValueError:
            continue


def _random_points(rng, p, count):
    out = []
    while len(out) < count:
        x, y = (FpPoly(p, [rng.randrange(p) for _ in range(3)]) for _ in range(2))
        if not (x.is_zero() and y.is_zero()):
            out.append(ProjPoint.from_coords(x, y))
    return out + [ProjPoint.infinity(p), ProjPoint.from_coords(FpPoly.zero(p), FpPoly.one(p))]


# end coefficients zero in one form only, at both ends, or not at all
_END_ZEROS = (None, (0, 0), (1, 0), (0, -1), (1, -1))


def test_conjugation_is_functorial_on_points():
    # evaluate(conj(phi, M), M^-1 P) == M^-1 evaluate(phi, P)
    rng = random.Random(37)
    phi = parse_affine_map(3, "x^2+t")
    M = compose_maps(parse_affine_map(3, "x+t^2"), parse_affine_map(3, "1/x"))
    conj = phi.conjugate(M)
    Minv = _inverse(M)
    for P in _random_points(rng, 3, 40):
        assert conj.evaluate(Minv.evaluate(P)) == Minv.evaluate(phi.evaluate(P))
    # conj(phi, M) = A . phi . M with A the adjugate of M, for random maps of
    # degree 1-4 whose end coefficients vanish in one form only
    for p in (2, 3, 5):
        for d in range(1, 5):
            for end_zero in _END_ZEROS:
                phi = _random_map(rng, p, d, end_zero)
                M = _random_mobius_word(rng, MapGenSpec("ConjugatedMonicPoly", p, 2, 1))
                conj, A = phi.conjugate(M), _inverse(M)
                for P in _random_points(rng, p, 3):
                    assert conj.evaluate(P) == A.evaluate(phi.evaluate(M.evaluate(P)))


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
    assert iterate_map(phi, 1) is phi
    # random maps of degree 1-4 whose end coefficients vanish in one form
    # only, composed with random maps of degree 1-4
    rng = random.Random(38)
    for p in (2, 3, 5):
        for d in range(1, 5):
            for end_zero in _END_ZEROS:
                phi = _random_map(rng, p, d, end_zero)
                psi = _random_map(rng, p, rng.randrange(1, 5), _END_ZEROS[rng.randrange(5)])
                comp = compose_maps(phi, psi)
                assert comp.d == phi.d * psi.d
                for P in _random_points(rng, p, 3):
                    assert comp.evaluate(P) == phi.evaluate(psi.evaluate(P))


def test_kernel_builds_each_power_once_and_multiplies_nothing_by_one(monkeypatch):
    # one evaluate of a degree-d map with 2(d+1) nonzero coefficients, counted
    # in `_mul_tuples` under both names that bind it: at a point with a
    # nonconstant y, 2(d-1) ladder steps, d-1 middle monomials and 2(d+1)
    # coefficient products, 5d - 1 products in all; at y = 1 the monomials
    # are the d-1 ladder steps' powers of x and the last coefficients take
    # no product, 3d - 1 in all
    rng = random.Random(39)
    calls = []
    real_mul = algebra._mul_tuples

    def counting_mul(p, a, b):
        calls.append(1)
        return real_mul(p, a, b)

    for d in range(1, 6):
        while True:
            phi = _random_map(rng, 3, d)
            if all(not c.is_zero() for c in phi.nf + phi.ng):
                break
        for P, count in ((pt(3, "[t^2+1:t+2]"), 5 * d - 1), (pt(3, "[t^2+1:1]"), 3 * d - 1)):
            monkeypatch.setattr(algebra, "_mul_tuples", counting_mul)
            monkeypatch.setattr(dynamics, "_mul_tuples", counting_mul)
            calls.clear()
            phi.evaluate(P)
            monkeypatch.undo()
            assert len(calls) == count
    # a substitution builds each power of U and V once, from U and V
    # themselves, and multiplies forms only for those powers and the d - 1
    # middle monomials; the adjugate step of a conjugation is linear
    operands = []
    real_form_mul = dynamics._form_mul

    def counting_form_mul(u, v):
        operands.append((len(u), len(v)))
        return real_form_mul(u, v)

    monkeypatch.setattr(dynamics, "_form_mul", counting_form_mul)
    for d in range(1, 5):
        phi, psi = _random_map(rng, 3, d), _random_map(rng, 3, 2)
        operands.clear()
        compose_maps(phi, psi)
        assert len(operands) == 3 * (d - 1) and all(1 not in pair for pair in operands)
        M = _random_mobius_word(rng, MapGenSpec("ConjugatedMonicPoly", 3, 2, 1))
        operands.clear()
        phi.conjugate(M)
        assert len(operands) == 3 * (d - 1) and all(1 not in pair for pair in operands)


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

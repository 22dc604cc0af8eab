import random

import pytest

from ffdyn.algebra import FpPoly
from ffdyn.funcfield import Place, RatFunc, finite_places_up_to
from ffdyn.geometry import (
    MAX_BOX_POINTS,
    ProjPoint,
    all_residue_points,
    enumerate_points,
    log_distance,
    reduce_point,
)
from oracles import log_distance_raw, normalize

SMALL_PRIMES = [2, 3, 5]


def pt(p, s):
    return ProjPoint.parse(p, s)


def _random_point(rng, p, max_deg=3):
    while True:
        x = FpPoly(p, [rng.randrange(p) for _ in range(max_deg + 1)])
        y = FpPoly(p, [rng.randrange(p) for _ in range(max_deg + 1)])
        if not (x.is_zero() and y.is_zero()):
            return ProjPoint.from_coords(x, y)


def test_normalize_examples():
    assert normalize(RatFunc.parse(2, "t^2+t"), RatFunc.parse(2, "t")) == pt(2, "[t+1:1]")
    assert normalize(RatFunc.parse(2, "1/t"), RatFunc.one(2)) == pt(2, "[1:t]")
    assert normalize(RatFunc.zero(7), RatFunc.constant(7, 5)) == pt(7, "[0:1]")
    with pytest.raises(ValueError):
        normalize(RatFunc.zero(2), RatFunc.zero(2))


def test_canonical_form_invariants():
    q = ProjPoint.from_coords(FpPoly.parse(3, "2*t+2"), FpPoly.parse(3, "2"))
    assert q.y.is_monic() and q.x == FpPoly.parse(3, "t+1")
    q = ProjPoint.from_coords(FpPoly.parse(3, "2"), FpPoly.zero(3))
    assert q == ProjPoint.infinity(3)
    with pytest.raises(ValueError):
        ProjPoint(FpPoly.parse(2, "t"), FpPoly.parse(2, "t"))  # not coprime
    with pytest.raises(ValueError):
        ProjPoint(FpPoly.parse(3, "2*t"), FpPoly.one(3) * 2)   # y not monic


def test_point_parse_str_round_trip():
    q = pt(2, "[ t + 1 : t ]")
    assert str(q) == "[t+1 : t]"
    assert ProjPoint.parse(2, str(q)) == q
    with pytest.raises(ValueError):
        pt(2, "[t:1:1]")
    with pytest.raises(ValueError):
        pt(2, "t:1")


def test_height():
    assert pt(2, "[0:1]").height == 0
    assert pt(2, "[1:0]").height == 0
    assert pt(2, "[t^3+1:t]").height == 3


def test_log_distance_examples():
    t = Place.parse(2, "t")
    inf = Place.infinity(2)
    assert log_distance(pt(2, "[0:1]"), pt(2, "[t:1]"), t) == 1
    assert log_distance(pt(2, "[1:0]"), pt(2, "[0:1]"), t) == 0
    assert log_distance(pt(2, "[t:1]"), pt(2, "[t+1:1]"), inf) == 2
    with pytest.raises(ValueError):
        log_distance(pt(2, "[t:1]"), pt(2, "[t:1]"), t)


def test_log_distance_nonnegative_at_finite_places():
    rng = random.Random(21)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        P, Q = _random_point(rng, p), _random_point(rng, p)
        if P == Q:
            continue
        for v in finite_places_up_to(p, 2):
            assert log_distance(P, Q, v) >= 0


def test_log_distance_symmetry_and_coordinate_independence():
    rng = random.Random(22)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        P, Q = _random_point(rng, p), _random_point(rng, p)
        if P == Q:
            continue
        places = finite_places_up_to(p, 2) + [Place.infinity(p)]
        v = rng.choice(places)
        d = log_distance(P, Q, v)
        assert d == log_distance(Q, P, v)
        # rescale both coordinate pairs by arbitrary nonzero rational functions
        def scale():
            while True:
                num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
                den = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
                if not num.is_zero() and not den.is_zero():
                    return RatFunc(num, den)
        l1, l2 = scale(), scale()
        raw = log_distance_raw(
            l1 * RatFunc.from_poly(P.x), l1 * RatFunc.from_poly(P.y),
            l2 * RatFunc.from_poly(Q.x), l2 * RatFunc.from_poly(Q.y), v)
        assert raw == d


def test_triangle_comparison_random():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        P1, P2, P3 = (_random_point(rng, p) for _ in range(3))
        if len({P1, P2, P3}) < 3:
            continue
        for v in finite_places_up_to(p, 2) + [Place.infinity(p)]:
            assert log_distance(P1, P3, v) >= min(
                log_distance(P1, P2, v), log_distance(P2, P3, v))


def test_reduce_point_examples():
    t = Place.parse(2, "t")
    rp = reduce_point(pt(2, "[t:1]"), t)
    assert rp.x.is_zero() and rp.y.is_one()
    assert rp == reduce_point(pt(2, "[0:1]"), t)
    assert str(rp) == "[0 : 1]"
    assert reduce_point(pt(2, "[t+1:t]"), t).is_infinity()
    pi = Place.parse(2, "t^2+t+1")
    q = reduce_point(pt(2, "[t^2+t+1:t+1]"), pi)
    assert q.x.is_zero() and q.y.is_one()
    with pytest.raises(ValueError):
        reduce_point(pt(2, "[t:1]"), Place.infinity(2))


def test_reduction_distance_link_exhaustive():
    # positive distance at a finite place <=> equal reductions
    box = enumerate_points(2, 2)
    places = finite_places_up_to(2, 2)
    for i, P in enumerate(box):
        for Q in box[i + 1:]:
            for v in places:
                same = reduce_point(P, v) == reduce_point(Q, v)
                assert (log_distance(P, Q, v) > 0) == same


def test_enumerate_points_counts():
    assert len(enumerate_points(2, 0)) == 3
    assert len(enumerate_points(3, 0)) == 4
    assert len(enumerate_points(2, 1)) == 9
    # the closed form p^(2B+1) + 1 that the box limit is checked against
    for p, B in ((2, 3), (2, 4), (3, 2), (5, 1), (5, 2), (7, 1), (97, 0)):
        assert len(enumerate_points(p, B)) == p ** (2 * B + 1) + 1
    with pytest.raises(ValueError):
        enumerate_points(2, -1)


def test_enumerate_points_refuses_a_box_over_the_limit():
    assert 3 ** 13 + 1 <= MAX_BOX_POINTS < 3 ** 15 + 1
    for p, B in ((3, 7), (11, 3), (97, 2), (97, 3), (2, 10 ** 9)):
        with pytest.raises(ValueError, match=f"box at p = {p} has {p}\\^{2 * B + 1} "
                                             f"\\+ 1 points, above the limit {MAX_BOX_POINTS}"):
            enumerate_points(p, B)


def test_enumerate_points_b0_exact():
    got = {str(q) for q in enumerate_points(2, 0)}
    assert got == {"[0 : 1]", "[1 : 1]", "[1 : 0]"}


def test_enumerate_points_complete_and_canonical():
    for p, B in [(2, 2), (3, 1)]:
        pts = enumerate_points(p, B)
        assert len(set(pts)) == len(pts)
        assert pts == enumerate_points(p, B)
        for q in pts:
            assert q.height <= B
            assert q.x.gcd(q.y).is_one()
        # brute-force count: canonical coprime pairs plus infinity
        count = 1
        from ffdyn.algebra import monic_polys_of_degree, polynomials_up_to
        for ydeg in range(B + 1):
            for y in monic_polys_of_degree(p, ydeg):
                for x in polynomials_up_to(p, B):
                    if x.gcd(y).is_one():
                        count += 1
        assert len(pts) == count


def test_all_residue_points():
    pi = FpPoly.parse(2, "t^2+t+1")
    pts = all_residue_points(pi)
    assert len(pts) == 5  # 4 affine + infinity
    assert len(set(pts)) == 5
    assert pts[-1].is_infinity()

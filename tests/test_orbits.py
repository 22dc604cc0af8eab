import pickle
import random

import pytest

from ffdyn.algebra import FpPoly, mult_order
from ffdyn.funcfield import Place, finite_places_up_to, reduce_mod
from ffdyn.geometry import ProjPoint, enumerate_points, log_distance, reduce_point
from ffdyn.dynamics import HomogMap, Mobius, parse_affine_map
from ffdyn.harness import MapGenSpec, gen_maps
from ffdyn.orbits import (
    OrbitStatus,
    check_lemma_equal_distances,
    check_lemma_pab,
    check_prop_51,
    check_prop_52,
    check_prop_61,
    checker_record,
    cross_product_support,
    find_periodic_points,
    iterate_orbit,
    residue_cycle_multiplier,
    residue_dynamics,
    verify_mst,
)


def pt(p, s):
    return ProjPoint.parse(p, s)


def test_iterate_orbit_examples():
    rep = iterate_orbit(parse_affine_map(3, "x^2"), pt(3, "[2:1]"))
    assert rep.status is OrbitStatus.FINITE_ORBIT
    assert (rep.tail, rep.cycle, rep.orbit_size) == (1, 1, 2)
    assert [str(q) for q in rep.points] == ["[2 : 1]", "[1 : 1]"]

    rep = iterate_orbit(parse_affine_map(2, "1/x^2"), pt(2, "[0:1]"))
    assert rep.status is OrbitStatus.FINITE_ORBIT
    assert (rep.tail, rep.cycle) == (0, 2)

    rep = iterate_orbit(parse_affine_map(2, "x^2+t"), pt(2, "[0:1]"), max_height=10)
    assert rep.status is OrbitStatus.HEIGHT_ESCAPE
    assert rep.orbit_size is None


def test_iterate_orbit_validation():
    # every orbit ends closed or escaping: there is no third outcome
    assert [s.value for s in OrbitStatus] == ["finite", "height_escape"]
    with pytest.raises(ValueError, match="max_height"):
        iterate_orbit(parse_affine_map(2, "x^2"), pt(2, "[0:1]"), max_height=-5)
    # degree 1 has no certified escape height
    with pytest.raises(ValueError, match="max_height"):
        iterate_orbit(parse_affine_map(2, "x+t"), pt(2, "[0:1]"))
    rep = iterate_orbit(parse_affine_map(2, "x+t"), pt(2, "[0:1]"), max_height=10)
    assert rep.status is OrbitStatus.FINITE_ORBIT and (rep.tail, rep.cycle) == (0, 2)


def test_certified_escape_agrees_with_a_higher_cap():
    # stopping at the first point proved escaping (escape height or monic
    # model) loses nothing: iterating 20 heights past the escape height finds
    # the same finite orbits and no late return
    rng = random.Random(7)
    # x^3 + (t^2+1)*x^2 + 1 at p = 2: the 2-cycle t^2+1 <-> 1 lies above
    # h/(d-1) = 1, so R must count the a_(d-1) term (R = 2)
    cubic = parse_affine_map(2, "x^3+(t^2+1)*x^2+1")
    assert cubic.monic_model == (2, None)
    rep = iterate_orbit(cubic, pt(2, "[t^2+1:1]"))
    assert rep.status is OrbitStatus.FINITE_ORBIT and (rep.tail, rep.cycle) == (0, 2)
    cases = [(2, [cubic, cubic.conjugate(Mobius.inversion(2))])]
    for p in (2, 3, 5):
        maps = []
        for d in (2, 3, 4):
            count = 3 if d == 2 else 2
            maps += gen_maps(MapGenSpec("MonicPoly", p, d, 2, seed=5), count)
            maps += gen_maps(MapGenSpec("ConjugatedMonicPoly", p, d, 1, seed=5), count)
        maps += gen_maps(MapGenSpec("RejectionRandom", p, 2, 0, seed=5), 3)
        # conjugated twice, so the model's matrix is a product N.M
        twice = gen_maps(MapGenSpec("ConjugatedMonicPoly", p, 2, 1, seed=6), 2)
        for phi in twice:
            N = phi.monic_model[1]
            M = Mobius.translation(FpPoly(p, [0, 1])).compose(
                Mobius.scaling(p, rng.randrange(1, p))).compose(Mobius.inversion(p))
            psi = phi.conjugate(M)
            assert psi.monic_model == (phi.monic_model[0], N.compose(M))
            maps.append(psi)
        cases.append((p, maps))
    for p, maps in cases:
        for phi in maps:
            assert pickle.loads(pickle.dumps(phi)).monic_model == phi.monic_model
            for P in enumerate_points(p, 1) + [pt(p, "[t^2+1:1]")]:
                rep = iterate_orbit(phi, P)
                far = iterate_orbit(phi, P, max_height=phi.escape_height + 20)
                assert (rep.status, rep.tail, rep.cycle) == (far.status, far.tail, far.cycle)
                if rep.status is OrbitStatus.FINITE_ORBIT:
                    assert rep.points == far.points


def test_orbit_report_consistency():
    # re-evaluating the map along the reported points reproduces them
    phi = parse_affine_map(2, "1/x^2")
    for start in enumerate_points(2, 1):
        rep = iterate_orbit(phi, start)
        for a, b in zip(rep.points, rep.points[1:]):
            assert phi.evaluate(a) == b
        if rep.status is OrbitStatus.FINITE_ORBIT:
            assert phi.evaluate(rep.points[-1]) == rep.points[rep.tail]
            assert len(set(rep.points)) == len(rep.points)


def test_default_caps():
    assert parse_affine_map(2, "x^2+t").escape_height == 3
    assert HomogMap([1, 1], [0, 1], p=2).escape_height is None


def test_residue_dynamics_examples():
    g = residue_dynamics(parse_affine_map(2, "x^2"), Place.parse(2, "t"))
    assert all(t == 0 and c == 1 for t, c in zip(g.tail, g.cycle_len))

    g = residue_dynamics(parse_affine_map(2, "x^2+1"), Place.parse(2, "t"))
    by_str = {str(p): (g.tail[i], g.cycle_len[i]) for i, p in enumerate(g.points)}
    assert by_str["[0 : 1]"] == (0, 2)
    assert by_str["[1 : 1]"] == (0, 2)
    assert by_str["[1 : 0]"] == (0, 1)

    g = residue_dynamics(parse_affine_map(5, "x^2"), Place.parse(5, "t"))
    by_str = {str(p): (g.tail[i], g.cycle_len[i]) for i, p in enumerate(g.points)}
    assert by_str["[0 : 1]"] == (0, 1)
    assert by_str["[1 : 1]"] == (0, 1)
    assert by_str["[1 : 0]"] == (0, 1)
    assert by_str["[4 : 1]"] == (1, 1)
    assert by_str["[2 : 1]"] == (2, 1)
    assert by_str["[3 : 1]"] == (2, 1)


def test_residue_dynamics_cap_and_place_validation():
    with pytest.raises(ValueError):
        residue_dynamics(parse_affine_map(2, "x^2"), Place.parse(2, "t"), cap=2)
    with pytest.raises(ValueError):
        residue_dynamics(parse_affine_map(2, "x^2"), Place.infinity(2))


def test_functional_graph_matches_naive_apply():
    # the graph's image array must agree with ResidueMap.apply point by point
    maps = gen_maps(MapGenSpec("MonicPoly", 3, 2, 2, seed=8), 3)
    maps += gen_maps(MapGenSpec("RejectionRandom", 3, 2, 0, seed=8), 2)
    for phi in maps:
        for place in finite_places_up_to(3, 2):
            g = residue_dynamics(phi, place)
            red = phi.reduce_map(place)
            for i, q in enumerate(g.points):
                assert g.points[g.image[i]] == red.apply(q)


def test_graph_period_equals_direct_iteration():
    maps = gen_maps(MapGenSpec("MonicPoly", 2, 2, 2, seed=9), 5)
    for phi in maps:
        for place in finite_places_up_to(2, 3):
            g = residue_dynamics(phi, place)
            red = phi.reduce_map(place)
            for i, q in enumerate(g.points):
                if g.tail[i] != 0:
                    continue
                m = g.period_of(q)
                cur = q
                for _ in range(m):
                    cur = red.apply(cur)
                assert cur == q
                # minimality
                cur = q
                for k in range(1, m):
                    cur = red.apply(cur)
                    assert cur != q


def test_find_periodic_points_examples():
    out = find_periodic_points(parse_affine_map(2, "x^2"), 2)
    assert {(str(q), n) for q, n in out} == {("[0 : 1]", 1), ("[1 : 1]", 1), ("[1 : 0]", 1)}

    out = find_periodic_points(parse_affine_map(2, "1/x^2"), 2)
    got = {(str(q), n) for q, n in out}
    assert ("[0 : 1]", 2) in got and ("[1 : 0]", 2) in got and ("[1 : 1]", 1) in got

    # every polynomial map fixes [1:0]; all affine orbits of x^2+t escape
    out = find_periodic_points(parse_affine_map(2, "x^2+t"), 3)
    assert {(str(q), n) for q, n in out} == {("[1 : 0]", 1)}

    with pytest.raises(ValueError):
        find_periodic_points(HomogMap([1, 0], [0, 1], p=2), 1)


def test_verify_mst_examples():
    dec = verify_mst(parse_affine_map(2, "1/x^2"), pt(2, "[0:1]"), 2, Place.parse(2, "t"))
    assert dec.case == "i" and dec.m == 2 and dec.r is None  # r = infinity

    dec = verify_mst(parse_affine_map(3, "x^2"), pt(3, "[1:1]"), 1, Place.parse(3, "t"))
    assert dec.case == "i" and dec.m == 1 and not dec.is_violation


def test_verify_mst_beyond_the_old_residue_field_cap():
    # 23^3 + 1 and 97^3 + 1 residue points: only one reduced orbit is stepped
    dec = verify_mst(parse_affine_map(23, "x^2"), pt(23, "[1:1]"), 1,
                     Place.parse(23, "t^3+t+3"))
    assert (dec.case, dec.m, dec.r) == ("i", 1, 11)
    dec = verify_mst(parse_affine_map(97, "1/x^2"), pt(97, "[0:1]"), 2,
                     Place.parse(97, "t^3+t+1"))
    assert (dec.case, dec.m, dec.r) == ("i", 2, None)


def test_verify_mst_case_ii_instance():
    # phi = x^2 + (2t+2)x + 2 over F_3 has the 2-cycle 2 <-> t+1; at the
    # place t+2 the reduction of [2:1] is fixed (m=1) and the reduced
    # multiplier 2t = 2 has order 2, so n = m*r
    phi = parse_affine_map(3, "x^2+(2*t+2)*x+2")
    P = pt(3, "[2:1]")
    assert phi.evaluate(phi.evaluate(P)) == P
    dec = verify_mst(phi, P, 2, Place.parse(3, "t+2"))
    assert (dec.case, dec.m, dec.r, dec.e) == ("ii", 1, 2, None)


def test_verify_mst_case_iii_instance():
    # phi = x^2 + tx + 1 over F_2 has the 2-cycle [1:1] <-> [t:1]; at the
    # place t+1 the reduced point is fixed with trivial multiplier order,
    # so n = p^e * m * r with p = 2 and e = 1
    phi = parse_affine_map(2, "x^2+t*x+1")
    P = pt(2, "[1:1]")
    assert phi.evaluate(P) == pt(2, "[t:1]") and phi.evaluate(pt(2, "[t:1]")) == P
    dec = verify_mst(phi, P, 2, Place.parse(2, "t+1"))
    assert (dec.case, dec.m, dec.r, dec.e) == ("iii", 1, 1, 1)


def test_verify_mst_error_paths():
    phi3 = parse_affine_map(3, "(x^2+2*t)/x")
    with pytest.raises(ValueError):
        verify_mst(phi3, pt(3, "[1:1]"), 1, Place.parse(3, "t"))  # bad reduction
    sq = parse_affine_map(2, "x^2")
    with pytest.raises(ValueError):
        verify_mst(sq, pt(2, "[0:1]"), 2, Place.parse(2, "t"))  # wrong period
    with pytest.raises(ValueError):
        verify_mst(sq, pt(2, "[t:1]"), 1, Place.parse(2, "t"))  # not periodic
    with pytest.raises(ValueError):
        verify_mst(sq, pt(2, "[0:1]"), 1, Place.infinity(2))


def test_residue_cycle_multiplier_agrees_with_reduced_global_multiplier():
    # where the reduction of the global m-step derivative is defined (no
    # orbit point collapses onto infinity mod pi unless it is [1:0]), the
    # residue-side cycle multiplier must equal it
    compared = 0
    for p, pi_text in ((3, "t^2+1"), (2, "t"), (5, "t+1")):
        place = Place.parse(p, pi_text)
        maps = [parse_affine_map(p, "1/x^2"), parse_affine_map(p, "x^2")]
        maps += gen_maps(MapGenSpec("MonicPoly", p, 2, 1, seed=12), 4)
        for phi in maps:
            red = phi.reduce_map(place)
            g = residue_dynamics(phi, place)
            for P, n in find_periodic_points(phi, 1):
                cycle = [P]
                cur = P
                for _ in range(n - 1):
                    cur = phi.evaluate(cur)
                    cycle.append(cur)
                if any(reduce_point(Q, place).is_infinity() != Q.is_infinity()
                       for Q in cycle):
                    continue
                m = g.period_of(reduce_point(P, place))
                lam_bar = residue_cycle_multiplier(red, reduce_point(P, place), m)
                lam_global = phi.multiplier(P, m)
                assert reduce_mod(lam_global, place) == lam_bar
                dec = verify_mst(phi, P, n, place)
                assert dec.m == m
                if not lam_bar.is_zero():
                    assert dec.r == mult_order(lam_bar)
                compared += 1
    assert compared > 10


def test_verify_mst_with_orbit_reducing_to_infinity():
    # regression: P = [1 : t^3+t^2+t] reduces to the infinite point mod t,
    # where a fixed global affine chart would give a non-integral
    # derivative; the residue-side multiplier keeps the decomposition defined
    phi = HomogMap(
        [FpPoly.parse(2, "1"), FpPoly.parse(2, "0"), FpPoly.parse(2, "0")],
        [FpPoly.parse(2, "t^6+t^3+t"), FpPoly.parse(2, "t+1"), FpPoly.parse(2, "1")],
        p=2)
    P = ProjPoint.parse(2, "[1 : t^3+t^2+t]")
    assert phi.evaluate(phi.evaluate(P)) == P and phi.evaluate(P) != P
    place = Place.parse(2, "t")
    assert reduce_point(P, place).is_infinity() and not P.is_infinity()
    dec = verify_mst(phi, P, 2, place)
    assert not dec.is_violation


def test_check_prop_51_example_and_errors():
    t = Place.parse(2, "t")
    P1, P2, P3 = pt(2, "[0:1]"), pt(2, "[t:1]"), pt(2, "[t^2:1]")
    assert log_distance(P1, P3, t) == 2
    assert log_distance(P1, P2, t) == 1
    assert log_distance(P2, P3, t) == 1
    assert check_prop_51(P1, P2, P3, t)
    with pytest.raises(ValueError):
        check_prop_51(P1, P1, P3, t)


def test_check_prop_52_example_and_precondition():
    phi = parse_affine_map(2, "x^2+t")
    t = Place.parse(2, "t")
    P, Q = pt(2, "[0:1]"), pt(2, "[t:1]")
    assert log_distance(P, Q, t) == 1
    assert log_distance(phi.evaluate(P), phi.evaluate(Q), t) == 2
    assert check_prop_52(phi, P, Q, t)
    bad = parse_affine_map(3, "(x^2+2*t)/x")
    with pytest.raises(ValueError):
        check_prop_52(bad, pt(3, "[t:1]"), pt(3, "[2*t:1]"), Place.parse(3, "t"))


def test_prop_52_fails_at_bad_reduction_place():
    # negative control: at a bad place the distance can drop
    bad = parse_affine_map(3, "(x^2+2*t)/x")
    t = Place.parse(3, "t")
    P, Q = pt(3, "[t:1]"), pt(3, "[2*t:1]")
    before = log_distance(P, Q, t)
    after = log_distance(bad.evaluate(P), bad.evaluate(Q), t)
    assert before == 1 and after == 0


def test_check_prop_61_examples():
    assert check_prop_61(parse_affine_map(2, "1/x^2"), pt(2, "[0:1]"), 2)
    assert check_prop_61(parse_affine_map(2, "x^2"), pt(2, "[1:1]"), 1)
    with pytest.raises(ValueError):
        check_prop_61(parse_affine_map(2, "x^2"), pt(2, "[t:1]"), 3)  # not periodic
    with pytest.raises(ValueError):
        check_prop_61(parse_affine_map(3, "(x^2+2*t)/x"), pt(3, "[1:1]"), 1)


def test_check_lemma_pab_examples():
    sq3 = parse_affine_map(3, "x^2")
    orbit = [pt(3, "[2:1]"), pt(3, "[1:1]")]
    for place in finite_places_up_to(3, 2):
        assert check_lemma_pab(sq3, orbit, place)
        assert check_lemma_pab(sq3, orbit, place, move_terminal_to_origin=True)
    # single fixed point: vacuous
    assert check_lemma_pab(sq3, [pt(3, "[1:1]")], Place.parse(3, "t"))


def test_check_lemma_pab_longer_tail_and_agreement():
    sq = parse_affine_map(5, "x^2")
    # 2 -> 4 -> 1 -> 1 over F_5
    orbit = [pt(5, "[2:1]"), pt(5, "[4:1]"), pt(5, "[1:1]")]
    for place in finite_places_up_to(5, 1):
        assert check_lemma_pab(sq, orbit, place) == \
               check_lemma_pab(sq, orbit, place, move_terminal_to_origin=True)
        assert check_lemma_pab(sq, orbit, place)


def test_check_lemma_pab_errors():
    sq3 = parse_affine_map(3, "x^2")
    with pytest.raises(ValueError):
        check_lemma_pab(sq3, [pt(3, "[2:1]"), pt(3, "[2:1]")], Place.parse(3, "t"))
    with pytest.raises(ValueError):
        check_lemma_pab(sq3, [pt(3, "[1:1]"), pt(3, "[2:1]")], Place.parse(3, "t"))
    with pytest.raises(ValueError):
        check_lemma_pab(sq3, [pt(3, "[2:1]")], Place.parse(3, "t"))  # terminal not fixed
    with pytest.raises(ValueError):
        check_lemma_pab(parse_affine_map(3, "(x^2+2*t)/x"),
                        [pt(3, "[1:1]")], Place.parse(3, "t"))


def test_check_lemma_equal_distances_examples():
    pts = [pt(2, "[0:1]"), pt(2, "[1:1]"), pt(2, "[1:0]")]
    assert check_lemma_equal_distances(pts, 2) == (True, True)
    pts = [pt(2, "[0:1]"), pt(2, "[t:1]"), pt(2, "[1:1]")]
    assert check_lemma_equal_distances(pts, 2) == (False, True)
    for p in (2, 3, 5, 7):
        consts = [ProjPoint.of_constant(p, c) for c in range(p)]
        consts.append(ProjPoint.infinity(p))
        assert check_lemma_equal_distances(consts, p) == (True, True)
    with pytest.raises(ValueError):
        check_lemma_equal_distances([pt(2, "[0:1]"), pt(2, "[0:1]")], 2)
    assert check_lemma_equal_distances([pt(2, "[0:1]")], 2) == (True, True)


def test_cross_product_support():
    pts = [pt(2, "[0:1]"), pt(2, "[t:1]"), pt(2, "[1:1]")]
    support = cross_product_support(pts)
    assert Place.parse(2, "t") in support
    assert Place.parse(2, "t+1") in support  # t - 1 = t+1 over F_2
    consts = [pt(2, "[0:1]"), pt(2, "[1:1]"), pt(2, "[1:0]")]
    assert cross_product_support(consts) == []


def test_every_found_periodic_point_passes_prop61_and_mst():
    maps = gen_maps(MapGenSpec("MonicPoly", 2, 2, 2, seed=10), 10)
    maps += gen_maps(MapGenSpec("RejectionRandom", 2, 2, 0, seed=10), 5)
    places = finite_places_up_to(2, 3)
    for phi in maps:
        for P, n in find_periodic_points(phi, 2):
            assert check_prop_61(phi, P, n)
            for place in places:
                dec = verify_mst(phi, P, n, place)
                assert not dec.is_violation
                if dec.r is None:
                    assert dec.case == "i"


def test_checker_record_shape():
    rec = checker_record("prop51", "triple", True)
    assert rec == {"instance": "triple", "checker": "prop51",
                   "result": True, "witness": None}

import pickle
import random
from functools import lru_cache
from math import gcd

import pytest

from ffdyn import orbits
from ffdyn.algebra import FpPoly, mult_order
from ffdyn.funcfield import Place, finite_places_up_to
from ffdyn.geometry import ProjPoint, distance_poly, enumerate_points, log_distance, reduce_point
from ffdyn.dynamics import (
    HomogMap,
    compose_maps,
    iterate_map,
    map_to_json,
    parse_affine_map,
    parse_map,
)
from ffdyn.harness import MapGenSpec, _distinct_points, gen_maps
from ffdyn.orbits import (
    OrbitStatus,
    _analyze_functional_graph,
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
from oracles import (
    functional_graph_by_walks,
    mobius_order,
    multiplier,
    orbit_with_height_cap,
    reduce_mod,
    residue_chain_rule_multiplier,
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

    rep = iterate_orbit(parse_affine_map(2, "x^2+t"), pt(2, "[0:1]"))
    assert rep.status is OrbitStatus.HEIGHT_ESCAPE
    assert rep.orbit_size is None


def test_iterate_orbit_validation():
    # every orbit ends closed or escaping: there is no third outcome, and
    # the walk takes no height cap
    assert [s.value for s in OrbitStatus] == ["finite", "height_escape"]
    with pytest.raises(TypeError):
        iterate_orbit(parse_affine_map(2, "x^2"), pt(2, "[0:1]"), max_height=5)


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
    cases = [(2, [cubic, cubic.conjugate(parse_affine_map(2, "1/x"))])]
    for p in (2, 3, 5):
        # degree 1: finite order, fixed points of infinite order, no fixed point
        maps = [parse_affine_map(p, s) for s in ("x+t", "1/(x+1)", "1/x", "(t*x+1)/t",
                                                  "t*x", "(t*x+1)/x")]
        conjugated = []
        for d in (2, 3, 4):
            count = 3 if d == 2 else 2
            maps += gen_maps(MapGenSpec("MonicPoly", p, d, 2, seed=5), count)
            conjugated += gen_maps(MapGenSpec("ConjugatedMonicPoly", p, d, 1, seed=5), count)
        maps += gen_maps(MapGenSpec("RejectionRandom", p, 2, 0, seed=5), 3)
        for phi in gen_maps(MapGenSpec("ConjugatedMonicPoly", p, 2, 1, seed=6), 2):
            M = compose_maps(compose_maps(parse_affine_map(p, "x+t"),
                                          parse_affine_map(p, f"{rng.randrange(1, p)}*x")),
                             parse_affine_map(p, "1/x"))
            conjugated.append(phi.conjugate(M))
        # every conjugate gets a model but the two inseparable ones at
        # p = d = 2, whose fixed points are all totally ramified
        assert all(phi.monic_model is not None for phi in conjugated if (p, phi.d) != (2, 2))
        cases.append((p, maps + conjugated))
    for p, maps in cases:
        for phi in maps:
            # a map, its JSON copy and their pickles derive one monic model
            copy = parse_map(map_to_json(phi))
            assert copy == phi
            for twin in (pickle.loads(pickle.dumps(copy)), copy, pickle.loads(pickle.dumps(phi))):
                assert twin.monic_model == phi.monic_model
            if phi.monic_model is not None and phi.monic_model[1] is not None:
                # M . phi . M^(-1) is a polynomial of radius R with a unit
                # leading coefficient, and M^(-1)(inf) is a fixed point of phi
                R, M = phi.monic_model
                (a, b), (c, d) = M.nf, M.ng
                M_inv = HomogMap([d, -b], [-c, a])
                psi = phi.conjugate(M_inv)
                assert not any(psi.ng[:-1]) and psi.nf[0].degree == psi.ng[-1].degree == 0
                assert R == max((e.degree // j for j, e in enumerate(psi.nf) if j and e),
                                default=0)
                Q = M_inv.evaluate(pt(p, "[1:0]"))
                assert phi.evaluate(Q) == Q
            for P in enumerate_points(p, 1) + [pt(p, "[t^2+1:1]")]:
                rep = iterate_orbit(phi, P)
                assert iterate_orbit(copy, P).points == rep.points
                # a degree-1 orbit of finite order closes within p^2 - 1
                # points, each of height at most h(P) + p^2 * h
                cap = (phi.escape_height if phi.d > 1 else
                       P.height + p * p * max(c.degree for c in phi.nf + phi.ng)) + 20
                far = orbit_with_height_cap(phi, P, cap)
                assert (rep.status, rep.tail, rep.cycle) == (far.status, far.tail, far.cycle)
                if rep.status is OrbitStatus.FINITE_ORBIT:
                    assert rep.points == far.points
    # conjugates of a seed-42 family whose escape heights (up to 45) put the
    # cap comparison out of reach: a JSON copy lists the same escaping orbits
    for phi in gen_maps(MapGenSpec("ConjugatedMonicPoly", 2, 2, 3, seed=42), 3):
        copy = parse_map(map_to_json(phi))
        assert copy.monic_model == phi.monic_model
        for P in enumerate_points(2, 2):
            assert iterate_orbit(copy, P).points == iterate_orbit(phi, P).points


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


@lru_cache(maxsize=None)
def random_degree1_maps(p):
    """300 random degree-1 maps with coefficient degree <= 2, each with its
    order found by brute force (None for infinite order)."""
    rng = random.Random(p)
    maps = []
    while len(maps) < 300:
        a, b, c, d = (FpPoly(p, [rng.randrange(p) for _ in range(3)]) for _ in range(4))
        try:
            M = HomogMap([a, b], [c, d], p=p)
        except ValueError:  # zero determinant
            continue
        maps.append((M, mobius_order(M)))
    return maps


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree1_certificate_matches_brute_force_order(p):
    # proved_escaping(P) <=> M^k != id for every k < p^2, and M(P) != P
    mismatches, orders = 0, set()
    for M, k in random_degree1_maps(p):
        orders.add(k)
        for P in (pt(p, "[0:1]"), pt(p, "[1:0]"), pt(p, "[1:1]"), pt(p, "[t:1]")):
            mismatches += M.proved_escaping(P) != (k is None and M.evaluate(P) != P)
    assert mismatches == 0
    # infinite order and at least two finite orders occur
    assert None in orders and len(orders) >= 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree1_orbits_close_iff_finite_order_or_fixed(p):
    for M, k in random_degree1_maps(p):
        for P in enumerate_points(p, 1):
            rep = iterate_orbit(M, P)
            closes = k is not None or M.evaluate(P) == P
            assert (rep.status is OrbitStatus.FINITE_ORBIT) == closes
            if closes:
                assert rep.orbit_size <= p * p - 1


def test_degree1_named_orbits():
    def orbit(p, text, point):
        rep = iterate_orbit(parse_affine_map(p, text), pt(p, point))
        return rep.status, rep.tail, rep.cycle

    finite, escape = OrbitStatus.FINITE_ORBIT, OrbitStatus.HEIGHT_ESCAPE
    # x+t has order p; 1/(x+1) has order 3 at p = 2 and 4 at p = 3
    assert orbit(2, "x+t", "[0:1]") == (finite, 0, 2)
    assert orbit(97, "x+t", "[0:1]") == (finite, 0, 97)
    assert orbit(2, "1/(x+1)", "[0:1]") == (finite, 0, 3)
    assert orbit(3, "1/(x+1)", "[0:1]") == (finite, 0, 4)
    # tr = 0: 1/x has order 2
    assert orbit(3, "1/x", "[t:1]") == (finite, 0, 2)
    # x + 1/t: tr^2/det = 4 lies in F_3 but tr/det = 2/t does not; order 3
    assert orbit(3, "(t*x+1)/t", "[0:1]") == (finite, 0, 3)
    # t*x has infinite order: its fixed point [0:1] closes, [1:1] escapes
    assert orbit(2, "t*x", "[0:1]") == (finite, 0, 1)
    assert orbit(2, "t*x", "[1:1]") == (escape, None, None)
    # (t*x+1)/x has infinite order and no fixed point over F_p(t)
    for p, height in ((2, 2), (97, 0)):
        phi = parse_affine_map(p, "(t*x+1)/x")
        for P in enumerate_points(p, height):
            assert iterate_orbit(phi, P).status is escape


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
    # 97^3 + 1 points exceed the cap
    with pytest.raises(ValueError, match="too large"):
        residue_dynamics(parse_affine_map(97, "x^2"), Place.parse(97, "t^3+t+1"))
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


class _CountingImage(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_analyze_functional_graph_matches_walks_and_stays_linear():
    rng = random.Random(31)
    cases = []
    for n in rng.choices(range(1, 60), k=300):
        image = [rng.randrange(n) for _ in range(n)]
        cases.append((image, functional_graph_by_walks(image)))
    n = 10 ** 4
    cases.append(([(i + 1) % n for i in range(n)], ([0] * n, [n] * n)))  # one long cycle
    cases.append(([min(i + 1, n - 1) for i in range(n)],  # one long tail
                  (list(range(n - 1, -1, -1)), [1] * n)))
    for image, expected in cases:
        counted = _CountingImage(image)
        assert _analyze_functional_graph(counted) == expected
        # each node's image is read once on its walk and once when resolved
        assert counted.reads <= 2 * len(image)


def test_graph_period_equals_direct_iteration():
    maps = gen_maps(MapGenSpec("MonicPoly", 2, 2, 2, seed=9), 5)
    for phi in maps:
        for place in finite_places_up_to(2, 3):
            g = residue_dynamics(phi, place)
            red = phi.reduce_map(place)
            for i, q in enumerate(g.points):
                if g.tail[i] != 0:
                    continue
                m = g.cycle_len[i]
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

    # degree 1 is certified too: the identity fixes every point of the box
    box = enumerate_points(2, 1)
    out = find_periodic_points(HomogMap([1, 0], [0, 1], p=2), 1)
    assert out == [(q, 1) for q in box]


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


def test_verify_mst_and_good_reduction_refuse_a_place_of_another_characteristic():
    # the per-place remainders run on coefficient tuples, which carry no p;
    # n = 2 is the true period, so only the characteristic check can raise
    phi, P, place = parse_affine_map(2, "x^2+t*x+1"), pt(2, "[1:1]"), Place.parse(3, "t+1")
    with pytest.raises(ValueError, match="mixed characteristics"):
        phi.has_good_reduction(place)
    for n in (1, 2):
        with pytest.raises(ValueError, match="mixed characteristics"):
            verify_mst(phi, P, n, place)


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
                i = g.points.index(reduce_point(P, place))
                assert g.tail[i] == 0
                m = g.cycle_len[i]
                lam_bar = residue_cycle_multiplier(red, reduce_point(P, place), m)
                lam_global = multiplier(phi, P, m)
                assert reduce_mod(lam_global, place) == lam_bar
                dec = verify_mst(phi, P, n, place)
                assert dec.m == m
                if not lam_bar.is_zero():
                    assert dec.r == mult_order(lam_bar)
                compared += 1
    assert compared > 10


def test_residue_cycle_multiplier_equals_the_residue_chain_rule():
    # S_m/C_m^2 over k(pi) against the chart-by-chart chain rule at every
    # periodic point of P^1(k(pi)) at the good places of degree <= 2: the
    # three families with d = 2-4 (p | d at p = 2, 3; at p = 5, 7, whose
    # residue fields have up to 50 points, one degree per family), degree-1
    # maps, whose s has degree 0, and cycles through infinity mod pi
    families = (("MonicPoly", 1), ("ConjugatedMonicPoly", 1), ("RejectionRandom", 0))
    compared = through_infinity = 0
    for p in (2, 3, 5, 7):
        maps = [parse_affine_map(p, "1/x")]
        if p < 5:  # cycles of length p and up to p^2 + 1
            maps += [parse_affine_map(p, "x+1"), parse_affine_map(p, "(x+t)/(x+1)")]
        kinds = ([(f, d) for f in families for d in (2, 3, 4)] if p < 5
                 else zip(families, (2, 3, 4)))
        for (family, coeff_degree), d in kinds:
            maps += gen_maps(MapGenSpec(family, p, d, coeff_degree, seed=5), 1)
        for phi in maps:
            for place in finite_places_up_to(p, 2):
                if not phi.has_good_reduction(place):
                    continue
                red, g = phi.reduce_map(place), residue_dynamics(phi, place)
                for i, point in enumerate(g.points):
                    if g.tail[i]:
                        continue
                    m, walk = g.cycle_len[i], [i]
                    while len(walk) < m:
                        walk.append(g.image[walk[-1]])
                    lam_bar = residue_cycle_multiplier(red, point, m)
                    assert lam_bar == residue_chain_rule_multiplier(red, point, m)
                    if m <= 2:  # twice round the cycle: the square
                        assert residue_cycle_multiplier(red, point, 2 * m) == lam_bar * lam_bar
                    compared += 1
                    through_infinity += any(g.points[j].is_infinity() for j in walk)
    assert compared > 1000 and through_infinity > 10
    # a reduction of degree 0 is constant: [t*X^2 : X^2 + Y^2] mod t is [0 : 1]
    t, place = FpPoly.parse(3, "t"), Place.parse(3, "t")
    red = HomogMap([t, 0, 0], [1, 0, 1], p=3).reduce_map(place)
    origin = reduce_point(pt(3, "[0:1]"), place)
    assert red.reduced_degree == 0 and red.apply(origin) == origin
    assert residue_cycle_multiplier(red, origin, 1).is_zero()
    assert residue_chain_rule_multiplier(red, origin, 1).is_zero()
    # the walk must close at the start point: 0 <-> infinity under 1/x^2,
    # and x^2 maps 2 onto its fixed point 1 mod t
    place = Place.parse(2, "t")
    red = parse_affine_map(2, "1/x^2").reduce_map(place)
    origin = reduce_point(pt(2, "[0:1]"), place)
    for m in (0, 1, 3):
        with pytest.raises(ValueError):
            residue_cycle_multiplier(red, origin, m)
    place = Place.parse(3, "t")
    red = parse_affine_map(3, "x^2").reduce_map(place)
    with pytest.raises(ValueError, match="does not return"):
        residue_cycle_multiplier(red, reduce_point(pt(3, "[2:1]"), place), 2)


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


def _prop51_reference(P1, P2, P3, places):
    return all(log_distance(P1, P3, v) >= min(log_distance(P1, P2, v), log_distance(P2, P3, v))
               for v in places)


def _prop52_reference(phi, P, Q, places):
    fP, fQ = phi.evaluate(P), phi.evaluate(Q)
    return all(log_distance(fP, fQ, v) >= log_distance(P, Q, v) for v in places)


def _pab_reference(orbit, places):
    """The tail lemma place by place, with back[j] = P_{-j}."""
    back = list(orbit)[::-1]
    T = back[0]
    return all(log_distance(back[b], T, v) <= log_distance(back[a], T, v) and
               log_distance(back[b], back[a], v) == log_distance(back[b], T, v)
               for v in places for b in range(2, len(back)) for a in range(1, b))


def test_check_prop_51_example_and_errors():
    t = Place.parse(2, "t")
    P1, P2, P3 = pt(2, "[0:1]"), pt(2, "[t:1]"), pt(2, "[t^2:1]")
    assert log_distance(P1, P3, t) == 2
    assert log_distance(P1, P2, t) == 1
    assert log_distance(P2, P3, t) == 1
    places = finite_places_up_to(2, 2) + [Place.infinity(2)]
    assert _prop51_reference(P1, P2, P3, places)
    assert check_prop_51(P1, P2, P3)
    with pytest.raises(ValueError):
        check_prop_51(P1, P1, P3)


def test_check_prop_52_example_and_precondition():
    phi = parse_affine_map(2, "x^2+t")
    t = Place.parse(2, "t")
    P, Q = pt(2, "[0:1]"), pt(2, "[t:1]")
    assert log_distance(P, Q, t) == 1
    assert log_distance(phi.evaluate(P), phi.evaluate(Q), t) == 2
    assert _prop52_reference(phi, P, Q, finite_places_up_to(2, 2))
    assert check_prop_52(phi, P, Q)
    bad = parse_affine_map(3, "(x^2+2*t)/x")
    with pytest.raises(ValueError):
        check_prop_52(bad, pt(3, "[t:1]"), pt(3, "[2*t:1]"))


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


def _patched_cycle_distances(monkeypatch, phi, P, n, by_pair):
    """Replace `orbits.distance_poly` on the n-cycle of P: the pair of
    iterates (i, j), i < j, gets by_pair(i, j)."""
    cycle = list(iterate_orbit(phi, P).points)
    assert len(cycle) == n
    index = {Q: i for i, Q in enumerate(cycle)}

    def fake(Q1, Q2):
        i, j = sorted((index[Q1], index[Q2]))
        return by_pair(i, j)

    monkeypatch.setattr(orbits, "distance_poly", fake)


def test_check_prop_61_fails_on_each_broken_law(monkeypatch):
    # genuine cycles of degree-1 maps with a unit resultant, with distances
    # replaced so that exactly one of the two laws breaks
    a, b, c = FpPoly.parse(5, "t"), FpPoly.parse(5, "t^2"), FpPoly.parse(5, "t+1")
    # 4-cycle of x -> 2x: D(P0, P2) != D(P1, P3) breaks only shift
    # invariance, since the gap 2 is not coprime to 4
    double = HomogMap([2, 0], [0, 1], p=5)
    gap_two = {(0, 2): b, (1, 3): c}
    _patched_cycle_distances(monkeypatch, double, pt(5, "[1:1]"), 4,
                             lambda i, j: gap_two.get((i, j), a))
    assert not check_prop_61(double, pt(5, "[1:1]"), 4)
    # 5-cycle of x -> x + 1: distances that depend only on the gap are
    # shift invariant, but the coprime gap 2 is not at the gap-1 distance
    shift = HomogMap([1, 1], [0, 1], p=5)
    _patched_cycle_distances(monkeypatch, shift, pt(5, "[0:1]"), 5,
                             lambda i, j: a if (j - i) % 5 in (1, 4) else b)
    assert not check_prop_61(shift, pt(5, "[0:1]"), 5)
    # a control: one distance at every gap passes both laws
    _patched_cycle_distances(monkeypatch, shift, pt(5, "[0:1]"), 5, lambda i, j: a)
    assert check_prop_61(shift, pt(5, "[0:1]"), 5)


_CASE_III = (2, "x^2+t*x+1", "t+1", "[1:1]")
_CASE_II = (3, "x^2+(2*t+2)*x+2", "t+2", "[2:1]")


@pytest.mark.parametrize("example, r, want", [
    (_CASE_III, 1, ("iii", 1)),          # n/(m*r) = 2 = p^1
    (_CASE_III, 2, ("ii", None)),        # n = m*r
    (_CASE_III, 3, ("violation", None)),  # m*r does not divide n
    (_CASE_II, 1, ("violation", None)),  # n/(m*r) = 2 is not a power of 3
])
def test_verify_mst_case_ladder(monkeypatch, example, r, want):
    # the 2-cycles of the case (ii) and (iii) examples, whose reduced point
    # is fixed (m = 1), with the order r of the reduced multiplier forced
    p, text, pi, point = example
    monkeypatch.setattr(orbits, "mult_order", lambda lam: r)
    dec = verify_mst(parse_affine_map(p, text), pt(p, point), 2, Place.parse(p, pi))
    assert (dec.m, dec.r, (dec.case, dec.e)) == (1, r, want)


def test_verify_mst_vanishing_multiplier_outside_case_i_is_a_violation(monkeypatch):
    # good reduction forbids lambda-bar = 0 past n = m, so the zero is forced:
    # every S_k of the cycle data set to the zero tuple makes pi | S_m
    phi, P, place = parse_affine_map(2, "x^2+t*x+1"), pt(2, "[1:1]"), Place.parse(2, "t+1")
    real_cycle_data = orbits._cycle_data

    def superattracting(phi, P, n):
        coords, cross, S, C = real_cycle_data(phi, P, n)
        return coords, cross, [()] * len(S), C

    monkeypatch.setattr(orbits, "_cycle_data", superattracting)
    dec = verify_mst(phi, P, 2, place)
    assert (dec.m, dec.r, dec.e, dec.case) == (1, None, None, "violation")


def test_reduced_cycle_multiplier_equals_the_residue_chain_rule():
    # lambda-bar from the per-cycle products against the chart-by-chart
    # reference, at every good place of degree <= 3 of every periodic point
    # of the generated families (d = 2, 4 at p = 2 and d = 3 at p = 3 have
    # p | d); orbits through infinity mod pi and m < n are all compared
    compared = through_infinity = shorter = 0
    for p, degrees in ((2, (2, 3, 4)), (3, (2, 3)), (5, (2,))):
        places = finite_places_up_to(p, 3)
        for d in degrees:
            for family, coeff_degree in (("MonicPoly", 1), ("ConjugatedMonicPoly", 1),
                                         ("RejectionRandom", 0)):
                for phi in gen_maps(MapGenSpec(family, p, d, coeff_degree, seed=3), 8):
                    for P, n in find_periodic_points(phi, 1):
                        cycle = iterate_orbit(phi, P).points
                        for place in places:
                            if not phi.has_good_reduction(place):
                                continue
                            m, lam_bar = orbits._reduced_cycle(phi, P, n, place.pi)
                            reduced = [reduce_point(Q, place) for Q in cycle]
                            assert m == next((k for k in range(1, n)
                                              if reduced[k] == reduced[0]), n)
                            red = phi.reduce_map(place)
                            ref = residue_chain_rule_multiplier(red, reduced[0], m)
                            assert lam_bar == ref == residue_cycle_multiplier(red, reduced[0], m)
                            dec = verify_mst(phi, P, n, place)
                            assert (dec.m, dec.r) == (m, None if ref.is_zero() else mult_order(ref))
                            compared += 1
                            through_infinity += any(R.is_infinity() and not Q.is_infinity()
                                                    for Q, R in zip(cycle, reduced))
                            shorter += m < n
    assert compared > 1000 and through_infinity > 10 and shorter > 10


def test_verify_mst_cycle_data_cache():
    case_iii, case_i = parse_affine_map(2, "x^2+t*x+1"), parse_affine_map(2, "x^2+(t+1)*x+1")
    P, place = pt(2, "[1:1]"), Place.parse(2, "t+1")
    assert verify_mst(case_iii, P, 2, place).case == "iii"
    # a wrong n for the same (phi, P) is not answered from the cache
    with pytest.raises(ValueError, match="minimal period 1"):
        verify_mst(case_iii, P, 1, place)
    # a second map through the same 2-cycle start gets its own decomposition
    assert (verify_mst(case_i, P, 2, place).m, verify_mst(case_iii, P, 2, place).m) == (2, 1)
    assert verify_mst(case_i, P, 2, place).case == "i"


def test_cycle_data_cache_holds_one_cycle_after_a_property_campaign(tmp_path):
    from ffdyn import cli
    orbits._cycle_data.cache_clear()
    assert cli.main(["verify-props", "-p", "3", "--out", str(tmp_path / "props.json")]) == 0
    info = orbits._cycle_data.cache_info()
    assert info.currsize == 1 and info.hits > info.misses > 1


def test_check_lemma_pab_examples():
    sq3 = parse_affine_map(3, "x^2")
    orbit = [pt(3, "[2:1]"), pt(3, "[1:1]")]
    assert iterate_orbit(sq3, orbit[0]).points == tuple(orbit)
    assert _pab_reference(orbit, finite_places_up_to(3, 2))
    assert check_lemma_pab(sq3, orbit[0])
    # a tail into a 2-cycle, [1:1] -> [1:0] -> [0:1] <-> [t+1:t]: the chain
    # of psi = phi^2 is [1:1], [0:1], and psi fixes [0:1]
    cubic = parse_map('{"p":2,"d":3,"F":["0","0","t","t+1"],"G":["1","t+1","0","t"]}')
    assert cubic.resultant() == FpPoly.one(2)
    rep = iterate_orbit(cubic, pt(2, "[1:1]"))
    assert rep.points == tuple(pt(2, s) for s in ("[1:1]", "[1:0]", "[0:1]", "[t+1:t]"))
    assert (rep.tail, rep.cycle) == (2, 2)
    assert rep.points[::rep.cycle] == (pt(2, "[1:1]"), pt(2, "[0:1]"))
    assert check_lemma_pab(cubic, pt(2, "[1:1]"))


def test_check_lemma_pab_longer_tail_and_agreement():
    sq = parse_affine_map(5, "x^2")
    # 2 -> 4 -> 1 -> 1 over F_5
    orbit = [pt(5, "[2:1]"), pt(5, "[4:1]"), pt(5, "[1:1]")]
    assert iterate_orbit(sq, orbit[0]).points == tuple(orbit)
    assert _pab_reference(orbit, finite_places_up_to(5, 1))
    assert check_lemma_pab(sq, orbit[0])
    # a tail whose distances to the fixed point strictly grow towards it:
    # D(P_-2, T) = t+1 properly divides D(P_-1, T) = t^2+1
    phi = parse_affine_map(2, "(x^2+t*x+1)/((t^2+1)*x+t)")
    assert not phi.bad_places()
    orbit = [pt(2, "[1:t+1]"), pt(2, "[t:t^2+1]"), pt(2, "[1:0]")]
    assert iterate_orbit(phi, orbit[0]).points == tuple(orbit)
    assert log_distance(orbit[0], orbit[2], Place.parse(2, "t+1")) == 1
    assert log_distance(orbit[1], orbit[2], Place.parse(2, "t+1")) == 2
    assert _pab_reference(orbit, cross_product_support(orbit))
    assert check_lemma_pab(phi, orbit[0])
    # moving T to [0 : 1] by 1/x, a degree-1 map with a unit resultant (its
    # own inverse), changes every cross product by a unit only
    inv = parse_affine_map(2, "1/x")
    moved = [inv.evaluate(Q) for Q in orbit]
    assert moved[-1] == pt(2, "[0:1]")
    assert [distance_poly(Q, moved[-1]) for Q in moved[:-1]] == \
           [distance_poly(Q, orbit[-1]) for Q in orbit[:-1]]
    moved_phi = phi.conjugate(inv)
    assert iterate_orbit(moved_phi, moved[0]).points == tuple(moved)
    assert check_lemma_pab(moved_phi, moved[0])


def test_check_lemma_pab_errors():
    sq3 = parse_affine_map(3, "x^2")
    cubic = parse_map('{"p":2,"d":3,"F":["0","0","t","t+1"],"G":["1","t+1","0","t"]}')
    # periodic starts: a fixed point, and a point of the cubic's 2-cycle
    for phi, P in ((sq3, pt(3, "[1:1]")), (cubic, pt(2, "[0:1]"))):
        with pytest.raises(ValueError, match="strictly preperiodic"):
            check_lemma_pab(phi, P)
    assert iterate_orbit(sq3, pt(3, "[t:1]")).status is OrbitStatus.HEIGHT_ESCAPE
    with pytest.raises(ValueError, match="strictly preperiodic"):
        check_lemma_pab(sq3, pt(3, "[t:1]"))
    with pytest.raises(ValueError, match="good reduction"):
        check_lemma_pab(parse_affine_map(3, "(x^2+2*t)/x"), pt(3, "[1:1]"))


def test_check_lemma_equal_distances_examples():
    pts = [pt(2, "[0:1]"), pt(2, "[1:1]"), pt(2, "[1:0]")]
    assert check_lemma_equal_distances(pts) == (True, True)
    pts = [pt(2, "[0:1]"), pt(2, "[t:1]"), pt(2, "[1:1]")]
    assert check_lemma_equal_distances(pts) == (False, True)
    for p in (2, 3, 5, 7):
        consts = [ProjPoint.of_constant(p, c) for c in range(p)]
        consts.append(ProjPoint.infinity(p))
        assert check_lemma_equal_distances(consts) == (True, True)
    with pytest.raises(ValueError):
        check_lemma_equal_distances([pt(2, "[0:1]"), pt(2, "[0:1]")])
    with pytest.raises(ValueError, match="mixed characteristics"):
        check_lemma_equal_distances([pt(2, "[0:1]"), pt(3, "[1:1]")])
    assert check_lemma_equal_distances([pt(2, "[0:1]")]) == (True, True)


def test_cross_product_support():
    pts = [pt(2, "[0:1]"), pt(2, "[t:1]"), pt(2, "[1:1]")]
    support = cross_product_support(pts)
    assert Place.parse(2, "t") in support
    assert Place.parse(2, "t+1") in support  # t - 1 = t+1 over F_2
    consts = [pt(2, "[0:1]"), pt(2, "[1:1]"), pt(2, "[1:0]")]
    assert cross_product_support(consts) == []


def _equal_distance_family(rng, p, k):
    """k points [c*g + f : 1] for distinct constants c: every pairwise cross
    product is a constant times g."""
    g = _distinct_points(rng, p, 2, 1)[0].x or FpPoly.one(p)
    f = FpPoly(p, [rng.randrange(p) for _ in range(3)])
    return [ProjPoint.from_coords(g * FpPoly.constant(p, c) + f, FpPoly.one(p))
            for c in rng.sample(range(p), k)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_checkers_agree_with_the_per_place_statement(p):
    # each checker decides its statement at every place from the cross
    # products; the reference evaluates log_distance at every place of the
    # cross-product support (plus infinity for prop51), outside which every
    # distance vanishes
    rng = random.Random(f"deciders:{p}")
    maps = gen_maps(MapGenSpec("MonicPoly", p, 2, 1, seed=7), 4)
    maps += gen_maps(MapGenSpec("ConjugatedMonicPoly", p, 2, 1, seed=7), 2)
    maps += gen_maps(MapGenSpec("RejectionRandom", p, 2, 2 if p == 2 else 0, seed=1), 12)
    inf = Place.infinity(p)
    for _ in range(150):
        P1, P2, P3 = _distinct_points(rng, p, 2, 3)
        assert check_prop_51(P1, P2, P3) == _prop51_reference(
            P1, P2, P3, cross_product_support([P1, P2, P3]) + [inf])
    for _ in range(150):
        phi = maps[rng.randrange(len(maps))]
        P, Q = _distinct_points(rng, p, 2, 2)
        fP, fQ = phi.evaluate(P), phi.evaluate(Q)
        if fP == fQ:
            continue
        places = set(cross_product_support([P, Q]) + cross_product_support([fP, fQ]))
        assert check_prop_52(phi, P, Q) == _prop52_reference(phi, P, Q, places)
    cycles = tails = 0
    for phi in maps:
        for P in enumerate_points(p, 1):
            rep = iterate_orbit(phi, P)
            if rep.status is not OrbitStatus.FINITE_ORBIT:
                continue
            if rep.tail == 0:
                pts = list(rep.points)
                n = len(pts)
                reference = all(
                    log_distance(pts[(i + k) % n], pts[(j + k) % n], v) ==
                    log_distance(pts[i], pts[j], v) and
                    (gcd(i - j, n) != 1 or
                     log_distance(pts[i], pts[j], v) == log_distance(pts[1], pts[0], v))
                    for v in cross_product_support(pts)
                    for i in range(n) for j in range(i + 1, n) for k in range(1, n))
                assert check_prop_61(phi, P, n) == reference
                cycles += 1
            else:
                # the psi-orbit of P, psi = phi^c, is every c-th phi-iterate
                chain = iterate_orbit(iterate_map(phi, rep.cycle), P).points
                assert chain == rep.points[::rep.cycle]
                reference = _pab_reference(chain, cross_product_support(chain))
                assert check_lemma_pab(phi, P) == reference
                tails += 1
    assert cycles and tails
    outcomes = set()
    for trial in range(60):
        if trial % 2:
            pts = _equal_distance_family(rng, p, rng.randrange(2, p + 1))
        else:
            pts = _distinct_points(rng, p, 2, rng.randrange(3, 6))
        reference = all(log_distance(pts[i], pts[j], v) == log_distance(pts[0], pts[1], v)
                        for v in cross_product_support(pts)
                        for i in range(len(pts)) for j in range(i + 1, len(pts)))
        hyp, bound = check_lemma_equal_distances(pts)
        assert hyp == reference and bound
        outcomes.add(hyp)
    assert outcomes == {True, False}


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
                # the reduced period, by stepping the reduced point; a wrong
                # reduced map may never return, so the walk stops after
                # every point of P^1(k(pi)) has been stepped through
                red, start = phi.reduce_map(place), reduce_point(P, place)
                m, cur = 1, red.apply(start)
                while cur != start and m <= phi.p ** place.pi.degree:
                    m, cur = m + 1, red.apply(cur)
                assert cur == start and dec.m == m


def test_checkers_fail_without_good_reduction(monkeypatch):
    # each checker returns False on an instance of bad reduction once the
    # precondition is switched off, so no checker is constantly True;
    # evaluation reads the stored resultant, not resultant(), so only the
    # guards see the patch
    fp = FpPoly.parse
    bad = parse_affine_map(3, "(x^2+2*t)/x")
    phi = HomogMap([fp(3, "t+1"), fp(3, "t+1"), fp(3, "t")],
                   [fp(3, "t+1"), fp(3, "2*t"), fp(3, "2*t")])
    psi = HomogMap([fp(2, "t+1"), fp(2, "t+1"), fp(2, "1")],
                   [fp(2, "0"), fp(2, "1"), fp(2, "1")])
    assert psi.resultant() == fp(2, "t+1")
    monkeypatch.setattr(HomogMap, "resultant", lambda self: FpPoly.one(self.p))
    assert not check_prop_52(bad, pt(3, "[t:1]"), pt(3, "[2*t:1]"))
    assert not check_prop_61(phi, pt(3, "[2:1]"), 3)
    assert iterate_orbit(psi, pt(2, "[t:t+1]")).points == \
           (pt(2, "[t:t+1]"), pt(2, "[1:1]"), pt(2, "[1:0]"))
    assert not check_lemma_pab(psi, pt(2, "[t:t+1]"))


def test_checker_record_shape():
    rec = checker_record("prop51", "triple", True)
    assert rec == {"instance": "triple", "checker": "prop51",
                   "result": True, "witness": None}

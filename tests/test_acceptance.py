"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run ``pytest tests/test_acceptance.py -v -s`` to see them inline).  The
campaign fixtures are shared across criteria, so the p=2 campaign runs
once and its discovered periodic points feed the decomposition checks.
"""

import random
import time
from functools import reduce

import pytest

from ffdyn.algebra import FpPoly
from ffdyn.funcfield import Place, eta_bound, finite_places_up_to, valuation
from ffdyn.geometry import ProjPoint, log_distance
from ffdyn.dynamics import HomogMap, _form_mul, parse_affine_map, sylvester_resultant
from ffdyn.harness import (
    CampaignConfig,
    MapGenSpec,
    emit_report,
    gen_maps,
    orbit_bound,
    period_bound,
    run_bound_campaign,
)
from ffdyn.orbits import (
    check_lemma_equal_distances,
    check_prop_51,
    check_prop_52,
    check_prop_61,
    cross_product_support,
    verify_mst,
)
from ffdyn.cli import main as cli_main


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _campaign_config(p, seed=42):
    if p == 2:
        generators = (
            (MapGenSpec("MonicPoly", 2, 2, 3, seed=seed), 167),
            (MapGenSpec("MonicPoly", 2, 3, 3, seed=seed), 167),
            (MapGenSpec("MonicPoly", 2, 4, 3, seed=seed), 166),
            (MapGenSpec("ConjugatedMonicPoly", 2, 2, 3, seed=seed), 34),
            (MapGenSpec("ConjugatedMonicPoly", 2, 3, 3, seed=seed), 33),
            (MapGenSpec("ConjugatedMonicPoly", 2, 4, 3, seed=seed), 33),
            (MapGenSpec("RejectionRandom", 2, 2, 0, seed=seed), 50),
        )
        return CampaignConfig(p=2, generators=generators, height_bound=3, seed=seed)
    if p == 3:
        generators = (
            (MapGenSpec("MonicPoly", 3, 2, 2, seed=seed), 75),
            (MapGenSpec("MonicPoly", 3, 3, 2, seed=seed), 75),
            (MapGenSpec("ConjugatedMonicPoly", 3, 2, 2, seed=seed), 30),
            (MapGenSpec("RejectionRandom", 3, 2, 0, seed=seed), 20),
        )
        return CampaignConfig(p=3, generators=generators, height_bound=2, seed=seed)
    if p == 5:
        generators = (
            (MapGenSpec("MonicPoly", 5, 2, 1, seed=seed), 80),
            (MapGenSpec("ConjugatedMonicPoly", 5, 2, 1, seed=seed), 10),
            (MapGenSpec("RejectionRandom", 5, 2, 0, seed=seed), 10),
        )
        return CampaignConfig(p=5, generators=generators, height_bound=1, seed=seed)
    raise ValueError(p)


@pytest.fixture(scope="module")
def p2_campaign():
    config = _campaign_config(2)
    start = time.perf_counter()
    report = run_bound_campaign(config)
    elapsed = time.perf_counter() - start
    return config, report, elapsed


@pytest.fixture(scope="module")
def p3_campaign():
    config = _campaign_config(3)
    return config, run_bound_campaign(config)


@pytest.fixture(scope="module")
def p5_campaign():
    config = _campaign_config(5)
    return config, run_bound_campaign(config)


def _regenerate_maps(config):
    maps = []
    for spec, count in config.generators:
        maps.extend(gen_maps(spec, count))
    return maps


def test_criterion_1_periodic_bounds_p2(p2_campaign):
    config, report, elapsed = p2_campaign
    monic = sum(count for spec, count in config.generators if spec.family == "MonicPoly")
    ok = (
        monic >= 500
        and report.maps_generated >= 600
        and report.max_period <= 3
        and not any(v["checker"] == "period_bound" for v in report.violations)
        and elapsed <= 60.0
    )
    _report(1, ok,
            f"{report.maps_generated} maps (>= 500 monic of degrees 2,3,4, "
            f"{report.per_family['ConjugatedMonicPoly']['maps_generated']} conjugated, "
            f"{report.per_family['RejectionRandom']['maps_generated']} rejection-sampled), "
            f"box height 3, max period {report.max_period} <= 3, "
            f"runtime {elapsed:.1f}s <= 60s single-threaded")


def test_criterion_2_preperiodic_bounds(p2_campaign, p3_campaign, p5_campaign):
    _, rep2, _ = p2_campaign
    _, rep3 = p3_campaign
    _, rep5 = p5_campaign
    ok2 = rep2.max_orbit_size <= 9 and not rep2.violations
    ok3 = (rep3.thresholds == {"period": 72, "orbit_size": 288}
           and rep3.max_period <= 72 and rep3.max_orbit_size <= 288
           and not rep3.violations)
    ok5 = (rep5.thresholds == {"period": 120, "orbit_size": 720}
           and rep5.max_period <= 120 and rep5.max_orbit_size <= 720
           and not rep5.violations)
    assert period_bound(5) == (5 * 5 - 1) * 5 == 120
    assert orbit_bound(5) == (5 + 1) * (5 * 5 - 1) * 5 == 720
    _report(2, ok2 and ok3 and ok5,
            f"p=2 max orbit {rep2.max_orbit_size} <= 9; "
            f"p=3 ({rep3.maps_generated} maps) max period {rep3.max_period} <= 72, "
            f"max orbit {rep3.max_orbit_size} <= 288; "
            f"p=5 ({rep5.maps_generated} maps) max period {rep5.max_period} <= 120, "
            f"max orbit {rep5.max_orbit_size} <= 720; zero violations")


def test_criterion_3_eta_evaluator():
    v2, v3 = eta_bound(2, 1, 1), eta_bound(3, 1, 1)
    ok = v2 == 64 and v3 == 729 and isinstance(v2, int) and isinstance(v3, int)
    _report(3, ok, f"eta(2,1,1) = {v2} == 64 and eta(3,1,1) = {v3} == 729, exact integers")


def _random_point(rng, p, max_deg):
    while True:
        x = FpPoly(p, [rng.randrange(p) for _ in range(max_deg + 1)])
        y = FpPoly(p, [rng.randrange(p) for _ in range(max_deg + 1)])
        if not (x.is_zero() and y.is_zero()):
            return ProjPoint.from_coords(x, y)


def test_criterion_4_prop51_suite():
    # the checker decides every place; the reference compares log_distance
    # at every place of degree <= 2, of the cross-product support and at
    # infinity, and the two must agree
    total = passed = agreed = 0
    for p in (2, 3, 5):
        rng = random.Random(f"c4:{p}")
        places = finite_places_up_to(p, 2) + [Place.infinity(p)]
        done = 0
        while done < 1000:
            P1, P2, P3 = (_random_point(rng, p, 3) for _ in range(3))
            if len({P1, P2, P3}) < 3:
                continue
            done += 1
            reference = all(
                log_distance(P1, P3, v) >= min(log_distance(P1, P2, v), log_distance(P2, P3, v))
                for v in set(places + cross_product_support([P1, P2, P3])))
            ok = check_prop_51(P1, P2, P3)
            total += 1
            passed += ok
            agreed += ok == reference
    ok = passed == agreed == total
    _report(4, ok, f"{passed}/{total} triples satisfy the triangle comparison at every place, "
                   f"{agreed} agree with the per-place comparison (1000 triples per p "
                   f"in 2,3,5; places of degree <= 2, the support and infinity)")


def test_criterion_5_prop52_suite():
    rng = random.Random("c5")
    maps = gen_maps(MapGenSpec("MonicPoly", 2, 2, 3, seed=99), 30)
    maps += gen_maps(MapGenSpec("RejectionRandom", 2, 2, 0, seed=99), 10)
    places = finite_places_up_to(2, 2)
    done = passed = agreed = 0
    while done < 1000:
        phi = maps[rng.randrange(len(maps))]
        P, Q = _random_point(rng, 2, 3), _random_point(rng, 2, 3)
        if P == Q:
            continue
        fP, fQ = phi.evaluate(P), phi.evaluate(Q)
        if fP == fQ:
            continue
        done += 1
        reference = all(log_distance(fP, fQ, v) >= log_distance(P, Q, v)
                        for v in set(places + cross_product_support([P, Q])))
        ok = check_prop_52(phi, P, Q)
        passed += ok
        agreed += ok == reference
    # negative control: at a place of bad reduction the inequality can fail,
    # so the good-reduction precondition matters
    bad = parse_affine_map(3, "(x^2+2*t)/x")
    t3 = Place.parse(3, "t")
    P, Q = ProjPoint.parse(3, "[t:1]"), ProjPoint.parse(3, "[2*t:1]")
    control = (not bad.has_good_reduction(t3)
               and log_distance(P, Q, t3) == 1
               and log_distance(bad.evaluate(P), bad.evaluate(Q), t3) == 0)
    with pytest.raises(ValueError):
        check_prop_52(bad, P, Q)
    ok = passed == agreed == done == 1000 and control
    _report(5, ok, f"{passed}/1000 good-reduction instances hold at every finite place, "
                   f"{agreed} agree with the per-place comparison; negative control: "
                   f"distance drops 1 -> 0 under (x^2+2t)/x at its bad place t, and the "
                   f"checker refuses a map with a bad place")


def test_criterion_6_prop61_and_mst(p2_campaign, p3_campaign, p5_campaign):
    checked_61 = checked_mst = violations = r_infinite = 0
    for config, report in ((p2_campaign[0], p2_campaign[1]),
                           (p3_campaign[0], p3_campaign[1]),
                           (p5_campaign[0], p5_campaign[1])):
        p = config.p
        maps = _regenerate_maps(config)
        places = finite_places_up_to(p, 3)
        for inst in report.periodic_instances:
            phi = maps[inst["map_id"]]
            P = ProjPoint.parse(p, inst["point"])
            n = inst["period"]
            if not check_prop_61(phi, P, n):
                violations += 1
            checked_61 += 1
            for place in places:
                dec = verify_mst(phi, P, n, place)
                checked_mst += 1
                if dec.is_violation:
                    violations += 1
                if dec.r is None:
                    r_infinite += 1
                    if dec.case != "i":
                        violations += 1
    ok = violations == 0 and checked_61 > 900 and checked_mst > 10000
    _report(6, ok,
            f"{checked_61} periodic points pass the cycle-distance equalities; "
            f"{checked_mst} period decompositions over all places of degree <= 3 "
            f"match case (i)/(ii)/(iii) ({r_infinite} with r = infinity, all case (i)); "
            f"{violations} violations")


def test_criterion_7_equal_distance_bound():
    ok = True
    details = []
    for p in (2, 3, 5, 7):
        consts = [ProjPoint.of_constant(p, c) for c in range(p)]
        consts.append(ProjPoint.infinity(p))
        hyp, bound = check_lemma_equal_distances(consts, p)
        ok = ok and hyp and bound and (p + 1 <= p * p)
        details.append(f"p={p}: {p + 1} constants, hypothesis holds, {p + 1} <= {p * p}")
    inhomog = [ProjPoint.parse(2, "[0:1]"), ProjPoint.parse(2, "[t:1]"),
               ProjPoint.parse(2, "[1:1]")]
    hyp, bound = check_lemma_equal_distances(inhomog, 2)
    ok = ok and not hyp and bound
    _report(7, ok, "; ".join(details) + "; inhomogeneous configuration reported false")


def _random_linear(rng, p):
    while True:
        a = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
        b = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
        if not (a.is_zero() and b.is_zero()):
            return a, b


def test_criterion_8_oracle_equivalences():
    rng = random.Random("c8")
    split_ok = 0
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        fs = [_random_linear(rng, p) for _ in range(rng.randrange(1, 4))]
        gs = [_random_linear(rng, p) for _ in range(rng.randrange(1, 4))]
        expected = FpPoly.one(p)
        for a, b in fs:
            for c, d in gs:
                expected = expected * (a * d - b * c)
        if sylvester_resultant(reduce(_form_mul, fs), reduce(_form_mul, gs)) == expected:
            split_ok += 1

    mult_ok = 0
    for _ in range(100):
        p = rng.choice([2, 3, 5])

        def rand_form(deg):
            while True:
                cs = [FpPoly(p, [rng.randrange(p) for _ in range(2)])
                      for _ in range(deg + 1)]
                if any(not c.is_zero() for c in cs):
                    return cs

        F = rand_form(rng.randrange(1, 4))
        G1 = rand_form(rng.randrange(1, 3))
        G2 = rand_form(rng.randrange(1, 3))
        lhs = sylvester_resultant(F, _form_mul(G1, G2))
        rhs = sylvester_resultant(F, G1) * sylvester_resultant(F, G2)
        if (lhs.is_zero() and rhs.is_zero()) or \
           (not lhs.is_zero() and not rhs.is_zero() and lhs.monic() == rhs.monic()):
            mult_ok += 1

    # reduction criterion equivalence over sampled maps x places of degree <= 2
    maps = gen_maps(MapGenSpec("MonicPoly", 2, 2, 2, seed=88), 10)
    maps += gen_maps(MapGenSpec("RejectionRandom", 3, 2, 0, seed=88), 5)
    for p in (2, 3):
        got = 0
        while got < 10:
            F = [FpPoly(p, [rng.randrange(p) for _ in range(3)]) for _ in range(3)]
            G = [FpPoly(p, [rng.randrange(p) for _ in range(3)]) for _ in range(3)]
            try:
                maps.append(HomogMap(F, G, p=p))
                got += 1
            except ValueError:
                continue
    equiv_checked = 0
    equiv_ok = 0
    for phi in maps:
        for place in finite_places_up_to(phi.p, 2):
            equiv_checked += 1
            no_drop = phi.reduce_map(place).reduced_degree == phi.d
            if no_drop == (valuation(phi.resultant(), place) == 0) \
                    and no_drop == phi.has_good_reduction(place):
                equiv_ok += 1

    ok = split_ok == 100 and mult_ok == 100 and equiv_ok == equiv_checked
    _report(8, ok,
            f"split-form product oracle: {split_ok}/100 exact; "
            f"Res(F, G1*G2) = Res(F,G1)*Res(F,G2) up to units: {mult_ok}/100; "
            f"v(Res) = 0 <=> no degree drop: {equiv_ok}/{equiv_checked} exhaustive")


def test_criterion_9_determinism(tmp_path):
    config = CampaignConfig(
        p=2,
        generators=(
            (MapGenSpec("MonicPoly", 2, 2, 2, seed=5), 15),
            (MapGenSpec("RejectionRandom", 2, 2, 0, seed=5), 5),
        ),
        height_bound=2,
        seed=5,
    )
    serial_1 = emit_report(run_bound_campaign(config))
    serial_2 = emit_report(run_bound_campaign(config))
    parallel = emit_report(run_bound_campaign(config, workers=3))
    api_ok = serial_1 == serial_2 == parallel

    args = ["verify-bounds", "-p", "2", "--maps", "8", "--conjugates", "2",
            "--rejection", "2", "--height", "2", "--seed", "11"]
    f1, f2, f3 = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    assert cli_main(args + ["--workers", "2", "--out", str(f3)]) == 0
    cli_ok = f1.read_bytes() == f2.read_bytes() == f3.read_bytes()

    _report(9, api_ok and cli_ok,
            "fixed seed gives byte-identical reports across repeated runs and "
            "across serial vs parallel execution (API and verify-bounds CLI)")

import json

import pytest

from ffdyn import harness
from ffdyn.algebra import FpPoly, factor
from ffdyn.harness import (
    CampaignConfig,
    MapGenSpec,
    emit_report,
    gen_maps,
    orbit_bound,
    period_bound,
    run_bound_campaign,
    run_property_campaign,
)
from oracles import sylvester_det


def small_config(**kw):
    defaults = dict(
        p=2,
        generators=(
            (MapGenSpec("MonicPoly", 2, 2, 2, seed=1), 8),
            (MapGenSpec("ConjugatedMonicPoly", 2, 2, 2, seed=1), 4),
            (MapGenSpec("RejectionRandom", 2, 2, 0, seed=1), 4),
        ),
        height_bound=2,
        seed=1,
    )
    defaults.update(kw)
    return CampaignConfig(**defaults)


def test_thresholds_computed_from_p():
    assert period_bound(2) == 3 and orbit_bound(2) == 9
    assert period_bound(3) == 72 and orbit_bound(3) == 288
    assert period_bound(5) == 120 and orbit_bound(5) == 720
    assert period_bound(7) == (49 - 1) * 7
    assert orbit_bound(7) == 8 * 48 * 7


def test_mapgenspec_validation():
    with pytest.raises(ValueError):
        MapGenSpec("NoSuchFamily", 2, 2, 1)
    with pytest.raises(ValueError):
        MapGenSpec("MonicPoly", 2, 1, 1)
    with pytest.raises(ValueError):
        MapGenSpec("MonicPoly", 2, 2, -1)
    with pytest.raises(ValueError):
        MapGenSpec("MonicPoly", 4, 2, 1)


def test_gen_maps_monic_family():
    spec = MapGenSpec("MonicPoly", 2, 3, 3, seed=7)
    maps = gen_maps(spec, 10)
    assert len(maps) == 10
    for phi in maps:
        assert phi.d == 3
        assert phi.nf[0].is_one()          # monic in X
        assert phi.ng == (FpPoly.zero(2),) * 3 + (FpPoly.one(2),)
        assert not phi.bad_places()
        # independent re-verification: the resultant factors into no primes
        unit, factors = factor(phi.resultant())
        assert factors == {}
    assert maps == gen_maps(spec, 10)       # deterministic
    assert maps[:4] == gen_maps(spec, 4)    # prefix stability


def test_gen_maps_conjugated_family_preserves_good_reduction():
    for seed in range(7, 11):
        spec = MapGenSpec("ConjugatedMonicPoly", 3, 2, 2, seed=seed)
        maps = gen_maps(spec, 8)
        assert len(maps) == 8
        for phi in maps:
            assert phi.d == 2
            assert not phi.bad_places()
            assert factor(phi.resultant())[1] == {}


def test_gen_maps_resultants_match_explicit_determinant():
    # every generated map, conjugates included, computes its resultant from
    # its own normalized model; each one equals the Sylvester determinant
    for p in (2, 3):
        for d in (2, 3, 4):
            conj = gen_maps(MapGenSpec("ConjugatedMonicPoly", p, d, 2, seed=5), 10)
            monic = gen_maps(MapGenSpec("MonicPoly", p, d, 2, seed=5), 10)
            for phi in monic + conj:
                assert phi.resultant() == sylvester_det(list(phi.nf), list(phi.ng))


def test_gen_maps_rejection_family():
    spec = MapGenSpec("RejectionRandom", 2, 2, 0, seed=7)
    maps = gen_maps(spec, 10)
    assert len(maps) == 10
    for phi in maps:
        assert phi.resultant().is_constant()
    # with nonconstant coefficients the unit-resultant condition is rare:
    # the attempt cap is reported through a shortfall, not an exception
    sparse = gen_maps(MapGenSpec("RejectionRandom", 2, 3, 3, seed=7), 5)
    assert len(sparse) <= 5


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(p=2, generators=())
    with pytest.raises(ValueError):
        CampaignConfig(p=3, generators=((MapGenSpec("MonicPoly", 2, 2, 1), 5),))
    echo = small_config().echo()
    for key in ("max_steps", "max_height", "period_threshold_override",
                "orbit_threshold_override", "checkers"):
        assert key not in echo
    # a campaign always runs certified and complete: no uncertified height
    # cap and no checker subset to set
    with pytest.raises(TypeError):
        small_config(max_height=6)
    with pytest.raises(TypeError):
        small_config(checkers=("prop51",))


def test_run_bound_campaign_small():
    report = run_bound_campaign(small_config())
    assert report.kind == "bounds"
    assert report.maps_generated == 16
    assert report.points_per_map == 33
    assert report.thresholds == {"period": 3, "orbit_size": 9}
    assert report.max_period <= 3 and report.max_orbit_size <= 9
    assert report.violations == []
    assert report.exit_code == 0
    assert sum(report.period_histogram.values()) == report.finite_orbits
    assert report.periodic_points == len(report.periodic_instances)
    assert set(report.per_family) == {"MonicPoly", "ConjugatedMonicPoly", "RejectionRandom"}
    total_status = sum(report.status_counts.values())
    assert total_status == report.maps_generated * report.points_per_map
    # every orbit ends closed or escaping; bench/expected_seed42.json pins the key
    assert report.status_counts["step_limit"] == 0


def test_bound_campaign_rows_are_finite_orbits_only():
    report = run_bound_campaign(small_config())
    assert len(report.orbit_rows) == report.finite_orbits
    for row in report.orbit_rows:
        assert row["orbit_size"] == row["tail"] + row["cycle"]
        assert row["ok"] is True


def test_threshold_override_injects_violations(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(harness, "period_bound", lambda p: 0)
        report = run_bound_campaign(small_config())
    assert report.thresholds["period"] == 0
    assert report.exit_code == 1
    assert len(report.violations) == report.finite_orbits > 0
    assert {v["checker"] for v in report.violations} == {"period_bound"}
    with monkeypatch.context() as m:
        m.setattr(harness, "orbit_bound", lambda p: 0)
        report = run_bound_campaign(small_config())
    assert len(report.violations) == report.finite_orbits > 0
    assert {v["checker"] for v in report.violations} == {"orbit_bound"}


def test_campaign_determinism_same_seed():
    a = emit_report(run_bound_campaign(small_config()))
    b = emit_report(run_bound_campaign(small_config()))
    assert a == b


def test_campaign_serial_matches_parallel():
    a = emit_report(run_bound_campaign(small_config()))
    b = emit_report(run_bound_campaign(small_config(), workers=2))
    assert a == b


def test_observed_maxima_monotone_in_box():
    small = run_bound_campaign(small_config(height_bound=1))
    large = run_bound_campaign(small_config(height_bound=2))
    assert large.max_period >= small.max_period
    assert large.max_orbit_size >= small.max_orbit_size


def test_empty_campaign_is_valid():
    cfg = CampaignConfig(
        p=2, generators=((MapGenSpec("MonicPoly", 2, 2, 1, seed=1), 0),),
        height_bound=0, seed=1)
    report = run_bound_campaign(cfg)
    assert report.maps_generated == 0
    assert report.finite_orbits == 0
    assert report.exit_code == 0
    doc = json.loads(emit_report(report))
    assert doc["maps_generated"] == 0 and doc["violations"] == []


def test_emit_report_json_and_csv():
    report = run_bound_campaign(small_config())
    doc = emit_report(report, "json")
    parsed = json.loads(doc)
    assert parsed["kind"] == "bounds"
    assert doc.endswith("\n")
    csv_doc = emit_report(report, "csv")
    lines = csv_doc.strip().splitlines()
    assert lines[0] == "map_id,family,d,point,tail,cycle,orbit_size,threshold,ok"
    assert len(lines) == 1 + report.finite_orbits
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_config_echo_excludes_execution_knobs():
    echo = small_config().echo()
    assert "workers" not in echo
    assert echo["seed"] == 1
    with pytest.raises(TypeError):
        small_config(workers=2)
    with pytest.raises(ValueError, match="workers"):
        run_bound_campaign(small_config(), workers=0)


def test_run_property_campaign_all_checkers_pass():
    cfg = small_config(prop51_count=120, prop52_count=120, height_bound=2)
    report = run_property_campaign(cfg)
    assert report.kind == "properties"
    assert set(report.checker_counts) == {"prop51", "prop52", "prop61", "mst",
                                          "lemma_pab", "lemma_eq"}
    for name, counts in report.checker_counts.items():
        assert counts["failed"] == 0, name
        assert counts["run"] == counts["passed"]
    assert report.checker_counts["prop51"]["run"] == 120
    assert report.checker_counts["prop52"]["run"] == 120
    assert report.checker_counts["mst"]["run"] > 0
    assert report.checker_counts["prop61"]["run"] > 0
    assert report.checker_counts["lemma_pab"]["run"] > 0
    assert report.violations == []
    csv_doc = emit_report(report, "csv")
    assert csv_doc.splitlines()[0] == "checker,run,passed,failed"


def test_property_campaign_deterministic():
    cfg = small_config(prop51_count=50, prop52_count=50)
    assert emit_report(run_property_campaign(cfg)) == emit_report(run_property_campaign(cfg))


"""The benchmark under bench/ patches ffdyn names by string; every name it
traces must still exist, or `bench/run.py --trace 1` and
`bench/selfcheck.py` break."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_path():
    sys.path.insert(0, str(BENCH))
    yield
    sys.path.remove(str(BENCH))


def test_tracer_installs_on_every_traced_name(bench_path):
    import tracer
    from ffdyn import harness, orbits
    from ffdyn.dynamics import HomogMap

    before = (HomogMap.evaluate, orbits.verify_mst, harness.verify_mst)
    tr = tracer.Tracer("contract")
    try:
        tr.install()
        assert HomogMap.evaluate is not before[0]
    finally:
        tr.uninstall()
    assert (HomogMap.evaluate, orbits.verify_mst, harness.verify_mst) == before


def test_workloads_import(bench_path):
    import workloads

    assert workloads.EXPECTED


def test_every_workload_runs_and_checks_at_tiny_size(bench_path, tmp_path):
    # the workloads drive ffdyn through CLI flags, MapGenSpec and orbits
    # calls; a changed option or signature breaks them here, not in the
    # benchmark
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        state = workload.setup(42, "tiny", str(workdir))
        items, verdict = workload.check(state, workload.run(state))
        assert items > 0, name
        assert verdict, name


def test_tracer_sees_every_orbit_of_the_bound_campaign(bench_path, tmp_path):
    # the tracer counts orbit outcomes at `orbits.iterate_orbit` and
    # evaluations at `HomogMap.evaluate`; a box scan that decides an orbit
    # without those calls would hide it from `bench/run.py --trace 1`
    import tracer
    import workloads

    workload = workloads.WORKLOADS["bound-p2"]
    state = workload.setup(42, "tiny", str(tmp_path))
    tr = tracer.Tracer("contract")
    tr.install()
    try:
        exit_code = workload.run(state)
    finally:
        tr.uninstall()
    _, verdict = workload.check(state, exit_code)
    layers = tr.layer_metrics()
    assert verdict["status_counts"] == {
        k: layers["orbits.iterate_orbit." + k] for k in verdict["status_counts"]}
    assert sum(tr.orbit_outcomes.values()) == sum(verdict["status_counts"].values())
    assert layers["dynamics.evaluate.calls"] > 0


def test_tracer_sees_every_period_decomposition_of_residue_p5(bench_path, tmp_path):
    # the tracer counts decompositions at `orbits.verify_mst` and orders of
    # the reduced multiplier at `algebra.mult_order`; a check that took the
    # order without that call would hide it from `bench/run.py --trace 1`
    import tracer
    import workloads

    workload = workloads.WORKLOADS["residue-p5"]
    state = workload.setup(42, "tiny", str(tmp_path))
    tr = tracer.Tracer("contract")
    tr.install()
    try:
        outcome = workload.run(state)
    finally:
        tr.uninstall()
    items, verdict = workload.check(state, outcome)
    layers = tr.layer_metrics()
    assert items > verdict["r_infinite"] > 0
    assert layers["orbits.verify_mst.calls"] == items
    assert layers["algebra.mult_order.calls"] == items - verdict["r_infinite"]

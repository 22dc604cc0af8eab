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

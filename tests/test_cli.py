import json
import os
import subprocess
import sys
from pathlib import Path

from ffdyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_places(capsys):
    code, out, _ = run(capsys, "places", "-p", "2", "-d", "2")
    assert code == 0
    assert out.strip() == "t^2+t+1"


def test_val(capsys):
    code, out, _ = run(capsys, "val", "t^3/t+1", "t", "-p", "2")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run(capsys, "val", "t^2", "inf", "-p", "2")
    assert (code, out.strip()) == (0, "-2")
    code, out, _ = run(capsys, "val", "0", "t", "-p", "2")
    assert (code, out.strip()) == (0, "+inf")


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "[0:1]", "[t:1]", "t", "-p", "2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "dist", "[t:1]", "[t+1:1]", "inf", "-p", "2")
    assert (code, out.strip()) == (0, "2")


def test_resultant_and_badplaces(capsys):
    code, out, _ = run(capsys, "resultant", "x^2+t", "-p", "2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "badplaces", "x^2+t", "-p", "2")
    assert (code, out.strip()) == (0, "(none)")
    code, out, _ = run(capsys, "badplaces", "(x^2+2*t)/x", "-p", "3")
    assert (code, out.strip()) == (0, "t")


def test_map_json_input(capsys, tmp_path):
    doc = {"p": 2, "d": 2, "F": ["1", "0", "t"], "G": ["0", "0", "1"]}
    code, out, _ = run(capsys, "resultant", json.dumps(doc))
    assert (code, out.strip()) == (0, "1")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "badplaces", f"@{path}")
    assert (code, out.strip()) == (0, "(none)")


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "(x^2+2*t)/x", "t", "-p", "3")
    assert code == 0
    assert "degree 1" in out


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "1/x^2", "[0:1]", "-p", "2")
    assert code == 0
    assert "status: finite" in out
    assert "tail: 0  cycle: 2" in out
    # degree 1 has no certified escape height: the override is required
    code, _, err = run(capsys, "orbit", "x+t", "[0:1]", "-p", "2")
    assert code == 2 and "max_height" in err
    code, out, _ = run(capsys, "orbit", "x+t", "[0:1]", "-p", "2", "--max-height", "10")
    assert code == 0
    assert "uncertified: --max-height 10 replaces the escape certificate" in out
    assert "status: finite" in out
    assert "tail: 0  cycle: 2" in out
    code, out, _ = run(capsys, "orbit", "x^2+t", "[0:1]", "-p", "2")
    assert code == 0 and "uncertified" not in out


def test_periodic(capsys):
    code, out, _ = run(capsys, "periodic", "x^2", "--height", "2", "-p", "2")
    assert code == 0
    assert "[1 : 0]  period 1" in out
    code, out, _ = run(capsys, "periodic", "x^2+t", "--height", "1", "-p", "2")
    assert code == 0
    assert "[1 : 0]  period 1" in out
    # no start is dropped: all three periodic points of the box are listed
    code, out, _ = run(capsys, "periodic", "1/x^2", "--height", "1", "-p", "2")
    assert code == 0
    assert [line.split("  ")[0] for line in out.splitlines()] == [
        "[0 : 1]", "[1 : 1]", "[1 : 0]"]


def test_eta(capsys):
    code, out, _ = run(capsys, "eta", "-p", "2", "-D", "1", "-s", "1")
    assert (code, out.strip()) == (0, "64")
    code, out, _ = run(capsys, "eta", "-p", "3", "-D", "1", "-s", "1")
    assert (code, out.strip()) == (0, "729")
    code, out, _ = run(capsys, "eta", "-p", "0", "-D", "1", "-s", "1")
    assert code == 0 and out.strip().startswith("47214213.316")


def test_input_errors_exit_2(capsys):
    # arithmetic errors other than division by zero are input errors too
    code, _, err = run(capsys, "eta", "-p", "0", "-D", "100", "-s", "100")
    assert code == 2 and "error" in err
    # the step budget is gone, so its flag is unknown
    for argv in (["orbit", "1/x^2", "[0:1]", "-p", "2"],
                 ["periodic", "1/x^2", "--height", "1", "-p", "2"],
                 ["verify-bounds", "-p", "2", "--maps", "1", "--conjugates", "0",
                  "--rejection", "0", "--height", "0"]):
        assert run(capsys, *argv, "--max-steps", "1")[0] == 2
    code, _, err = run(capsys, "val", "5*t", "t", "-p", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "val", "t", "t^2+1", "-p", "2")
    assert code == 2
    code, _, _ = run(capsys, "places", "-p", "4", "-d", "1")
    assert code == 2
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, _ = run(capsys, "resultant", "x^2+t")  # shorthand without -p
    assert code == 2
    for doc in ('{"p":2,"d":1,"F":5,"G":["1","0"]}',
                '{"p":2,"d":1,"F":[1,0],"G":["1","0"]}',
                '{"p":[2],"d":1,"F":["1","0"],"G":["0","1"]}',
                '{"p":2.5,"d":1,"F":["1","0"],"G":["0","1"]}'):
        code, _, err = run(capsys, "resultant", doc)
        assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify-bounds", "-p", "2", "--maps", "2",
                       "--conjugates", "0", "--rejection", "0", "--height", "1",
                       "--max-height", "-5")
    assert code == 2 and "max_height" in err
    props = ["verify-props", "-p", "2", "--maps", "1", "--height", "1"]
    for argv in (props + ["--triples", "-1", "--instances", "1"],
                 props + ["--triples", "1", "--instances", "-1"],
                 ["verify-bounds", "-p", "2", "--maps", "1", "--conjugates", "0",
                  "--rejection", "0", "--height", "1", "--workers", "0"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error" in err


def test_verify_bounds_small(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-bounds", "-p", "2", "--maps", "6",
                       "--conjugates", "2", "--rejection", "2", "--height", "1",
                       "--seed", "3", "--out", str(out_path))
    assert code == 0
    assert "violations: 0" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["kind"] == "bounds"
    assert doc["maps_generated"] == 10
    assert "max_steps" not in doc["config"] and "uncertified" not in out
    code, out, _ = run(capsys, "verify-bounds", "-p", "2", "--maps", "6",
                       "--conjugates", "2", "--rejection", "2", "--height", "1",
                       "--seed", "3", "--max-height", "6", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[-1] == (
        "uncertified: --max-height 6 replaces the escape certificate")


def test_verify_bounds_deterministic_bytes(capsys, tmp_path):
    args = ["verify-bounds", "-p", "2", "--maps", "6", "--conjugates", "2",
            "--rejection", "2", "--height", "1", "--seed", "3"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(p1))[0] == 0
    assert run(capsys, *args, "--workers", "2", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_bounds_violation_injection_exit_1(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify-bounds", "-p", "2", "--maps", "4",
                     "--conjugates", "0", "--rejection", "0", "--height", "1",
                     "--seed", "3", "--period-threshold", "0", "--out", str(out_path))
    assert code == 1
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["violations"]
    # every orbit ends closed or escaping, so the box's longest orbit (3) is
    # found and nothing is left undecided
    code, out, _ = run(capsys, "verify-bounds", "-p", "2", "--maps", "20",
                       "--conjugates", "0", "--rejection", "0", "--height", "2",
                       "--seed", "1", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["status_counts"]["step_limit"] == 0
    assert doc["violations"] == [] and doc["max_orbit_size"] == 3


def test_verify_props_small(capsys, tmp_path):
    out_path = tmp_path / "props.json"
    code, out, _ = run(capsys, "verify-props", "-p", "2", "--maps", "6",
                       "--height", "1", "--seed", "4", "--triples", "40",
                       "--instances", "40", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["kind"] == "properties"
    assert doc["checker_counts"]["prop51"]["failed"] == 0
    assert "prop51: 40/40 passed" in out


def test_verify_props_csv(capsys, tmp_path):
    out_path = tmp_path / "props.csv"
    code, _, _ = run(capsys, "verify-props", "-p", "2", "--maps", "4",
                     "--height", "1", "--seed", "4", "--triples", "10",
                     "--instances", "10", "--checkers", "prop51,prop52",
                     "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "checker,run,passed,failed"
    assert len(lines) == 3


def test_campaigns_run_at_large_p_with_default_settings(capsys):
    # the MST place degree is the largest D <= 3 with p^D <= 23^2
    for p, degree in (("7", 3), ("13", 2), ("97", 1)):
        code, out, _ = run(capsys, "verify-bounds", "-p", p, "--maps", "2",
                           "--conjugates", "1", "--rejection", "1", "--height", "0")
        assert code == 0 and json.loads(out)["violations"] == []
        code, out, _ = run(capsys, "verify-props", "-p", p, "--maps", "2",
                           "--triples", "5", "--instances", "5", "--height", "0")
        doc = json.loads(out)
        assert code == 0 and doc["violations"] == []
        assert doc["config"]["mst_place_degree"] == degree
        assert doc["checker_counts"]["mst"]["run"] > 0


def test_package_imports_without_numpy():
    # the package is pure Python: importing it must not pull numpy in
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import ffdyn, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

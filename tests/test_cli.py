import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ffdyn import harness
from ffdyn.algebra import MAX_T_EXPONENT
from ffdyn.cli import main
from ffdyn.dynamics import MAX_MAP_DEGREE


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
    # O(log e) divisions: one divmod per power of pi would not finish
    code, out, _ = run(capsys, "val", "t^100000", "t", "-p", "2")
    assert (code, out.strip()) == (0, "100000")


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
    # a monomial G takes the Y-factor rule alone, not a 320 x 320 determinant
    code, out, _ = run(capsys, "resultant", "x^160+t", "-p", "2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "badplaces", "x^160+t", "-p", "2")
    assert (code, out.strip()) == (0, "(none)")
    # Res = prod over g(b) = 0 of f(b) = prod (t - b) = g(t) for f = x^k + t,
    # g = x^(k-1) + 1; a Bareiss determinant took seconds at k = 80
    code, out, _ = run(capsys, "resultant", "(x^160+t)/(x^159+1)", "-p", "2")
    assert (code, out.strip()) == (0, "t^159+1")
    code, out, _ = run(capsys, "resultant", "(x^80+t)/(x^79+1)", "-p", "3")
    assert (code, out.strip()) == (0, "t^79+1")
    # G = X^40, the mirror shape of a monomial G
    code, out, _ = run(capsys, "resultant", "1/x^40+t", "-p", "2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "badplaces", "1/x^40+t", "-p", "2")
    assert (code, out.strip()) == (0, "(none)")


def test_text_exponents_above_the_limit_exit_2(capsys):
    # polynomials and forms are dense, so a text exponent costs that many
    # stored coefficients: powers of x and the JSON d stop at MAX_MAP_DEGREE,
    # powers of t at MAX_T_EXPONENT, and anything above is an input error
    assert (MAX_MAP_DEGREE, MAX_T_EXPONENT) == (1000, 100_000)
    code, out, _ = run(capsys, "resultant", "x^1000", "-p", "2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "resultant", "x^2+t^100000", "-p", "2")
    assert (code, out.strip()) == (0, "1")
    json_doc = '{"p":2,"d":%d,"F":["1"%s],"G":[%s"1"]}'
    code, out, _ = run(capsys, "resultant", json_doc % (1000, ',"0"' * 1000, '"0",' * 1000))
    assert (code, out.strip()) == (0, "1")
    for argv in (["resultant", "x^1001", "-p", "2"],
                 ["resultant", "x^100000", "-p", "2"],
                 ["badplaces", "(x^2+t)/(x^1001+1)", "-p", "3"],
                 ["resultant", "x^2+t^100001", "-p", "2"],
                 ["val", "t^100001", "t", "-p", "2"],
                 ["orbit", "x^2", "[t^100001:1]", "-p", "2"],
                 ["resultant", json_doc % (1001, ',"0"' * 1001, '"0",' * 1001)],
                 ["resultant", '{"p":2,"d":100000,"F":[],"G":[]}']):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "above the limit" in err


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
    # degree 1 is certified by the order of its matrix: x+t has order p,
    # and t*x has infinite order and moves [1:1]
    code, out, _ = run(capsys, "orbit", "x+t", "[0:1]", "-p", "2")
    assert code == 0 and "uncertified" not in out
    assert "status: finite" in out
    assert "tail: 0  cycle: 2" in out
    code, out, _ = run(capsys, "orbit", "t*x", "[1:1]", "-p", "2")
    assert code == 0 and "status: height_escape" in out
    code, out, _ = run(capsys, "orbit", "x+t", "[0:1]", "-p", "97")
    assert code == 0 and "tail: 0  cycle: 97" in out


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
    # arithmetic errors other than division by zero are input errors too; a
    # characteristic-zero eta that leaves the float range names itself,
    # whether the float arithmetic raises or returns inf
    for D, s in (("100", "100"), ("1", "100"), ("10", "60")):
        code, _, err = run(capsys, "eta", "-p", "0", "-D", D, "-s", s)
        assert code == 2 and f"eta_bound(0, {D}, {s})" in err
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
    # a repeated degree would generate the same maps twice and count them twice
    code, _, err = run(capsys, "verify-bounds", "-p", "2", "--degrees", "2,2", "--maps", "4")
    assert code == 2 and "repeated degree" in err
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
    assert "uncertified" not in out
    for key in ("max_steps", "max_height", "period_threshold_override",
                "orbit_threshold_override"):
        assert key not in doc["config"]
    assert all("conjugation_depth" not in g["spec"] for g in doc["config"]["generators"])
    # a verdict is always certified and complete: the uncertified height cap,
    # the threshold overrides and a checker subset are not options
    for flag in ("--max-height", "--period-threshold", "--orbit-threshold"):
        code, _, err = run(capsys, "verify-bounds", "-p", "2", "--maps", "6",
                           "--conjugates", "2", "--rejection", "2", "--height", "1",
                           "--seed", "3", flag, "6", "--out", str(out_path))
        assert code == 2 and "unrecognized arguments" in err
    for argv in (["orbit", "x+t", "[0:1]", "-p", "2", "--max-height", "10"],
                 ["verify-props", "-p", "2", "--maps", "2", "--height", "1",
                  "--checkers", "prop51"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err


def test_verify_bounds_deterministic_bytes(capsys, tmp_path):
    args = ["verify-bounds", "-p", "2", "--maps", "6", "--conjugates", "2",
            "--rejection", "2", "--height", "1", "--seed", "3"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(p1))[0] == 0
    assert run(capsys, *args, "--workers", "2", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_bounds_violation_injection_exit_1(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "r.json"
    args = ["verify-bounds", "-p", "2", "--maps", "4", "--conjugates", "0",
            "--rejection", "0", "--height", "1", "--seed", "3", "--out", str(out_path)]
    with monkeypatch.context() as m:
        m.setattr(harness, "period_bound", lambda p: 0)
        code, _, _ = run(capsys, *args)
    assert code == 1
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["thresholds"]["period"] == 0
    assert {v["checker"] for v in doc["violations"]} == {"period_bound"}
    assert len(doc["violations"]) == doc["finite_orbits"] > 0
    with monkeypatch.context() as m:
        m.setattr(harness, "orbit_bound", lambda p: 0)
        code, _, _ = run(capsys, *args)
    assert code == 1
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert {v["checker"] for v in doc["violations"]} == {"orbit_bound"}
    assert len(doc["violations"]) == doc["finite_orbits"] > 0
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
    assert "checkers" not in doc["config"]
    assert list(doc["checker_counts"]) == ["lemma_eq", "lemma_pab", "mst", "prop51",
                                           "prop52", "prop61"]
    assert doc["checker_counts"]["prop51"]["failed"] == 0
    assert "prop51: 40/40 passed" in out


def test_verify_props_failed_check_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "check_prop_52", lambda phi, P, Q: False)
    out_path = tmp_path / "props.json"
    code, _, _ = run(capsys, "verify-props", "-p", "2", "--maps", "4",
                     "--height", "1", "--seed", "4", "--triples", "5",
                     "--instances", "5", "--out", str(out_path))
    assert code == 1
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["checker_counts"]["prop52"] == {"run": 5, "passed": 0, "failed": 5}
    assert doc["checker_counts"]["prop51"]["failed"] == 0
    assert len(doc["violations"]) == 5
    assert all(v["checker"] == "prop52" and v["result"] is False for v in doc["violations"])


def test_verify_props_csv(capsys, tmp_path):
    out_path = tmp_path / "props.csv"
    code, _, _ = run(capsys, "verify-props", "-p", "2", "--maps", "4",
                     "--height", "1", "--seed", "4", "--triples", "10",
                     "--instances", "10", "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "checker,run,passed,failed"
    assert len(lines) == 7


def test_campaigns_run_at_large_p_with_default_settings(capsys):
    # the MST place degree is the largest D <= 3 with p^D <= 23^2
    for p, degree in (("7", 3), ("13", 2), ("97", 1)):
        code, out, _ = run(capsys, "verify-bounds", "-p", p, "--maps", "2",
                           "--conjugates", "1", "--rejection", "1", "--height", "0")
        assert code == 0 and json.loads(out)["violations"] == []
        code, out, _ = run(capsys, "verify-props", "-p", p, "--maps", "2", "--height", "0")
        doc = json.loads(out)
        assert code == 0 and doc["violations"] == []
        assert doc["config"]["mst_place_degree"] == degree
        assert doc["checker_counts"]["mst"]["run"] > 0


def test_campaigns_refuse_the_default_box_at_large_p(capsys):
    # 97^5 + 1 and 97^7 + 1 points: refused before any map is generated
    for argv in (["verify-props", "-p", "97"], ["verify-bounds", "-p", "97"]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "above the limit" in err


def test_verify_props_at_height_0_for_small_p(capsys):
    # the height-0 box holds only p + 1 points, fewer than the six points
    # of a random equal-distance configuration when p < 5
    for p in ("2", "3"):
        code, out, _ = run(capsys, "verify-props", "-p", p, "--height", "0", "--maps", "1",
                           "--triples", "2", "--instances", "2")
        assert code == 0
        assert json.loads(out)["checker_counts"]["lemma_eq"]["run"] == 21


# sha256 of small reports, recorded before the change that added this test;
# a deliberate format change updates a digest and says why in CHANGES.md
_BOUNDS_P2 = ["verify-bounds", "-p", "2", "--maps", "6", "--conjugates", "2",
              "--rejection", "2", "--height", "2", "--seed", "3"]
_REPORT_DIGESTS = {
    "bounds-p2-json": (
        _BOUNDS_P2, "4d51f2710f76a5e89740a710d467e6e5b75c1eba46cca8b5dcad15555a535b92"),
    "bounds-p2-csv": (
        _BOUNDS_P2 + ["--format", "csv"],
        "012ae5eea6d90aebdfc06e8e167cad819b656428db36e0ecb17c20e7db45a5f3"),
    "bounds-p2-workers-2": (
        _BOUNDS_P2 + ["--workers", "2"],
        "4d51f2710f76a5e89740a710d467e6e5b75c1eba46cca8b5dcad15555a535b92"),
    "bounds-p5": (
        ["verify-bounds", "-p", "5", "--maps", "20", "--degrees", "2", "--conjugates", "5",
         "--rejection", "5", "--coeff-degree", "1", "--height", "1", "--seed", "42"],
        "0440713b3d3cb7f8e4567c3b79e27ee44120ab622498d57037eaae53d78e96ed"),
    "props-p2": (
        ["verify-props", "-p", "2", "--maps", "6", "--height", "1", "--seed", "4",
         "--triples", "40", "--instances", "40"],
        "87ea59fe9bb60cd454f585d8948b26e8f021eb45e7577b0ba2814696d8bd17ff"),
    "props-p3": (
        ["verify-props", "-p", "3", "--maps", "4", "--height", "2", "--seed", "42",
         "--triples", "20", "--instances", "20"],
        "488f35dd9b20e8fd41dccaa6578846aac776de9966b14be8199f8c18e4d317c5"),
    "periodic-x^2+t": (
        ["periodic", "-p", "2", "x^2+t", "--height", "3"],
        "dbc08974b2d25f60d7c0ecaf7670a785139596981605a7992500c597ed712b27"),
    "periodic-1/x^2": (
        ["periodic", "-p", "2", "1/x^2", "--height", "2"],
        "aee60df85a4053f3b29958e97587430ebacf7bd255611609503a5aad9c137323"),
    "periodic-x^3": (
        ["periodic", "-p", "2", "x^3+(t^2+1)*x^2+1", "--height", "2"],
        "7a56631766a9762fc3d78485edb184dc181defaff8f488d161f6b39860ff974b"),
}


@pytest.mark.parametrize("name", sorted(_REPORT_DIGESTS))
def test_reports_keep_their_bytes(capsys, name):
    # reports stay byte-identical for a fixed seed, serial or --workers N
    argv, digest = _REPORT_DIGESTS[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_package_imports_without_numpy():
    # the package is pure Python: importing it must not pull numpy in
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import ffdyn, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# text in the characters of the map, point, polynomial and JSON grammars:
# free, or a valid input with up to three characters replaced or
# deleted; digit runs are cut to one digit so a generated degree stays small
_GRAMMAR_CHARS = "xt0123456789^*+-/()[]: ,{}\"pdFGinf@"
_VALID_INPUTS = ("x^2+t", "(x^2+2*t)/x", "(t^2+1)*x^2+t*x+1", "((t))*x^2+1", "1/x^2",
                 "[t:1]", "[0:1]",
                 "[1:0]", "[t^2+1 : t]", "t^3/t+1", "t^2+t+1", "inf", "0",
                 '{"p":2,"d":2,"F":["1","0","t"],"G":["0","0","1"]}')


def _mutate(text, edits):
    for pos, ch in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + ch + text[i + 1:]
    return text


_GRAMMAR_TEXT = st.one_of(
    st.text(alphabet=_GRAMMAR_CHARS, max_size=30),
    st.builds(_mutate, st.sampled_from(_VALID_INPUTS),
              st.lists(st.tuples(st.integers(0, 60), st.sampled_from(["", *_GRAMMAR_CHARS])),
                       max_size=3)),
).map(lambda s: re.sub(r"\d+", lambda m: m.group()[0], s))


@settings(max_examples=200, deadline=None)
@given(text=_GRAMMAR_TEXT, p=st.sampled_from(["2", "3", "5"]))
def test_parsers_exit_0_or_2_on_generated_text(text, p):
    for argv in (["resultant", text, "-p", p],
                 ["orbit", "x^2+t", text, "-p", p],
                 ["val", text, "t", "-p", p],
                 ["dist", "[0:1]", "[t:1]", text, "-p", p]):
        assert main(argv) in (0, 2), argv

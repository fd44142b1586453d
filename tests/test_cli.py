import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from enlargekit.enlargement import enl_member
from enlargekit.operators import LinearMapOp


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    mk = lambda name, doc: write_spec(tmp_path, name, doc)
    return {
        "rot90": mk("rot90.json", {
            "space_dim": 2,
            "operator": {"kind": "linear_map", "matrix": [[0, -1], [1, 0]]}}),
        "rot60": mk("rot60.json", {
            "space_dim": 2,
            "operator": {"kind": "linear_map",
                         "matrix": [[0.5, -math.sqrt(3) / 2],
                                    [math.sqrt(3) / 2, 0.5]]}}),
        "id1": mk("id1.json", {
            "space_dim": 1,
            "operator": {"kind": "linear_map", "matrix": [[1]]}}),
        "neg": mk("neg.json", {
            "space_dim": 1,
            "operator": {"kind": "linear_map", "matrix": [[-1]]}}),
        "norm1": mk("norm1.json", {
            "space_dim": 2,
            "operator": {"kind": "norm_subdiff", "p": 1}}),
        "boxcone": mk("boxcone.json", {
            "space_dim": 2,
            "operator": {"kind": "normal_cone",
                         "set": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]}}}),
        "vertical": mk("vertical.json", {
            "space_dim": 1,
            "operator": {"kind": "linear_relation", "graph_basis": [[0, 1]]}}),
        "skew2": mk("skew2.json", {
            "space_dim": 2,
            "operator": {"kind": "linear_map", "matrix": [[0, -2], [2, 0]]}}),
        # (-1) + (2) on R: the identity, with a term that is not monotone
        "id_sum": mk("id_sum.json", {
            "space_dim": 1,
            "operator": {"kind": "sum", "terms": [
                {"kind": "linear_map", "matrix": [[-1]]},
                {"kind": "linear_map", "matrix": [[2]]}]}}),
        "skew_sum": mk("skew_sum.json", {
            "space_dim": 2,
            "operator": {"kind": "sum", "terms": [
                {"kind": "linear_map", "matrix": [[0, -1], [1, 0]]},
                {"kind": "linear_map", "matrix": [[0, -2], [2, 0]]}]}}),
    }


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "enlargekit", *argv],
                          capture_output=True)
    return proc


def run_json(*argv, expect=0):
    proc = run_cli(*argv)
    assert proc.returncode == expect, proc.stderr.decode()
    doc = json.loads(proc.stdout.decode())
    assert doc["schema"] == "v1"
    return doc


def test_classify_rot90(specs):
    doc = run_json("classify", specs["rot90"])
    res = doc["results"]
    assert res["skew"] is True
    assert res["non_enlargeable"] is True
    assert res["monotone"] and res["maximal"]


def test_classify_identity_ships_witness(specs):
    doc = run_json("classify", specs["id1"])
    res = doc["results"]
    assert res["non_enlargeable"] is False
    assert "witness" in res
    x, xs = np.asarray(res["witness"]["x"]), np.asarray(res["witness"]["xs"])
    assert enl_member(LinearMapOp(np.eye(1)), x, xs, 1.0).member


def test_classify_nonmonotone_exit_2(specs):
    proc = run_cli("classify", specs["neg"])
    assert proc.returncode == 2
    doc = json.loads(proc.stdout.decode())
    assert doc["results"]["monotone"] is False


def test_classify_linear_sum_as_its_sum_relation(specs):
    res = run_json("classify", specs["id_sum"])["results"]
    assert res["monotone"] is True and res["maximal"] is True
    assert res["symmetric"] is True and res["skew"] is False
    assert res["non_enlargeable"] is False
    assert "witness" in res
    res = run_json("classify", specs["skew_sum"])["results"]
    assert res["maximal"] is True and res["skew"] is True
    assert res["non_enlargeable"] is True


def test_classify_norm_subdiff(specs):
    doc = run_json("classify", specs["norm1"])
    res = doc["results"]
    assert res["non_enlargeable"] is False
    assert res["symmetric"] is None


def test_fitz_identity_quarter(specs):
    doc = run_json("fitz", specs["id1"], "--point", "1,0",
                   "--bruteforce", "2000", "6.0")
    res = doc["results"]
    assert res["closed_form"] == pytest.approx(0.25)
    assert res["bruteforce"] <= 0.25 + 1e-9
    assert res["gap"] <= 1e-3
    assert not res["divergence_suspected"]


def test_fitz_outside_box_is_inf(specs):
    doc = run_json("fitz", specs["boxcone"], "--point", "2,0,1,0",
                   "--bruteforce", "500", "4.0", expect=3)
    assert doc["results"]["closed_form"] == "+inf"
    assert doc["results"]["divergence_suspected"] is True


def test_fitz_skew_off_graph(specs):
    doc = run_json("fitz", specs["skew2"], "--point", "1,0,0.5,2.5",
                   "--bruteforce", "2000", "4.0", expect=3)
    res = doc["results"]
    assert res["closed_form"] == "+inf"
    assert res["divergence_suspected"] is True


def test_fitz_bad_point_exit_1(specs):
    proc = run_cli("fitz", specs["id1"], "--point", "1,0,0")
    assert proc.returncode == 1


def test_fitz_and_enlarge_leave_scipy_optimize_unloaded(tmp_path):
    # the chart polish is numpy alone: no command imports scipy.optimize
    map_spec = write_spec(tmp_path, "map.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_map", "matrix": [[2, -1], [1, 1]]}})
    norm_spec = write_spec(tmp_path, "norm.json", {
        "space_dim": 2, "operator": {"kind": "norm_subdiff", "p": 1.5}})
    code = ("import sys\n"
            "import enlargekit.cli as cli\n"
            f"a = cli.main(['fitz', {map_spec!r}, '--point', '1,0,0.5,1',\n"
            "              '--bruteforce', '500', '4.0', '--seed', '1'])\n"
            f"b = cli.main(['enlarge', {norm_spec!r}, '--point', '1,0,0.5,1',\n"
            "              '--eps', '0.5', '--seed', '1'])\n"
            "print(a, b, 'scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1].split() == ["0", "0", "False"]


def test_enlarge_rotation_slice_radius(specs):
    doc = run_json("enlarge", specs["rot60"], "--eps", "1",
                   "--slice-at", "0.2,0.4")
    res = doc["results"]
    assert res["ball_radius"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_enlarge_slice_of_a_linear_sum_matches_its_map(specs):
    got = run_json("enlarge", specs["id_sum"], "--eps", "0.5", "--slice-at", "1")["results"]
    want = run_json("enlarge", specs["id1"], "--eps", "0.5", "--slice-at", "1")["results"]
    for key in ("center", "form", "level", "carrier_basis"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)
    assert got["carrier_dim"] == want["carrier_dim"] == 1
    assert got["center"] == pytest.approx([1.0], abs=1e-12)
    assert got["level"] == pytest.approx(2.0, abs=1e-12)


def test_enlarge_slice_of_a_rounding_negative_map(tmp_path):
    # the symmetric part's -5e-11 passes validate (slack 1e-10): the spec
    # is valid, and its slice lives on the one-dimensional carrier
    spec = write_spec(tmp_path, "dust.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_map", "matrix": [[0.1, 0], [0, -5e-11]]}})
    res = run_json("enlarge", spec, "--eps", "0.5", "--slice-at", "1,0")["results"]
    assert res["carrier_dim"] == 1
    assert res["center"] == pytest.approx([0.1, 0.0], abs=1e-15)
    assert res["semiaxes"] == pytest.approx([math.sqrt(0.2)], abs=1e-12)


def test_enlarge_slice_of_a_near_skew_map(tmp_path):
    # skew + 1e-6 G G' (seed 0): its form pinv(A_+) has entries near 1e7,
    # so b' form b is asymmetric from rounding alone
    rng = np.random.default_rng(0)
    k, g = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    a = 0.5 * (k - k.T) + 1e-6 * (g @ g.T)
    spec = write_spec(tmp_path, "near_skew.json", {
        "space_dim": 3, "operator": {"kind": "linear_map", "matrix": a.tolist()}})
    res = run_json("enlarge", spec, "--eps", "0.5", "--slice-at", "1,1,1")["results"]
    assert res["carrier_dim"] == 3 and len(res["semiaxes"]) == 3


def test_enlarge_norm_subdiff_boundary_point(specs):
    doc = run_json("enlarge", specs["norm1"], "--eps", "1",
                   "--point", "1,0,0,1")
    res = doc["results"]
    assert res["member"] is True
    assert res["slack"] == pytest.approx(0.0, abs=1e-12)


def test_enlarge_negative_eps_exit_1(specs):
    proc = run_cli("enlarge", specs["id1"], "--eps", "-0.5", "--point", "0,0")
    assert proc.returncode == 1


def test_enlarge_csv_boundary_reverifies(specs, tmp_path):
    out = tmp_path / "slice.csv"
    eps = 1.0
    run_json("enlarge", specs["rot60"], "--eps", "1", "--slice-at", "0.1,0.0",
             "--csv", str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,xs1,xs2"
    a = LinearMapOp(np.array([[0.5, -math.sqrt(3) / 2],
                              [math.sqrt(3) / 2, 0.5]]))
    for line in lines[1:]:
        vals = [float(t) for t in line.split(",")]
        x, xs = np.asarray(vals[:2]), np.asarray(vals[2:])
        assert enl_member(a, x, xs, eps + 1e-6).member
        assert not enl_member(a, x, xs, eps - 1e-3).member


def test_sumcheck_identity_pair(specs):
    doc = run_json("sumcheck", specs["id1"], specs["id1"], "--points", "40")
    res = doc["results"]
    assert res["max_gap"] <= 1e-8
    assert res["maximal"] is True
    assert res["hypothesis_ok"] is True
    assert res["non_enlargeable"] is False


def test_sumcheck_builds_the_sum_relation_once(specs, monkeypatch):
    from enlargekit import cli
    from enlargekit import operators as ops
    calls = []
    real = ops.sum_relation

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ops, "sum_relation", counting)
    assert cli.main(["sumcheck", specs["rot90"], specs["skew2"], "--points", "6"]) == 0
    assert len(calls) == 1


def test_sumcheck_skew_plus_skew_non_enlargeable(specs):
    doc = run_json("sumcheck", specs["rot90"], specs["skew2"], "--points", "30")
    assert doc["results"]["non_enlargeable"] is True
    assert doc["results"]["max_gap"] <= 1e-6


def test_sumcheck_identity_plus_cone(specs, tmp_path):
    id2 = write_spec(tmp_path, "id2.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_map", "matrix": [[1, 0], [0, 1]]}})
    doc = run_json("sumcheck", id2, specs["boxcone"], "--points", "20")
    res = doc["results"]
    assert res["max_gap"] <= 1e-6
    assert res["hypothesis_ok"] is True
    assert res["advisory"] is False


def test_cli_determinism_byte_identical(specs, tmp_path):
    out_csv = tmp_path / "b.csv"
    invocations = [
        ("classify", specs["rot90"]),
        ("fitz", specs["id1"], "--point", "1,0", "--bruteforce", "500", "4.0",
         "--seed", "7"),
        ("enlarge", specs["rot60"], "--eps", "1", "--slice-at", "0.2,0.4",
         "--seed", "3"),
        ("sumcheck", specs["id1"], specs["id1"], "--points", "20", "--seed", "5"),
    ]
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout


def test_seed_env_override(specs):
    import os
    env = dict(**__import__("os").environ, ENLARGEKIT_SEED="42")
    proc = subprocess.run(
        [sys.executable, "-m", "enlargekit", "classify", specs["rot90"]],
        capture_output=True, env=env)
    doc = json.loads(proc.stdout.decode())
    assert doc["seed"] == 42
    # explicit flag wins over the environment
    proc2 = subprocess.run(
        [sys.executable, "-m", "enlargekit", "classify", specs["rot90"],
         "--seed", "9"],
        capture_output=True, env=env)
    assert json.loads(proc2.stdout.decode())["seed"] == 9


def test_malformed_spec_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("classify", str(bad))
    assert proc.returncode == 1
    missing = run_cli("classify", str(tmp_path / "nope.json"))
    assert missing.returncode == 1


def test_solver_failure_exits_3(specs, monkeypatch, capsys):
    from enlargekit import certificates as cert
    from enlargekit import cli
    from enlargekit.fitzpatrick import SolverFailureError

    def fail(*args, **kwargs):
        raise SolverFailureError("inner minimization residual above tolerance")

    monkeypatch.setattr(cert, "sum_fitz_exactness", fail)
    assert cli.main(["sumcheck", specs["id1"], specs["id1"]]) == cli.EXIT_ANOMALY
    assert capsys.readouterr().err.startswith("error: inner minimization")


def test_theorem_contradiction_exits_3(specs, monkeypatch, capsys):
    from enlargekit import certificates as cert
    from enlargekit import cli

    def contradict(*args, **kwargs):
        raise RuntimeError("pairing on gra(-A*) contradicts the criterion")

    monkeypatch.setattr(cert, "non_enlargeable_linear_relation", contradict)
    assert cli.main(["classify", specs["vertical"]]) == cli.EXIT_ANOMALY
    assert capsys.readouterr().err.startswith("error: pairing")


def test_sumcheck_linear_plus_polytope_cone_exit_0(tmp_path):
    id2 = write_spec(tmp_path, "id2.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_map", "matrix": [[1, 0], [0, 1]]}})
    tri = write_spec(tmp_path, "tri.json", {
        "space_dim": 2,
        "operator": {"kind": "normal_cone",
                     "set": {"kind": "polytope",
                             "vertices": [[0, 0], [1, 0], [0, 1]]}}})
    res = run_json("sumcheck", id2, tri, "--points", "5")["results"]
    assert res["max_gap"] <= 1e-6
    assert res["hypothesis_ok"] is True and res["maximal"] is True


def test_sumcheck_linear_plus_circle_polytope_cone(tmp_path):
    angles = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 200)
    circle = write_spec(tmp_path, "circle.json", {
        "space_dim": 2,
        "operator": {"kind": "normal_cone",
                     "set": {"kind": "polytope",
                             "vertices": np.c_[np.cos(angles), np.sin(angles)].tolist()}}})
    a = write_spec(tmp_path, "a.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_map", "matrix": [[1, -1], [1, 1]]}})
    res = run_json("sumcheck", a, circle, "--points", "8")["results"]
    assert res["max_gap"] <= 1e-6 and res["maximal"] is True


def test_sumcheck_reports_an_undetermined_verdict_as_null(tmp_path):
    # dom A = span e2 meets [0, 1] x [-1, 1] only on its face x1 = 0: maximal
    # by the polyhedral sum rule, while the interior hypothesis fails
    rel = write_spec(tmp_path, "rel.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_relation",
                     "graph_basis": [[0, 1, 0, 0], [0, 0, 1, 0]]}})
    box = write_spec(tmp_path, "box.json", {
        "space_dim": 2,
        "operator": {"kind": "normal_cone",
                     "set": {"kind": "box", "lo": [0, -1], "hi": [1, 1]}}})
    proc = run_cli("sumcheck", rel, box, "--points", "6")
    res = json.loads(proc.stdout)["results"]
    assert res["maximal"] is True and b'null' not in proc.stdout
    assert res["non_enlargeable"] is False
    assert res["hypothesis_ok"] is False and proc.returncode == 2, proc.stderr.decode()


def _sum_spec(tmp_path, name, linear, lo, hi):
    return write_spec(tmp_path, name, {
        "space_dim": 2,
        "operator": {"kind": "sum", "terms": [
            linear, {"kind": "normal_cone", "set": {"kind": "box", "lo": lo, "hi": hi}}]}})


def test_classify_cone_sum_ships_a_closed_form_witness(tmp_path):
    from enlargekit.operators import Box, NormalConeOp, SumOp
    a = [[1, -1], [1, 1]]
    spec = _sum_spec(tmp_path, "sum.json", {"kind": "linear_map", "matrix": a},
                     [-1, -1], [1, 1])
    res = run_json("classify", spec)["results"]
    assert res["maximal"] is True and res["non_enlargeable"] is False
    x, xs = np.asarray(res["witness"]["x"]), np.asarray(res["witness"]["xs"])
    v = enl_member(SumOp((LinearMapOp(a), NormalConeOp(Box([-1, -1], [1, 1])))), x, xs, 0.5)
    assert v.member and v.method == "closed_form"


def test_enlarge_point_on_a_box_that_dom_a_touches(tmp_path):
    # dom A = span e2 meets [0, 1] x [-1, 1] only on its face x1 = 0; the sum
    # is maximal, so membership has the closed form of the cone-sum QP
    spec = _sum_spec(tmp_path, "touch.json",
                     {"kind": "linear_relation", "graph_basis": [[0, 1, 0, 0], [0, 0, 1, 0]]},
                     [0, -1], [1, 1])
    res = run_json("enlarge", spec, "--eps", "0.5", "--point", "0,0.5,0,1")["results"]
    assert res["method"] == "closed_form" and res["approximate"] is False
    assert res["member"] is True and res["fitz_value"] == pytest.approx(1.0, abs=1e-9)
    res = run_json("classify", spec)["results"]
    assert res["maximal"] is True and res["non_enlargeable"] is False


def test_sumcheck_reports_skipped_points(specs, tmp_path):
    interval = write_spec(tmp_path, "interval.json", {
        "space_dim": 1,
        "operator": {"kind": "normal_cone",
                     "set": {"kind": "box", "lo": [-1], "hi": [1]}}})
    doc = run_json("sumcheck", specs["vertical"], interval, "--points", "6")
    res = doc["results"]
    assert res["skipped_points"] > 0
    assert res["skipped_points"] + res["finite_points"] == res["points_tested"]
    linear = run_json("sumcheck", specs["id1"], specs["id1"], "--points", "6")
    assert linear["results"]["skipped_points"] == 0


def test_sumcheck_that_checked_nothing_exits_3(specs, monkeypatch, capsys):
    from enlargekit import certificates as cert
    from enlargekit import cli

    def all_skipped(*args, **kwargs):
        return cert.SumCheckReport(
            max_gap=0.0, points_tested=9, exactness_witnesses=[], maximality=True,
            hypothesis_ok=True, mode="linear+normal-cone", skipped_points=9)

    monkeypatch.setattr(cert, "sum_fitz_exactness", all_skipped)
    assert cli.main(["sumcheck", specs["vertical"], specs["id1"]]) == cli.EXIT_ANOMALY
    out = capsys.readouterr()
    assert out.err == "error: no sampled point had a finite value (9 of 9 skipped)\n"
    assert out.out == ""


def test_fitz_of_a_sum_it_cannot_apply_exits_2(tmp_path):
    # N_box + N_ball: the Minkowski sum of a face cone and a ray has no
    # set description, so graph membership of the query pair is unsupported
    spec = write_spec(tmp_path, "cones.json", {
        "space_dim": 2,
        "operator": {"kind": "sum", "terms": [
            {"kind": "normal_cone", "set": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]}},
            {"kind": "normal_cone",
             "set": {"kind": "ball", "center": [0, 0], "radius": 1}}]}})
    proc = run_cli("fitz", spec, "--point", "1,0,1,0")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


_NOT_MONOTONE = "error: operator not monotone: "


@pytest.mark.parametrize("argv, code, prefix", [
    (["fitz", "{neg}", "--point", "0.5,0.5"], 2, _NOT_MONOTONE),
    (["enlarge", "{neg}", "--eps", "0.5", "--point", "0.5,0.5"], 2, _NOT_MONOTONE),
    (["enlarge", "{neg}", "--eps", "0.5", "--slice-at", "0.5"], 2, _NOT_MONOTONE),
    (["sumcheck", "{neg}", "{id1}"], 2, _NOT_MONOTONE),
    # a line graph in R^2: monotone, not maximal
    (["enlarge", "{line}", "--eps", "0.5", "--point", "0,0,1,0"], 2, "error: graph form"),
    (["sumcheck", "{boxcone}", "{ballcone}"], 2, "error: sums are covered"),
    (["classify", "{malformed}"], 1, "error: cannot load operator spec"),
    # dom A = span e1 misses the box [-1, 1] x [0.5, 1.5]: every sampled
    # point is skipped because the sum has an empty graph, not an anomaly
    (["sumcheck", "{span_e1}", "{offbox}"], 2, "error: linear + normal cone: dom A misses C"),
    # numeric flags out of range are refused before any work
    (["enlarge", "{id1}", "--eps=nan", "--point", "1,1"], 1, "error: --eps must be finite"),
    (["enlarge", "{id1}", "--eps=-0.5", "--point", "1,1"], 1, "error: --eps must be finite"),
    (["sumcheck", "{id1}", "{id1}", "--tol=nan"], 1, "error: --tol must be finite"),
    (["sumcheck", "{id1}", "{id1}", "--tol=-1"], 1, "error: --tol must be finite"),
    (["sumcheck", "{id1}", "{id1}", "--points", "0"], 1, "error: --points must be at least 1"),
    (["sumcheck", "{id1}", "{id1}", "--points", "-3"], 1, "error: --points must be at least 1"),
    (["fitz", "{id1}", "--point", "1,1", "--bruteforce", "10", "nan"], 1,
     "error: --bruteforce needs a positive count"),
])
def test_main_maps_each_error_to_its_exit_code(specs, tmp_path, capsys, argv, code, prefix):
    from enlargekit import cli

    paths = dict(specs, malformed=str(tmp_path / "malformed.json"))
    (tmp_path / "malformed.json").write_text("{not json")
    paths["line"] = write_spec(tmp_path, "line.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_relation", "graph_basis": [[1, 0, 1, 0]]}})
    paths["ballcone"] = write_spec(tmp_path, "ballcone.json", {
        "space_dim": 2,
        "operator": {"kind": "normal_cone",
                     "set": {"kind": "ball", "center": [0, 0], "radius": 1}}})
    paths["span_e1"] = write_spec(tmp_path, "span_e1.json", {
        "space_dim": 2,
        "operator": {"kind": "linear_relation",
                     "graph_basis": [[1, 0, 1, 0], [0, 0, 0, 1]]}})
    paths["offbox"] = write_spec(tmp_path, "offbox.json", {
        "space_dim": 2,
        "operator": {"kind": "normal_cone",
                     "set": {"kind": "box", "lo": [-1, 0.5], "hi": [1, 1.5]}}})
    assert cli.main([a.format(**paths) for a in argv]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(prefix) and out.err.count("\n") == 1
    assert "Traceback" not in out.err
    if not prefix.startswith(_NOT_MONOTONE):
        assert "not monotone" not in out.err


def test_main_writes_the_envelope_to_the_current_stdout(specs):
    # an in-process caller that redirects sys.stdout reads the envelope
    from enlargekit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["classify", specs["rot90"]]) == 0
    env = json.loads(buf.getvalue())
    assert env["schema"] == "v1" and env["command"] == "classify"

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsionlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_fixture_describe(capsys):
    code, out, _ = run_cli(capsys, "fixture", "appA_quadratic", "--describe")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"]["definition"]["g"] == "x^2+y^2"
    assert doc["scenario"]["claims"]


def test_fixture_claims_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "fixture", "ex7_linear_shear", "--claims")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["all_pass"]
    sums = [c for c in doc["report"]["claims"]
            if c["provenance"] == "paper"]
    assert sums and sums[0]["expected"] == 1.0

    code, _, err = run_cli(capsys, "fixture", "nope", "--claims")
    assert code == 2
    assert "unknown fixture" in err


def test_fixture_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "fixture", "ex4_sphere_3shear", "--claims")
    _, second, _ = run_cli(capsys, "fixture", "ex4_sphere_3shear", "--claims")
    assert first == second


def test_module_entry_point_matches_main(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "torsionlab", "fixture", "ex7_linear_shear"],
        capture_output=True, text=True, env=env, check=False)
    code, out, _ = run_cli(capsys, "fixture", "ex7_linear_shear")
    assert run.returncode == code == 0
    assert run.stdout == out


def test_analyze_torsion_low_saddle(tmp_path, capsys):
    path = write_scenario(tmp_path, "shear.json", {
        "schema": 1, "kind": "genfunc",
        "expressions": {"g": "x^2-y^2"},
        "parameters": {"twist_bound_c": 0.1},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "torsion-low", "--at", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["classification"] == "TorsionLow"
    assert doc["result"]["rho"] == 0.0
    assert doc["result"]["case"] == "PositiveSaddle"


def test_analyze_rotation_set_escape(tmp_path, capsys):
    path = write_scenario(tmp_path, "esc.json", {
        "schema": 1, "kind": "annulus_isotopy",
        "expressions": {"X": "x-t/y", "Y": "y"},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "rotation-set", "--center", "star",
                           "--r0", "0.05", "--levels", "2", "--n-max", "4",
                           "--threshold", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["hi_unbounded"] is True


def test_analyze_critical_points_and_indices(tmp_path, capsys):
    path = write_scenario(tmp_path, "quad.json", {
        "schema": 1, "kind": "genfunc",
        "expressions": {"g": "x^2+y^2"},
        "parameters": {"twist_bound_c": 0.1},
        "region": [-1, 1, -1, 1],
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "critical-points", "--grid", "16")
    assert code == 0
    pts = json.loads(out)["result"]["critical_points"]
    assert len(pts) == 1 and pts[0]["morse"] == "Min"

    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "lefschetz", "--center", "0,0",
                           "--radius", "0.5")
    assert json.loads(out)["result"]["index"] == 1

    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "isotopy-index", "--center", "0,0",
                           "--radius", "0.4")
    assert json.loads(out)["result"]["index"] == 0

    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "transversality", "--at", "1,0")
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "PositivelyTransverse"


def test_analyze_blowup_rotation_and_foliation_index(tmp_path, capsys):
    path = write_scenario(tmp_path, "halfquad.json", {
        "schema": 1, "kind": "genfunc",
        "expressions": {"g": "(x^2+y^2)/2"},
        "parameters": {"twist_bound_c": 0.1},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "blowup-rotation", "--at", "0,0")
    assert code == 0
    assert json.loads(out)["result"]["rho"] == pytest.approx(-1 / 6, abs=1e-9)

    field = write_scenario(tmp_path, "field.json", {
        "schema": 1, "kind": "vector_field",
        "expressions": {"p": "2*x", "q": "-2*y"},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", field,
                           "--op", "foliation-index", "--center", "0,0",
                           "--radius", "0.5")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["index"] == -1 and doc["class"] == "Saddle"


def test_analyze_linking(tmp_path, capsys):
    path = write_scenario(tmp_path, "rot.json", {
        "schema": 1, "kind": "isotopy",
        "expressions": {"x": "x*cos(2*pi*t)-y*sin(2*pi*t)",
                        "y": "x*sin(2*pi*t)+y*cos(2*pi*t)"},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "linking", "--z0", "0,0", "--z1", "1,0")
    assert code == 0
    assert json.loads(out)["result"]["linking"] == 1


def test_fixture_describe_all_serializable(capsys):
    from torsionlab.fixtures import fixture_names

    for name in fixture_names():
        code, out, _ = run_cli(capsys, "fixture", name, "--describe")
        assert code == 0
        assert json.loads(out)["scenario"]["claims"]


def test_export_from_scenario_file(tmp_path, capsys):
    path = write_scenario(tmp_path, "quad.json", {
        "schema": 1, "kind": "genfunc",
        "expressions": {"g": "x^2+y^2"},
        "parameters": {"twist_bound_c": 0.1},
    })
    out_path = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, "export", "--scenario", path,
                         "--orbit", "1,0", "--steps", "3",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "iter,x,y"
    assert len(lines) == 5


def test_analyze_twist(tmp_path, capsys):
    path = write_scenario(tmp_path, "band.json", {
        "schema": 1, "kind": "annulus_map",
        "expressions": {"X": "x+y", "Y": "y"},
        "parameters": {"a": 1.0, "b": 1.0},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "twist", "--grid", "32")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["twist_holds"] is True
    assert all(abs(y) <= 1e-9 for _, y in doc["result"]["fixed_points"])


def test_analyze_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "analyze", "--scenario", str(bad),
                           "--op", "lefschetz")
    assert code == 2
    assert "line 1" in err

    path = write_scenario(tmp_path, "unknown_key.json", {
        "schema": 1, "kind": "genfunc",
        "expressions": {"g": "x^2"}, "parameters": {"twist_bound_c": 0.1},
        "bogus": 3,
    })
    code, _, err = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "lefschetz")
    assert code == 2 and "bogus" in err

    path = write_scenario(tmp_path, "bad_expr.json", {
        "schema": 1, "kind": "genfunc",
        "expressions": {"g": "sin(2*"}, "parameters": {"twist_bound_c": 0.1},
    })
    code, _, err = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "lefschetz")
    assert code == 2 and "offset 6" in err

    path = write_scenario(tmp_path, "bad_schema.json", {
        "schema": 99, "kind": "genfunc",
        "expressions": {"g": "x^2"}, "parameters": {"twist_bound_c": 0.1},
    })
    code, _, err = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "lefschetz")
    assert code == 2 and "schema" in err


def test_analyze_operation_error_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, "ident.json", {
        "schema": 1, "kind": "isotopy",
        "expressions": {"x": "x", "y": "y"},
    })
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", "lefschetz", "--center", "0,0")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["name"] == "FixedPointOnCurve"


GENFUNC = {"schema": 1, "kind": "genfunc",
           "expressions": {"g": "0.3*x^2-0.2*y^2+0.1*x*y"},
           "parameters": {"twist_bound_c": 0.5}, "region": [-1, 1, -1, 1]}
ROTATION = {"schema": 1, "kind": "isotopy",
            "expressions": {"x": "cos(0.4*pi*t)*x-sin(0.4*pi*t)*y",
                            "y": "sin(0.4*pi*t)*x+cos(0.4*pi*t)*y"}}
BAND = {"schema": 1, "kind": "annulus_map",
        "expressions": {"X": "x+y", "Y": "y"},
        "parameters": {"a": 1.0, "b": 1.0}}
FULL_TURN = {"schema": 1, "kind": "isotopy",
             "expressions": {"x": "x*cos(2*pi*t)-y*sin(2*pi*t)",
                             "y": "x*sin(2*pi*t)+y*cos(2*pi*t)"}}
LINK = ["--op", "linking", "--z0", "0,0", "--z1", "0.5,0"]


@pytest.mark.parametrize("doc, flags", [
    (GENFUNC, ["--op", "critical-points", "--grid", "4"]),
    (BAND, ["--op", "twist", "--grid", "8"]),
    (GENFUNC, ["--op", "lefschetz", "--samples", "10"]),
    (GENFUNC, ["--op", "isotopy-index", "--samples", "10"]),
    (ROTATION, ["--op", "rotation-set", "--levels", "0"]),
    (ROTATION, ["--op", "rotation-set", "--n-max", "2"]),
    (GENFUNC, ["--op", "torsion-low", "--at", "0.5,0.5"]),
    ({**GENFUNC, "region": None}, ["--op", "critical-points",
                                   "--region", "a,b,c,d"]),
    ({**GENFUNC, "region": ["a", 1, -1, 1]}, ["--op", "critical-points"]),
    ({**BAND, "parameters": {"a": 2.0, "b": 1.0}}, ["--op", "twist"]),
    (FULL_TURN, LINK + ["--t-samples", "0"]),
    (FULL_TURN, LINK + ["--t-samples", "1"]),
    (GENFUNC, ["--op", "foliation-index", "--samples", "0"]),
    (GENFUNC, ["--op", "foliation-index", "--samples", "1"]),
    (GENFUNC, ["--op", "transversality", "--at", "0.1,0.1", "--samples", "0"]),
    (GENFUNC, ["--op", "transversality", "--at", "0.1,0.1", "--samples", "1"]),
], ids=["grid_n", "twist-grid", "lefschetz-samples", "isotopy-samples",
        "levels", "n-max", "not-critical", "region-flag", "region-text",
        "annulus-a-b", "linking-t-samples-0", "linking-t-samples-1",
        "foliation-samples-0", "foliation-samples-1",
        "transversality-samples-0", "transversality-samples-1"])
def test_input_errors_exit_two(tmp_path, capsys, doc, flags):
    path = write_scenario(tmp_path, "scenario.json", doc)
    code, out, err = run_cli(capsys, "analyze", "--scenario", path, *flags)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert "Traceback" not in err


def rotation_scenario(turns, center):
    """Rigid rotation through ``turns`` about ``center`` as expressions."""
    c, s = f"cos(2*pi*{turns}*t)", f"sin(2*pi*{turns}*t)"
    dx, dy = f"(x-{center[0]!r})", f"(y-{center[1]!r})"
    return {"schema": 1, "kind": "isotopy",
            "expressions": {"x": f"{c}*{dx}-{s}*{dy}+{center[0]!r}",
                            "y": f"{s}*{dx}+{c}*{dy}+{center[1]!r}"}}


@pytest.mark.parametrize("op", ["blowup-rotation", "torsion-low"])
def test_isotopy_derivative_path_is_exact(tmp_path, capsys, op):
    # central differences with h = 1e-6 read rho = 0.3000000170001795 here
    path = write_scenario(tmp_path, "far.json",
                          rotation_scenario(0.3, (1e4, 1e4)))
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", op, "--at", "10000,10000")
    assert code == 0
    assert json.loads(out)["result"]["rho"] == 0.3


@pytest.mark.parametrize("op", ["blowup-rotation", "torsion-low"])
def test_isotopy_derivative_path_needs_a_fixed_point(tmp_path, capsys, op):
    path = write_scenario(tmp_path, "rot.json",
                          rotation_scenario(0.3, (0.0, 0.0)))
    code, out, _ = run_cli(capsys, "analyze", "--scenario", path,
                           "--op", op, "--at", "0.5,0.2")
    assert code == 1
    assert json.loads(out)["error"]["name"] == "CenterNotFixed"


def test_export_leaves_radial(tmp_path, capsys):
    out_path = tmp_path / "leaves.csv"
    code, _, err = run_cli(capsys, "export", "--fixture", "appA_quadratic",
                           "--leaves", "12", "--out", str(out_path),
                           "--seed-radius", "0.25", "--step", "0.01",
                           "--max-len", "1.0")
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "leaf_id,s,x,y"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {str(k) for k in range(12)}
    # radial field: each leaf keeps its angle and grows outward
    for k in range(12):
        pts = [(float(r[2]), float(r[3])) for r in rows if r[0] == str(k)]
        r0 = math.hypot(*pts[0])
        r1 = math.hypot(*pts[-1])
        assert r1 > r0
        a0 = math.atan2(pts[0][1], pts[0][0])
        a1 = math.atan2(pts[-1][1], pts[-1][0])
        assert abs(a0 - a1) < 1e-6


def test_export_leaves_where_the_field_has_no_derivative(tmp_path, capsys):
    # leaf 0 starts on y = 0, where sqrt(y^2) has the value 0 but no
    # derivative: directions are values, so the leaf is traced
    path = write_scenario(tmp_path, "sqrt.json", {
        "schema": 1, "kind": "vector_field",
        "expressions": {"p": "sqrt(y^2)+1", "q": "x"},
    })
    out_path = tmp_path / "leaves.csv"
    code, _, err = run_cli(capsys, "export", "--scenario", path,
                           "--leaves", "4", "--out", str(out_path))
    assert code == 0, err
    rows = [line.split(",") for line in
            out_path.read_text().strip().splitlines()[1:]]
    assert {r[0] for r in rows} == {"0", "1", "2", "3"}
    first = next(r for r in rows if r[0] == "0")
    assert (float(first[2]), float(first[3])) == (0.25, 0.0)


def test_export_orbit_powers_of_two(tmp_path, capsys):
    out_path = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, "export", "--fixture", "ex1_homothety",
                         "--orbit", "1,0", "--steps", "20",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "iter,x,y"
    for k, line in enumerate(lines[1:]):
        _, x, y = line.split(",")
        assert float(x) == pytest.approx(2.0 ** k, rel=1e-12)


def test_export_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(capsys, "export", "--fixture", "ex1_homothety",
                           "--orbit", "1,0", "--steps", "2",
                           "--out", "/nonexistent-dir/x.csv")
    assert code == 1
    assert "cannot write" in err


def test_export_requires_one_mode(tmp_path, capsys):
    code, _, err = run_cli(capsys, "export", "--fixture", "ex1_homothety",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2

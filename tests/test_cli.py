"""CLI tests: scenario dispatch, artifacts, exit codes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from trgeo import cli, curve_lab as cl


def write_scenario(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def classify_scenario(tmp_path):
    return write_scenario(tmp_path / "classify.json", {
        "version": 1,
        "name": "curve-classify",
        "seed": 0,
        "operation": "curve.classify",
        "curves": [
            {"label": "annulus", "family": "annulus", "N": 256},
            {"label": "ray_only", "family": "ray_only", "N": 256},
            {"label": "no_ray", "family": "no_ray", "N": 256},
        ],
    })


def test_run_classify_scenario(classify_scenario, tmp_path):
    out = tmp_path / "out"
    status = cli.main(["run", "--scenario", classify_scenario, "--out", str(out)])
    assert status == 0
    results = json.loads((out / "results.json").read_text())
    assert results["status"] == "ok"
    records = results["results"]["classifications"]
    assert [r["class"] for r in records] == ["geodesic_annulus", "ray_only", "no_ray"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["operation"] == "curve.classify"
    assert "tolerances" in manifest


def test_manifest_does_not_depend_on_the_output_directory(tmp_path):
    scn = write_scenario(tmp_path / "jvol.json", {
        "version": 1, "name": "jvol", "operation": "jvol.compute",
        "chart": {"name": "flat_c2"},
        "immersion": {"formula": "product_torus", "grid": 16}})
    outs = [tmp_path / "a", tmp_path / "deeper" / "than" / "a"]
    for out in outs:
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    manifests = [(out / "manifest.json").read_bytes() for out in outs]
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["out_files"] == ["density.csv", "results.json"]


def test_subcommand_must_match_operation(classify_scenario, tmp_path):
    status = cli.main(["curve", "length", "--scenario", classify_scenario,
                       "--out", str(tmp_path / "o")])
    assert status == 2


def test_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"bad\": true}")
    status = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert status == 2
    assert "version" in capsys.readouterr().err


def test_unknown_operation(tmp_path):
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "operation": "nope.op"})
    status = cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert status == 2


def test_numerical_failure_recorded(tmp_path):
    n = np.arange(1, 257).astype(float)
    coeffs = [[1, 1.0, 0.0]] + [[-int(k), float(v), 0.0]
                                for k, v in zip(n, np.exp(-np.sqrt(n)))]
    scn = write_scenario(tmp_path / "blowup.json", {
        "version": 1,
        "name": "flow-blowup",
        "operation": "flow.run",
        "chart": {"name": "flat_c1"},
        "immersion": {"formula": "fourier_curve", "grid": 1024,
                      "args": {"coeffs": coeffs}},
        "field": {"kind": "coordinate", "axis": 0},
        "params": {"scheme": "timestep", "t_final": 0.2, "dt": 0.0005},
    })
    out = tmp_path / "out"
    status = cli.main(["flow", "run", "--scenario", scn, "--out", str(out)])
    assert status == 3
    results = json.loads((out / "results.json").read_text())
    assert results["status"] == "numerical_failure"
    assert results["error_type"] == "BlowUpDetected"
    assert results["t_reached"] < 0.2


def test_ray_only_second_variation_exits_3(tmp_path):
    curve = cl.family_coefficients("ray_only", N=256)
    coeffs = [[int(n), float(a.real), float(a.imag)]
              for n, a in zip(range(-curve.N, curve.N + 1), curve.coeffs) if a != 0]
    scn = write_scenario(tmp_path / "second.json", {
        "version": 1,
        "name": "second-ray-only",
        "operation": "variation.second",
        "chart": {"name": "flat_c1"},
        "immersion": {"formula": "fourier_curve", "grid": 1024,
                      "args": {"coeffs": coeffs}},
        "field": {"kind": "coordinate", "axis": 0},
    })
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    results = json.loads((out / "results.json").read_text())
    assert results["error_type"] == "AmplificationExceeded"
    assert "outer radius estimate" in results["message"]


def test_length_needs_three_radii(tmp_path, capsys):
    scn = write_scenario(tmp_path / "length.json", {
        "version": 1,
        "name": "length-one-radius",
        "operation": "curve.length",
        "curve": {"terms": {"1": [1.0, 0.0], "-1": [0.3, 0.0]}, "N": 64},
        "params": {"radii": [0.9]},
    })
    out = tmp_path / "out"
    assert cli.main(["curve", "length", "--scenario", scn, "--out", str(out)]) == 2
    assert "three radii" in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_convexity_scenario_csv(tmp_path):
    scn = write_scenario(tmp_path / "cvx.json", {
        "version": 1,
        "name": "convexity-poincare",
        "operation": "variation.convexity",
        "params": {
            "family": {"kind": "poincare_circle", "r0": 1.0, "grid": 64},
            "t_grid": list(np.linspace(0.5, 2.0, 20)),
        },
    })
    out = tmp_path / "out"
    assert cli.main(["variation", "convexity", "--scenario", scn,
                     "--out", str(out)]) == 0
    lines = (out / "convexity.csv").read_text().split("\n")
    assert lines[0] == "t,Vol_J,d2"
    # closed-form column check: Vol_J(t) = 2 pi / sinh(t + 0.5)
    row1 = lines[2].split(",")
    t = float(row1[0])
    assert abs(float(row1[1]) - 2 * math.pi / math.sinh(t + 0.5)) < 1e-6


def test_jvol_scenario(tmp_path):
    scn = write_scenario(tmp_path / "jvol.json", {
        "version": 1,
        "name": "jvol-perturbed",
        "operation": "jvol.compute",
        "chart": {"name": "flat_c2"},
        "immersion": {"formula": "graph_perturbed_torus", "grid": 32,
                      "args": {"r1": 1.0, "r2": 1.0, "amplitude": 0.5,
                               "mode": [1, 0]}},
        "params": {},
    })
    out = tmp_path / "out"
    assert cli.main(["jvol", "compute", "--scenario", scn, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())["results"]
    assert res["vol_j"] < res["vol_g"]
    assert res["lagrangian_defect"] > 0.01
    header = (out / "density.csv").read_text().splitlines()[0]
    assert header == "i0,i1,rho,volg_density,volj_density"


def test_overflowing_immersion_exits_3_naming_non_finite_geometry(tmp_path):
    # amplitude 1e308 overflows in the FFT derivative: the validation names the
    # non-finite frame instead of writing "nan" into every result field
    scn = write_scenario(tmp_path / "huge.json", {
        "version": 1,
        "name": "jvol-overflow",
        "operation": "jvol.compute",
        "chart": {"name": "flat_c2"},
        "immersion": {"formula": "graph_perturbed_torus", "grid": 16,
                      "args": {"amplitude": 1e308}},
    })
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    raw = (out / "results.json").read_text()
    assert "nan" not in raw
    rec = json.loads(raw)
    assert rec["status"] == "numerical_failure"
    assert rec["error_type"] == "NotImmersed"
    assert "not finite" in rec["message"]


def test_secondvar_on_a_curve_with_vanishing_speed_exits_3(tmp_path):
    # the segment 2 cos theta has no arclength parametrization: the
    # resampling names the zero speed instead of writing "nan" everywhere
    scn = write_scenario(tmp_path / "segment.json", {
        "version": 1,
        "name": "secondvar-segment",
        "operation": "curve.secondvar",
        "curve": {"terms": {"1": [1, 0], "-1": [1, 0]}, "N": 64},
        "params": {"fields": [{"label": "const"}]},
    })
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    raw = (out / "results.json").read_text()
    assert '"nan"' not in raw
    rec = json.loads(raw)
    assert rec["status"] == "numerical_failure"
    assert rec["error_type"] == "NotImmersed"
    assert "speed" in rec["message"]


def test_bvp_scenario(tmp_path):
    scn = write_scenario(tmp_path / "bvp.json", {
        "version": 1,
        "name": "bvp-circles",
        "operation": "flow.bvp",
        "params": {
            "outer": {"terms": {"1": [1.0, 0.0]}, "N": 32},
            "inner": {"terms": {"1": [0.5, 0.0]}, "N": 32},
            "N": 8,
        },
    })
    out = tmp_path / "out"
    assert cli.main(["flow", "bvp", "--scenario", scn, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())["results"]
    assert abs(res["modulus"] - 0.5) < 1e-9
    assert res["converged"]


# The inputs below overflow on their way to a NaN, which the CLI must catch;
# the overflow warnings on that way are expected, so they are not errors here.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_with_a_huge_coefficient_exits_3(tmp_path):
    # a_1 = 1e300 of the Joukowski outer curve overflows the enclosed area, so
    # the initial residual is not finite; the least-squares solver would fail
    # with a LinAlgError traceback
    example = Path(__file__).resolve().parent.parent / "scenarios" / "bvp_joukowski.json"
    payload = json.loads(example.read_text())
    payload["params"]["outer"]["terms"]["1"] = [1e300, 0]
    scn = write_scenario(tmp_path / "bvp.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    rec = json.loads((out / "results.json").read_text())
    assert rec["status"] == "numerical_failure"
    assert rec["error_type"] == "NotFinite"
    assert "Gauss-Newton step is not finite" in rec["message"]


_ELLIPSE_N64 = {"terms": {"1": [1.0, 0.0], "-1": [0.3, 0.0]}, "N": 64}


@pytest.mark.parametrize("payload,where", [
    ({"operation": "curve.secondvar", "curve": _ELLIPSE_N64,
      "params": {"fields": [{"base": 1e300}]}}, "results.reports[0].fd"),
    ({"operation": "variation.density", "chart": {"name": "flat_c2"},
      "immersion": {"formula": "graph_perturbed_torus", "grid": 16,
                    "args": {"r1": 1.0, "r2": 1.0, "amplitude": 0.3, "mode": [1, 1]}},
      "field": {"kind": "cosine_axis", "axis": 1, "base": 1.0, "amplitude": 1e300}},
     "results.second.analytic"),
    ({"operation": "curve.length", "curve": {"terms": {"1": [1.0, 0.0]}, "N": 64},
      "params": {"radii": [0.5, 1.0, 1e300]}}, "results.lambda[2]"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_result_exits_3_naming_its_path(tmp_path, payload, where):
    # each of these wrote "nan" into results.json with status ok and exit 0
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "name": "huge", **payload})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    raw = (out / "results.json").read_text()
    assert '"nan"' not in raw
    rec = json.loads(raw)
    assert rec["status"] == "numerical_failure"
    assert rec["error_type"] == "NotFinite"
    assert rec["message"] == f"{payload['operation']} computed NaN at {where}"


_BVP_PARAMS = {"outer": {"terms": {"1": [1.0, 0.0]}, "N": 32},
               "inner": {"terms": {"1": [0.5, 0.0]}, "N": 32}}


@pytest.mark.parametrize("params,field", [
    (None, "params"),
    ({"outer": _BVP_PARAMS["outer"]}, "params.inner"),
    ({**_BVP_PARAMS, "N": 0}, "params.N"),
    ({**_BVP_PARAMS, "N": -3}, "params.N"),
    ({**_BVP_PARAMS, "N": "abc"}, "params.N"),
    ({**_BVP_PARAMS, "N": 8.7}, "params.N"),
])
def test_bvp_malformed_params_exit_2(tmp_path, capsys, params, field):
    payload = {"version": 1, "name": "bvp-bad", "operation": "flow.bvp"}
    if params is not None:
        payload["params"] = params
    scn = write_scenario(tmp_path / "bvp.json", payload)
    out = tmp_path / "out"
    assert cli.main(["flow", "bvp", "--scenario", scn, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_determinism_across_threads(classify_scenario, tmp_path):
    outs = []
    for k, threads in enumerate(("1", "8", "1")):
        out = tmp_path / f"out{k}"
        assert cli.main(["run", "--scenario", classify_scenario,
                         "--out", str(out), "--threads", threads]) == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_csv_format(tmp_path):
    path = tmp_path / "x.csv"
    cli.write_csv(path, ["a", "b"], [(1.0 / 3.0, 'needs,"quoting"')])
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.split("\n")
    assert lines[0] == "a,b"
    assert lines[1].startswith("0.33333333333333331")
    assert '"needs,""quoting"""' in lines[1]


def _csv_cell_by_cell(header, rows):
    """write_csv's bytes, one cell at a time."""
    def cell(v):
        s = format(v, ".17g") if isinstance(v, float) else str(v)
        if any(c in s for c in ",\"\n"):
            s = '"' + s.replace('"', '""') + '"'
        return s

    return "".join(",".join(cell(v) for v in r) + "\n" for r in [header] + rows)


@pytest.mark.parametrize("rows", [
    [(0, 1, 1.0 / 3.0), (1, -7, -0.0), (2, 10 ** 20, 1e-300),
     (3, 0, float("nan")), (4, 5, float("inf")), (5, 6, 2.0 ** 60)],
    [(1.5, np.float64(0.1)), (-2.25e17, np.float64(-3.0))],
    [(1.0, "a,b"), (2.0, "")],            # a text column: cell by cell
    [(1.0, 2), (0.5, 3.0)],               # a mixed column: cell by cell
    [],
])
def test_csv_bytes_pinned(tmp_path, rows):
    header = ["i0", 'say "hi"', "|H_J|,max"][:len(rows[0]) if rows else 3]
    path = tmp_path / "t.csv"
    cli.write_csv(path, header, rows)
    assert path.read_bytes().decode() == _csv_cell_by_cell(header, rows)


def test_csv_bytes_literal(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["i0", 'a "b"', "c,d"], [(0, 0.1, -0.0), (12, 1e-300, 2.5)])
    assert path.read_bytes() == (b'i0,"a ""b""","c,d"\n'
                                 b"0,0.10000000000000001,-0\n"
                                 b"12,1e-300,2.5\n")


def test_ambient_verify_scenario(tmp_path):
    scn = write_scenario(tmp_path / "amb.json", {
        "version": 1,
        "name": "ambient-poincare",
        "operation": "ambient.verify",
        "seed": 1,
        "chart": {"name": "poincare_disk"},
        "params": {"n_points": 10},
    })
    out = tmp_path / "out"
    assert cli.main(["ambient", "verify", "--scenario", scn, "--out", str(out)]) == 0
    rep = json.loads((out / "results.json").read_text())["results"]["report"]
    assert abs(rep["einstein_constant"] + 1.0) < 1e-5


@pytest.mark.parametrize("payload", [
    {"version": 1, "name": "analyze", "operation": "curve.analyze",
     "curve": {"terms": {"1": [1.5, 0.0], "-1": [0.5, 0.0]}, "N": 64},
     "params": {}},
    {"version": 1, "name": "geodesic", "operation": "curve.geodesic",
     "curve": {"terms": {"1": [1.5, 0.0], "-1": [0.5, 0.0]}, "N": 64},
     "params": {"radii": [0.8, 0.9, 1.0]}},
    {"version": 1, "name": "length", "operation": "curve.length",
     "curve": {"terms": {"1": [1.0, 0.0]}, "N": 64},
     "params": {"radii": [0.6, 0.7, 0.8, 0.9, 1.0]}},
    {"version": 1, "name": "secondvar", "operation": "curve.secondvar",
     "curve": {"terms": {"1": [1.0, 0.0]}, "N": 64},
     "params": {"fields": [{"label": "constant", "base": 1.0},
                           {"label": "cos", "base": 0.0, "amplitude": 1.0}]}},
    {"version": 1, "name": "hj", "operation": "jvol.hj",
     "chart": {"name": "flat_c2"},
     "immersion": {"formula": "product_torus", "grid": 32,
                   "args": {"r1": 1.0, "r2": 2.0}},
     "params": {}},
    {"version": 1, "name": "flowrun", "operation": "flow.run",
     "chart": {"name": "flat_c1"},
     "immersion": {"formula": "circle", "grid": 64, "args": {"r": 1.0}},
     "field": {"kind": "coordinate", "axis": 0},
     "params": {"scheme": "spectral", "times": [0.0, 0.1, 0.2]}},
    {"version": 1, "name": "uniq", "operation": "flow.uniqueness",
     "chart": {"name": "flat_c1"},
     "immersion": {"formula": "ellipse", "grid": 64, "args": {"a": 2.0, "b": 1.0}},
     "field": {"kind": "coordinate", "axis": 0},
     "params": {"t_final": 0.05}},
    {"version": 1, "name": "first", "operation": "variation.first",
     "chart": {"name": "flat_c1"},
     "immersion": {"formula": "circle", "grid": 64, "args": {"r": 1.0}},
     "field": {"kind": "cosine_axis", "axis": 0, "base": 1.0, "amplitude": 0.3},
     "params": {}},
    {"version": 1, "name": "second", "operation": "variation.second",
     "chart": {"name": "flat_c1"},
     "immersion": {"formula": "circle", "grid": 64, "args": {"r": 1.0}},
     "field": {"kind": "coordinate", "axis": 0},
     "params": {}},
    {"version": 1, "name": "densitychk", "operation": "variation.density",
     "chart": {"name": "flat_c2"},
     "immersion": {"formula": "graph_perturbed_torus", "grid": 32,
                   "args": {"r1": 1.0, "r2": 1.0, "amplitude": 0.4,
                            "mode": [1, 0]}},
     "field": {"kind": "coordinate", "axis": 0},
     "params": {}},
])
def test_every_operation_dispatches(tmp_path, payload):
    scn = write_scenario(tmp_path / "s.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["status"] == "ok"


_ELLIPSE = {"terms": {"1": [1.0, 0.0], "-1": [0.3, 0.0]}, "N": 64}
_FLAT_TORUS = {"chart": {"name": "flat_c2"},
               "immersion": {"formula": "product_torus", "grid": 32,
                             "args": {"r1": 1.0, "r2": 2.0}}}


@pytest.mark.parametrize("payload,field", [
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [0.5]}, "N": 64}}, "curve.terms.1"),
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [1.0, 0.0]}, "N": "abc"}}, "curve.N"),
    ({"operation": "curve.classify",
      "curves": [{"family": "annulus", "N": "abc"}]}, "curves[0].N"),
    ({"operation": "flow.bvp",
      "params": {"outer": {"terms": {"1": [1.0, 0.0]}, "N": 32},
                 "inner": {"terms": {"1": [0.5]}, "N": 32}}},
     "params.inner.terms.1"),
    ({"operation": "curve.analyze", "curve": _ELLIPSE}, "params"),
    ({"operation": "curve.geodesic", "curve": _ELLIPSE}, "params"),
    ({"operation": "curve.length", "curve": _ELLIPSE}, "params"),
    ({"operation": "curve.secondvar", "curve": _ELLIPSE}, "params"),
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64}}, "params"),
    ({"operation": "flow.uniqueness", **_FLAT_TORUS}, "params"),
    ({"operation": "variation.convexity"}, "params"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c2"},
      "immersion": {"formula": "product_torus", "grid": 32.5}}, "immersion.grid"),
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"coeff_file": "no-such-file.json"}}, "curve.coeff_file"),
    ({"operation": "flow.uniqueness", **_FLAT_TORUS,
      "params": {"t_final": float("nan")}}, "params.t_final"),
    ({"operation": "variation.first", **_FLAT_TORUS,
      "field": {"kind": "coordinate", "axis": 2}}, "field.axis"),
    ({"operation": "jvol.compute",
      "chart": {"name": "complex_hyperbolic_ball", "fd_step": "x"},
      "immersion": {"formula": "product_torus", "grid": 32,
                    "args": {"r1": 0.3, "r2": 0.3}}}, "chart.fd_step"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c2"},
      "immersion": {"formula": "product_torus", "grid": 32,
                    "args": {"r1": "abc"}}}, "immersion.args.r1"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c2"},
      "immersion": {"formula": "graph_perturbed_torus", "grid": 32,
                    "args": {"mode": [1]}}}, "immersion.args.mode"),
    ({"operation": "variation.convexity",
      "params": {"family": {"kind": "poincare_circle", "grid": "abc"},
                 "t_grid": [0.5, 0.6, 0.7]}}, "params.family.grid"),
    ({"operation": "variation.convexity",
      "params": {"family": {"kind": "poincare_circle", "r0": "x", "grid": 64},
                 "t_grid": [0.5, 0.6, 0.7]}}, "params.family.r0"),
    ({"operation": ["ambient.verify"]}, "operation"),
    ({"operation": {"group": "ambient"}}, "operation"),
    ({"operation": "ambient.verify", "chart": {"name": "complex_hyperbolic_ball"},
      "params": {"r_max": -1}}, "params.r_max"),
    ({"operation": "ambient.verify", "chart": {"name": "poincare_disk"},
      "params": {"r_max": -0.0}}, "params.r_max"),
    # the second differences divide by one step squared
    ({"operation": "variation.convexity",
      "params": {"family": {"kind": "poincare_circle", "grid": 64},
                 "t_grid": [0.5, 0.575, 0.65, 0.8]}}, "t_grid must be uniformly spaced"),
    # echoed into results.json, so they must be strings
    ({"operation": "ambient.verify", "name": float("nan")}, "name must be a string"),
    ({"operation": "curve.classify",
      "curves": [{"label": float("nan"), "family": "annulus", "N": 256}]}, "curves[0].label"),
    ({"operation": "curve.secondvar", "curve": _ELLIPSE,
      "params": {"fields": [{"label": 3}]}}, "params.fields[0].label"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "fourier_curve", "grid": 64}}, "immersion.args.coeffs"),
])
def test_malformed_scenario_fields_exit_2(tmp_path, capsys, payload, field):
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "name": "bad", **payload})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trgeo: ValidationError") and field in err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("example", sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")),
    ids=lambda p: p.stem)
def test_example_scenarios_run_and_are_thread_independent(tmp_path, example):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert cli.main(["run", "--scenario", str(example), "--out", str(out),
                         "--threads", threads]) == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["status"] == "ok"

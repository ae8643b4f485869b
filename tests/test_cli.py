"""CLI tests: scenario dispatch, artifacts, exit codes, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trgeo import cli, curve_lab as cl, geodesic_flow, immersion as imm
from trgeo.__main__ import BLAS_THREAD_VARS


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


def test_overflowing_domain_check_exits_3_naming_its_stage(tmp_path, capsys):
    # |p|^2 of a radius-1e200 circle overflows in the domain check, which
    # validation runs before it ignores overflow: NotFinite names the check,
    # where an ignored overflow would read radius inf outside the disk (exit 2)
    scn = write_scenario(tmp_path / "far.json", {
        "version": 1,
        "operation": "jvol.compute",
        "chart": {"name": "poincare_disk"},
        "immersion": {"formula": "circle", "grid": 64, "args": {"r": 1e200}},
    })
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    rec = json.loads((out / "results.json").read_text())
    assert rec["error_type"] == "NotFinite"
    assert rec["message"].startswith("jvol.compute failed in ambient.require_inside: overflow")
    assert capsys.readouterr().err == ""


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


def test_bvp_writes_the_least_map_derivative(tmp_path):
    # the shipped Joukowski pair c_out = 1.5, c_in = 1.1: the check that the
    # fitted map has no critical point, min |g'| = (c_out / 2)(1 - 1 / c_in^2)
    # at z = rho
    example = Path(__file__).resolve().parent.parent / "scenarios" / "bvp_joukowski.json"
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(example), "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())["results"]
    assert abs(res["min_map_derivative"] - 0.75 * (1.0 - 1.0 / 1.1 ** 2)) <= 1e-11


# The inputs below overflow on their way to a NaN. Each operation runs with
# overflow, invalid and divide raising, so the first of them stops the run
# with a NotFinite naming its stage, and no warning reaches stderr.
def test_bvp_with_a_huge_coefficient_exits_3(tmp_path):
    # a_1 = 1e300 of the Joukowski outer curve overflows the enclosed area;
    # without the floating-point policy the initial residual came out not
    # finite, and before that the least-squares solver failed with a
    # LinAlgError traceback
    example = Path(__file__).resolve().parent.parent / "scenarios" / "bvp_joukowski.json"
    payload = json.loads(example.read_text())
    payload["params"]["outer"]["terms"]["1"] = [1e300, 0]
    scn = write_scenario(tmp_path / "bvp.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    rec = json.loads((out / "results.json").read_text())
    assert rec["status"] == "numerical_failure"
    assert rec["error_type"] == "NotFinite"
    assert rec["message"].startswith(
        "flow.bvp failed in curve_lab.signed_area: overflow encountered")


_ELLIPSE_N64 = {"terms": {"1": [1.0, 0.0], "-1": [0.3, 0.0]}, "N": 64}


@pytest.mark.parametrize("payload,stage", [
    ({"operation": "curve.secondvar", "curve": _ELLIPSE_N64,
      "params": {"fields": [{"base": 1e300}]}}, "curve_lab.second_variation_length"),
    ({"operation": "variation.density", "chart": {"name": "flat_c2"},
      "immersion": {"formula": "graph_perturbed_torus", "grid": 16,
                    "args": {"r1": 1.0, "r2": 1.0, "amplitude": 0.3, "mode": [1, 1]}},
      "field": {"kind": "cosine_axis", "axis": 1, "base": 1.0, "amplitude": 1e300}},
     "variation_harness.check_density_divergence"),
    # a_2 r^2 overflows at r = 1e300
    ({"operation": "curve.length",
      "curve": {"terms": {"1": [1.0, 0.0], "2": [0.1, 0.0]}, "N": 64},
      "params": {"radii": [0.5, 1.0, 1e300]}}, "curve_lab.synthesize"),
])
def test_overflow_exits_3_naming_its_stage(tmp_path, payload, stage):
    # each of these once wrote "nan" into results.json with status ok and
    # exit 0, and then exited 3 naming the NaN's path after printing warnings
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "name": "huge", **payload})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    # the refused result leaves no files of its own
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.json"]
    raw = (out / "results.json").read_text()
    assert '"nan"' not in raw
    rec = json.loads(raw)
    assert rec["status"] == "numerical_failure"
    assert rec["error_type"] == "NotFinite"
    assert rec["message"].startswith(
        f"{payload['operation']} failed in {stage}: overflow encountered")


@pytest.mark.parametrize("field,times,shown", [
    ({}, [1e300], "e^3.2e+301"),
    ({"field": {"kind": "coordinate", "scale": 1e300}}, [0.1], "e^3.2e+300"),
    ({"field": {"kind": "coordinate", "scale": 1e300}}, [1e300, -1e300], "e^inf"),
])
def test_a_spectral_flow_past_the_float_range_exits_3(tmp_path, capsys, field, times, shown):
    # the growth guard formed e^{-m c t} for every mode before comparing, and
    # the overflow of an absent mode's factor exited 3 as NotFinite after
    # numpy's warning; the exponents are compared first now
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "name": "far", "operation": "flow.run", "chart": {"name": "flat_c1"},
        "immersion": {"formula": "circle", "grid": 64}, **field,
        "params": {"scheme": "spectral", "times": times}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    rec = json.loads((out / "results.json").read_text())
    assert rec["error_type"] == "AmplificationExceeded"
    assert rec["message"] == f"continuation factors would reach {shown}, past the float range"


def test_nan_result_exits_3_naming_its_path(tmp_path, monkeypatch):
    # a NaN that raises no floating-point exception on its way (here from a
    # patched signed_area; coefficient files no longer let one in) is
    # refused by the result check, which names its path
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text("[[1, 1.0, 0.0], [-1, 0.3, 0.0]]")
    monkeypatch.setattr(cl.FourierCurve, "signed_area", lambda self: float("nan"))
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "name": "nan", "operation": "curve.analyze",
        "curve": {"coeff_file": str(coeffs)}, "params": {}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 3
    # the refused result's own files are gone
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.json"]
    rec = json.loads((out / "results.json").read_text())
    assert rec["error_type"] == "NotFinite"
    assert rec["message"] == "curve.analyze computed NaN at results.signed_area"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("op,radii", [("curve.geodesic", [0.9, 1.0]),
                                      ("curve.length", [0.8, 0.9, 1.0])])
def test_non_finite_coefficient_file_exits_2(tmp_path, capsys, op, radii, value):
    # JSON readers accept NaN and Infinity: curve.geodesic exited 0 with nan
    # rows in its frame CSVs, and curve.length printed numpy's All-NaN
    # warning before its exit 3
    coeffs = tmp_path / "bad.json"
    coeffs.write_text(f"[[1, 1.0, 0.0], [-1, 0.3, {value}]]")
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": op, "curve": {"coeff_file": str(coeffs)},
        "params": {"radii": radii}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("trgeo: ValidationError: curve.coeff_file")
    assert str(coeffs) in err and f"entry 1 ([-1, 0.3, {float(value)}]) is not finite" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mode, shown", [("1.5", "1.5"), ("true", "True"), ("-0.5", "-0.5")])
def test_non_integer_mode_in_a_coefficient_file_exits_2(tmp_path, capsys, mode, shown):
    # the mode was truncated: 1.5 and true ran as mode 1, -0.5 as mode 0, with exit 0
    coeffs = tmp_path / "bad.json"
    coeffs.write_text(f"[[1, 1.0, 0.0], [{mode}, 0.3, 0.0]]")
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": "curve.length", "curve": {"coeff_file": str(coeffs)},
        "params": {"radii": [0.8, 0.9, 1.0]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("trgeo: ValidationError: curve.coeff_file")
    assert f"entry 1 ([{shown}, 0.3, 0.0]): the mode {shown} is not an integer" in err
    assert not out.exists() or not any(out.iterdir())


def _coefficient_file_error(tmp_path, capsys, op, text, N=None):
    """The one stderr line of op on a coefficient file holding text; exit 2."""
    coeffs = tmp_path / "bad.json"
    coeffs.write_text(text)
    curve = {"coeff_file": str(coeffs)} if N is None else {"coeff_file": str(coeffs), "N": N}
    radii = [0.9, 1.0] if op == "curve.geodesic" else [0.8, 0.9, 1.0]
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": op, "curve": curve, "params": {"radii": radii}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"trgeo: ValidationError: curve.coeff_file: cannot load {str(coeffs)!r}: ")
    assert not out.exists() or not any(out.iterdir())
    return err


_OPS = pytest.mark.parametrize("op", ["curve.geodesic", "curve.length"])


@_OPS
@pytest.mark.parametrize("text, named", [
    # true ran as a_1 = 1 and false as 0, with exit 0
    ("[[1, true, 0], [-1, 0.3, 0]]", "entry 0 ([1, True, 0]): the real part True is not a number"),
    ("[[1, 1, 0], [-1, 0.3, false]]",
     "entry 1 ([-1, 0.3, False]): the imaginary part False is not a number"),
    # these exited 2 with lines that named no entry
    ('[[1, "a", 0]]', "entry 0 ([1, 'a', 0]): the real part 'a' is not a number"),
    ('[["1", 1, 0]]', "entry 0 (['1', 1, 0]): the mode '1' is not an integer"),
    ("[[1, null, 0]]", "entry 0 ([1, None, 0]): the real part None is not a number"),
    ("[[1, 1, 0], [1, 2]]", "entry 1 ([1, 2]) is not an [n, re, im] triple"),
    ("[[1, 1, 0, 4]]", "entry 0 ([1, 1, 0, 4]) is not an [n, re, im] triple"),
    ("[[1, 1, 0], 5]", "entry 1 (5) is not an [n, re, im] triple"),
    ('{"1": [1, 0]}', "the file does not hold a list of [n, re, im] triples"),
    ("7", "the file does not hold a list of [n, re, im] triples"),
    # a real part no double holds: math.isfinite raised OverflowError, exit 1
    pytest.param("[[1, 1" + "0" * 400 + ", 0]]", "entry 0 ([1, 1" + "0" * 400 + ", 0]) is not finite",
                 id="400-digit real part"),
])
def test_malformed_coefficient_file_names_the_entry(tmp_path, capsys, op, text, named):
    assert _coefficient_file_error(tmp_path, capsys, op, text).endswith(f": {named}\n")


@_OPS
@pytest.mark.parametrize("N", [None, 64])
def test_empty_coefficient_file_exits_2(tmp_path, capsys, op, N):
    # without N, max() of no modes failed with a line that named no file;
    # with N the zero curve ran with exit 0
    err = _coefficient_file_error(tmp_path, capsys, op, "[]", N)
    assert err.endswith(": the file holds no [n, re, im] triple\n")


@_OPS
@pytest.mark.parametrize("N", [None, 64])
@pytest.mark.parametrize("mode, shown", [("1e300", "1e+300"), ("-1e300", "-1e+300"),
                                         ("65537", "65537")])
def test_huge_mode_in_a_coefficient_file_exits_2(tmp_path, capsys, op, N, mode, shown):
    # without N, 1e300 failed in numpy ("Maximum allowed dimension
    # exceeded") and a mode such as 1e9 sized 2e9 coefficients; with N the
    # line printed the mode as a 300-digit integer. The bound refuses the
    # mode before any array is made.
    err = _coefficient_file_error(tmp_path, capsys, op, f"[[{mode}, 1, 0], [-1, 0.3, 0]]", N)
    assert err.endswith(f": entry 0 ([{shown}, 1, 0]): the mode {shown} is outside "
                        f"[-{cl.MAX_MODE}, {cl.MAX_MODE}]\n")


def test_unit_circle_length_at_a_huge_radius_is_finite(tmp_path):
    # the absent a_n are not scaled by r^n, so no 0 * inf turns into NaN
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "name": "huge-circle", "operation": "curve.length",
        "curve": {"terms": {"1": [1.0, 0.0]}, "N": 64},
        "params": {"radii": [0.5, 1.0, 1e300]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    lam = json.loads((out / "results.json").read_text())["results"]["lambda"]
    assert lam[2] == pytest.approx(2.0 * math.pi * 1e300, rel=1e-14)


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
    cli.write_csv(path, ["a", 'needs,"quoting"'], [np.array([1.0 / 3.0]), np.array([7])])
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    assert raw.split("\n") == ['a,"needs,""quoting"""', "0.33333333333333331,7", ""]


def test_summary_csv_bytes_pinned(tmp_path):
    # the one CSV holding text, written cell by cell: a context with a
    # comma, a quote, a LF and a NUL, no order in one row and one in the
    # other; the bytes are those of the column writer that summary.csv
    # went through before
    reports = [{"context": 'case 1, "quoted"\nnext\0line', "analytic": 1.0 / 3.0,
                "fd": -2.5e-300, "rel_err": 5e-324, "richardson_order": None},
               {"context": "plain", "analytic": 124.41, "fd": float("inf"), "rel_err": -0.0,
                "richardson_order": 1.9999999999999998}]
    path = cli._write_reports_csv(str(tmp_path), reports)
    assert path == str(tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == (
        b'case,analytic,fd,rel_err,order\n'
        b'"case 1, ""quoted""\nnext\x00line",0.33333333333333331,-2.5e-300,'
        b'4.9406564584124654e-324,\n'
        b'plain,124.41,inf,-0,1.9999999999999998\n')


def _csv_cell_by_cell(header, rows):
    """write_csv's bytes, one cell at a time."""
    def cell(v):
        s = format(v, ".17g") if isinstance(v, float) else str(v)
        if any(c in s for c in ",\"\n"):
            s = '"' + s.replace('"', '""') + '"'
        return s

    return "".join(",".join(cell(v) for v in r) + "\n" for r in [header] + rows)


def _grid_rows():
    """Rows as jvol.compute builds them: int index columns of a 3 x 5 grid,
    then three float columns spanning 1e-300..1e300, with -0, 1/3 and 5e-324."""
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(3, 15)) * 10.0 ** rng.integers(-300, 300, size=(3, 15))
    vals[0, 0], vals[1, 1], vals[2, 2] = -0.0, 1.0 / 3.0, 5e-324
    return list(zip(*np.indices((3, 5)).reshape(2, -1).tolist(), *vals.tolist()))


@pytest.mark.parametrize("rows", [
    [(0, 1.0, 1.0 / 3.0), (1, -7.0, -0.0), (2, 1e20, 1e-300),
     (3, 0.0, float("nan")), (4, 5.0, float("inf")), (5, float("-inf"), 2.0 ** 60)],
    [(1.5, 0.1), (-2.25e17, -3.0)],
    [],
    _grid_rows(),
])
def test_csv_bytes_pinned(tmp_path, rows):
    # int and float array columns, as the handlers pass them
    header = ["i0", 'say "hi"', "|H_J|,max", "i1", "rho"][:len(rows[0]) if rows else 3]
    path = tmp_path / "t.csv"
    cli.write_csv(path, header, [np.array(c) for c in zip(*rows)])
    assert path.read_bytes().decode() == _csv_cell_by_cell(header, rows)


def test_csv_bytes_literal(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["i0", 'a "b"', "c,d"],
                  [np.array([0, 12]), np.array([0.1, 1e-300]), np.array([-0.0, 2.5])])
    assert path.read_bytes() == (b'i0,"a ""b""","c,d"\n'
                                 b"0,0.10000000000000001,-0\n"
                                 b"12,1e-300,2.5\n")


@pytest.mark.parametrize("sizes", [(3, 5), (7,), (64, 64)])
def test_csv_bytes_of_grid_columns(tmp_path, sizes):
    # the grid handlers' columns: node indices and float arrays, extreme
    # values and a quoted header included, written cell by cell
    rng = np.random.default_rng(8)
    count = int(np.prod(sizes))
    vals = rng.normal(size=(2, count)) * 10.0 ** rng.integers(-300, 300, size=(2, count))
    vals[0, 0], vals[1, 1], vals[0, 2] = -0.0, 1.0 / 3.0, 5e-324
    vals[:, 3:count // 2] = rng.uniform(-2.0, 2.0, size=(2, count // 2 - 3))
    names, nodes = cli._node_columns(sizes)
    header = names + ["rho", '|H_J|,"max"']
    cli.write_csv(tmp_path / "grid.csv", header, nodes + list(vals))
    rows = list(zip(*np.indices(sizes).reshape(len(sizes), -1).tolist(), *vals.tolist()))
    assert (tmp_path / "grid.csv").read_bytes().decode() == _csv_cell_by_cell(header, rows)


def test_frames_csv_bytes_are_each_frame_cell_by_cell(tmp_path):
    # one _float_cells call formats every frame: frames whose cells take
    # other slots (Python-formatted extremes, %f below 1, -0) and other
    # shapes must still each read cell by cell
    rng = np.random.default_rng(9)
    frames = [rng.uniform(-2.0, 2.0, size=(256, 2)),
              np.array([[1e-300, -0.0], [5e-324, 1.0 / 3.0], [1e300, 1e-5]]),
              rng.normal(size=(4, 3, 4)) * 10.0 ** rng.integers(-20, 20, size=(4, 3, 4)),
              np.zeros((0, 2))]
    paths = cli._write_frames_csv(str(tmp_path), frames)
    assert paths == [str(tmp_path / f"curve_t{k}.csv") for k in range(len(frames))]
    for path, frame in zip(paths, frames):
        rows = frame.reshape(-1, frame.shape[-1]).tolist()
        header = [f"x{j}" for j in range(frame.shape[-1])]
        assert open(path, "rb").read().decode() == _csv_cell_by_cell(header, rows)
    assert cli._write_frames_csv(str(tmp_path), []) == []


def _g17_cases():
    """Doubles for the '%.17g' kernel: both signs of random mantissas in every
    binade from 5e-324 to 1.8e308 and log-uniform over the kernel's exact
    range, exact 17-digit ties (18 significant digits ending in 5) in every
    decade that has them, powers of ten and their neighbours, the edges of the
    exact range and the non-finite values."""
    rng = np.random.default_rng(17)
    binades = np.repeat(np.arange(2047, dtype=np.uint64) << np.uint64(52), 50)
    spread = (binades | rng.integers(0, 2 ** 52, len(binades), dtype=np.uint64)).view(np.float64)
    inside = 10.0 ** rng.uniform(-11.5, 16.5, 900_000)
    # M 2**-p with M odd is exact; it has 18 significant digits when
    # M 5**p does, and its last digit is 5
    ties = []
    for p in range(2, 30):
        lo, hi = -(-10 ** 17 // 5 ** p), min(10 ** 18 // 5 ** p, 2 ** 53)
        if lo < hi:
            ms = {int(m) | 1 for m in rng.integers(lo, hi, 400)}
            ties += [m / 2 ** p for m in ms if m < hi and len(str(m * 5 ** p)) == 18]
    tens = np.array([float(f"1e{j}") for j in range(-324, 309)])
    edges = [cli._g17_tables()[0][0].view(np.float64), 1e-11, 1e16, 9.999999999999999e15,
             5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, math.nan,
             math.inf, 0.5, 1.0, 100.0]
    edges = np.array(edges, dtype=np.float64)
    near = np.concatenate([tens, edges])
    with np.errstate(over="ignore"):            # the largest double's next is inf
        up = np.nextafter(near, math.inf)
    x = np.concatenate([spread, inside, np.array(ties), near, np.nextafter(near, 0.0), up])
    x[::2] *= -1.0
    return x, len(ties)


def test_float_kernel_is_format_17g():
    x, n_ties = _g17_cases()
    assert len(x) >= 10 ** 6 and n_ties > 5000
    lines = []
    with np.errstate(over="raise", invalid="raise", divide="raise", under="raise"):
        for part in np.array_split(x, 64):
            cells = np.concatenate([cli._float_cells(part),
                                    np.full((len(part), 1), ord("\n"), np.uint8)], axis=1)
            lines.append(cells[cells != 0].tobytes())
    got = b"".join(lines).decode()
    want = "\n".join(map(format, x.tolist(), itertools.repeat(".17g"))) + "\n"
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.split(), want.split()) if g != w]
        pytest.fail(f"{len(bad)} cells differ from format(x, '.17g'), e.g. {bad[:5]}")


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


_DISK_CIRCLE = {"chart": {"name": "poincare_disk"},
                "immersion": {"formula": "circle", "grid": 64, "args": {"r": 0.5}}}
_BALL_TORUS = {"chart": {"name": "complex_hyperbolic_ball"},
               "immersion": {"formula": "graph_perturbed_torus", "grid": 32,
                             "args": {"r1": 0.3, "r2": 0.35, "amplitude": 0.05,
                                      "mode": [1, 1]}}}


@pytest.mark.parametrize("curved", [_DISK_CIRCLE, _BALL_TORUS], ids=["disk", "ball"])
@pytest.mark.parametrize("params", [
    {"scheme": "spectral", "times": [0.0, 0.3, -0.3]},
    {"scheme": "timestep", "t_final": 0.1, "dt": 1e-3},
    {"t_final": 0.1},
], ids=["spectral", "timestep", "uniqueness"])
def test_flows_run_on_curved_charts(tmp_path, curved, params):
    # the geodesics use J, not the metric: both schemes and the uniqueness
    # comparison run on the disk and the ball
    op = "flow.uniqueness" if "scheme" not in params else "flow.run"
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "operation": op,
                                               **curved, "params": params})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())["results"]
    if op == "flow.uniqueness":
        assert results["sup_gap"] <= 1e-13


def test_a_flow_leaving_the_disk_exits_2(tmp_path, capsys):
    # at t = -0.8 the circle r = 0.5 reaches radius 0.5 e^0.8 = 1.113
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": "flow.run", **_DISK_CIRCLE,
        "params": {"times": [0.0, -0.8]}})
    assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trgeo: PointOutsideDomain: point at radius 1.11277")
    assert err.count("\n") == 1


_FLAT_CIRCLE = {"chart": {"name": "flat_c1"},
                "immersion": {"formula": "circle", "grid": 64}}


@pytest.mark.parametrize("params", [
    {"scheme": "spectral", "times": [0.0, 0.1]},
    {"scheme": "timestep", "t_final": 0.01, "dt": 1e-3},
], ids=["spectral", "timestep"])
def test_flow_manifest_keys(tmp_path, params):
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "operation": "flow.run",
                                               **_FLAT_CIRCLE, "params": params})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    manifest = json.loads((out / "flow_manifest.json").read_text())
    assert sorted(manifest) == ["amplification", "field", "scheme", "times"]


_ELLIPSE_64 = {"chart": {"name": "flat_c1"},
               "immersion": {"formula": "ellipse", "grid": 64, "args": {"a": 2.0, "b": 1.0}}}
_POSITIVE_COSINE = {"kind": "cosine_axis", "axis": 0, "base": 1.0, "amplitude": 0.3}


def test_a_spectral_flow_of_a_positive_cosine_field_writes_theta_grid_frames(tmp_path):
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": "flow.run", **_ELLIPSE_64, "field": _POSITIVE_COSINE,
        "params": {"scheme": "spectral", "times": [0.0, 0.1]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    # the family is continued on the grid of constant speed and mapped back:
    # the frame at t = 0 is the ellipse at the input's nodes
    theta = 2.0 * np.pi * np.arange(64) / 64
    frame = np.loadtxt(out / "curve_t0.csv", delimiter=",", skiprows=1)
    ellipse = np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=-1)
    assert np.max(np.abs(frame - ellipse)) <= 1e-14
    assert not np.allclose(np.loadtxt(out / "curve_t1.csv", delimiter=",", skiprows=1), frame)


def test_uniqueness_along_a_positive_cosine_field_exits_0(tmp_path):
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": "flow.uniqueness", **_ELLIPSE_64,
        "field": _POSITIVE_COSINE, "params": {"t_final": 0.1}})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    assert json.loads((out / "results.json").read_text())["results"]["sup_gap"] <= 1e-12


_SIGN_CHANGING = {"kind": "cosine_axis", "axis": 0, "base": 0.2, "amplitude": 0.5}


@pytest.mark.parametrize("payload", [
    {"operation": "flow.uniqueness", **_ELLIPSE_64, "field": _SIGN_CHANGING,
     "params": {"t_final": 0.1}},
    {"operation": "flow.run", **_ELLIPSE_64, "field": _SIGN_CHANGING,
     "params": {"scheme": "spectral", "times": [0.1]}},
    {"operation": "variation.second", **_ELLIPSE_64, "field": _SIGN_CHANGING},
    {"operation": "variation.convexity",
     "params": {"family": {"kind": "quotient_torus_shear", "grid": 32, "amplitude": 1.5},
                "t_grid": [0.0, 0.1, 0.2]}},
], ids=["uniqueness", "spectral run", "second variation", "convexity"])
def test_a_spectral_flow_of_a_sign_changing_field_exits_2(tmp_path, capsys, payload):
    scn = write_scenario(tmp_path / "s.json", {"version": 1, **payload})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "trgeo: UnsupportedField: the spectral continuation needs f > 0 everywhere\n")
    assert not (out / "results.json").exists()


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
    # a key the operation does not read: each of these ran with its default
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64, "args": {"radius": 2.0}}},
     "immersion.args.radius"),
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64},
      "params": {"sheme": "timestep", "t_final": 0.1, "dt": 1e-3}}, "params.sheme"),
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64},
      "field": {"kind": "cosine_axis", "scale": 3.0},
      "params": {"scheme": "timestep", "t_final": 0.1, "dt": 1e-3}}, "field.scale"),
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64},
      "params": {"scheme": "timestep", "t_final": 0.1, "dt": 1e-3, "store_evry": 1}},
     "params.store_evry"),
    ({"operation": "ambient.verify", "params": {"n_point": 64}}, "params.n_point"),
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64},
      "params": {"times": [0.0, 0.1], "dt": 1e-3}}, "params.dt"),
    ({"operation": "jvol.hj", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64}, "params": {"grid": 32}},
     "params.grid"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64, "arg": {"r": 2.0}}}, "immersion.arg"),
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [1.0, 0.0]}, "N": 64, "label": "x"}}, "curve.label"),
    ({"operation": "curve.classify",
      "curves": [{"family": "annulus", "terms": {"1": [1.0, 0.0]}}]}, "curves[0].terms"),
    ({"operation": "curve.secondvar", "curve": _ELLIPSE,
      "params": {"fields": [{"amplitud": 0.3}]}}, "params.fields[0].amplitud"),
    ({"operation": "variation.convexity",
      "params": {"family": {"kind": "poincare_circle", "r1": 1.0, "grid": 64},
                 "t_grid": [0.5, 0.6, 0.7]}}, "params.family.r1"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64}, "paramz": {}}, "paramz: unknown field"),
    ({"operation": "curve.length", "chart": {"name": "flat_c1"}, "curve": _ELLIPSE,
      "params": {"radii": [0.8, 0.9, 1.0]}}, "chart: unknown field"),
    ({"operation": "ambient.verify", "params": {"n_points": 16, "r_max": 0.5}},
     "params.r_max: unknown field"),
    ({"operation": "curve.classify", "seed": "abc",
      "curves": [{"family": "annulus", "N": 64}]}, "seed must be an integer"),
    # an integer would name one of the process's own file descriptors
    ({"operation": "curve.length", "curve": {"coeff_file": 2},
      "params": {"radii": [0.8, 0.9, 1.0]}}, "curve.coeff_file must be a string"),
    # a timestep run to t_final <= 0 wrote one frame at t = 0 with exit 0, and
    # one to 1e300 asked for about 1e303 RK4 steps
    *(({"operation": "flow.run", "chart": {"name": "flat_c1"},
        "immersion": {"formula": "circle", "grid": 64},
        "params": {"scheme": "timestep", "t_final": t, "dt": 1e-3}}, "params.t_final must be > 0")
      for t in (-1.0, 0)),
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64},
      "params": {"scheme": "timestep", "t_final": 1e300, "dt": 1e-3}},
     "more than 100000"),
    # the library's limits: grids are powers of two >= 16, curves have N >= 32
    *(({"operation": "jvol.compute", "chart": {"name": "flat_c2"},
        "immersion": {"formula": "product_torus", "grid": grid}},
       "immersion.grid must be a power of two >= 16") for grid in (8, 48)),
    ({"operation": "variation.convexity",
      "params": {"family": {"kind": "poincare_circle", "grid": 24},
                 "t_grid": [0.5, 0.6, 0.7]}}, "params.family.grid must be a power of two"),
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [1.0, 0.0]}, "N": 16}}, "curve.N must be >= 32"),
    # N sized 2N + 1 coefficients before any bound: numpy's "Unable to
    # allocate 28.4 PiB" traceback, exit 1; the schema refuses it unallocated
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [1.0, 0.0]}, "N": 10 ** 15}},
     f"curve.N must be >= 32 and <= {cl.MAX_MODE}, got 1000000000000000"),
    # a subnormal dt made t_final / dt infinite, and int() of it raised
    # OverflowError, exit 1
    ({"operation": "flow.run", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64},
      "params": {"scheme": "timestep", "t_final": 1.0, "dt": 1e-320}},
     "params.dt: t_final / dt asks for inf RK4 steps, more than 100000"),
    # a fourier_curve mode must be an integer the grid resolves: 3.5 ran as
    # mode 3, and 1e300 was aliased onto the grid
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "fourier_curve", "grid": 64,
                    "args": {"coeffs": [[1, 1.0, 0.0], [3.5, 1.0, 0.0]]}}},
     "immersion.args.coeffs[1][0]: a mode must be an integer"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "fourier_curve", "grid": 64,
                    "args": {"coeffs": [[1e300, 1.0, 0.0]]}}},
     "immersion.args.coeffs[0][0]: a mode must be an integer"),
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "fourier_curve", "grid": 64,
                    "args": {"coeffs": [[1, 1.0, 0.0], [-32, 0.1, 0.0]]}}},
     "immersion.args.coeffs[1][0]: a mode must be an integer"),
    # a uniqueness run to t_final <= 0 stepped by dt = t_final / 200 and
    # failed with "dt must be positive", which names no field
    *(({"operation": "flow.uniqueness", "chart": {"name": "flat_c2"},
        "immersion": {"formula": "product_torus", "grid": 32},
        "params": {"t_final": t}}, f"params.t_final must be > 0, got {t}")
      for t in (0, -0.1)),
    # dt = t_final / 200 failed the step bound as "StepTooLarge: ... reduce
    # dt", naming a field flow.uniqueness does not have
    ({"operation": "flow.uniqueness", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 64}, "params": {"t_final": 1e300}},
     "params.t_final: 1e+300 is too long: its 200 RK4 steps fail the step bound"),
    # grids have at most imm.MAX_GRID_SIZE nodes per axis, checked before any
    # array is sized: a 2^40-node circle failed in numpy with "Unable to
    # allocate 8.00 TiB", exit 1
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "circle", "grid": 2 ** 40}},
     f"immersion.grid must be a power of two >= 16 and <= {imm.MAX_GRID_SIZE}, "
     "got 1099511627776"),
    ({"operation": "variation.convexity",
      "params": {"family": {"kind": "poincare_circle", "grid": 2 * imm.MAX_GRID_SIZE},
                 "t_grid": [0.5, 0.6, 0.7]}},
     f"params.family.grid must be a power of two >= 16 and <= {imm.MAX_GRID_SIZE}"),
    # a repeated mode was summed by fourier_curve (a_1 = 3) and overwritten
    # by the curve descriptors (a_1 = 2, for terms keys "1" and "01" and for a
    # coefficient file alike); all three name the second term
    ({"operation": "jvol.compute", "chart": {"name": "flat_c1"},
      "immersion": {"formula": "fourier_curve", "grid": 64,
                    "args": {"coeffs": [[1, 1.0, 0.0], [-1, 0.3, 0.0], [1, 2.0, 0.0]]}}},
     "immersion.args.coeffs[2][0]: the mode 1 appears twice, first at coeffs[0][0]"),
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [1.0, 0.0], "01": [2.0, 0.0]}, "N": 32}},
     "curve.terms.01: the mode 1 appears twice, first at terms.1"),
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"coeff_file": "repeated-mode.json"}},
     "curve.coeff_file[2][0]: the mode 1 appears twice, first at coeff_file[0][0]"),
    # a terms mode past N was refused as "coefficient index 40 outside
    # [-32, 32]", naming no field
    ({"operation": "curve.length", "params": {"radii": [0.8, 0.9, 1.0]},
      "curve": {"terms": {"1": [1.0, 0.0], "40": [0.1, 0.0]}, "N": 32}},
     "curve.terms.40: a mode must be an integer in [-32, 32], got '40'"),
    # an unknown chart read "unknown chart descriptor {'name': 'flat_c3'}";
    # "flat" was an alias of flat_c1
    *(({"operation": "jvol.compute", "chart": {"name": name},
        "immersion": {"formula": "circle", "grid": 64}},
       "chart.name must be one of flat_c1, flat_c2, flat_quotient_c2, poincare_disk, "
       f"complex_hyperbolic_ball, got {name!r}") for name in ("flat_c3", "flat")),
    # so did an unknown coefficient family: "unknown coefficient family 'bogus'"
    ({"operation": "curve.classify", "curves": [{"family": "bogus", "N": 64}]},
     "curves[0].family must be one of annulus, ray_only, no_ray, got 'bogus'"),
    # an integer past the float range ended in math.isfinite's OverflowError
    # traceback, exit 1
    ({"operation": "jvol.compute", "chart": {"name": "poincare_disk"},
      "immersion": {"formula": "circle", "grid": 32, "args": {"r": 10 ** 400}}},
     "immersion.args.r must be a finite number, got 1000"),
    # a boundary curve of N > 255 was refused as "too few synthesis samples
    # for the truncation", naming no field, though only its modes +-1 are set
    *(({"operation": "flow.bvp", "params": {
        "outer": {"terms": {"1": [0.8, 0.0], "-1": [0.3125, 0.0]}, "N": n_out},
        "inner": {"terms": {"1": [0.625, 0.0], "-1": [0.4, 0.0]}, "N": n_in}, "N": 16}},
       f"params.{side}: a boundary curve's N must be <= 255, got 300")
      for side, n_out, n_in in (("outer", 300, 32), ("inner", 32, 300))),
])
def test_malformed_scenario_fields_exit_2(tmp_path, capsys, monkeypatch, payload, field):
    # the coefficient file a case names, relative to the working directory
    (tmp_path / "repeated-mode.json").write_text("[[1, 1.0, 0.0], [-1, 0.3, 0.0], [1, 2.0, 0.0]]")
    monkeypatch.chdir(tmp_path)
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "name": "bad", **payload})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trgeo: ValidationError") and field in err
    assert err.count("\n") == 1
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("params,shown", [
    # the frames a flow.run keeps hold at most 2^22 numbers: 32769 frames of
    # a 64-node circle are past it, and so are 40001 stepped ones
    ({"scheme": "spectral", "times": [0.0] * 32769},
     "ValidationError: params.times: 32769 frames of 128 numbers are more than "
     "the 4194304 numbers a flow keeps"),
    ({"scheme": "timestep", "t_final": 4.0, "dt": 1e-4, "store_every": 1},
     "ValidationError: params.store_every: 40001 frames of 128 numbers are more than "
     "the 4194304 numbers a flow keeps"),
    # the step count and step size checks come first, with their messages
    ({"scheme": "timestep", "t_final": 20.0, "dt": 1e-4, "store_every": 1},
     "ValidationError: params.dt: t_final / dt asks for 2e+05 RK4 steps, more than 100000"),
    ({"scheme": "timestep", "t_final": 4000.0, "dt": 0.1, "store_every": 1},
     "StepTooLarge: dt*m*|X| = 2.1 > 0.5; reduce dt"),
], ids=["times", "store_every", "steps first", "step size first"])
def test_a_flow_run_keeping_too_many_numbers_exits_2(tmp_path, capsys, params, shown):
    scn = write_scenario(tmp_path / "s.json", {"version": 1, "operation": "flow.run",
                                               **_FLAT_CIRCLE, "params": params})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"trgeo: {shown}\n"
    assert not (out / "results.json").exists()


def test_curve_geodesic_keeps_at_most_the_frames_bound(tmp_path, capsys, monkeypatch):
    # each frame of an N = 32 curve holds 4N points of two coordinates: with
    # the bound at two such frames, two radii run and three exit 2 unformed
    monkeypatch.setattr(geodesic_flow, "MAX_KEPT_NUMBERS", 2 * 256)
    calls = []
    monkeypatch.setattr(cl, "geodesic_evaluate",
                        lambda curve, r, real=cl.geodesic_evaluate: calls.append(r) or real(curve, r))
    curve = {"terms": {"1": [1.0, 0.0], "-1": [0.3, 0.0]}, "N": 32}
    for radii, code in (([0.9, 1.1], 0), ([0.9, 1.0, 1.1], 2)):
        scn = write_scenario(tmp_path / "s.json", {"version": 1, "operation": "curve.geodesic",
                                                   "curve": curve, "params": {"radii": radii}})
        out = tmp_path / f"out{len(radii)}"
        assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == code
    assert calls == [0.9, 1.1]
    assert sorted(p.name for p in (tmp_path / "out2").iterdir()) == [
        "curve_t0.csv", "curve_t1.csv", "manifest.json", "results.json"]
    assert not (tmp_path / "out3" / "results.json").exists()
    assert capsys.readouterr().err == (
        "trgeo: ValidationError: params.radii: 3 frames of 256 numbers are more than "
        "the 512 numbers a flow keeps\n")


def test_the_frames_bound_is_flow_runs_alone(tmp_path, capsys, monkeypatch):
    # with the bound at four frames of a 64-node circle, a flow.run of five
    # times exits 2, and variation.second and variation.convexity, which
    # continue five frames of the same circle, still run
    monkeypatch.setattr(geodesic_flow, "MAX_KEPT_NUMBERS", 4 * 128)
    field = {"kind": "coordinate", "axis": 0}
    runs = [({"operation": "flow.run", **_FLAT_CIRCLE, "field": field,
              "params": {"scheme": "spectral", "times": [0.0, 0.1, 0.2, 0.3, 0.4]}}, 2),
            ({"operation": "variation.second", **_FLAT_CIRCLE, "field": field}, 0),
            ({"operation": "variation.convexity",
              "params": {"family": {"kind": "poincare_circle", "r0": 1.0, "grid": 64},
                         "t_grid": [0.5, 0.75, 1.0, 1.25, 1.5]}}, 0)]
    for k, (payload, code) in enumerate(runs):
        scn = write_scenario(tmp_path / f"s{k}.json", {"version": 1, **payload})
        assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / f"out{k}")]) == code
    assert capsys.readouterr().err == (
        "trgeo: ValidationError: params.times: 5 frames of 128 numbers are more than "
        "the 512 numbers a flow keeps\n")


def test_main_reads_the_scenario_once_and_threads_at_each_call(tmp_path, monkeypatch):
    scn = write_scenario(tmp_path / "s.json", {
        "version": 1, "operation": "curve.classify",
        "curves": [{"family": "annulus", "N": 64}]})
    loads = []
    load = cli.load_scenario

    def counted(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_scenario", counted)
    for threads in ("3", "5"):
        out = tmp_path / f"out{threads}"
        assert cli.main(["curve", "classify", "--scenario", scn, "--out", str(out),
                         "--threads", threads]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == int(threads)
    assert loads == [scn, scn]
    # one parser per process
    assert cli._parser() is cli._parser()


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


def test_the_entry_writes_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # the Joukowski pair (1.6, 1.25) at N = 32: LAPACK's QR in the annulus
    # BVP rounds differently on one BLAS thread and on two, and its
    # results.json and annulus_map.json differed by the thread variables;
    # python -m trgeo fixes BLAS at one thread before numpy is imported
    scn = write_scenario(tmp_path / "bvp32.json", {
        "version": 1, "operation": "flow.bvp", "params": {
            "outer": {"terms": {"1": [0.8, 0.0], "-1": [0.3125, 0.0]}, "N": 32},
            "inner": {"terms": {"1": [0.625, 0.0], "-1": [0.4, 0.0]}, "N": 32}, "N": 32}})
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads) if threads else {}, PYTHONPATH=src)
        out = tmp_path / f"out-{threads}"
        subprocess.run([sys.executable, "-m", "trgeo", "run", "--scenario", scn,
                        "--out", str(out)], env=env, check=True)
        outs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outs[None]) == ["annulus_map.json", "manifest.json", "results.json"]
    assert outs[None] == outs["1"] == outs["2"]


# --- the field tables in README ---------------------------------------------------

_DESCRIPTORS = {"chart": cli._CHART, "immersion": cli._IMMERSION, "field": cli._FIELD,
                "curve": cli._CURVE, "family": cli._FAMILY}
_NAMES = {id(kind): f"{name} descriptor" for name, kind in _DESCRIPTORS.items()}


def _kind_name(kind):
    if id(kind) in _NAMES:
        return _NAMES[id(kind)]
    if isinstance(kind, (dict, cli._Variants)):
        return "object"
    if isinstance(kind, list):
        return "list"
    if kind == ():
        return "number"
    if isinstance(kind, tuple):
        return " × ".join("n" if k is None else str(k) for k in kind) + " numbers"
    return {"string": "string", "int": "integer", "terms": "`{mode: [re, im]}`"}[kind]


def _field_rows(kind, path=""):
    """(field, when, kind, default, bound) of each field below kind; a field
    of only some variants names them in when."""
    if isinstance(kind, list):
        yield from _field_rows(kind[0], f"{path}[]")
    elif isinstance(kind, cli._Variants):
        if kind.key is not None:
            yield from _field_rows({kind.key: kind.spec}, path)
        per = {}
        for name, table in kind.tables.items():
            when = (f"`{name}` given" if kind.key is None else
                    f"{kind.key} is {name}" if kind.choose else f"{kind.key} = {name}")
            per[when] = list(_field_rows(table, path))
        shared = set.intersection(*map(set, per.values()))
        yield from dict.fromkeys(r for rows in per.values() for r in rows if r in shared)
        for when, rows in per.items():
            for field, inner, *rest in (r for r in rows if r not in shared):
                yield field, ", ".join(filter(None, (when, inner))), *rest
    elif isinstance(kind, dict):
        for key, f in kind.items():
            where = cli._at(path, key)
            default = ("required" if f.default is cli._REQUIRED else
                       "optional" if f.default is None else f"`{json.dumps(f.default)}`")
            bound = f.bound[0] if f.bound else ""
            yield f"`{where}`", "", _kind_name(f.kind), default, bound
            if id(f.kind) not in _NAMES:
                yield from _field_rows(f.kind, where)


def _field_tables():
    """README's field tables, rendered from cli._OPERATIONS."""
    sections = [("Every scenario", cli._ENVELOPE)]
    sections += [(f"`{op}`", table) for op, (_, table) in cli._OPERATIONS.items()]
    sections += [(f"{name} descriptor", kind) for name, kind in _DESCRIPTORS.items()]
    lines = []
    for title, kind in sections:
        lines += [f"{title}:", "", "| field | when | kind | default | bound |",
                  "| --- | --- | --- | --- | --- |"]
        lines += ["| " + " | ".join(row) + " |" for row in _field_rows(kind)]
        lines.append("")
    return "\n".join(lines)


def test_readme_field_tables_match_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    begin, end = "<!-- operations:begin -->\n", "<!-- operations:end -->"
    assert readme[readme.index(begin) + len(begin):readme.index(end)] == _field_tables()

"""Scenario-driven command line front end.

A scenario is a JSON file with a required "version": 1 field naming one
operation and its inputs. Each run writes manifest.json (inputs, versions,
tolerances and the names of the files written, relative to the output
directory), results.json, and any CSV series into the output directory.

Exit codes: 0 success, 2 validation failure (bad file, unresolvable
descriptor, unknown operation, a key the operation does not read), 3
numerical failure (e.g. BlowUpDetected), with the failure recorded as a
structured entry in results.json; a refused result leaves none of its files.

Determinism: given a fixed scenario and seed the outputs are byte-identical
across runs and thread counts; all reductions are fixed-order compensated
sums and --threads only annotates the manifest.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, ambient, curve_lab, geodesic_flow
from . import immersion as imm
from . import variation_harness as vh
from .errors import (NotFinite, NumericalError, ParseError, UnknownOperation,
                     ValidationError)

SCENARIO_VERSION = 1


def _sanitize(obj):
    """Replace non-finite floats with strings so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _nan_path(obj, path):
    """The path of the first NaN float in obj (e.g. results.reports[0].fd), or None."""
    if isinstance(obj, float):
        return path if math.isnan(obj) else None
    if isinstance(obj, dict):
        items = ((f"{path}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{k}]", v) for k, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_nan_path(v, p) for p, v in items)), None)


def _json_dump(obj, path):
    with open(path, "w") as f:
        json.dump(_sanitize(obj), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """RFC-4180 CSV with LF endings and 17-significant-digit floats.

    When every column holds only floats or only ints, the rows go through
    one %-format for the table ('%.17g' % x is the same string as
    format(x, '.17g'), '%d' % k as str(k)); other rows are written cell by
    cell, with quoting.
    """
    def cell(v):
        if isinstance(v, float):
            s = _fmt(v)
        else:
            s = str(v)
        if any(c in s for c in ",\"\n"):
            s = '"' + s.replace('"', '""') + '"'
        return s

    def column_format(column):
        kinds = set(map(type, column))
        if kinds <= {float, np.float64}:
            return "%.17g"
        return "%d" if kinds == {int} else None

    rows = [tuple(r) for r in rows]
    formats = [None]
    if len(set(map(len, rows))) == 1:
        formats = [column_format(c) for c in zip(*rows)]
    with open(path, "w", newline="") as f:
        f.write(",".join(cell(h) for h in header) + "\n")
        if None in formats:
            f.write("".join(",".join(cell(v) for v in r) + "\n" for r in rows))
        else:
            row = ",".join(formats) + "\n"
            f.write("".join(row % r for r in rows))


def _write_frames_csv(out_dir, frames):
    """One curve_t<k>.csv of point coordinates per frame; returns the paths."""
    paths = []
    for k, frame in enumerate(frames):
        path = os.path.join(out_dir, f"curve_t{k}.csv")
        pts = np.asarray(frame)
        header = [f"x{j}" for j in range(pts.shape[-1])]
        rows = [tuple(float(v) for v in p) for p in pts.reshape(-1, pts.shape[-1])]
        write_csv(path, header, rows)
        paths.append(path)
    return paths


def _write_reports_csv(out_dir, reports):
    """summary.csv: one row per variation report dict; returns the path."""
    path = os.path.join(out_dir, "summary.csv")
    rows = [(r["context"], float(r["analytic"]), float(r["fd"]), float(r["rel_err"]),
             "" if r.get("richardson_order") is None else float(r["richardson_order"]))
            for r in reports]
    write_csv(path, ["case", "analytic", "fd", "rel_err", "order"], rows)
    return path


# --- scenario fields ------------------------------------------------------------

_REQUIRED = object()
_KINDS = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "number": ("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and math.isfinite(v)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
}


def _check(value, path, kind, minimum=None):
    """value as the JSON kind named; ValidationError naming path otherwise.

    kind is "object", "list", "string", "number", "numbers" (a list of
    numbers) or "int"; minimum bounds ints. Numbers come back as floats.
    """
    if kind == "numbers":
        values = _check(value, path, "list")
        return [_check(v, f"{path}[{k}]", "number") for k, v in enumerate(values)]
    what, ok = _KINDS[kind]
    if minimum is not None:
        what = f"{what} >= {minimum}"
    if not ok(value) or (minimum is not None and value < minimum):
        raise ValidationError(f"{path} must be {what}, got {value!r}")
    return float(value) if kind == "number" else value


def _get(d, key, path, kind, default=_REQUIRED, minimum=None):
    """Checked field d[key]; the default (trusted) when the key is absent."""
    if key not in d:
        if default is _REQUIRED:
            raise ValidationError(f"scenario needs {path}")
        return default
    return _check(d[key], path, kind, minimum)


def _only(d, path, keys):
    """d, after checking that it holds no key outside keys, the keys that are read."""
    for key in d:
        if key not in keys:
            raise ValidationError(f"{path}.{key}: unknown field "
                                  f"(known: {', '.join(keys) or 'none'})")
    return d


def _params(scn):
    return _get(scn, "params", "params", "object")


# --- descriptor resolution ----------------------------------------------------

def _resolve_grid(desc, n):
    sizes = desc if isinstance(desc, list) else [desc] * n
    return imm.GridTorus(tuple(_check(s, "immersion.grid", "int", minimum=1)
                               for s in sizes))


def _chart(scn):
    desc = _get(scn, "chart", "chart", "object", {"name": "flat_c1"})
    return ambient.chart_from_descriptor(_only(desc, "chart", ("name",)))


# the arguments each build_immersion formula reads, with their shapes: () a
# number, (k,) a list of k entries, None any number of entries; coeffs may
# also be a {mode: number} object
_FORMULA_ARGS = {
    "circle": {"r": (), "center": (2,)},
    "ellipse": {"a": (), "b": ()},
    "fourier_curve": {"coeffs": (None, 3)},
    "product_torus": {"r1": (), "r2": ()},
    "graph_perturbed_torus": {"r1": (), "r2": (), "amplitude": (), "mode": (2,)},
    "straight_torus": {"winding": (4, 2), "offset": (4,)},
}


def _check_shape(value, path, shape):
    """value as nested lists of finite numbers of the given shape."""
    if not shape:
        return _check(value, path, "number")
    values = _check(value, path, "list")
    if shape[0] is not None and len(values) != shape[0]:
        raise ValidationError(f"{path} must have {shape[0]} entries, got {value!r}")
    return [_check_shape(v, f"{path}[{k}]", shape[1:]) for k, v in enumerate(values)]


def _mode(key, where):
    try:
        return int(key)
    except ValueError:
        raise ValidationError(f"{where}: mode must be an integer") from None


def _resolve_immersion(scn):
    chart = _chart(scn)
    d = _only(_get(scn, "immersion", "immersion", "object"), "immersion",
              ("grid", "formula", "args"))
    grid = _resolve_grid(d.get("grid", 64), 1 if chart.n == 1 else 2)
    formula = _get(d, "formula", "immersion.formula", "string")
    if formula not in _FORMULA_ARGS:
        raise ValidationError(f"unknown immersion formula {formula!r}")
    shapes = _FORMULA_ARGS[formula]
    args = _only(_get(d, "args", "immersion.args", "object", {}), "immersion.args",
                 shapes)
    if formula == "fourier_curve" and "coeffs" not in args:
        raise ValidationError("scenario needs immersion.args.coeffs")
    for key, value in args.items():
        where = f"immersion.args.{key}"
        if key == "coeffs" and isinstance(value, dict):
            for mode, a in value.items():
                _mode(mode, f"{where}.{mode}")
                _check(a, f"{where}.{mode}", "number")
        else:
            _check_shape(value, where, shapes[key])
    return imm.build_immersion(grid, chart, formula, **args), chart


# the keys each convexity family kind reads besides "kind" and "grid"
_FAMILY_KEYS = {"flat_circle": ("r0",), "flat_torus": ("r1", "r2", "axis"),
                "poincare_circle": ("r0",), "quotient_torus_shear": ("amplitude",)}


def _family(p):
    """params.family of variation.convexity with the fields it reads checked."""
    fam = _get(p, "family", "params.family", "object")
    kind = _get(fam, "kind", "params.family.kind", "string")
    if kind not in _FAMILY_KEYS:
        raise ValidationError(f"unknown family kind {kind!r}")
    _only(fam, "params.family", ("kind", "grid") + _FAMILY_KEYS[kind])
    _get(fam, "grid", "params.family.grid", "int", None, minimum=1)
    for key in ("r0", "r1", "r2", "amplitude"):
        _get(fam, key, f"params.family.{key}", "number", None)
    axis = _get(fam, "axis", "params.family.axis", "int", 0, minimum=0)
    if axis > 1:
        raise ValidationError(f"params.family.axis must be 0 or 1, got {axis}")
    return fam


# the keys each field kind reads besides "kind" and "axis"
_FIELD_KEYS = {"coordinate": ("scale",), "cosine_axis": ("base", "amplitude", "mode")}


def _resolve_field(scn, grid):
    desc = _get(scn, "field", "field", "object", {"kind": "coordinate"})
    kind = _get(desc, "kind", "field.kind", "string", "coordinate")
    if kind not in _FIELD_KEYS:
        raise ValidationError(f"unknown field descriptor {desc!r}")
    _only(desc, "field", ("kind", "axis") + _FIELD_KEYS[kind])
    axis = _get(desc, "axis", "field.axis", "int", 0, minimum=0)
    if axis >= grid.n:
        raise ValidationError(f"field.axis must be < {grid.n}, got {axis}")
    if kind == "coordinate":
        return imm.coordinate_field(grid, axis,
                                    scale=_get(desc, "scale", "field.scale", "number", 1.0))
    # cosine_axis
    base = _get(desc, "base", "field.base", "number", 1.0)
    amp = _get(desc, "amplitude", "field.amplitude", "number", 0.3)
    mode = _get(desc, "mode", "field.mode", "int", 1)
    theta = grid.thetas(axis)
    profile = base + amp * np.cos(mode * theta)
    comp = np.zeros((grid.n,) + grid.sizes)
    if grid.n == 1:
        comp[axis] = profile
    else:
        comp[axis] = np.expand_dims(profile, axis=1 - axis)
    return imm.VectorFieldOnL(grid=grid, components=comp)


def _resolve_curve(desc, path, extra=()):
    """The curve of a descriptor; extra names the keys its caller reads."""
    desc = _check(desc, path, "object")
    kind = next((k for k in ("family", "terms", "coeff_file") if k in desc), None)
    if kind is None:
        raise ValidationError(f"unresolvable curve descriptor {desc!r}")
    _only(desc, path, (kind, "N") + extra)
    if kind == "family":
        return curve_lab.family_coefficients(
            desc["family"], N=_get(desc, "N", f"{path}.N", "int", 256, minimum=1))
    if kind == "terms":
        terms = _get(desc, "terms", f"{path}.terms", "object")
        coeffs = {}
        for key in terms:
            where = f"{path}.terms.{key}"
            coeffs[_mode(key, where)] = complex(*_check_shape(terms[key], where, (2,)))
        return curve_lab.curve_from_terms(
            coeffs, N=_get(desc, "N", f"{path}.N", "int", 128, minimum=1))
    N = _get(desc, "N", f"{path}.N", "int", None, minimum=1)
    try:
        return curve_lab.load_coefficients(desc["coeff_file"], N=N)
    except (OSError, ValueError, TypeError, IndexError) as e:
        raise ValidationError(f"{path}.coeff_file: cannot load "
                              f"{desc['coeff_file']!r}: {e}") from None


def _curve(scn):
    return _resolve_curve(_get(scn, "curve", "curve", "object"), "curve")


# --- operation handlers ---------------------------------------------------------

def _op_curve_analyze(scn, out_dir):
    d = _params(scn)
    curve = _curve(scn)
    M = _get(d, "samples", "params.samples", "int", 4 * curve.N, minimum=1)
    samples = curve_lab.synthesize(curve, M=M)
    out = curve_lab.fourier_analyze(samples, N=curve.N)
    path = os.path.join(out_dir, "coefficients.json")
    curve_lab.save_coefficients(out, path)
    return {"parseval_residual": out.parseval_residual,
            "signed_area": out.signed_area(), "n_coeffs": int(out.coeffs.size)}, [path]


def _op_curve_classify(scn, out_dir):
    records = []
    for k, desc in enumerate(_get(scn, "curves", "curves", "list")):
        curve = _resolve_curve(desc, f"curves[{k}]", ("label",))
        label = _get(desc, "label", f"curves[{k}].label", "string", desc.get("family", "curve"))
        cls = curve_lab.classify_direction(curve)
        records.append({
            "label": label,
            "class": cls.kind,
            "r_inner": cls.evidence.r_inner,
            "r_outer": cls.evidence.r_outer,
            "confidence": cls.evidence.confidence,
            "ell1_exponent": (None if math.isinf(cls.ell1_exponent)
                              else cls.ell1_exponent),
        })
    return {"classifications": records}, []


def _op_curve_geodesic(scn, out_dir):
    curve = _curve(scn)
    radii = _get(_params(scn), "radii", "params.radii", "numbers")
    frames = [curve_lab.geodesic_evaluate(curve, r) for r in radii]
    paths = _write_frames_csv(out_dir, [np.stack([f.real, f.imag], axis=-1)
                                        for f in frames])
    return {"radii": radii, "n_frames": len(frames)}, paths


def _op_curve_length(scn, out_dir):
    curve = _curve(scn)
    radii = _get(_params(scn), "radii", "params.radii", "numbers")
    if len(radii) < 3:
        raise ValidationError("curve.length needs at least three radii for a "
                              f"second difference, got {len(radii)}")
    prof = curve_lab.length_profile(curve, radii)
    path = os.path.join(out_dir, "length_profile.csv")
    write_csv(path, ["r", "t", "Lambda", "d2"],
              [(float(r), float(t), float(v), float(d)) for r, t, v, d in
               zip(prof.radii, prof.t_values, prof.values, prof.second_differences)])
    return {"lambda": [float(v) for v in prof.values],
            "min_second_difference": float(np.nanmin(prof.second_differences))}, [path]


def _op_curve_secondvar(scn, out_dir):
    fields = _get(_params(scn), "fields", "params.fields", "list")
    curve = curve_lab.resample_arclength(_curve(scn))
    M = 4 * curve.N
    theta = 2.0 * np.pi * np.arange(M) / M
    reports = []
    for k, fdesc in enumerate(fields):
        where = f"params.fields[{k}]"
        fdesc = _only(_check(fdesc, where, "object"), where,
                      ("base", "amplitude", "mode", "label"))
        base = _get(fdesc, "base", f"{where}.base", "number", 1.0)
        amp = _get(fdesc, "amplitude", f"{where}.amplitude", "number", 0.0)
        mode = _get(fdesc, "mode", f"{where}.mode", "int", 1)
        f = base + amp * np.cos(mode * theta)
        res = curve_lab.second_variation_length(curve, f)
        reports.append({"context": _get(fdesc, "label", f"{where}.label", "string", "field"),
                        "analytic": res["analytic"], "fd": res["fd"],
                        "rel_err": res["rel_err"], "richardson_order": None})
    return {"reports": reports}, [_write_reports_csv(out_dir, reports)]


def _write_grid_csv(path, sizes, columns):
    """One row per grid node in C order: its indices i0.., then each column's value."""
    write_csv(path, [f"i{k}" for k in range(len(sizes))] + list(columns),
              zip(*np.indices(sizes).reshape(len(sizes), -1).tolist(),
                  *(a.ravel().tolist() for a in columns.values())))


def _op_jvol_compute(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    geo = imm.frames(im)
    vols = geo.volumes()
    path = os.path.join(out_dir, "density.csv")
    _write_grid_csv(path, im.grid.sizes, {"rho": geo.rho, "volg_density": geo.induced_vol,
                                          "volj_density": geo.volj_density})
    return {"vol_j": vols["vol_j"], "vol_g": vols["vol_g"],
            "min_rho": float(np.min(geo.rho)), "max_rho": float(np.max(geo.rho)),
            "lagrangian_defect": geo.lagrangian_defect,
            "formula_gap": geo.formula_gap}, [path]


def _op_jvol_hj(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    field = imm.frames(im).h_j
    mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
    path = os.path.join(out_dir, "hj_magnitude.csv")
    _write_grid_csv(path, im.grid.sizes, {"|H_J|": mags})
    return {"max_magnitude": float(np.max(mags)),
            "min_magnitude": float(np.min(mags)),
            "tangential_leak": field.max_tangential_leak}, [path]


def _op_flow_run(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    X = _resolve_field(scn, im.grid)
    p = _params(scn)
    scheme = _get(p, "scheme", "params.scheme", "string", "spectral")
    if scheme == "spectral":
        _only(p, "params", ("scheme", "times"))
        ts = _get(p, "times", "params.times", "numbers")
        flow = geodesic_flow.flow_spectral(im, X, ts)
    elif scheme == "timestep":
        _only(p, "params", ("scheme", "t_final", "dt", "store_every"))
        flow = geodesic_flow.flow_timestep(
            im, X, _get(p, "t_final", "params.t_final", "number"),
            _get(p, "dt", "params.dt", "number"),
            store_every=_get(p, "store_every", "params.store_every", "int", 10,
                             minimum=1))
    else:
        raise UnknownOperation(f"unknown flow scheme {scheme!r}")
    paths = _write_frames_csv(out_dir, [f.positions() for f in flow.immersions])
    manifest = {
        "scheme": flow.scheme,
        "field": scn.get("field", {"kind": "coordinate"}),
        "amplification": flow.amplification,
        "geodesic_residual": flow.geodesic_residual,
        "times": [float(t) for t in flow.times],
    }
    mpath = os.path.join(out_dir, "flow_manifest.json")
    _json_dump(manifest, mpath)
    return {"scheme": flow.scheme, "amplification": flow.amplification,
            "n_frames": len(flow.immersions)}, paths + [mpath]


def _op_flow_bvp(scn, out_dir):
    p = _params(scn)
    N = _get(p, "N", "params.N", "int", 16, minimum=1)
    gamma0, gamma1 = (_resolve_curve(_get(p, key, f"params.{key}", "object"),
                                     f"params.{key}")
                      for key in ("outer", "inner"))
    res = geodesic_flow.solve_bvp_annulus(gamma0, gamma1, N=N)
    path = os.path.join(out_dir, "annulus_map.json")
    curve_lab.save_coefficients(res.curve, path)
    return {"modulus": res.modulus, "converged": res.converged,
            "outer_misfit": res.outer_misfit, "inner_misfit": res.inner_misfit,
            "iterations": res.iterations}, [path]


def _op_flow_uniqueness(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    X = _resolve_field(scn, im.grid)
    t_final = _get(_params(scn), "t_final", "params.t_final", "number")
    gap = geodesic_flow.uniqueness_compare(im, X, t_final)
    return {"sup_gap": gap}, []


def _op_variation_first(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    Y = _resolve_field(scn, im.grid)
    rep = vh.check_first_variation(im, Y, context=scn.get("name", "first"))
    return {"report": rep.to_dict()}, [_write_reports_csv(out_dir, [rep.to_dict()])]


def _op_variation_second(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    Y = _resolve_field(scn, im.grid)
    rep = vh.check_second_variation_kahler(im, Y, context=scn.get("name", "second"))
    return {"report": rep.to_dict()}, [_write_reports_csv(out_dir, [rep.to_dict()])]


def _op_variation_density(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    X = _resolve_field(scn, im.grid)
    r1, r2, integral2 = vh.check_density_divergence(im, X)
    path = _write_reports_csv(out_dir, [r1.to_dict(), r2.to_dict()])
    return {"first": r1.to_dict(), "second": r2.to_dict(),
            "second_integral": integral2}, [path]


def _op_variation_convexity(scn, out_dir):
    p = _params(scn)
    prof = vh.convexity_experiment(_family(p),
                                   _get(p, "t_grid", "params.t_grid", "numbers"))
    path = os.path.join(out_dir, "convexity.csv")
    write_csv(path, ["t", "Vol_J", "d2"],
              [(float(t), float(v), float(d)) for t, v, d in
               zip(prof["t"], prof["vol_j"], prof["second_differences"])])
    interior = prof["second_differences"][1:-1]
    return {"min_second_difference": float(np.min(interior)),
            "vol_j": [float(v) for v in prof["vol_j"]]}, [path]


def _op_ambient_verify(scn, out_dir):
    chart = _chart(scn)
    p = _get(scn, "params", "params", "object", {})
    rng = np.random.default_rng(_get(scn, "seed", "seed", "int", 0, minimum=0))
    n_pts = _get(p, "n_points", "params.n_points", "int", 12, minimum=1)
    if chart.is_flat:
        pts = rng.uniform(-1.0, 1.0, size=(n_pts, chart.dim))
    else:
        r_max = _get(p, "r_max", "params.r_max", "number", 0.6)
        if not r_max > 0.0:
            raise ValidationError(f"params.r_max must be a number > 0, got {r_max!r}")
        r_max *= chart.radius
        pts = rng.uniform(-r_max / math.sqrt(chart.dim),
                          r_max / math.sqrt(chart.dim),
                          size=(n_pts, chart.dim))
    rep = ambient.verify_kahler_einstein(chart, pts)
    return {"report": rep}, []


# each operation's handler and the params keys it reads
_OPERATIONS = {
    "curve.analyze": (_op_curve_analyze, ("samples",)),
    "curve.classify": (_op_curve_classify, ()),
    "curve.geodesic": (_op_curve_geodesic, ("radii",)),
    "curve.length": (_op_curve_length, ("radii",)),
    "curve.secondvar": (_op_curve_secondvar, ("fields",)),
    "jvol.compute": (_op_jvol_compute, ()),
    "jvol.hj": (_op_jvol_hj, ()),
    "flow.run": (_op_flow_run, ("scheme", "times", "t_final", "dt", "store_every")),
    "flow.bvp": (_op_flow_bvp, ("N", "outer", "inner")),
    "flow.uniqueness": (_op_flow_uniqueness, ("t_final",)),
    "variation.first": (_op_variation_first, ()),
    "variation.second": (_op_variation_second, ()),
    "variation.density": (_op_variation_density, ()),
    "variation.convexity": (_op_variation_convexity, ("family", "t_grid")),
    "ambient.verify": (_op_ambient_verify, ("n_points", "r_max")),
}


def load_scenario(path):
    try:
        with open(path) as f:
            scn = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read scenario {path}: {e}") from None
    if not isinstance(scn, dict) or scn.get("version") != SCENARIO_VERSION:
        raise ParseError(f"scenario must declare \"version\": {SCENARIO_VERSION}")
    if "operation" not in scn:
        raise ParseError("scenario missing \"operation\"")
    _check(scn["operation"], "operation", "string")
    _get(scn, "name", "name", "string", None)
    return scn


def run_scenario(path, out_dir, threads=None):
    """Execute one scenario file; returns the process exit status."""
    scn = load_scenario(path)
    op = scn["operation"]
    if op not in _OPERATIONS:
        raise UnknownOperation(f"unknown operation {op!r}")
    handler, keys = _OPERATIONS[op]
    # an empty params is legal everywhere
    _only(_get(scn, "params", "params", "object", {}), "params", keys)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "package_version": __version__,
        "scenario_version": SCENARIO_VERSION,
        "scenario": scn,
        "threads": threads,
        "tolerances": {"rho_min": imm.RHO_MIN,
                       "amp_max": geodesic_flow.AMP_MAX,
                       "tail_energy_abort": geodesic_flow.TAIL_ENERGY_ABORT},
    }
    results_path = os.path.join(out_dir, "results.json")
    try:
        results, files = handler(scn, out_dir)
        nan = _nan_path(results, "results")
        if nan is not None:
            # a refused result leaves none of its files behind
            for f in files:
                os.remove(f)
            raise NotFinite(f"{op} computed NaN at {nan}")
    except NumericalError as e:
        record = {
            "scenario": scn.get("name", os.path.basename(path)),
            "operation": op,
            "status": "numerical_failure",
            "error_type": type(e).__name__,
            "message": str(e),
        }
        t_reached = getattr(e, "t_reached", None)
        if t_reached is not None:
            record["t_reached"] = t_reached
        _json_dump(record, results_path)
        manifest["out_files"] = _out_names(out_dir, [results_path])
        _json_dump(manifest, os.path.join(out_dir, "manifest.json"))
        return 3
    record = {
        "scenario": scn.get("name", os.path.basename(path)),
        "operation": op,
        "status": "ok",
        "results": results,
    }
    _json_dump(record, results_path)
    manifest["out_files"] = _out_names(out_dir, [results_path] + list(files))
    _json_dump(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def _out_names(out_dir, paths):
    """The written files named relative to the output directory, sorted, so
    that the manifest does not depend on where the run writes."""
    return sorted(os.path.relpath(p, out_dir) for p in paths)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="trgeo",
        description="Scenario runner for the totally real geometry laboratory",
    )
    sub = parser.add_subparsers(dest="group")
    groups = {"run": None}
    for operation in _OPERATIONS:
        group, op = operation.split(".")
        groups.setdefault(group, []).append(op)
    for group, ops in groups.items():
        gp = sub.add_parser(group)
        if ops is not None:
            gp.add_argument("op", choices=ops)
        gp.add_argument("--scenario", required=True)
        gp.add_argument("--out", required=True)
        gp.add_argument("--threads", type=int,
                        default=int(os.environ.get("TRGEO_THREADS", "1")))
    args = parser.parse_args(argv)
    if args.group is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        scn = load_scenario(args.scenario)
        if args.group != "run":
            expected = f"{args.group}.{args.op}"
            if scn["operation"] != expected:
                raise ParseError(
                    f"scenario operation {scn['operation']!r} does not match "
                    f"subcommand {expected!r}"
                )
        return run_scenario(args.scenario, args.out, threads=args.threads)
    except (ValidationError,) as e:
        print(f"trgeo: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"trgeo: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Scenario-driven command line front end.

A scenario is a JSON file with a required "version": 1 field naming one
operation and its inputs. Each run writes manifest.json (inputs, versions,
tolerances), results.json, and any CSV series into the output directory.

Exit codes: 0 success, 2 validation failure (bad file, unresolvable
descriptor, unknown operation), 3 numerical failure (e.g. BlowUpDetected),
with the failure recorded as a structured entry in results.json.

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

from . import __version__, _spectral, ambient, curve_lab, geodesic_flow
from . import immersion as imm
from . import variation_harness as vh
from .errors import (NumericalError, ParseError, UnknownOperation,
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


def _json_dump(obj, path):
    with open(path, "w") as f:
        json.dump(_sanitize(obj), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """RFC-4180 CSV with LF endings and 17-significant-digit floats."""
    def cell(v):
        if isinstance(v, float):
            s = _fmt(v)
        else:
            s = str(v)
        if any(c in s for c in ",\"\n"):
            s = '"' + s.replace('"', '""') + '"'
        return s

    with open(path, "w", newline="") as f:
        f.write(",".join(cell(h) for h in header) + "\n")
        for row in rows:
            f.write(",".join(cell(v) for v in row) + "\n")


def emit_plotdata(results, kind, out_dir, stem="series"):
    """CSV emission for profile/flow/report payloads; returns written paths."""
    paths = []
    if kind == "length_profile":
        path = os.path.join(out_dir, f"{stem}.csv")
        rows = [(float(r), float(t), float(v), float(d))
                for r, t, v, d in zip(results["r"], results["t"],
                                      results["lambda"], results["d2"])]
        write_csv(path, ["r", "t", "Lambda", "d2"], rows)
        paths.append(path)
    elif kind == "flow":
        for k, frame in enumerate(results["frames"]):
            path = os.path.join(out_dir, f"curve_t{k}.csv")
            pts = np.asarray(frame)
            header = [f"x{j}" for j in range(pts.shape[-1])]
            rows = [tuple(float(v) for v in p) for p in pts.reshape(-1, pts.shape[-1])]
            write_csv(path, header, rows)
            paths.append(path)
    elif kind == "reports":
        path = os.path.join(out_dir, f"{stem}.csv")
        rows = [(r["context"], float(r["analytic"]), float(r["fd"]),
                 float(r["rel_err"]),
                 "" if r.get("richardson_order") is None else float(r["richardson_order"]))
                for r in results]
        write_csv(path, ["case", "analytic", "fd", "rel_err", "order"], rows)
        paths.append(path)
    elif kind == "profile_t":
        path = os.path.join(out_dir, f"{stem}.csv")
        rows = [(float(t), float(v), float(d))
                for t, v, d in zip(results["t"], results["vol_j"],
                                   results["second_differences"])]
        write_csv(path, ["t", "Vol_J", "d2"], rows)
        paths.append(path)
    else:
        raise UnknownOperation(f"no plot emitter for kind {kind!r}")
    return paths


# --- descriptor resolution ----------------------------------------------------

def _resolve_grid(desc, n):
    if isinstance(desc, int):
        sizes = (desc,) * n
    else:
        sizes = tuple(int(s) for s in desc)
    return imm.GridTorus(sizes)


def _resolve_immersion(scn):
    chart = ambient.chart_from_descriptor(scn.get("chart", {"name": "flat_c1"}))
    d = scn["immersion"]
    grid = _resolve_grid(d.get("grid", 64), 1 if chart.n == 1 else 2)
    return imm.build_immersion(grid, chart, d["formula"],
                               **d.get("args", {})), chart


def _resolve_field(desc, grid):
    kind = desc.get("kind", "coordinate")
    if kind == "coordinate":
        return imm.coordinate_field(grid, int(desc.get("axis", 0)),
                                    scale=float(desc.get("scale", 1.0)))
    if kind == "cosine_axis":
        axis = int(desc.get("axis", 0))
        base = float(desc.get("base", 1.0))
        amp = float(desc.get("amplitude", 0.3))
        mode = int(desc.get("mode", 1))
        theta = grid.thetas(axis)
        profile = base + amp * np.cos(mode * theta)
        comp = np.zeros((grid.n,) + grid.sizes)
        if grid.n == 1:
            comp[axis] = profile
        else:
            comp[axis] = np.expand_dims(profile, axis=1 - axis)
        return imm.VectorFieldOnL(grid=grid, components=comp)
    raise ValidationError(f"unknown field descriptor {desc!r}")


def _resolve_curve(desc):
    if "family" in desc:
        return curve_lab.family_coefficients(desc["family"],
                                             N=int(desc.get("N", 256)))
    if "terms" in desc:
        return curve_lab.curve_from_terms(
            {int(k): complex(v[0], v[1]) for k, v in desc["terms"].items()},
            N=int(desc.get("N", 128)))
    if "coeff_file" in desc:
        return curve_lab.load_coefficients(desc["coeff_file"],
                                           N=desc.get("N"))
    raise ValidationError(f"unresolvable curve descriptor {desc!r}")


# --- operation handlers ---------------------------------------------------------

def _op_curve_analyze(scn, out_dir):
    d = scn["params"]
    curve = _resolve_curve(scn["curve"])
    M = int(d.get("samples", 4 * curve.N))
    samples = curve_lab.synthesize(curve, M=M)
    out = curve_lab.fourier_analyze(samples, N=curve.N)
    path = os.path.join(out_dir, "coefficients.json")
    curve_lab.save_coefficients(out, path)
    return {"parseval_residual": out.parseval_residual,
            "signed_area": out.signed_area(), "n_coeffs": int(out.coeffs.size)}, [path]


def _op_curve_classify(scn, out_dir):
    records = []
    for desc in scn["curves"]:
        curve = _resolve_curve(desc)
        cls = curve_lab.classify_direction(curve)
        records.append({
            "label": desc.get("label", desc.get("family", "curve")),
            "class": cls.kind,
            "r_inner": cls.evidence.r_inner,
            "r_outer": cls.evidence.r_outer,
            "confidence": cls.evidence.confidence,
            "ell1_exponent": (None if math.isinf(cls.ell1_exponent)
                              else cls.ell1_exponent),
        })
    return {"classifications": records}, []


def _op_curve_geodesic(scn, out_dir):
    curve = _resolve_curve(scn["curve"])
    radii = [float(r) for r in scn["params"]["radii"]]
    frames = [curve_lab.geodesic_evaluate(curve, r) for r in radii]
    payload = {"frames": [np.stack([f.real, f.imag], axis=-1) for f in frames]}
    paths = emit_plotdata(payload, "flow", out_dir)
    return {"radii": radii, "n_frames": len(frames)}, paths


def _op_curve_length(scn, out_dir):
    curve = _resolve_curve(scn["curve"])
    radii = [float(r) for r in scn["params"]["radii"]]
    if len(radii) < 3:
        raise ValidationError("curve.length needs at least three radii for a "
                              f"second difference, got {len(radii)}")
    prof = curve_lab.length_profile(curve, radii)
    payload = {"r": prof.radii, "t": prof.t_values, "lambda": prof.values,
               "d2": prof.second_differences}
    paths = emit_plotdata(payload, "length_profile", out_dir, stem="length_profile")
    return {"lambda": [float(v) for v in prof.values],
            "min_second_difference": float(np.nanmin(prof.second_differences))}, paths


def _op_curve_secondvar(scn, out_dir):
    curve = _resolve_curve(scn["curve"])
    curve = curve_lab.resample_arclength(curve)
    M = 4 * curve.N
    theta = 2.0 * np.pi * np.arange(M) / M
    reports = []
    for fdesc in scn["params"]["fields"]:
        base = float(fdesc.get("base", 1.0))
        amp = float(fdesc.get("amplitude", 0.0))
        mode = int(fdesc.get("mode", 1))
        f = base + amp * np.cos(mode * theta)
        res = curve_lab.second_variation_length(curve, f)
        reports.append({"context": fdesc.get("label", "field"),
                        "analytic": res["analytic"], "fd": res["fd"],
                        "rel_err": res["rel_err"], "richardson_order": None})
    paths = emit_plotdata(reports, "reports", out_dir, stem="summary")
    return {"reports": reports}, paths


def _op_jvol_compute(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    vols = imm.total_volumes(im)
    dens = imm.density(im)
    path = os.path.join(out_dir, "density.csv")
    imm.export_density_csv(im, path)
    return {"vol_j": vols["vol_j"], "vol_g": vols["vol_g"],
            "min_rho": float(np.min(dens.rho)), "max_rho": float(np.max(dens.rho)),
            "lagrangian_defect": imm.lagrangian_defect(im),
            "formula_gap": dens.formula_gap}, [path]


def _op_jvol_hj(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    field = imm.h_j_field(im)
    mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
    path = os.path.join(out_dir, "hj_magnitude.csv")
    rows = [tuple(int(i) for i in idx) + (float(mags[idx]),)
            for idx in np.ndindex(*im.grid.sizes)]
    write_csv(path, [f"i{k}" for k in range(im.n)] + ["|H_J|"], rows)
    return {"max_magnitude": float(np.max(mags)),
            "min_magnitude": float(np.min(mags)),
            "tangential_leak": field.max_tangential_leak}, [path]


def _op_flow_run(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    X = _resolve_field(scn.get("field", {"kind": "coordinate"}), im.grid)
    p = scn["params"]
    scheme = p.get("scheme", "spectral")
    if scheme == "spectral":
        ts = [float(t) for t in p["times"]]
        flow = geodesic_flow.flow_spectral(im, X, ts)
    elif scheme == "timestep":
        flow = geodesic_flow.flow_timestep(
            im, X, float(p["t_final"]), float(p["dt"]),
            store_every=int(p.get("store_every", 10)))
    else:
        raise UnknownOperation(f"unknown flow scheme {scheme!r}")
    payload = {"frames": [f.positions() for f in flow.immersions]}
    paths = emit_plotdata(payload, "flow", out_dir)
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
    p = scn.get("params")
    if not isinstance(p, dict):
        raise ValidationError("flow.bvp needs a \"params\" object")
    for key in ("outer", "inner"):
        if not isinstance(p.get(key), dict):
            raise ValidationError(f"flow.bvp needs a curve descriptor in params.{key}")
    N = p.get("N", 16)
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValidationError(f"params.N must be an integer >= 1, got {N!r}")
    gamma0 = _resolve_curve(p["outer"])
    gamma1 = _resolve_curve(p["inner"])
    res = geodesic_flow.solve_bvp_annulus(gamma0, gamma1, N=N)
    path = os.path.join(out_dir, "annulus_map.json")
    curve_lab.save_coefficients(res.curve, path)
    return {"modulus": res.modulus, "converged": res.converged,
            "outer_misfit": res.outer_misfit, "inner_misfit": res.inner_misfit,
            "iterations": res.iterations}, [path]


def _op_flow_uniqueness(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    X = _resolve_field(scn.get("field", {"kind": "coordinate"}), im.grid)
    gap = geodesic_flow.uniqueness_compare(im, X, float(scn["params"]["t_final"]))
    return {"sup_gap": gap}, []


def _op_variation_first(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    Y = _resolve_field(scn.get("field", {"kind": "coordinate"}), im.grid)
    rep = vh.check_first_variation(im, Y, context=scn.get("name", "first"))
    paths = emit_plotdata([rep.to_dict()], "reports", out_dir, stem="summary")
    return {"report": rep.to_dict()}, paths


def _op_variation_second(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    Y = _resolve_field(scn.get("field", {"kind": "coordinate"}), im.grid)
    rep = vh.check_second_variation_kahler(im, Y, context=scn.get("name", "second"))
    paths = emit_plotdata([rep.to_dict()], "reports", out_dir, stem="summary")
    return {"report": rep.to_dict()}, paths


def _op_variation_density(scn, out_dir):
    im, chart = _resolve_immersion(scn)
    X = _resolve_field(scn.get("field", {"kind": "coordinate"}), im.grid)
    r1, r2, integral2 = vh.check_density_divergence(im, X)
    paths = emit_plotdata([r1.to_dict(), r2.to_dict()], "reports", out_dir,
                          stem="summary")
    return {"first": r1.to_dict(), "second": r2.to_dict(),
            "second_integral": integral2}, paths


def _op_variation_convexity(scn, out_dir):
    p = scn["params"]
    prof = vh.convexity_experiment(p["family"], p["t_grid"])
    payload = {"t": prof["t"], "vol_j": prof["vol_j"],
               "second_differences": prof["second_differences"]}
    paths = emit_plotdata(payload, "profile_t", out_dir, stem="convexity")
    interior = prof["second_differences"][1:-1]
    return {"min_second_difference": float(np.min(interior)),
            "vol_j": [float(v) for v in prof["vol_j"]]}, paths


def _op_ambient_verify(scn, out_dir):
    chart = ambient.chart_from_descriptor(scn.get("chart", {"name": "flat_c1"}))
    p = scn.get("params", {})
    seed = int(scn.get("seed", 0))
    rng = np.random.default_rng(seed)
    n_pts = int(p.get("n_points", 12))
    if chart.is_flat:
        pts = rng.uniform(-1.0, 1.0, size=(n_pts, chart.dim))
    else:
        r_max = float(p.get("r_max", 0.6)) * chart.radius
        pts = rng.uniform(-r_max / math.sqrt(chart.dim),
                          r_max / math.sqrt(chart.dim),
                          size=(n_pts, chart.dim))
    rep = ambient.verify_kahler_einstein(chart, pts)
    return {"report": rep}, []


_OPERATIONS = {
    "curve.analyze": _op_curve_analyze,
    "curve.classify": _op_curve_classify,
    "curve.geodesic": _op_curve_geodesic,
    "curve.length": _op_curve_length,
    "curve.secondvar": _op_curve_secondvar,
    "jvol.compute": _op_jvol_compute,
    "jvol.hj": _op_jvol_hj,
    "flow.run": _op_flow_run,
    "flow.bvp": _op_flow_bvp,
    "flow.uniqueness": _op_flow_uniqueness,
    "variation.first": _op_variation_first,
    "variation.second": _op_variation_second,
    "variation.density": _op_variation_density,
    "variation.convexity": _op_variation_convexity,
    "ambient.verify": _op_ambient_verify,
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
    return scn


def run_scenario(path, out_dir, threads=None):
    """Execute one scenario file; returns the process exit status."""
    scn = load_scenario(path)
    op = scn["operation"]
    handler = _OPERATIONS.get(op)
    if handler is None:
        raise UnknownOperation(f"unknown operation {op!r}")
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
        manifest["out_files"] = [results_path]
        _json_dump(manifest, os.path.join(out_dir, "manifest.json"))
        return 3
    record = {
        "scenario": scn.get("name", os.path.basename(path)),
        "operation": op,
        "status": "ok",
        "results": results,
    }
    _json_dump(record, results_path)
    manifest["out_files"] = sorted([results_path] + list(files))
    _json_dump(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="trgeo",
        description="Scenario runner for the totally real geometry laboratory",
    )
    sub = parser.add_subparsers(dest="group")
    groups = {
        "run": [None],
        "curve": ["analyze", "classify", "geodesic", "length", "secondvar"],
        "jvol": ["compute", "hj"],
        "flow": ["run", "bvp", "uniqueness"],
        "variation": ["first", "second", "density", "convexity"],
        "ambient": ["verify"],
    }
    for group, ops in groups.items():
        gp = sub.add_parser(group)
        if ops != [None]:
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

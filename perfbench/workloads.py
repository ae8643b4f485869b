"""Seeded scenario generators and oracle checks for the three workloads.

Each workload is a list of `Case`s: one scenario JSON (what `trgeo run`
receives), the exit code the CLI must return, and a check that reads the
written artifacts. The seed only picks parameters, from ranges that keep
every input inside its chart and totally real; the program sees only the
generated scenarios. Tolerances are the ones the test suite pins; none is
loosened here.

Workload choice (also recorded in BENCHMARK.json):

* torus_flow: flat 2-D tori, the same immersion revalidated many times.
  Loads the off-grid spectral evaluator and repeated is_totally_real calls;
  the flat chart keeps the ambient kernel near zero.
* curved_sweep: many distinct inputs on curved charts, each computed once,
  with CSV output. Loads the Christoffel/Ricci kernels and per-node
  immersion geometry; there is no reuse for a cache to exploit.
* curve_annulus: 1-D curves, the dense Gauss-Newton annulus solver, small
  RK4/FFT calls and the expected blow-up failure path. No ambient work and
  no 2-D immersion.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

BALL_EINSTEIN = -1.5        # complex hyperbolic ball, log potential


@dataclass
class Case:
    scenario: dict
    exit_code: int
    check: Callable          # check(checks, record, out_dir)


class Checks:
    """Collects pass/fail checks; tolerance checks also give a margin.

    The margin of a check is log10(tol / err), its headroom in decades
    (negative when the check fails). A check whose error is set by an
    iterative solver's stopping rule passes counted=False: the annulus
    Gauss-Newton loop stops once max |r| < 1e-8, so the headroom of its
    misfits and modulus jumps by decades with the last step and says nothing
    about the accuracy of the kernels.
    """

    def __init__(self):
        self.failures = []
        self.margins = []

    def tol(self, name, err, tol, strict=False, counted=True):
        err = abs(float(err))
        ok = err < tol if strict else err <= tol
        if not ok or not math.isfinite(err):
            self.failures.append(f"{name}: {err:.3g} vs tol {tol:g}")
        if counted and 0.0 < err < math.inf:
            self.margins.append(math.log10(tol / err))

    def true(self, name, cond, detail=""):
        if not cond:
            self.failures.append(f"{name} {detail}".rstrip())


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


# --- checks -------------------------------------------------------------------

def _check_density(c, rec, out_dir):
    r = rec["results"]
    c.tol("density first rel_err", r["first"]["rel_err"], 1e-4)
    c.tol("density second rel_err", r["second"]["rel_err"], 1e-4)


def _check_uniqueness(c, rec, out_dir):
    c.tol("uniqueness sup_gap", rec["results"]["sup_gap"], 1e-5)


def _check_first(c, rec, out_dir):
    rep = rec["results"]["report"]
    c.tol("first variation rel_err", rep["rel_err"], 1e-4)
    order = rep["richardson_order"]
    c.true("first variation order >= 1.8", order is not None and order >= 1.8,
           f"(got {order})")


def _check_second(c, rec, out_dir):
    c.tol("second variation rel_err", rec["results"]["report"]["rel_err"], 1e-3)


def _check_verify(c, rec, out_dir):
    rep = rec["results"]["report"]
    c.tol("ambient einstein residual", rep["max_einstein_residual"], 1e-6,
          strict=True)
    c.tol("ambient einstein constant",
          rep["einstein_constant"] - BALL_EINSTEIN, 1e-6, strict=True)
    c.tol("ambient nabla J", rep["max_nabla_j"], 1e-6, strict=True)


def _check_jvol(c, rec, out_dir):
    r = rec["results"]
    c.tol("jvol formula_gap", r["formula_gap"], 1e-9)
    c.true("jvol Vol_J < Vol_g", r["vol_j"] < r["vol_g"])
    header, rows = _read_csv(out_dir, "density.csv")
    c.true("jvol density.csv rows", len(rows) == 64 * 64 and header[-1] == "volj_density")


def _check_hj(c, rec, out_dir):
    c.tol("jvol.hj tangential leak", rec["results"]["tangential_leak"], 1e-10)
    _, rows = _read_csv(out_dir, "hj_magnitude.csv")
    c.true("jvol.hj csv rows", len(rows) == 64 * 64)


def _check_convexity(c, rec, out_dir):
    _, rows = _read_csv(out_dir, "convexity.csv")
    interior = rows[1:-1]
    c.true("convexity rows", len(rows) == 20)
    for t, vol, d2 in interior:
        c.true("convexity strict d2 >= 1e-4 Vol", float(d2) >= 1e-4 * float(vol),
               f"(t={t})")


def _check_classify(c, rec, out_dir):
    got = [r["class"] for r in rec["results"]["classifications"]]
    c.true("classify trichotomy",
           got == ["geodesic_annulus", "ray_only", "no_ray"], f"(got {got})")


def _bvp_check(c_out, c_in):
    def check(c, rec, out_dir):
        r = rec["results"]
        c.true("bvp converged", r["converged"] is True)
        c.tol("bvp modulus", r["modulus"] - c_in / c_out, 1e-6, counted=False)
        c.tol("bvp outer misfit", r["outer_misfit"], 1e-8, counted=False)
        c.tol("bvp inner misfit", r["inner_misfit"], 1e-8, counted=False)
    return check


def _check_length(c, rec, out_dir):
    _, rows = _read_csv(out_dir, "length_profile.csv")
    c.true("length rows", len(rows) == 13)
    for r, t, lam, d2 in rows:
        if d2 != "nan":
            c.true("length d2 >= -1e-9 Lambda", float(d2) >= -1e-9 * float(lam),
                   f"(r={r})")


def _check_secondvar(c, rec, out_dir):
    for rep in rec["results"]["reports"]:
        c.tol(f"secondvar {rep['context']}", rep["rel_err"], 1e-4)


def _timestep_check(a, b, t_final):
    """Closed form: mode +1 decays like e^{-t}, mode -1 grows like e^{t}."""
    def check(c, rec, out_dir):
        with open(os.path.join(out_dir, "flow_manifest.json")) as f:
            times = json.load(f)["times"]
        c.true("timestep final time", abs(times[-1] - t_final) <= 1e-12)
        _, rows = _read_csv(out_dir, f"curve_t{len(times) - 1}.csv")
        z = np.array([complex(float(x), float(y)) for x, y in rows])
        theta = 2.0 * np.pi * np.arange(z.size) / z.size
        exact = (0.5 * (a + b) * math.exp(-t_final) * np.exp(1j * theta)
                 + 0.5 * (a - b) * math.exp(t_final) * np.exp(-1j * theta))
        c.tol("timestep vs closed form", float(np.max(np.abs(z - exact))), 1e-5)
    return check


def _check_blowup(c, rec, out_dir):
    c.true("blow-up status", rec.get("status") == "numerical_failure"
           and rec.get("error_type") == "BlowUpDetected", f"(got {rec.get('error_type')})")
    t = rec.get("t_reached")
    c.true("blow-up t_reached < 0.2", t is not None and t < 0.2, f"(got {t})")


# --- generators -----------------------------------------------------------------

def _scn(name, op, **body):
    return {"version": 1, "name": name, "seed": 0, "operation": op, **body}


def _perturbed(rng, r_lo, r_hi, amp_lo, amp_hi, grid, m1_max=2):
    return {"formula": "graph_perturbed_torus", "grid": grid,
            "args": {"r1": _u(rng, r_lo, r_hi), "r2": _u(rng, r_lo, r_hi),
                     "amplitude": _u(rng, amp_lo, amp_hi),
                     "mode": [int(rng.integers(1, m1_max + 1)),
                              int(rng.integers(0, 2))]}}


def torus_flow(rng):
    flat = {"name": "flat_c2"}
    return [
        Case(_scn("density", "variation.density", chart=flat,
                  immersion=_perturbed(rng, 0.8, 1.3, 0.2, 0.35, 32, m1_max=1),
                  field={"kind": "cosine_axis", "axis": int(rng.integers(0, 2)),
                         "base": 1.0, "amplitude": _u(rng, 0.1, 0.3), "mode": 1}),
             0, _check_density),
        Case(_scn("uniqueness", "flow.uniqueness", chart=flat,
                  immersion={"formula": "product_torus", "grid": 32,
                             "args": {"r1": _u(rng, 0.8, 2.0),
                                      "r2": _u(rng, 0.8, 2.0)}},
                  field={"kind": "coordinate", "axis": int(rng.integers(0, 2))},
                  params={"t_final": 0.1}),
             0, _check_uniqueness),
        Case(_scn("first", "variation.first", chart=flat,
                  immersion=_perturbed(rng, 0.8, 1.3, 0.1, 0.4, 32),
                  field={"kind": "coordinate", "axis": 0}),
             0, _check_first),
    ]


def curved_sweep(rng):
    ball = {"name": "complex_hyperbolic_ball"}
    t0 = _u(rng, 0.3, 0.7)
    span = _u(rng, 1.0, 1.5)
    cases = [
        Case(_scn("verify", "ambient.verify", chart=ball,
                  seed=int(rng.integers(0, 2 ** 31)),
                  params={"n_points": 1024, "r_max": 0.5}),
             0, _check_verify),
        Case(_scn("second", "variation.second", chart=ball,
                  immersion={"formula": "product_torus", "grid": 32,
                             "args": {"r1": _u(rng, 0.25, 0.45),
                                      "r2": _u(rng, 0.25, 0.45)}},
                  field={"kind": "coordinate", "axis": int(rng.integers(0, 2))}),
             0, _check_second),
        Case(_scn("first", "variation.first", chart=ball,
                  immersion=_perturbed(rng, 0.25, 0.4, 0.02, 0.05, 32),
                  field={"kind": "coordinate", "axis": int(rng.integers(0, 2))}),
             0, _check_first),
        Case(_scn("hj", "jvol.hj", chart=ball,
                  immersion=_perturbed(rng, 0.25, 0.4, 0.02, 0.05, 64)),
             0, _check_hj),
        Case(_scn("convexity", "variation.convexity",
                  params={"family": {"kind": "poincare_circle", "grid": 64},
                          "t_grid": [t0 + span * k / 19 for k in range(20)]}),
             0, _check_convexity),
    ]
    for k in range(6):
        cases.append(Case(_scn(f"jvol{k}", "jvol.compute", chart={"name": "flat_c2"},
                               immersion=_perturbed(rng, 0.7, 1.3, 0.05, 0.45, 64)),
                          0, _check_jvol))
    return cases


def _joukowski(c):
    return {"terms": {"1": [c / 2.0, 0.0], "-1": [1.0 / (2.0 * c), 0.0]}, "N": 32}


def curve_annulus(rng):
    cases = [
        Case(_scn("classify", "curve.classify",
                  curves=[{"label": k, "family": k, "N": 256}
                          for k in ("annulus", "ray_only", "no_ray")]),
             0, _check_classify),
    ]
    # Thin inner ellipses (c_in < 1.08) do not converge at N = 32, and
    # c_in < 1.2 takes 5-6 Gauss-Newton steps instead of 4; this range keeps
    # the work per pass independent of the seed.
    for N in (16, 32):
        c_out = _u(rng, 1.5, 1.7)
        c_in = _u(rng, 1.2, 1.3)
        cases.append(Case(_scn(f"bvp{N}", "flow.bvp",
                               params={"outer": _joukowski(c_out),
                                       "inner": _joukowski(c_in), "N": N}),
                          0, _bvp_check(c_out, c_in)))
    b = _u(rng, 0.2, 0.4)
    cases.append(Case(_scn("length", "curve.length",
                           curve={"terms": {"1": [1.0, 0.0], "-1": [b, 0.0]}, "N": 64},
                           params={"radii": [float(r) for r in np.exp(-np.linspace(
                               0.0, _u(rng, 0.3, 0.6), 13))]}),
                      0, _check_length))
    # the ellipse of acceptance criterion 6 under a seeded deformation field
    amp = _u(rng, 0.1, 0.4)
    cases.append(Case(_scn("secondvar", "curve.secondvar",
                           curve={"terms": {"1": [1.5, 0.0], "-1": [0.5, 0.0]}, "N": 64},
                           params={"fields": [
                               {"label": "const", "base": 1.0, "amplitude": 0.0},
                               {"label": "cos", "base": 0.0, "amplitude": 1.0, "mode": 1},
                               {"label": "mixed", "base": 1.0, "amplitude": amp,
                                "mode": int(rng.integers(1, 3))}]}),
                      0, _check_secondvar))
    a = _u(rng, 1.5, 2.5)
    b = _u(rng, 0.8, 1.2)
    cases.append(Case(_scn("timestep", "flow.run", chart={"name": "flat_c1"},
                           immersion={"formula": "ellipse", "grid": 256,
                                      "args": {"a": a, "b": b}},
                           field={"kind": "coordinate", "axis": 0},
                           params={"scheme": "timestep", "t_final": 0.1,
                                   "dt": 1e-3, "store_every": 10}),
                      0, _timestep_check(a, b, 0.1)))
    # acceptance criterion 9: coefficients a_1 = 1, a_{-n} = e^{-sqrt n}
    coeffs = [[1, 1.0, 0.0]] + [[-n, math.exp(-math.sqrt(n)), 0.0]
                                for n in range(1, 257)]
    cases.append(Case(_scn("blowup", "flow.run", chart={"name": "flat_c1"},
                           immersion={"formula": "fourier_curve", "grid": 1024,
                                      "args": {"coeffs": coeffs}},
                           field={"kind": "coordinate", "axis": 0},
                           params={"scheme": "timestep", "t_final": 0.2,
                                   "dt": 5e-4, "store_every": 1000}),
                      3, _check_blowup))
    return cases


WORKLOADS = {"torus_flow": torus_flow, "curved_sweep": curved_sweep,
             "curve_annulus": curve_annulus}


def generate(workload, seed):
    """The workload's cases; the same (workload, seed) gives the same inputs."""
    salt = sorted(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed, salt]))


def chart_descriptors(cases):
    """Every chart descriptor the workload's scenarios name (for set-up)."""
    descs = []
    for case in cases:
        scn = case.scenario
        descs.append(scn.get("chart", {"name": "flat_c1"}))
        if scn["operation"] == "variation.convexity":
            descs.append({"name": "poincare_disk"})
    unique = []
    for d in descs:
        if d not in unique:
            unique.append(d)
    return unique

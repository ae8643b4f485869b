"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from rho_oracle import rho_of_frame
from trgeo import ambient, cli, curve_lab as cl, geodesic_flow as gf
from trgeo import immersion as imm
from trgeo import variation_harness as vh
from trgeo.errors import BlowUpDetected


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -------------------------------------------------------------------------
# 1. rho_J on the static plane family: rho(pi_alpha) = cos(alpha), <= 1e-12
# -------------------------------------------------------------------------

def test_criterion_1_rho_static_planes():
    t0 = time.time()
    chart = ambient.flat_chart(2)
    J = chart.J
    g = np.eye(4)[None, :, :]
    om = (J.T @ np.eye(4))[None, :, :]
    worst = 0.0
    for alpha in (0.0, np.pi / 6, np.pi / 4, np.pi / 3):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, np.cos(alpha), np.sin(alpha), 0.0])
        fv = np.stack([e1[None, :], e2[None, :]])
        rho_h, rho_vol = rho_of_frame(fv, g, om, J)
        # independent oracle: 4x4 Gram determinant of (e, Je) columns
        cols = [e1, e2, J @ e1, J @ e2]
        gram = np.array([[c1 @ c2 for c2 in cols] for c1 in cols])
        oracle = math.sqrt(math.sqrt(np.linalg.det(gram)))
        worst = max(worst,
                    abs(rho_h[0] - np.cos(alpha)),
                    abs(rho_vol[0] - np.cos(alpha)),
                    abs(oracle - np.cos(alpha)))
    _report("criterion 1: rho_J(pi_alpha) = cos(alpha) within 1e-12",
            worst <= 1e-12, f"max err {worst:.2e}, {time.time() - t0:.2f}s")


# -------------------------------------------------------------------------
# 2. Vol_J <= Vol_g, equality exactly on Lagrangians
# -------------------------------------------------------------------------

def test_criterion_2_volume_comparison():
    t0 = time.time()
    chart = ambient.flat_chart(2)
    grid = imm.GridTorus((64, 64))
    rng = np.random.default_rng(20240817)
    ok = True
    for _ in range(100):
        amp = float(rng.uniform(0.05, 0.45))
        mode = (int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        r1 = float(rng.uniform(0.7, 1.3))
        r2 = float(rng.uniform(0.7, 1.3))
        gp = imm.build_immersion(grid, chart, "graph_perturbed_torus",
                                 r1=r1, r2=r2, amplitude=amp, mode=mode)
        vols = gp.volumes()
        ok = ok and vols["vol_j"] < vols["vol_g"]
    worst_rel = 0.0
    for r1, r2 in ((1.0, 2.0), (0.8, 1.3)):
        pt = imm.build_immersion(grid, chart, "product_torus", r1=r1, r2=r2)
        vols = pt.volumes()
        expect = 4.0 * np.pi ** 2 * r1 * r2
        worst_rel = max(worst_rel, abs(vols["vol_j"] - expect) / expect,
                        abs(vols["vol_j"] - vols["vol_g"]) / expect)
    _report("criterion 2: Vol_J < Vol_g on 100 seeded tori; product tori exact",
            ok and worst_rel <= 1e-9,
            f"product rel err {worst_rel:.2e}, {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 3. first variation identity, rel err <= 1e-4, Richardson order >= 1.8
# -------------------------------------------------------------------------

def test_criterion_3_first_variation():
    t0 = time.time()
    reports = []
    circle = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                                 "circle", r=1.0)
    theta = circle.im.grid.thetas(0)
    reports.append(vh.check_first_variation(
        circle, imm.coordinate_field(circle.im.grid, 0), context="circle"))
    reports.append(vh.check_first_variation(
        circle,
        imm.VectorFieldOnL(grid=circle.im.grid,
                           components=(1.0 + 0.3 * np.cos(theta))[None, :]),
        context="circle modulated"))
    torus = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                                "product_torus", r1=1.0, r2=2.0)
    reports.append(vh.check_first_variation(
        torus, imm.coordinate_field(torus.im.grid, 0), context="torus"))
    hc = imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                             "circle", r=0.5)
    reports.append(vh.check_first_variation(
        hc, imm.coordinate_field(hc.im.grid, 0), context="poincare"))
    rel_ok = all(r.rel_err <= 1e-4 for r in reports)
    orders = [r.richardson_order for r in reports if r.richardson_order is not None]
    order_ok = len(orders) >= 2 and all(o >= 1.8 for o in orders)
    detail = ", ".join(f"{r.context}: {r.rel_err:.1e}" for r in reports)
    _report("criterion 3: first variation rel err <= 1e-4, order >= 1.8",
            rel_ok and order_ok, detail + f", {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 4. second variation: flat circle 2pi; Poincare csch closed form, <= 1e-3
# -------------------------------------------------------------------------

def test_criterion_4_second_variation():
    t0 = time.time()
    circle = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                                 "circle", r=1.0)
    rc = vh.check_second_variation_kahler(
        circle, imm.coordinate_field(circle.im.grid, 0), context="flat circle")
    flat_ok = (abs(rc.analytic - 2.0 * np.pi) <= 1e-3 * 2.0 * np.pi
               and rc.rel_err <= 1e-3)
    hc = imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                             "circle", r=math.exp(-1.0))
    rp = vh.check_second_variation_kahler(
        hc, imm.coordinate_field(hc.im.grid, 0), context="poincare circle")
    csch = 1.0 / math.sinh(1.0)
    coth = math.cosh(1.0) / math.sinh(1.0)
    closed = 2.0 * np.pi * csch * (csch ** 2 + coth ** 2)
    poin_ok = (abs(rp.fd - closed) <= 1e-3 * closed and rp.rel_err <= 1e-3)
    _report("criterion 4: second variation circle 2pi and Poincare csch form",
            flat_ok and poin_ok,
            f"circle rel {rc.rel_err:.1e}, poincare |fd-closed|/closed "
            f"{abs(rp.fd - closed) / closed:.1e}, {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 5. convexity along flowable geodesic families, 20 t samples
# -------------------------------------------------------------------------

def test_criterion_5_convexity():
    t0 = time.time()
    ok = True
    details = []
    for fam, t_grid, strict in (
        ({"kind": "flat_circle", "r0": 1.0, "grid": 64},
         np.linspace(0.0, 1.0, 20), False),
        ({"kind": "flat_torus", "grid": 32}, np.linspace(0.0, 0.5, 20), False),
        ({"kind": "quotient_torus_shear", "amplitude": 0.3, "grid": 32},
         np.linspace(-0.25, 0.25, 20), False),
        ({"kind": "poincare_circle", "grid": 64},
         np.linspace(0.5, 2.0, 20), True),
    ):
        prof = vh.convexity_experiment(fam, t_grid)
        sd = prof["second_differences"][1:-1]
        vol = prof["vol_j"][1:-1]
        if strict:
            this = np.all(sd >= 1e-4 * vol)
        else:
            this = np.all(sd >= -1e-6 * vol)
        ok = ok and bool(this)
        details.append(f"{fam['kind']}: min d2/vol {np.min(sd / vol):.2e}")
    _report("criterion 5: Vol_J convex along geodesics, strict on the disk",
            ok, "; ".join(details) + f", {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 6. 1-d length convexity, monotonicity, and the second-variation formula
# -------------------------------------------------------------------------

def test_criterion_6_length_convexity():
    t0 = time.time()
    ok = True
    details = []
    curves = {
        "circle": cl.curve_from_terms({1: 1.0}, N=64),
        "ellipse": cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64),
        "cubic": cl.curve_from_terms({1: 1.0, 3: 0.2}, N=64),
    }
    windows = {
        "circle": np.exp(-np.linspace(0.0, 1.0, 13)),
        "ellipse": np.exp(-np.linspace(0.0, 0.5, 13)),
        "cubic": np.exp(-np.linspace(0.0, math.log(2.0), 13)),
    }
    for name, curve in curves.items():
        prof = cl.length_profile(curve, windows[name])
        sd = prof.second_differences
        keep = ~np.isnan(sd)
        this = np.all(sd[keep] >= -1e-9 * prof.values[keep])
        ok = ok and bool(this)
        details.append(f"{name} convex: {bool(this)}")
    for name in ("circle", "cubic"):     # a_{-n} = 0: monotone in r
        prof = cl.length_profile(curves[name], windows[name])
        order = np.argsort(prof.radii)
        this = np.all(np.diff(prof.values[order]) >= -1e-10)
        ok = ok and bool(this)
    arc = cl.resample_arclength(curves["ellipse"])
    M = 4 * arc.N
    th = 2.0 * np.pi * np.arange(M) / M
    worst = 0.0
    for f in (np.ones(M), np.cos(th), 1.0 + 0.3 * np.cos(th)):
        res = cl.second_variation_length(arc, f)
        worst = max(worst, res["rel_err"])
    ok = ok and worst <= 1e-4
    _report("criterion 6: length profiles convex/monotone, formula <= 1e-4",
            ok, "; ".join(details) + f"; secvar worst {worst:.1e}, "
            f"{time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 7. geodesic existence trichotomy at N = 256
# -------------------------------------------------------------------------

def test_criterion_7_trichotomy():
    t0 = time.time()
    got = [cl.classify_direction(cl.family_coefficients(name, N=256)).kind
           for name in ("annulus", "ray_only", "no_ray")]
    expect = [cl.GEODESIC_ANNULUS, cl.RAY_ONLY, cl.NO_RAY]
    _report("criterion 7: coefficient families classify as annulus/ray/none",
            got == expect, f"got {got}, {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 8. annulus boundary value problem
# -------------------------------------------------------------------------

def test_criterion_8_bvp():
    t0 = time.time()
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    circles_ok = (res.converged and abs(res.modulus - 0.5) <= 1e-10
                  and abs(res.curve.coefficient(1) - 1.0) <= 1e-10)
    c_out, c_in = 1.5, 1.1
    g0 = cl.curve_from_terms({1: c_out / 2, -1: 1 / (2 * c_out)}, N=32)
    g1 = cl.curve_from_terms({1: c_in / 2, -1: 1 / (2 * c_in)}, N=32)
    res2 = gf.solve_bvp_annulus(g0, g1, N=8)
    jouk_ok = (res2.converged
               and abs(res2.modulus - c_in / c_out) <= 1e-6
               and res2.outer_misfit <= 1e-8 and res2.inner_misfit <= 1e-8)
    _report("criterion 8: BVP recovers identity map and Joukowski modulus",
            circles_ok and jouk_ok,
            f"rho errs {abs(res.modulus - 0.5):.1e}, "
            f"{abs(res2.modulus - c_in / c_out):.1e}, {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 9. uniqueness by cross-scheme agreement; ill-posedness guard
# -------------------------------------------------------------------------

def test_criterion_9_uniqueness_and_guard():
    t0 = time.time()
    worst = 0.0
    circle = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                                 "circle", r=1.0).im
    worst = max(worst, gf.uniqueness_compare(
        circle, imm.coordinate_field(circle.grid, 0), 0.1))
    ell = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                              "ellipse", a=2.0, b=1.0).im
    worst = max(worst, gf.uniqueness_compare(
        ell, imm.coordinate_field(ell.grid, 0), 0.1))
    torus = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                                "product_torus", r1=1.0, r2=2.0).im
    worst = max(worst, gf.uniqueness_compare(
        torus, imm.coordinate_field(torus.grid, 0), 0.1))
    agree_ok = worst <= 1e-5

    N = 256
    n = np.arange(1, N + 1).astype(float)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    coeffs[N - 1::-1] = np.exp(-np.sqrt(n))
    samples = cl.synthesize(cl.FourierCurve(coeffs=coeffs), M=1024)
    im = imm.Immersion(grid=imm.GridTorus((1024,)), chart=ambient.flat_chart(1),
                       points=np.stack([samples.real, samples.imag], axis=-1))
    guard_ok = False
    t_reached = None
    try:
        gf.flow_timestep(im, imm.coordinate_field(im.grid, 0), 0.2, 5e-4)
    except BlowUpDetected as e:
        guard_ok = e.t_reached is not None and e.t_reached < 0.2
        t_reached = e.t_reached
    _report("criterion 9: schemes agree within 1e-5; blow-up guard fires",
            agree_ok and guard_ok,
            f"sup gap {worst:.1e}, guard at t={t_reached}, "
            f"{time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 10. determinism of the scenario suite across thread counts
# -------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    scenarios = [
        {
            "version": 1, "name": "classify", "seed": 3,
            "operation": "curve.classify",
            "curves": [{"label": k, "family": k, "N": 256}
                       for k in ("annulus", "ray_only", "no_ray")],
        },
        {
            "version": 1, "name": "convexity", "seed": 3,
            "operation": "variation.convexity",
            "params": {"family": {"kind": "poincare_circle", "grid": 64},
                       "t_grid": list(np.linspace(0.5, 2.0, 12))},
        },
        {
            "version": 1, "name": "jvol", "seed": 3,
            "operation": "jvol.compute",
            "chart": {"name": "flat_c2"},
            "immersion": {"formula": "graph_perturbed_torus", "grid": 32,
                          "args": {"r1": 1.0, "r2": 1.0, "amplitude": 0.5,
                                   "mode": [1, 0]}},
            "params": {},
        },
        {
            "version": 1, "name": "verify", "seed": 3,
            "operation": "ambient.verify",
            "chart": {"name": "poincare_disk"},
            "params": {"n_points": 10},
        },
    ]
    blobs = {}
    for threads in ("1", "8"):
        chunks = []
        for k, scn in enumerate(scenarios):
            spath = tmp_path / f"s{k}.json"
            spath.write_text(json.dumps(scn))
            out = tmp_path / f"out_{threads}_{k}"
            status = cli.main(["run", "--scenario", str(spath),
                               "--out", str(out), "--threads", threads])
            assert status == 0
            chunks.append((out / "results.json").read_bytes())
        blobs[threads] = b"".join(chunks)
    _report("criterion 10: results.json byte-identical for --threads 1 and 8",
            blobs["1"] == blobs["8"], f"{time.time() - t0:.1f}s")

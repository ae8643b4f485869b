"""Variation harness tests: FD oracles vs analytic variation formulas."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from trgeo import _spectral, ambient, cli, curve_lab as cl, geodesic_flow as gf
from trgeo import immersion as imm
from trgeo import variation_harness as vh
from trgeo.errors import AmplificationExceeded, UnsupportedField, ValidationError

from flow_oracle import flow_on_torus_2d, perturbed_torus, phase_sum_2d, wound_torus
from variation_oracle import low_mode_field, mixed_density_second_variation, validate_hj_sign


@pytest.fixture
def circle():
    return imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                               "circle", r=1.0)


@pytest.fixture
def torus12():
    return imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                               "product_torus", r1=1.0, r2=2.0)


def hyperbolic_length(r):
    return 4.0 * np.pi * r / (1.0 - r * r)


# --- first variation ----------------------------------------------------------

def test_first_variation_circle(circle):
    Y = imm.coordinate_field(circle.im.grid, 0)
    rep = vh.check_first_variation(circle, Y)
    assert abs(rep.analytic + 2.0 * np.pi) <= 1e-10
    assert rep.rel_err <= 1e-4


def test_first_variation_torus(torus12):
    Y = imm.coordinate_field(torus12.im.grid, 0)
    rep = vh.check_first_variation(torus12, Y)
    assert abs(rep.analytic + 8.0 * np.pi ** 2) <= 1e-8
    assert rep.rel_err <= 1e-4


def test_first_variation_poincare_circle():
    pd = ambient.poincare_disk()
    hc = imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=0.5)
    rep = vh.check_first_variation(hc, imm.coordinate_field(hc.im.grid, 0))
    # oracle: d/dt of the hyperbolic circle length under radius 0.5 (1 - t)
    h = 1e-6
    oracle = (hyperbolic_length(0.5 * (1 - h))
              - hyperbolic_length(0.5 * (1 + h))) / (2 * h)
    assert abs(rep.analytic - oracle) <= 1e-6 * abs(oracle)
    assert rep.rel_err <= 1e-4
    assert rep.richardson_order is not None and rep.richardson_order >= 1.8


def test_first_variation_richardson_order(circle):
    theta = circle.im.grid.thetas(0)
    Y = imm.VectorFieldOnL(grid=circle.im.grid,
                           components=(1.0 + 0.3 * np.cos(theta))[None, :])
    rep = vh.check_first_variation(circle, Y)
    assert rep.rel_err <= 1e-4
    assert rep.richardson_order >= 1.8


def test_hj_sign_validation(circle, torus12):
    assert validate_hj_sign(circle)
    assert validate_hj_sign(torus12)
    pd = ambient.poincare_disk()
    hc = imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=0.5)
    assert validate_hj_sign(hc)


def test_hj_sign_validation_perturbed():
    gp = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.4, mode=(1, 1))
    assert validate_hj_sign(gp)


# --- tangential flows ------------------------------------------------------------

def test_stokes_tangential_first_variation(circle):
    theta = circle.im.grid.thetas(0)
    X = imm.VectorFieldOnL(grid=circle.im.grid,
                           components=(1.0 + 0.3 * np.cos(theta))[None, :])
    Z = circle.pushforward(X)
    value, _ = vh.fd_first_variation(circle.im, Z)
    vol = circle.volumes()["vol_j"]
    assert abs(value) <= 1e-7 * vol


def test_stokes_tangential_perturbed_torus():
    gp = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.5, mode=(1, 0))
    Z = gp.pushforward(imm.coordinate_field(gp.im.grid, 0))
    value, _ = vh.fd_first_variation(gp.im, Z)
    vol = gp.volumes()["vol_j"]
    assert abs(value) <= 1e-7 * vol


def test_density_divergence_circle_trivial(circle):
    X = imm.coordinate_field(circle.im.grid, 0)
    rep1, rep2, integral2 = vh.check_density_divergence(circle, X)
    # rho = 1 and |gamma'| = 1: both divergence expressions vanish
    assert rep1.analytic <= 1e-12
    assert rep1.fd <= 1e-8
    assert abs(integral2) <= 1e-8


def test_density_divergence_perturbed_torus():
    gp = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.5, mode=(1, 0))
    rep1, rep2, integral2 = vh.check_density_divergence(
        gp, imm.coordinate_field(gp.im.grid, 0))
    assert rep1.rel_err <= 1e-4
    assert rep2.rel_err <= 1e-4


def test_density_divergence_ellipse_modulated_field():
    ell = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                              "ellipse", a=2.0, b=1.0)
    theta = ell.im.grid.thetas(0)
    X = imm.VectorFieldOnL(grid=ell.im.grid,
                           components=(1.0 + 0.3 * np.cos(theta))[None, :])
    rep1, rep2, integral2 = vh.check_density_divergence(ell, X)
    assert rep1.rel_err <= 1e-4
    assert abs(integral2) <= 1e-8


def _axis_field(grid, axis):
    """X = f(theta_axis) d/dtheta_axis with a two-mode positive profile."""
    theta = grid.thetas(axis)
    comp = np.zeros((2,) + grid.sizes)
    comp[axis] = np.expand_dims(1.0 + 0.3 * np.cos(theta) + 0.1 * np.sin(2.0 * theta),
                                axis=1 - axis)
    return imm.VectorFieldOnL(grid=grid, components=comp)


@pytest.mark.parametrize("case, axis", [("perturbed", 0), ("perturbed", 1),
                                        ("wound", 0)])
def test_one_axis_flow_matches_2d_reference(case, axis):
    im = perturbed_torus() if case == "perturbed" else wound_torus()
    X = _axis_field(im.grid, axis)
    # the reference evaluator reproduces the grid values at the nodes
    t1, t2 = im.grid.mesh()
    coeffs = np.fft.fftn(im.points, axes=(0, 1)) / t1.size
    nodes = phase_sum_2d(coeffs, t1, t2).real.reshape(im.points.shape)
    assert np.max(np.abs(nodes - im.points)) <= 1e-13
    for t in (1e-3, -0.25):
        got = gf.tangential_flow(im, X, t)
        ref = flow_on_torus_2d(im, X, t)
        assert np.max(np.abs(got.points - ref.points)) <= 1e-13
        # the flow moves the points (it is no identity map)
        assert np.max(np.abs(got.points - im.points)) >= 1e-4 * abs(t)


def test_density_check_rejects_fields_off_one_axis(torus12):
    comps = np.zeros((2, 32, 32))
    t1, t2 = torus12.im.grid.mesh()
    comps[0] = 1.0 + 0.2 * np.cos(t1 + t2)   # depends on both angles
    X = imm.VectorFieldOnL(grid=torus12.im.grid, components=comps)
    with pytest.raises(UnsupportedField, match=r"X = f\(theta_k\) d/dtheta_k"):
        vh.check_density_divergence(torus12, X)


def test_density_check_takes_the_zero_field(circle):
    # X = 0 is f(theta_0) d/dtheta_0 with f = 0: the flow is the identity
    X = imm.VectorFieldOnL(grid=circle.im.grid, components=np.zeros((1, 64)))
    rep1, rep2, integral2 = vh.check_density_divergence(circle, X)
    assert rep1.analytic == rep2.analytic == integral2 == 0.0
    assert rep1.fd <= 1e-12


# --- second variation --------------------------------------------------------------

def test_second_variation_flat_circle(circle):
    rep = vh.check_second_variation_kahler(circle,
                                           imm.coordinate_field(circle.im.grid, 0))
    assert abs(rep.analytic - 2.0 * np.pi) <= 1e-9
    assert rep.rel_err <= 1e-3


def test_second_variation_flat_torus(torus12):
    rep = vh.check_second_variation_kahler(torus12,
                                           imm.coordinate_field(torus12.im.grid, 0))
    # Vol(t) = 8 pi^2 e^{-t}: second derivative 8 pi^2
    assert abs(rep.analytic - 8.0 * np.pi ** 2) <= 1e-7
    assert rep.rel_err <= 1e-3


def test_second_variation_poincare_closed_form():
    pd = ambient.poincare_disk()
    hc = imm.build_immersion(imm.GridTorus((64,)), pd, "circle",
                             r=math.exp(-1.0))
    rep = vh.check_second_variation_kahler(hc,
                                           imm.coordinate_field(hc.im.grid, 0))
    s = math.sinh(1.0)
    closed = 2.0 * np.pi * (1.0 / s) * ((1.0 / s) ** 2 + (math.cosh(1.0) / s) ** 2)
    assert abs(rep.fd - closed) <= 1e-3 * closed
    # the analytic value meets the closed form to about 1e-16: at 1e-3 a
    # Ricci term scaled by 1 + 1e-3 passed every test
    assert abs(rep.analytic - closed) <= 1e-13 * closed
    assert rep.rel_err <= 1e-3
    # the curvature term is strictly positive here: -Ric(Y, Y) = +|Y|^2
    integrand = vh.second_variation_integrand(hc, imm.coordinate_field(hc.im.grid, 0))
    y_amb = hc.pushforward(imm.coordinate_field(hc.im.grid, 0))
    ric = hc.im.chart.ricci_many(hc.im.positions())
    ric_term = -np.einsum("...i,...ij,...j->...", y_amb, ric, y_amb)
    assert np.min(ric_term) > 0.0


def test_second_variation_modulated_circle(circle):
    theta = circle.im.grid.thetas(0)
    Y = imm.VectorFieldOnL(grid=circle.im.grid,
                           components=(1.0 + 0.3 * np.cos(theta))[None, :])
    rep = vh.check_second_variation_kahler(circle, Y)
    assert rep.rel_err <= 1e-3


def test_ray_only_second_variation_is_refused():
    # the family runs both ways in t; the outward half is ill-posed, as in
    # flow.run, and for the mirrored curve the inward half
    ray = cl.family_coefficients("ray_only", N=256)
    mirrored = cl.FourierCurve(coeffs=ray.coeffs[::-1])
    for curve, side in ((ray, "outer"), (mirrored, "inner")):
        samples = cl.synthesize(curve, M=1024)
        im = imm.Immersion(grid=imm.GridTorus((1024,)), chart=ambient.flat_chart(1),
                           points=np.stack([samples.real, samples.imag], axis=-1))
        with pytest.raises(AmplificationExceeded, match=f"{side} radius estimate"):
            vh.check_second_variation_kahler(imm.is_totally_real(im),
                                             imm.coordinate_field(im.grid, 0))


def test_second_variation_unavailable_direction(torus12):
    comps = np.zeros((2, 32, 32))
    t1, t2 = torus12.im.grid.mesh()
    comps[0] = 1.0 + 0.2 * np.cos(t1 + t2)   # depends on both angles
    Y = imm.VectorFieldOnL(grid=torus12.im.grid, components=comps)
    with pytest.raises(UnsupportedField, match="needs X = f\\(theta_k\\) d/dtheta_k$"):
        vh.check_second_variation_kahler(torus12, Y)
    # a profile of theta_0 alone that changes sign
    comps[0] = 0.2 + 0.5 * np.cos(t1)
    Y = imm.VectorFieldOnL(grid=torus12.im.grid, components=comps)
    with pytest.raises(UnsupportedField, match="needs f > 0 everywhere$"):
        vh.check_second_variation_kahler(torus12, Y)


# --- mixed two-parameter variation ---------------------------------------------------

def test_mixed_second_variation_flat():
    gp = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.4, mode=(1, 1))
    J = gp.im.chart.J
    W = np.einsum("ij,...j->...i", J,
                  gp.pushforward(imm.coordinate_field(gp.im.grid, 0)))
    Z = np.einsum("ij,...j->...i", J,
                  gp.pushforward(imm.coordinate_field(gp.im.grid, 1)))
    analytic, fd = mixed_density_second_variation(gp, W, Z)
    scale = max(1.0, float(np.max(np.abs(analytic))))
    assert np.max(np.abs(analytic - fd)) <= 1e-4 * scale


# --- stability on the quotient chart ---------------------------------------------------

def test_straight_torus_is_critical_and_stable():
    qc = ambient.flat_quotient_chart(2)
    st = imm.build_immersion(imm.GridTorus((32, 32)), qc, "straight_torus")
    assert np.max(np.abs(st.h_j.values)) <= 1e-12  # J-minimal
    assert st.lagrangian_defect <= 1e-12           # and Lagrangian
    rng = np.random.default_rng(9)
    for _ in range(5):
        comps = np.stack([0.5 * low_mode_field(rng, st.im.grid.sizes)
                          for _ in range(2)])
        Y = imm.VectorFieldOnL(grid=st.im.grid, components=comps)
        integrand = vh.second_variation_integrand(st, Y)
        value = _spectral.periodic_total(integrand * st.volj_density,
                                         st.im.grid.cell)
        assert value >= 0.0


def test_straight_torus_shear_second_variation():
    qc = ambient.flat_quotient_chart(2)
    st = imm.build_immersion(imm.GridTorus((32, 32)), qc, "straight_torus")
    theta = st.im.grid.thetas(0)
    comp = np.zeros((2, 32, 32))
    comp[0] = (1.0 + 0.3 * np.cos(theta))[:, None]
    Y = imm.VectorFieldOnL(grid=st.im.grid, components=comp)
    rep = vh.check_second_variation_kahler(st, Y)
    # oracle: int (f')^2 over T^2 with f = 1 + 0.3 cos
    oracle = 0.09 * np.pi * 2.0 * np.pi
    assert abs(rep.analytic - oracle) <= 1e-10
    assert rep.rel_err <= 1e-3
    assert rep.fd >= 0.0


# --- convexity experiments --------------------------------------------------------------

def test_convexity_flat_families():
    prof = vh.convexity_experiment({"kind": "flat_circle", "r0": 1.0, "grid": 64},
                                   np.linspace(0.0, 1.0, 20))
    vol = prof["vol_j"]
    sd = prof["second_differences"][1:-1]
    assert np.all(sd >= -1e-6 * vol[1:-1])
    assert np.allclose(vol, 2.0 * np.pi * np.exp(-prof["t"]), rtol=1e-10)

    prof2 = vh.convexity_experiment({"kind": "flat_torus", "grid": 32},
                                    np.linspace(0.0, 0.5, 20))
    sd2 = prof2["second_differences"][1:-1]
    assert np.all(sd2 >= -1e-6 * prof2["vol_j"][1:-1])


def test_convexity_poincare_strict():
    t_grid = np.linspace(0.5, 2.0, 20)
    prof = vh.convexity_experiment({"kind": "poincare_circle", "grid": 64},
                                   t_grid)
    lam = 2.0 * np.pi / np.sinh(t_grid)
    assert np.max(np.abs(prof["vol_j"] - lam)) <= 1e-6 * np.max(lam)
    sd = prof["second_differences"][1:-1]
    assert np.all(sd >= 1e-4 * prof["vol_j"][1:-1])


def test_convexity_quotient_shear():
    prof = vh.convexity_experiment(
        {"kind": "quotient_torus_shear", "amplitude": 0.3, "grid": 32},
        np.linspace(-0.2, 0.2, 9))
    sd = prof["second_differences"][1:-1]
    assert np.all(sd >= -1e-6 * prof["vol_j"][1:-1])


def test_convexity_memory_does_not_grow_with_the_t_grid():
    # the family's volumes are totalled block by block and no member is
    # kept: 20 t values peak where 5 do (the member list grew by one
    # 64 x 64 frame on C^2, 131 kB, per t value: +2.1 MB)
    family = {"kind": "flat_torus", "grid": 64}
    vh.convexity_experiment(family, [0.0, 0.01, 0.02])
    peaks = []
    for n in (5, 20):
        tracemalloc.start()
        try:
            vh.convexity_experiment(family, [0.01 * k for k in range(n)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # room for the 15 more volumes and second differences the run returns
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_convexity_refuses_a_family_key_it_does_not_read():
    # radius for r0 used to run the unit circle
    with pytest.raises(ValidationError, match="family.radius"):
        vh.convexity_experiment({"kind": "flat_circle", "radius": 3.0, "grid": 16},
                                [0.0, 0.1, 0.2])


def test_convexity_quotient_shear_resolved_at_32():
    # the 32x32 family carries Nyquist content along the sheared axis and
    # agrees with the 64x64 one
    ts = np.linspace(0.0, 0.4, 8)
    profs = [vh.convexity_experiment(
        {"kind": "quotient_torus_shear", "amplitude": 0.3, "grid": g}, ts)
        for g in (32, 64)]
    assert np.max(np.abs(profs[0]["vol_j"] - profs[1]["vol_j"])) <= 1e-9


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_first_variation_circle_scaling(r):
    # |H_J| = 1/r cross-checked through the FD identity at each radius
    geo = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                              "circle", r=r)
    rep = vh.check_first_variation(geo, imm.coordinate_field(geo.im.grid, 0))
    assert abs(rep.analytic + 2.0 * np.pi * r) <= 1e-9
    assert rep.rel_err <= 1e-4


# --- geometry builds ---------------------------------------------------------------------

def test_each_check_builds_one_base_geometry(monkeypatch, tmp_path):
    # every Geometry built differentiates the immersion once
    builds = []
    original = imm.Immersion.coordinate_vectors

    def counted(self):
        builds.append(self)
        return original(self)

    circle = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                                 "circle", r=1.0)
    Y = imm.coordinate_field(circle.im.grid, 0)
    monkeypatch.setattr(imm.Immersion, "coordinate_vectors", counted)

    vh.check_first_variation(circle, Y)
    assert len(builds) == 6              # the given geometry, then 3 eps x 2 signs
    builds.clear()
    vh.check_second_variation_kahler(circle, Y)
    # none: the geometry is given, and the 5 members are validated as one
    # stack by flow_spectral, whose densities give their Vol_J
    assert len(builds) == 0
    builds.clear()
    vh.convexity_experiment({"kind": "flat_circle", "grid": 64}, [0.0, 0.1, 0.2])
    assert len(builds) == 1              # the validated base; the members as above
    builds.clear()

    scn = tmp_path / "jvol.json"
    scn.write_text(json.dumps({
        "version": 1, "name": "jvol", "operation": "jvol.compute",
        "chart": {"name": "flat_c2"},
        "immersion": {"formula": "graph_perturbed_torus", "grid": 32,
                      "args": {"amplitude": 0.3, "mode": [1, 0]}}}))
    assert cli.main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 1              # the validated input's geometry

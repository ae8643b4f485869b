"""Immersion tests: rho_J, volumes, projections, H_J, validation, the frame oracle."""

import json
import math
import re

import numpy as np
import pytest

from rho_oracle import gram_schmidt, rho_of_frame
from variation_oracle import h_j_of_frame
from trgeo import _spectral, ambient, cli
from trgeo import immersion as imm
from trgeo.errors import BadArgument, NotImmersed, NotTotallyReal, ValidationError


@pytest.fixture
def flat1():
    return ambient.flat_chart(1)


@pytest.fixture
def flat2():
    return ambient.flat_chart(2)


@pytest.fixture
def circle(flat1):
    return imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", r=1.0).im


@pytest.fixture
def torus12(flat2):
    return imm.build_immersion(imm.GridTorus((32, 32)), flat2, "product_torus",
                               r1=1.0, r2=2.0).im


def test_grid_validation():
    with pytest.raises(ValidationError):
        imm.GridTorus((12,))
    with pytest.raises(ValidationError):
        imm.GridTorus((48,))
    with pytest.raises(ValidationError):
        imm.GridTorus((16, 16, 16))
    # MAX_GRID_SIZE nodes per axis are allowed, twice that is refused
    imm.GridTorus((imm.MAX_GRID_SIZE,))
    with pytest.raises(ValidationError, match=f"in \\[16, {imm.MAX_GRID_SIZE}\\]"):
        imm.GridTorus((16, 2 * imm.MAX_GRID_SIZE))


def test_circle_points_trivial(circle):
    theta = circle.grid.thetas(0)
    assert np.allclose(circle.points[:, 0], np.cos(theta))
    assert np.allclose(circle.points[:, 1], np.sin(theta))


def test_tangent_frame_circle(circle):
    fr = imm.is_totally_real(circle)
    assert np.allclose(fr.vectors[0][0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(gram_schmidt(fr)[0][0][0], [0.0, 1.0], atol=1e-12)


def test_tangent_frame_ellipse(flat1):
    ell = imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0).im
    fr = imm.is_totally_real(ell)
    # d/dtheta (2 cos, sin) at 0 = (0, 1)
    assert np.allclose(fr.vectors[0][0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(gram_schmidt(fr)[0][0][0], [0.0, 1.0], atol=1e-12)


def test_gram_schmidt_contract(flat2):
    t23 = imm.build_immersion(imm.GridTorus((32, 32)), flat2, "product_torus",
                              r1=2.0, r2=3.0).im
    fr = imm.is_totally_real(t23)
    g = fr.g_ambient
    frame, _ = gram_schmidt(fr)
    for i in range(2):
        norms = np.einsum("...i,...ij,...j->...", frame[i], g, frame[i])
        assert np.max(np.abs(norms - 1.0)) < 1e-12
    cross = np.einsum("...i,...ij,...j->...", frame[0], g, frame[1])
    assert np.max(np.abs(cross)) < 1e-12


def test_rho_lagrangian_is_one(circle, torus12):
    for im in (circle, torus12):
        geo = imm.is_totally_real(im)
        assert np.max(np.abs(geo.rho - 1.0)) <= 1e-10
        assert geo.formula_gap <= 1e-9


def test_rho_static_plane_family(flat2):
    # pi_alpha = span{dx1, cos a dx2 + sin a dy1}: rho_J = cos(alpha)
    J = flat2.J
    g = np.eye(4)[None, :, :]
    om = (J.T @ np.eye(4))[None, :, :]
    for alpha in (0.0, np.pi / 6, np.pi / 4, np.pi / 3):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, np.cos(alpha), np.sin(alpha), 0.0])
        fv = np.stack([e1[None, :], e2[None, :]])
        rho_h, rho_vol = rho_of_frame(fv, g, om, J)
        assert abs(rho_h[0] - np.cos(alpha)) <= 1e-12
        assert abs(rho_vol[0] - np.cos(alpha)) <= 1e-12


def test_rho_node_accessor(circle):
    assert float(imm.is_totally_real(circle).rho[5]) == pytest.approx(1.0, abs=1e-12)


def test_total_volumes_product_torus(torus12):
    vols = imm.is_totally_real(torus12).volumes()
    expect = 4.0 * np.pi ** 2 * 1.0 * 2.0
    assert abs(vols["vol_j"] - expect) <= 1e-9 * expect
    assert abs(vols["vol_g"] - expect) <= 1e-9 * expect


def test_total_volumes_hyperbolic_circle():
    pd = ambient.poincare_disk()
    hc = imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=0.5).im
    vols = imm.is_totally_real(hc).volumes()
    expect = 4.0 * np.pi * 0.5 / (1.0 - 0.25)
    assert abs(vols["vol_j"] - expect) <= 1e-8 * expect


def test_perturbed_torus_j_volume_strictly_below(flat2):
    gp = imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.5, mode=(1, 0)).im
    geo = imm.is_totally_real(gp)
    assert np.min(geo.rho) < 1.0
    vols = geo.volumes()
    assert vols["vol_j"] < vols["vol_g"]
    assert geo.lagrangian_defect > 0.01


def test_lagrangian_defect_trivial_cases(circle, torus12):
    assert imm.is_totally_real(circle).lagrangian_defect == 0.0
    assert imm.is_totally_real(torus12).lagrangian_defect < 1e-12


def test_projection_algebra(torus12, flat2):
    pr = imm.is_totally_real(torus12)
    J = flat2.J
    eye = np.eye(4)
    pi_j = eye - pr.pi_l
    assert np.max(np.abs(pr.pi_l @ pr.pi_l - pr.pi_l)) <= 1e-10
    assert np.max(np.abs(pi_j @ pi_j - pi_j)) <= 1e-10
    assert np.max(np.abs(pr.pi_l @ J - J @ pi_j)) <= 1e-10
    assert np.max(np.abs(pi_j @ J - J @ pr.pi_l)) <= 1e-10


def test_projection_lagrangian_node_is_orthogonal(torus12):
    # on a Lagrangian, J(TL) is the normal space: pi_J = pi_perp = Id - pi_T
    pr = imm.is_totally_real(torus12)
    assert np.max(np.abs(pr.pi_l - pr.pi_t)) <= 1e-10


def test_projection_mixed_identity_on_tilted_plane(flat2):
    # direct 4-dim check of pi_L(J e1) = J pi_J(e1) on pi_{pi/4}
    gp = imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.4, mode=(1, 1)).im
    pr = imm.is_totally_real(gp)
    J = flat2.J
    rng = np.random.default_rng(0)
    v = rng.normal(size=4)
    lhs = np.einsum("...ij,jk,k->...i", pr.pi_l, J, v)
    rhs = np.einsum("ij,...jk,k->...i", J, np.eye(4) - pr.pi_l, v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def _pi_l_by_real_inverse(geo):
    """pi_L = B sel B^-1 with B = [e_1 .. e_n, Je_1 .. Je_n] for the
    orthonormal frame e and sel keeping the first n coordinates: the real
    2n x 2n form, by LAPACK."""
    n, J = geo.im.n, geo.im.chart.J
    frame, _ = gram_schmidt(geo)
    cols = [frame[i] for i in range(n)]
    cols += [np.einsum("ij,...j->...i", J, frame[i]) for i in range(n)]
    B = np.stack(cols, axis=-1)
    sel = np.zeros((2 * n, 2 * n))
    sel[:n, :n] = np.eye(n)
    return B @ sel @ np.linalg.inv(B)


def test_pi_l_complex_form_matches_the_real_inverse(flat1, flat2):
    grid2 = imm.GridTorus((16, 32))
    for geo in (
            imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0),
            imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                                "circle", r=0.5),
            imm.build_immersion(grid2, flat2, "graph_perturbed_torus", r1=1.0,
                                r2=1.2, amplitude=0.4, mode=(1, 1)),
            imm.build_immersion(grid2, ambient.complex_hyperbolic_ball(),
                                "graph_perturbed_torus", r1=0.3, r2=0.35,
                                amplitude=0.05, mode=(1, 0)),
            imm.build_immersion(grid2, ambient.flat_quotient_chart(2), "straight_torus",
                                winding=[[1.0, 0.0], [0.0, 0.8], [0.0, 0.6], [0.0, 0.0]])):
        ref = _pi_l_by_real_inverse(geo)
        assert np.max(np.abs(geo.pi_l - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_pi_t_and_the_defect_match_the_frame(flat1, flat2):
    # pi_T = V G^-1 V^T g and omega(v_1, v_2) / vol_g against sum_i e_i (g e_i)^T
    # and omega(e_1, e_2) on the Gram-Schmidt frame; measured 1.2e-15 and 0
    for im in _density_cases(flat1, flat2):
        geo = imm.is_totally_real(im)
        frame, _ = gram_schmidt(geo)
        g = geo.g_ambient
        pi_t = sum(np.einsum("...i,...j->...ij", e, np.einsum("...ij,...j->...i", g, e))
                   for e in frame)
        assert np.max(np.abs(geo.pi_t - pi_t)) <= 1e-14
        defect = 0.0 if im.n == 1 else np.max(np.abs(np.einsum(
            "...i,...ij,...j->...", frame[0], geo.omega_ambient, frame[1])))
        assert abs(geo.lagrangian_defect - defect) <= 1e-14


@pytest.mark.parametrize("chart,sizes,formula,args", [
    ("flat_c1", (128,), "ellipse", {"a": 2.0, "b": 1.0}),
    ("poincare_disk", (128,), "ellipse", {"a": 0.5, "b": 0.3}),
    ("flat_c2", (64, 64), "graph_perturbed_torus",
     {"r1": 1.0, "r2": 1.2, "amplitude": 0.4, "mode": [1, 1]}),
    ("complex_hyperbolic_ball", (64, 64), "graph_perturbed_torus",
     {"r1": 0.3, "r2": 0.35, "amplitude": 0.05, "mode": [1, 0]}),
    ("flat_quotient_c2", (32, 32), "straight_torus",
     {"winding": [[1.0, 0.0], [0.0, 0.8], [0.0, 0.6], [0.0, 0.0]]}),
])
def test_h_j_matches_the_frame_trace(chart, sizes, formula, args):
    # the trace through G^-1 against the trace over the Gram-Schmidt frame,
    # on grids that resolve both (largest gap measured: 1.6e-13 of max |H_J|;
    # bound 2e-12). The two differentiate different fields, so on a coarse grid
    # they differ by its truncation error: 1.5e-7 on a 64-node 2:1 ellipse.
    c = ambient.chart_from_descriptor({"name": chart})
    geo = imm.build_immersion(imm.GridTorus(sizes), c, formula, **args)
    ref = h_j_of_frame(geo)
    assert np.max(np.abs(geo.h_j.values - ref)) <= 2e-12 * max(1.0, np.max(np.abs(ref)))


def test_h_j_circle_inward_unit(circle):
    field = imm.is_totally_real(circle).h_j
    theta = circle.grid.thetas(0)
    expect = -np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    assert np.max(np.abs(field.values - expect)) <= 1e-10
    assert field.max_tangential_leak <= 1e-10


def test_h_j_product_torus_magnitude(flat2):
    for r1, r2 in ((1.0, 2.0), (1.0, 1.0), (0.5, 2.0)):
        pt = imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                                 "product_torus", r1=r1, r2=r2).im
        field = imm.is_totally_real(pt).h_j
        mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
        expect = math.sqrt(1.0 / r1 ** 2 + 1.0 / r2 ** 2)
        assert np.max(np.abs(mags - expect)) <= 1e-9


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_h_j_circle_scaling(flat1, r):
    im = imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", r=r).im
    field = imm.is_totally_real(im).h_j
    mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
    assert np.max(np.abs(mags - 1.0 / r)) <= 1e-9


def test_rank_drop_rejected(flat2):
    # amplitude 1 collapses the theta_2 circle at theta_1 = pi: not immersed
    with pytest.raises(NotImmersed):
        imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                            "graph_perturbed_torus", r1=1.0, r2=1.0,
                            amplitude=1.0, mode=(1, 0))


def test_totally_real_floor():
    # tilted straight torus span{dx1, cos a dx2 + sin a dy1}: rho = cos a;
    # near a = pi/2 the plane is full rank but partially complex to precision
    qc = ambient.flat_quotient_chart(2)
    alpha = np.pi / 2 - 1e-7
    winding = np.array([[1.0, 0.0], [0.0, np.cos(alpha)],
                        [0.0, np.sin(alpha)], [0.0, 0.0]])
    with pytest.raises(NotTotallyReal):
        imm.build_immersion(imm.GridTorus((32, 32)), qc, "straight_torus",
                            winding=winding)


def test_vol_j_bounded_by_vol_g_randomized(flat2):
    rng = np.random.default_rng(42)
    grid = imm.GridTorus((32, 32))
    for _ in range(25):
        amp = rng.uniform(0.05, 0.45)
        mode = (int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        gp = imm.build_immersion(grid, flat2, "graph_perturbed_torus",
                                 r1=1.0, r2=1.0, amplitude=amp, mode=mode).im
        vols = imm.is_totally_real(gp).volumes()
        assert vols["vol_j"] <= vols["vol_g"] + 1e-10


def reparametrized(im, shifts):
    """Immersion composed with the grid rotation theta_k -> theta_k + shift_k."""
    if im.winding is not None and np.any(im.winding != 0.0):
        raise ValidationError("reparametrized does not support winding immersions")
    pts = im.points
    for k, s in enumerate(shifts):
        nk = im.grid.sizes[k]
        m = _spectral.modes(nk)
        coef = np.fft.fft(pts, axis=k)
        shape = [1] * pts.ndim
        shape[k] = nk
        coef = coef * np.exp(1j * m * s).reshape(shape)
        pts = np.fft.ifft(coef, axis=k).real
    return imm.Immersion(grid=im.grid, chart=im.chart, points=pts)


def test_reparametrization_invariance(flat2, torus12):
    vols = imm.is_totally_real(torus12).volumes()
    # integer grid shift: exact node permutation
    shifted = reparametrized(torus12, (2 * np.pi * 3 / 32, 0.0))
    vols_s = imm.is_totally_real(shifted).volumes()
    assert abs(vols_s["vol_j"] - vols["vol_j"]) <= 1e-10 * vols["vol_j"]
    # non-grid shift: spectral resampling
    shifted2 = reparametrized(torus12, (0.1234, -0.4321))
    vols_s2 = imm.is_totally_real(shifted2).volumes()
    assert abs(vols_s2["vol_j"] - vols["vol_j"]) <= 1e-10 * vols["vol_j"]


def test_density_csv_export(tmp_path):
    # jvol.compute writes one density.csv row per node of the Geometry
    scn = tmp_path / "circle.json"
    scn.write_text(json.dumps({"version": 1, "operation": "jvol.compute",
                               "chart": {"name": "flat_c1"},
                               "immersion": {"formula": "circle", "grid": 64}}))
    assert cli.main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert lines[0] == "i0,rho,volg_density,volj_density"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)


def test_straight_torus_quotient_chart():
    qc = ambient.flat_quotient_chart(2)
    st = imm.build_immersion(imm.GridTorus((32, 32)), qc, "straight_torus").im
    geo = imm.is_totally_real(st)
    assert geo.volumes()["vol_j"] == pytest.approx(4.0 * np.pi ** 2, rel=1e-12)
    assert np.max(np.abs(geo.h_j.values)) <= 1e-12
    assert geo.lagrangian_defect <= 1e-12


def test_build_immersion_refuses_an_argument_it_does_not_read(flat1):
    # radius for r used to build the unit circle
    with pytest.raises(ValidationError, match="'radius'"):
        imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", radius=2.0)


def test_fourier_curve_is_the_sum_of_its_terms(flat1):
    # the criterion-9 coefficients, and a dict naming one mode twice (3 and 3.0)
    blowup = [[1, 1.0, 0.0]] + [[-n, math.exp(-math.sqrt(n)), 0.0] for n in range(1, 257)]
    for size, coeffs in ((1024, blowup), (64, {1: 1.0, 3: 0.2, -2: 0.1j, 31: 0.05})):
        im = imm.build_immersion(imm.GridTorus((size,)), flat1, "fourier_curve",
                                 coeffs=coeffs).im
        theta = im.grid.thetas(0)
        pairs = coeffs.items() if isinstance(coeffs, dict) else (
            (n, complex(re, im_)) for n, re, im_ in coeffs)
        want = sum(a * np.exp(1j * n * theta) for n, a in pairs)
        # the term by term sum rounds n theta before its exponential: about
        # 1e-13 of phase at n = 256
        assert np.max(np.abs(im.points[:, 0] + 1j * im.points[:, 1] - want)) <= 1e-13


@pytest.mark.parametrize("coeffs, name", [([[1, 1.0, 0.0], [2.5, 0.1, 0.0]], "coeffs[1][0]"),
                                          ([[1e300, 1.0, 0.0]], "coeffs[0][0]"),
                                          ([[32, 1.0, 0.0]], "coeffs[0][0]"),
                                          ({1: 1.0, -32: 0.1}, "coeffs[-32]")])
def test_fourier_curve_refuses_a_mode_the_grid_does_not_resolve(flat1, coeffs, name):
    with pytest.raises(BadArgument, match=re.escape(name)):
        imm.build_immersion(imm.GridTorus((64,)), flat1, "fourier_curve", coeffs=coeffs)


def test_winding_requires_quotient_chart(flat2):
    with pytest.raises(ValidationError):
        imm.Immersion(grid=imm.GridTorus((32, 32)), chart=flat2,
                      points=np.zeros((32, 32, 4)),
                      winding=np.eye(4, 2))


def test_rho_formula_agreement_all_builtins(flat1, flat2):
    cases = [
        imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", r=1.0).im,
        imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0).im,
        imm.build_immersion(imm.GridTorus((64,)), flat1, "fourier_curve",
                            coeffs={1: 1.0, 3: 0.2}).im,
        imm.build_immersion(imm.GridTorus((32, 32)), flat2, "product_torus",
                            r1=1.0, r2=2.0).im,
        imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                            "graph_perturbed_torus", r1=1.0, r2=1.0,
                            amplitude=0.5, mode=(1, 0)).im,
        imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                            "circle", r=0.5).im,
        imm.build_immersion(imm.GridTorus((32, 32)),
                            ambient.flat_quotient_chart(2), "straight_torus").im,
    ]
    for im in cases:
        geo = imm.is_totally_real(im)
        assert geo.formula_gap <= 1e-9
        assert np.max(geo.rho) <= 1.0 + 1e-10


def _density_cases(flat1, flat2):
    grid2 = imm.GridTorus((16, 32))
    return [
        imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0).im,
        imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                            "circle", r=0.5).im,
        imm.build_immersion(grid2, flat2, "graph_perturbed_torus", r1=1.0,
                            r2=1.2, amplitude=0.4, mode=(1, 1)).im,
        imm.build_immersion(grid2, ambient.complex_hyperbolic_ball(),
                            "graph_perturbed_torus", r1=0.3, r2=0.35,
                            amplitude=0.05, mode=(1, 0)).im,
        imm.build_immersion(grid2, ambient.flat_quotient_chart(2), "straight_torus",
                            winding=[[1.0, 0.0], [0.0, 0.8], [0.0, 0.6], [0.0, 0.0]]).im,
    ]


def test_rho_matches_the_hermitian_frame_formula(flat1, flat2):
    # rho_J and the cross-check read off v and G agree with both formulas on
    # the Gram-Schmidt frame; the largest gap measured is 4.4e-16 (bound 4e-15)
    for im in _density_cases(flat1, flat2):
        geo = imm.is_totally_real(im)
        assert "rho_vol" not in vars(geo) and "formula_gap" not in vars(geo)
        rho_h, rho_vol = rho_of_frame(gram_schmidt(geo)[0], geo.g_ambient,
                                      geo.omega_ambient, im.chart.J)
        assert np.max(np.abs(geo.rho - rho_h)) <= 4e-15
        assert np.max(np.abs(geo.rho_vol - rho_vol)) <= 4e-15
        assert geo.formula_gap == float(np.max(np.abs(geo.rho - geo.rho_vol)))


@pytest.mark.parametrize("chart,formula,args", [
    ("flat_c1", "circle", {"r": 0.7}),
    ("flat_c1", "ellipse", {"a": 2.0, "b": 1.0}),
    ("flat_c1", "fourier_curve", {"coeffs": [[1, 1.0, 0.0], [2, 0.2, 0.1], [-1, 0.1, 0.0]]}),
    ("flat_c2", "product_torus", {"r1": 1.3, "r2": 0.8}),
    ("flat_c2", "graph_perturbed_torus", {"r1": 1.0, "r2": 1.2, "amplitude": 0.4,
                                          "mode": [1, 1]}),
    ("flat_quotient_c2", "straight_torus",
     {"winding": [[1.0, 0.0], [0.0, 0.8], [0.0, 0.6], [0.0, 0.0]]}),
])
def test_flat_rho_vol_leaves_out_det_g_bitwise(chart, formula, args):
    # a flat chart's det g is LAPACK's 1.0, so leaving it out changes no bit
    c = ambient.chart_from_descriptor({"name": chart})
    geo = imm.build_immersion(imm.GridTorus((32,) * c.n), c, formula, **args)
    assert c.is_flat and np.all(np.linalg.det(geo.g_ambient) == 1.0)
    rho_vol = imm._rho_vol(geo.vectors, geo.gram, geo.g_ambient, c.J)
    assert geo.rho_vol.tobytes() == rho_vol.tobytes()


def test_lagrangian_rho_pinned_to_one(flat2):
    # lagrangian_defect < 1e-10 forces |rho - 1| <= 1e-8 nodewise
    for formula, kwargs in (("product_torus", {"r1": 1.3, "r2": 0.8}),
                            ("product_torus", {"r1": 1.0, "r2": 1.0})):
        im = imm.build_immersion(imm.GridTorus((32, 32)), flat2, formula, **kwargs).im
        geo = imm.is_totally_real(im)
        assert geo.lagrangian_defect < 1e-10
        assert np.max(np.abs(geo.rho - 1.0)) <= 1e-8


def test_build_immersion_outside_domain():
    pd = ambient.poincare_disk()
    from trgeo.errors import PointOutsideDomain
    with pytest.raises(PointOutsideDomain):
        imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=1.5)


# --- stacks: one frame build for many immersions ------------------------------------

def _torus_points(grid, r1=1.0, r2=1.0, amplitude=0.0, mode=(1, 1)):
    """Points of graph_perturbed_torus without its validation."""
    t1, t2 = grid.mesh()
    z1 = r1 * np.exp(1j * t1)
    z2 = (r2 + amplitude * np.cos(mode[0] * t1 + mode[1] * t2)) * np.exp(1j * t2)
    return np.stack([z1.real, z2.real, z1.imag, z2.imag], axis=-1)


def _stack_cases():
    g32, g16 = imm.GridTorus((32, 32)), imm.GridTorus((16, 16))
    flat = ambient.flat_chart(2)
    yield "perturbed torus", g32, flat, [
        _torus_points(g32, 1.0, 2.0, a, (1, 1)) for a in (0.1, 0.2, 0.3, 0.4)], None
    qc = ambient.flat_quotient_chart(2)
    winding = np.array([[1.0, 0.3], [0.0, 1.0], [0.2, 0.0], [0.0, 0.5]])
    t1, t2 = g32.mesh()
    bump = np.stack([0.1 * np.sin(t1 + t2), 0.05 * np.cos(t2), 0.1 * np.cos(t1),
                     0.05 * np.sin(2.0 * t1 - t2)], axis=-1)
    yield "wound quotient torus", g32, qc, [
        0.1 + s * bump for s in (0.0, 0.5, 1.0)], winding
    yield "ball product torus", g16, ambient.complex_hyperbolic_ball(), [
        _torus_points(g16, 0.3, r2) for r2 in (0.2, 0.3, 0.45)], None
    theta = imm.GridTorus((64,)).thetas(0)
    yield "curve", imm.GridTorus((64,)), ambient.poincare_disk(), [
        np.stack([c + r * np.cos(theta), r * 0.8 * np.sin(theta)], axis=-1)
        for c, r in ((0.0, 0.3), (0.1, 0.5), (-0.2, 0.4))], None


@pytest.mark.parametrize("case", list(_stack_cases()), ids=lambda c: c[0])
def test_stacked_frame_fields_equal_each_member(case):
    # the fields _check_stack reads off a stack (coordinate vectors, chart
    # fields, Gram volumes) are those of each member's own Geometry
    _, grid, chart, members, winding = case
    pts = np.stack(members)
    # the builder's stack layout: components first, (2n, B) + grid sizes
    ahead = np.ascontiguousarray(np.moveaxis(pts, -1, 0))
    vs = imm._coordinate_vectors(grid, ahead, winding)
    g, omega = chart.metric_many(imm._positions(grid, pts, winding))
    _, vol, _, low = imm._gram_volumes(vs, g, omega)
    assert vol.shape == pts.shape[:-1]
    assert not np.any(low)
    for b, p in enumerate(members):
        fr = imm.is_totally_real(imm.Immersion(grid=grid, chart=chart, points=p,
                                      winding=winding))
        assert np.array_equal(np.moveaxis(vs[:, :, b], 1, -1), fr.vectors)
        assert np.array_equal(g[b], fr.g_ambient)
        assert np.array_equal(omega[b], fr.omega_ambient)
        assert np.array_equal(vol[b], fr.induced_vol)


@pytest.mark.parametrize("case", list(_stack_cases()), ids=lambda c: c[0])
def test_gram_volumes_equal_the_frame_densities(case):
    # vol_g = sqrt(det G) is the g-norm of the frame's wedge, and vol_J that
    # times the Hermitian rho_J of the Gram-Schmidt frame
    _, grid, chart, members, winding = case
    for p in members:
        geo = imm.is_totally_real(imm.Immersion(grid=grid, chart=chart, points=p,
                                       winding=winding))
        vs = np.moveaxis(geo.vectors, -1, 1)
        _, vol_g, vol_j, low = imm._gram_volumes(vs, geo.g_ambient, geo.omega_ambient)
        assert not np.any(low)
        frame, coeffs = gram_schmidt(geo)
        diagonal = np.prod([coeffs[i, i] for i in range(grid.n)], axis=0)
        rho_h = rho_of_frame(frame, geo.g_ambient, geo.omega_ambient, chart.J)[0]
        np.testing.assert_allclose(vol_g, 1.0 / diagonal, rtol=1e-14, atol=0)
        np.testing.assert_allclose(vol_j, rho_h / diagonal, rtol=1e-14, atol=0)


def _raised(check):
    try:
        check()
    except Exception as e:      # the type and message are what is compared
        return type(e), str(e)
    return None


def _family_errors(grid, chart, family, block=8):
    """(member-by-member loop, stacked blocks of `block`) outcomes."""
    def loop():
        for p in family:
            imm.is_totally_real(imm.Immersion(grid=grid, chart=chart, points=p))

    def blocks():
        # stacks are (B, 2n) + grid sizes
        ahead = np.moveaxis(family, -1, 1)
        for s in range(0, len(family), block):
            _check_stack(grid, chart, ahead[s:s + block])

    return _raised(loop), _raised(blocks)


def _check_stack(grid, chart, stack):
    """immersion._check_stack of a (B, 2n) + grid sizes stack, with the
    coordinate vectors taken from the stack copied to (2n, B) + grid sizes."""
    with np.errstate(over="ignore", invalid="ignore"):
        vs = imm._coordinate_vectors(
            grid, np.ascontiguousarray(np.moveaxis(stack, 1, 0)), None)
    imm._check_stack(grid, chart, stack, vs, None)


def _with_nan(points):
    points = points.copy()
    points[3, 5, 1] = np.nan
    return points


_GRID16 = imm.GridTorus((16, 16))
_BAD_MEMBERS = {
    # r1 = 0: d/dtheta_1 vanishes, the frame check fails
    "degenerate": (_torus_points(_GRID16, 0.0, 1.0, 0.1), NotImmersed, "degenerate"),
    # full rank to 1e-12 but |v_1 ^ v_2| = 1e-11: the volume check fails
    "volume": (_torus_points(_GRID16, 1e-11, 1.0), NotImmersed, "drops rank"),
    # the most perturbed member is the only one below the rho floor set below
    "rho": (_torus_points(_GRID16, 1.0, 1.0, 0.6), NotTotallyReal, "rho_J reaches"),
    "nan": (_with_nan(_torus_points(_GRID16, 1.0, 1.0, 0.1)), NotImmersed, "not finite"),
}


# (kinds, positions) of bad members in a 12-member family checked in blocks of
# 8: the middle of the first block, the second block, and two bad members
_BAD_FAMILIES = ([((kind,), (k,)) for kind in _BAD_MEMBERS for k in (3, 10)]
                 + [(("rho", "degenerate"), (3, 10)), (("degenerate", "volume"), (10, 11)),
                    (("volume", "nan"), (4, 5))])


@pytest.mark.parametrize("kinds, where", _BAD_FAMILIES)
def test_stacked_check_raises_what_the_member_loop_raises(kinds, where, monkeypatch):
    family = np.stack([_torus_points(_GRID16, 1.0, 1.0, a)
                       for a in np.linspace(0.05, 0.3, 12)])
    flat = ambient.flat_chart(2)
    # between the rho floors of the good members and of the "rho" member
    good = min(float(np.min(imm.is_totally_real(
        imm.Immersion(grid=_GRID16, chart=flat, points=p)).rho)) for p in family)
    bad = float(np.min(imm.is_totally_real(imm.Immersion(
        grid=_GRID16, chart=flat, points=_BAD_MEMBERS["rho"][0])).rho))
    assert bad < good
    monkeypatch.setattr(imm, "RHO_MIN", 0.5 * (good + bad))
    assert _family_errors(_GRID16, flat, family) == (None, None)
    for kind, k in zip(kinds, where):
        family[k] = _BAD_MEMBERS[kind][0]
    loop, blocks = _family_errors(_GRID16, flat, family)
    _, error, text = _BAD_MEMBERS[kinds[0]]
    assert loop is not None and loop[0] is error and text in loop[1]
    assert blocks == loop


def test_nan_node_fails_validation(flat2):
    im = imm.build_immersion(imm.GridTorus((32, 32)), flat2, "graph_perturbed_torus",
                             r1=1.0, r2=2.0, amplitude=0.2).im
    pts = im.points.copy()
    pts[7, 11, 2] = np.nan
    bad = imm.Immersion(grid=im.grid, chart=flat2, points=pts)
    with pytest.raises(NotImmersed, match="not finite"):
        imm.is_totally_real(bad)
    with pytest.raises(NotImmersed, match="not finite"):
        _check_stack(im.grid, flat2, np.moveaxis(np.stack([im.points, pts]), -1, 1))


def test_nan_node_on_a_curved_chart_fails_the_frame_check():
    # the chart kernel passes a NaN position on as NaN in g, so one member
    # and a stack both name the non-finite geometry, not the metric
    ball = ambient.complex_hyperbolic_ball()
    im = imm.build_immersion(_GRID16, ball, "product_torus", r1=0.3, r2=0.4).im
    pts = im.points.copy()
    pts[3, 5, 1] = np.nan
    with pytest.raises(NotImmersed, match="not finite"):
        imm.is_totally_real(imm.Immersion(grid=im.grid, chart=ball, points=pts))
    with pytest.raises(NotImmersed, match="not finite"):
        _check_stack(im.grid, ball, np.moveaxis(np.stack([im.points, pts]), -1, 1))


@pytest.mark.parametrize("bad", [{10: 0.99}, {3: 0.0, 10: 0.99}, {4: 0.99, 5: 0.0}])
def test_stacked_check_hands_domain_failures_to_the_loop(bad):
    # r2 = 0.99 leaves the ball (PointOutsideDomain for the whole stack);
    # r1 = 0 makes a member's frame degenerate inside the ball
    ball = ambient.complex_hyperbolic_ball()
    members = [(0.3, r2) for r2 in np.linspace(0.2, 0.4, 12)]
    for k, r in bad.items():
        members[k] = (0.3, r) if r > 0.5 else (0.0, 0.3)
    family = np.stack([_torus_points(_GRID16, r1, r2) for r1, r2 in members])
    loop, blocks = _family_errors(_GRID16, ball, family)
    assert loop is not None and blocks == loop

"""Flow tests: spectral continuation, guarded stepping, BVP, uniqueness."""

import math
import tracemalloc

import numpy as np
import pytest

from trgeo import _spectral, ambient, curve_lab as cl, geodesic_flow as gf
from trgeo import immersion as imm
from trgeo._spectral import evaluate_fourier, fourier_coefficients
from trgeo.errors import (AmplificationExceeded, BlowUpDetected, NotNested,
                          StepTooLarge, UnsupportedField, ValidationError)

from flow_oracle import flow_timestep_full_spectrum, perturbed_torus, wound_torus


@pytest.fixture
def circle():
    return imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                               "circle", r=1.0)


def curve_immersion(curve, M=1024):
    samples = cl.synthesize(curve, M=M)
    return imm.Immersion(grid=imm.GridTorus((M,)), chart=ambient.flat_chart(1),
                         points=np.stack([samples.real, samples.imag], axis=-1))


def test_spectral_circle_exact(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, [0.5])
    theta = circle.grid.thetas(0)
    z = flow.immersions[0].points[:, 0] + 1j * flow.immersions[0].points[:, 1]
    assert np.max(np.abs(z - math.exp(-0.5) * np.exp(1j * theta))) < 1e-13


def test_spectral_torus_componentwise():
    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0)
    flow = gf.flow_spectral(pt, imm.coordinate_field(grid, 0), [0.3])
    p = flow.immersions[0].points
    t1, t2 = grid.mesh()
    z1 = p[..., 0] + 1j * p[..., 2]
    z2 = p[..., 1] + 1j * p[..., 3]
    assert np.max(np.abs(z1 - math.exp(-0.3) * np.exp(1j * t1))) < 1e-13
    assert np.max(np.abs(z2 - 2.0 * np.exp(1j * t2))) < 1e-13


def test_spectral_group_property(circle):
    X = imm.coordinate_field(circle.grid, 0)
    two_leg = gf.flow_spectral(
        gf.flow_spectral(circle, X, [0.2]).immersions[0], X, [0.3])
    one_leg = gf.flow_spectral(circle, X, [0.5])
    gap = np.max(np.abs(two_leg.immersions[0].points
                        - one_leg.immersions[0].points))
    assert gap <= 1e-10


def test_spectral_time_reversal(circle):
    X = imm.coordinate_field(circle.grid, 0)
    fwd = gf.flow_spectral(circle, X, [0.2]).immersions[0]
    back = gf.flow_spectral(fwd, X, [-0.2]).immersions[0]
    assert np.max(np.abs(back.points - circle.points)) <= 1e-8


def test_spectral_rejects_general_field(circle):
    theta = circle.grid.thetas(0)
    X = imm.VectorFieldOnL(grid=circle.grid,
                           components=(1.0 + 0.3 * np.cos(theta))[None, :])
    with pytest.raises(UnsupportedField):
        gf.flow_spectral(circle, X, [0.1])


def test_spectral_rejects_nonflat_chart():
    pd = ambient.poincare_disk()
    hc = imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=0.5)
    with pytest.raises(UnsupportedField):
        gf.flow_spectral(hc, imm.coordinate_field(hc.grid, 0), [0.1])


def test_no_ray_direction_refused_any_positive_time():
    im = curve_immersion(cl.family_coefficients("no_ray", N=256))
    X = imm.coordinate_field(im.grid, 0)
    for t in (0.01, 0.05, 0.1):
        with pytest.raises(AmplificationExceeded):
            gf.flow_spectral(im, X, [t])


def test_ray_only_flows_inward_not_outward():
    im = curve_immersion(cl.family_coefficients("ray_only", N=256))
    X = imm.coordinate_field(im.grid, 0)
    flow = gf.flow_spectral(im, X, [0.05])
    assert flow.amplification < gf.AMP_MAX
    with pytest.raises(AmplificationExceeded):
        gf.flow_spectral(im, X, [-0.05])


def test_amplification_cap():
    # geometric negative tail with the full spectrum populated: amp = e^{|m| t}
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    coeffs[N - 1::-1] = 0.5 * 0.9 ** n
    im = curve_immersion(cl.FourierCurve(coeffs=coeffs))
    X = imm.coordinate_field(im.grid, 0)
    with pytest.raises(AmplificationExceeded):
        gf.flow_spectral(im, X, [0.2])   # e^{256 * 0.2} >> 1e6


def test_timestep_matches_spectral(circle):
    X = imm.coordinate_field(circle.grid, 0)
    gap = gf.uniqueness_compare(circle, X, 0.1)
    assert gap <= 1e-6


def test_uniqueness_ellipse_and_torus():
    ell = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                              "ellipse", a=2.0, b=1.0)
    assert gf.uniqueness_compare(ell, imm.coordinate_field(ell.grid, 0), 0.05) <= 1e-5
    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0)
    assert gf.uniqueness_compare(pt, imm.coordinate_field(grid, 0), 0.1) <= 1e-6


def test_timestep_matches_reparametrized_pipeline(circle):
    theta = circle.grid.thetas(0)

    def f(th):
        return 1.0 + 0.3 * np.cos(th)

    X = imm.VectorFieldOnL(grid=circle.grid, components=f(theta)[None, :])
    stepped = gf.flow_timestep(circle, X, 0.05, 5e-4)
    pipeline = gf.geodesic_family(circle, X, [0.05])
    rep = cl.reparametrize_by_field(f, M=64)
    z_step = stepped.immersions[-1].complex_samples()
    coeffs = fourier_coefficients(z_step)
    at_theta_s = evaluate_fourier(coeffs, rep["theta_of_s"])
    z_pipe = pipeline[0].complex_samples()
    assert np.max(np.abs(at_theta_s - z_pipe)) <= 1e-5


def test_axis_one_family_is_the_transposed_axis_zero_family():
    theta = perturbed_torus().grid.thetas(1)
    _check_axis_one_family(1.0 + 0.3 * np.cos(theta))


def test_axis_one_family_with_nyquist_content_is_accepted():
    # reparametrizing this profile leaves Nyquist coefficients of about 1e-8,
    # which the geodesic residual must treat as the continuation does
    theta = perturbed_torus().grid.thetas(1)
    _check_axis_one_family(1.0 + 0.3 * np.cos(theta) + 0.1 * np.sin(2.0 * theta))


def _check_axis_one_family(f):
    im = perturbed_torus()
    comp = np.zeros((2, 32, 32))
    comp[1] = f[None, :]
    Y1 = imm.VectorFieldOnL(grid=im.grid, components=comp)
    # the same surface with the grid axes swapped carries the field on axis 0
    imT = imm.Immersion(grid=im.grid, chart=im.chart,
                        points=np.swapaxes(im.points, 0, 1))
    Y0 = imm.VectorFieldOnL(grid=im.grid, components=np.swapaxes(comp[::-1], 1, 2))
    ts = [-0.1, 0.05, 0.1]
    fam1 = gf.geodesic_family(im, Y1, ts)
    fam0 = gf.geodesic_family(imT, Y0, ts)
    for a, b in zip(fam1, fam0):
        assert np.max(np.abs(a.points - np.swapaxes(b.points, 0, 1))) <= 1e-13
        # the family moves the torus (it is no identity map)
        assert np.max(np.abs(a.points - im.points)) >= 1e-3


def test_timestep_step_too_large(circle):
    X = imm.coordinate_field(circle.grid, 0)
    with pytest.raises(StepTooLarge):
        gf.flow_timestep(circle, X, 0.5, 0.25)


def criterion_9_curve():
    """a_1 = 1, a_{-n} = e^{-sqrt n}: smooth but not analytic, so stepping blows up."""
    N = 256
    n = np.arange(1, N + 1).astype(float)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    coeffs[N - 1::-1] = np.exp(-np.sqrt(n))
    return curve_immersion(cl.FourierCurve(coeffs=coeffs))


def test_blow_up_detected_before_t02():
    im = criterion_9_curve()
    X = imm.coordinate_field(im.grid, 0)
    with pytest.raises(BlowUpDetected) as err:
        gf.flow_timestep(im, X, 0.2, 5e-4)
    assert err.value.t_reached is not None
    assert err.value.t_reached < 0.2


def cosine_axis_field(grid, axis, base=1.0, amplitude=0.3):
    """The CLI's cosine_axis field (base + amplitude cos theta_axis) d/dtheta_axis."""
    profile = base + amplitude * np.cos(grid.thetas(axis))
    comp = np.zeros((grid.n,) + grid.sizes)
    comp[axis] = profile if grid.n == 1 else np.expand_dims(profile, axis=1 - axis)
    return imm.VectorFieldOnL(grid=grid, components=comp)


@pytest.mark.parametrize("case, axis", [("perturbed", 0), ("perturbed", 1),
                                        ("perturbed", "both"), ("wound", 0),
                                        ("wound", 1), ("ellipse", 0)])
def test_timestep_matches_full_spectrum_reference(case, axis):
    if case == "ellipse":
        im = imm.build_immersion(imm.GridTorus((256,)), ambient.flat_chart(1),
                                 "ellipse", a=2.0, b=1.0)
    else:
        im = perturbed_torus() if case == "perturbed" else wound_torus()
    if axis == "both":
        # both axes live, with profiles along different axes
        comp = (cosine_axis_field(im.grid, 0).components
                + cosine_axis_field(im.grid, 1, base=0.5, amplitude=0.2).components)
        X = imm.VectorFieldOnL(grid=im.grid, components=comp)
    else:
        X = cosine_axis_field(im.grid, axis)
    flow = gf.flow_timestep(im, X, 0.05, 2.5e-3)
    times, ref = flow_timestep_full_spectrum(im, X, 0.05, 2.5e-3)
    assert flow.times == times
    gap = max(float(np.max(np.abs(a.points - b))) for a, b in zip(flow.immersions, ref))
    assert gap <= 1e-13
    # the flow moves the points (it is no identity map)
    assert np.max(np.abs(flow.immersions[-1].points - im.points)) >= 1e-3


def test_timestep_blow_up_matches_full_spectrum_reference():
    im = criterion_9_curve()
    X = imm.coordinate_field(im.grid, 0)
    with pytest.raises(BlowUpDetected) as got:
        gf.flow_timestep(im, X, 0.2, 5e-4)
    with pytest.raises(BlowUpDetected) as ref:
        flow_timestep_full_spectrum(im, X, 0.2, 5e-4)
    assert got.value.t_reached == ref.value.t_reached
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("axis", [0, 1])
def test_timestep_differentiates_live_axes_only(axis, monkeypatch):
    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0)
    calls, validating = [], []
    derivative, validate = _spectral.spectral_derivative, gf.is_totally_real

    def recording(values, axis, order=1):
        if not validating:
            # the stepper's points are (2n,) + grid sizes: map to grid axes
            calls.append(axis % values.ndim - 1)
        return derivative(values, axis=axis, order=order)

    def final_check(im):
        validating.append(True)
        return validate(im)

    monkeypatch.setattr(_spectral, "spectral_derivative", recording)
    monkeypatch.setattr(gf, "is_totally_real", final_check)
    flow = gf.flow_timestep(pt, imm.coordinate_field(grid, axis), 0.01, 1e-3)
    # one derivative per RK4 stage, along the field's own axis only
    assert calls == [axis] * (4 * (len(flow.times) - 1))
    assert validating


def test_commutator_clean_flows(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, list(np.linspace(0.0, 0.1, 11)))
    assert gf.commutator_check(flow, X) < 1e-6

    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0)
    Xt = imm.coordinate_field(grid, 0)
    flow_t = gf.flow_spectral(pt, Xt, list(np.linspace(0.0, 0.1, 11)))
    assert gf.commutator_check(flow_t, Xt) < 1e-6


def test_commutator_detects_corruption(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, list(np.linspace(0.0, 0.1, 11)))
    theta = circle.grid.thetas(0)
    bad = flow.immersions[5].points.copy()
    bad[:, 0] += 1e-3 * np.cos(theta)
    flow.immersions[5] = imm.Immersion(grid=circle.grid,
                                       chart=circle.chart, points=bad)
    assert gf.commutator_check(flow, X) > 1e-4


def test_bvp_concentric_circles():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    assert res.converged
    assert abs(res.modulus - 0.5) <= 1e-10
    assert abs(res.curve.coefficient(1) - 1.0) <= 1e-10
    others = np.abs(np.delete(res.curve.coeffs, res.curve.N + 1))
    assert np.max(others) <= 1e-10


def test_bvp_joukowski_pair():
    c_out, c_in = 1.5, 1.1
    gamma0 = cl.curve_from_terms({1: c_out / 2, -1: 1 / (2 * c_out)}, N=32)
    gamma1 = cl.curve_from_terms({1: c_in / 2, -1: 1 / (2 * c_in)}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    assert res.converged
    assert abs(res.modulus - c_in / c_out) <= 1e-6
    assert res.outer_misfit <= 1e-8 and res.inner_misfit <= 1e-8
    assert abs(res.curve.coefficient(1) - 0.75) <= 1e-6
    assert abs(res.curve.coefficient(-1) - 1.0 / 3.0) <= 1e-6


def test_bvp_residual_monotone():
    gamma0 = cl.curve_from_terms({1: 1.0, 2: 0.05}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.45, -2: 0.02}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=12)
    hist = res.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-15 for i in range(len(hist) - 1))
    assert res.converged


def test_bvp_intermediate_curves_available():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    mid = cl.geodesic_evaluate(res.curve, 0.7)
    assert np.max(np.abs(np.abs(mid) - 0.7)) <= 1e-9


def joukowski(c, N=32):
    return cl.curve_from_terms({1: c / 2, -1: 1 / (2 * c)}, N=N)


def dense_bvp_jacobian(prob, x):
    """Full Jacobian of the annulus residual, angle columns included."""
    rho, a, beta, delta = prob.unpack(x)
    N, M, n_idx = prob.N, prob.M, prob.n_idx
    na = 2 * N + 1
    zo = np.exp(1j * prob.alphas)
    basis_out = zo[:, None] ** n_idx
    basis_in = (rho * zo)[:, None] ** n_idx
    dgin_drho = (basis_in * (n_idx / rho)) @ a
    db_out = -cl.evaluate_derivative(prob.gamma0, beta)
    db_in = -cl.evaluate_derivative(prob.gamma1, delta)
    J = np.zeros((4 * M + 1, 1 + 2 * na + 2 * M))
    J[2 * M:3 * M, 0] = dgin_drho.real
    J[3 * M:4 * M, 0] = dgin_drho.imag
    for rows, basis in ((slice(0, M), basis_out), (slice(2 * M, 3 * M), basis_in)):
        im_rows = slice(rows.start + M, rows.stop + M)
        J[rows, 1:1 + na] = basis.real
        J[im_rows, 1:1 + na] = basis.imag
        J[rows, 1 + na:1 + 2 * na] = -basis.imag
        J[im_rows, 1 + na:1 + 2 * na] = basis.real
    k = np.arange(M)
    J[k, 1 + 2 * na + k] = db_out.real
    J[M + k, 1 + 2 * na + k] = db_out.imag
    J[2 * M + k, 1 + 2 * na + M + k] = db_in.real
    J[3 * M + k, 1 + 2 * na + M + k] = db_in.imag
    J[4 * M, 1 + na + N + 1] = 1.0
    return J


@pytest.mark.parametrize("c_out,c_in,N", [(1.5, 1.1, 8), (1.6, 1.25, 16)])
def test_bvp_structured_step_matches_dense_lstsq(c_out, c_in, N):
    prob = gf._AnnulusProblem(joukowski(c_out), joukowski(c_in), N, 8 * N)
    x = prob.initial_guess()
    r = prob.residual(x)
    J = dense_bvp_jacobian(prob, x)
    assert np.linalg.matrix_rank(J) == J.shape[1]
    dense, *_ = np.linalg.lstsq(J, -r, rcond=None)
    step = prob.step(x, r)
    assert np.linalg.norm(step - dense) <= 1e-8 * np.linalg.norm(dense)


@pytest.mark.parametrize("c_in,N", [(1.25, 8), (1.25, 16), (1.25, 32),
                                    (1.25, 64), (1.03, 8), (1.05, 8),
                                    (1.08, 8)])
def test_bvp_joukowski_modulus_across_N(c_in, N):
    # one Laurent pair, so the modulus c_in / c_out is exact at every N
    c_out = 1.6
    res = gf.solve_bvp_annulus(joukowski(c_out), joukowski(c_in), N=N)
    assert res.converged
    assert abs(res.modulus - c_in / c_out) <= 1e-8


def test_bvp_needs_positive_degree():
    with pytest.raises(ValidationError, match="N"):
        gf.solve_bvp_annulus(joukowski(1.6), joukowski(1.25), N=0)


def test_bvp_not_nested():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    with pytest.raises(NotNested):
        gf.solve_bvp_annulus(gamma0, cl.curve_from_terms({1: 2.0}, N=32), N=8)
    with pytest.raises(NotNested):
        gf.solve_bvp_annulus(gamma0,
                             cl.curve_from_terms({1: 1.0, 0: 0.9}, N=32), N=8)


def test_flow_frames_stay_totally_real(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, [0.1, 0.5, 1.0])
    for f in flow.immersions:
        imm.is_totally_real(f)


def test_spectral_geodesic_residual_certified(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, [0.1, 0.3])
    assert flow.geodesic_residual is not None
    assert flow.geodesic_residual < 1e-8


def test_bvp_map_derivative_nonvanishing():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    assert res.min_map_derivative > 0.5


def test_commutator_on_timestep_flow(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_timestep(circle, X, 0.05, 1e-3)
    assert gf.commutator_check(flow, X) < 1e-5


def test_mode_growth_guard_skips_only_short_or_aliased_grids(circle, monkeypatch):
    # a 64-node circle is too short for the radius guard: it is skipped
    assert gf.mode_growth_guard(circle, 0, 1.0, 0.1) >= 1.0

    def broken(*args, **kwargs):
        raise RuntimeError("broken analysis")

    monkeypatch.setattr(cl, "fourier_analyze", broken)
    with pytest.raises(RuntimeError, match="broken analysis"):
        gf.mode_growth_guard(circle, 0, 1.0, 0.1)


# --- the spectral family in blocks -------------------------------------------------

def _product_torus_32():
    return imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                               "product_torus", r1=1.0, r2=2.0)


def test_flow_spectral_builds_frames_once_per_block(monkeypatch):
    pt = _product_torus_32()
    builds = []
    build = imm._frame_fields

    def counted(grid, chart, vs, pos):
        builds.append(pos.shape[:-1])
        return build(grid, chart, vs, pos)

    monkeypatch.setattr(imm, "_frame_fields", counted)
    ts = np.linspace(0.0, 0.1, 201)
    flow = gf.flow_spectral(pt, imm.coordinate_field(pt.grid, 0), ts)
    assert len(flow.immersions) == 201
    # 8192 nodes per block: 8 frames of 32 x 32, so ceil(201 / 8) builds
    assert len(builds) == math.ceil(201 / 8) == 26
    assert builds[0] == (8, 32, 32) and builds[-1] == (1, 32, 32)


def test_uniqueness_compare_does_not_hold_the_spectral_family():
    pt = _product_torus_32()
    X = imm.coordinate_field(pt.grid, 0)
    gap = gf.uniqueness_compare(pt, X, 0.1)      # warm caches outside the trace
    tracemalloc.start()
    try:
        assert gf.uniqueness_compare(pt, X, 0.1) == gap
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 13.80 MB when the 201 spectral frames were all continued and held before
    # the comparison (numpy 2.4, Python 3.11); 11.47 MB in blocks
    assert peak < 13.0e6


def test_nan_in_a_block_fails_the_residual_check(circle, monkeypatch):
    blocks = gf._continued_blocks

    def poisoned(im, axis, c, ts):
        for k, pts in enumerate(blocks(im, axis, c, ts)):
            if k == 1:
                pts[2, 0, 5] = np.nan
            yield pts

    monkeypatch.setattr(gf, "_continued_blocks", poisoned)
    ts = np.linspace(0.0, 0.2, 300)     # 128 frames of 64 nodes per block
    with pytest.raises(AmplificationExceeded, match="by nan"):
        gf.flow_spectral(circle, imm.coordinate_field(circle.grid, 0), ts)

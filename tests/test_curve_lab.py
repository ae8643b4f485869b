"""Curve lab tests: analysis, radii, classification, continuation, lengths."""

import math

import numpy as np
import pytest

from trgeo import curve_lab as cl
from trgeo.errors import (AliasingDetected, FieldNotPositive, NotArclength,
                          NotImmersed, OrientationError, OutsideAnnulus,
                          ValidationError)


def theta_grid(M):
    return 2.0 * np.pi * np.arange(M) / M


# --- analysis -------------------------------------------------------------

def test_analyze_circle():
    th = theta_grid(256)
    curve = cl.fourier_analyze(np.exp(1j * th), N=64)
    assert abs(curve.coefficient(1) - 1.0) < 1e-12
    others = np.delete(np.abs(curve.coeffs), curve.N + 1)
    assert np.max(others) < 1e-12


def test_analyze_ellipse_identity():
    # a cos + i b sin = ((a+b)/2) e^{i t} + ((a-b)/2) e^{-i t}
    a, b = 2.0, 1.0
    th = theta_grid(256)
    curve = cl.fourier_analyze(a * np.cos(th) + 1j * b * np.sin(th), N=64)
    assert abs(curve.coefficient(1) - 1.5) < 1e-12
    assert abs(curve.coefficient(-1) - 0.5) < 1e-12
    # direct quadrature oracle for a_1
    gamma = a * np.cos(th) + 1j * b * np.sin(th)
    a1 = np.mean(gamma * np.exp(-1j * th))
    assert abs(a1 - 1.5) < 1e-12


def test_analyze_power_tail_round_trip():
    N = 64
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n ** 2
    coeffs[N + 1] = 1.0           # keep the curve embedded / anticlockwise
    src = cl.FourierCurve(coeffs=coeffs)
    samples = cl.synthesize(src, M=4 * N)
    back = cl.fourier_analyze(samples, N=N)
    assert np.max(np.abs(back.coeffs - src.coeffs)) < 1e-12


def test_analyze_requires_power_of_two_oversampling():
    with pytest.raises(ValidationError):
        cl.fourier_analyze(np.exp(1j * theta_grid(100)), N=32)
    with pytest.raises(ValidationError):
        cl.fourier_analyze(np.exp(1j * theta_grid(64)), N=32)


def test_aliasing_detected():
    th = theta_grid(256)
    samples = np.exp(1j * th) + 0.05 * np.exp(90j * th)
    with pytest.raises(AliasingDetected):
        cl.fourier_analyze(samples, N=64)


def test_mirror_curve_rejected():
    th = theta_grid(256)
    with pytest.raises(OrientationError):
        cl.fourier_analyze(np.exp(-1j * th), N=64)


# --- radius estimation ------------------------------------------------------

def test_radii_geometric():
    # at N = 64 the window [32, 64] still sees the geometric tail
    N = 64
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 0.5 ** n
    est = cl.estimate_radii(cl.FourierCurve(coeffs=coeffs))
    assert abs(est.r_outer - 2.0) < 0.02
    assert est.r_inner == 0.0


def test_radii_power_law():
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n ** 2
    est = cl.estimate_radii(cl.FourierCurve(coeffs=coeffs))
    assert abs(est.r_outer - 1.0) <= 0.05


def test_radii_log_subgeometric():
    N = 256
    n = np.arange(1, N + 1).astype(float)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = np.exp(-np.log(n) ** 2)
    est = cl.estimate_radii(cl.FourierCurve(coeffs=coeffs))
    assert abs(est.r_outer - 1.0) <= 0.05


# --- classification -----------------------------------------------------------

def test_classify_unit_circle():
    assert cl.classify_direction(cl.curve_from_terms({1: 1.0}, N=64)).kind \
        == cl.GEODESIC_ANNULUS


@pytest.mark.parametrize("family,expected", [
    ("annulus", cl.GEODESIC_ANNULUS),
    ("ray_only", cl.RAY_ONLY),
    ("no_ray", cl.NO_RAY),
])
def test_classify_standard_families(family, expected):
    curve = cl.family_coefficients(family, N=256)
    assert cl.classify_direction(curve).kind == expected


def test_classify_divergent_tail_in_band_is_no_ray():
    # |a_n| ~ 1/n: radius 1 but no l^1 boundary convergence
    N = 256
    n = np.arange(1, N + 1).astype(float)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n
    coeffs[N - 1::-1] = 0.5 ** n
    cls = cl.classify_direction(cl.FourierCurve(coeffs=coeffs))
    assert cls.kind == cl.NO_RAY
    assert cls.ell1_exponent < 1.1


# --- continuation ----------------------------------------------------------------

def test_geodesic_evaluate_circle():
    u = cl.curve_from_terms({1: 1.0}, N=64)
    samples = cl.geodesic_evaluate(u, 0.5)
    assert np.max(np.abs(np.abs(samples) - 0.5)) < 1e-12


def test_geodesic_evaluate_ellipse_matches_laurent():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    r = 0.9
    samples = cl.geodesic_evaluate(ee, r)
    th = theta_grid(256)
    direct = 1.5 * r * np.exp(1j * th) + 0.5 / r * np.exp(-1j * th)
    assert np.max(np.abs(samples - direct)) < 1e-12


def test_geodesic_evaluate_r_one_is_identity():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    samples = cl.geodesic_evaluate(ee, 1.0)
    th = theta_grid(256)
    assert np.max(np.abs(samples - (1.5 * np.exp(1j * th) + 0.5 * np.exp(-1j * th)))) < 1e-10


def test_geodesic_evaluate_ray_boundary():
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n ** 2
    coeffs[N + 1] = 1.0
    curve = cl.FourierCurve(coeffs=coeffs)
    cl.geodesic_evaluate(curve, 0.99)
    with pytest.raises(OutsideAnnulus):
        cl.geodesic_evaluate(curve, 1.01)


# --- Abel means --------------------------------------------------------------------

def test_abel_circle():
    u = cl.curve_from_terms({1: 1.0}, N=64)
    assert abs(cl.abel_evaluate(u, 0.9, 0.0) - 0.9) < 1e-14


def test_abel_zeta_two_partial_sums():
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n ** 2
    curve = cl.FourierCurve(coeffs=coeffs)
    target = np.pi ** 2 / 6.0
    vals = [cl.abel_evaluate(curve, r, 0.0).real for r in (0.9, 0.99, 0.999)]
    gaps = [abs(v - target) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.011


def test_abel_ellipse_two_terms():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    val = cl.abel_evaluate(ee, 0.5, np.pi / 2)
    assert abs(val - 0.5j) < 1e-14


def test_abel_monotone_approach():
    # |abel(r_k) - gamma| decreasing for r_k = 1 - 2^{-k}, k = 3..10
    N = 64
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n ** 3
    coeffs[N + 1] = 1.0
    curve = cl.FourierCurve(coeffs=coeffs)
    gamma0 = cl.evaluate_at(curve, [0.7])[0]
    gaps = [abs(cl.abel_evaluate(curve, 1.0 - 2.0 ** (-k), 0.7) - gamma0)
            for k in range(3, 11)]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


# --- length profiles ------------------------------------------------------------------

def test_length_profile_circle():
    u = cl.curve_from_terms({1: 1.0}, N=64)
    ts = np.linspace(0.1, 1.0, 9)
    prof = cl.length_profile(u, np.exp(-ts))
    assert np.allclose(prof.values, 2.0 * np.pi * prof.radii, atol=1e-10)
    interior = prof.second_differences[~np.isnan(prof.second_differences)]
    assert np.all(interior > 0)


def test_ellipse_perimeter_elliptic_integral():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    per = cl.length_at_radius(ee, 1.0)
    tt = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    oracle = np.mean(np.sqrt(4.0 * np.sin(tt) ** 2 + np.cos(tt) ** 2)) * 2 * np.pi
    assert abs(per - oracle) < 1e-9
    assert abs(per - 9.68845) < 1e-4


def test_length_profile_cubic_convex_and_monotone():
    c = cl.curve_from_terms({1: 1.0, 3: 0.2}, N=64)
    radii = np.exp(-np.linspace(0.0, math.log(2.0), 11))
    prof = cl.length_profile(c, radii)
    interior = prof.second_differences[~np.isnan(prof.second_differences)]
    assert np.all(interior >= -1e-9 * np.max(prof.values))
    order = np.argsort(prof.radii)
    vals = prof.values[order]
    assert np.all(np.diff(vals) >= -1e-10)


def test_length_profile_outside_annulus():
    # slow geometric negative tail: inner radius visibly pinned near 0.99
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    coeffs[N - 1::-1] = 0.01 * 0.99 ** n
    curve = cl.FourierCurve(coeffs=coeffs)
    with pytest.raises(OutsideAnnulus):
        cl.length_profile(curve, [0.5])


# --- reparametrization -------------------------------------------------------------------

def test_reparametrize_constant_fields():
    rep = cl.reparametrize_by_field(lambda th: np.ones_like(th))
    assert abs(rep["R"] - 1.0) < 1e-12
    assert np.allclose(rep["theta_of_s"],
                       2 * np.pi * np.arange(256) / 256, atol=1e-10)
    rep2 = cl.reparametrize_by_field(lambda th: 2.0 * np.ones_like(th))
    assert abs(rep2["R"] - 0.5) < 1e-12
    s = 2 * np.pi * 0.5 * np.arange(256) / 256
    assert np.allclose(rep2["theta_of_s"], 2.0 * s, atol=1e-10)


def test_reparametrize_cosine_field():
    rep = cl.reparametrize_by_field(lambda th: 1.0 + 0.5 * np.cos(th))
    assert abs(rep["R"] - 1.0 / math.sqrt(0.75)) < 1e-10
    assert rep["closure_defect"] < 1e-8


@pytest.mark.parametrize("M", [32, 256])
@pytest.mark.parametrize("a", [0.3, 0.5])
def test_reparametrize_matches_closed_form(a, M):
    # theta' = 1 + a cos theta from theta(0) = 0 has the closed form
    # theta(s) = 2 atan(sqrt((1 + a)/(1 - a)) tan(sqrt(1 - a^2) s / 2))
    rep = cl.reparametrize_by_field(lambda th: 1.0 + a * np.cos(th), M=M)
    s = 2.0 * math.pi * rep["R"] * np.arange(M) / M
    half = np.sqrt(1.0 - a * a) * s / 2.0
    exact = np.unwrap(2.0 * np.arctan(math.sqrt((1.0 + a) / (1.0 - a)) * np.tan(half)))
    assert abs(rep["R"] - 1.0 / math.sqrt(1.0 - a * a)) < 1e-13
    assert np.max(np.abs(rep["theta_of_s"] - exact)) < 1e-13
    assert rep["closure_defect"] < 1e-13


def test_reparametrize_rejects_vanishing_field():
    with pytest.raises(FieldNotPositive):
        cl.reparametrize_by_field(lambda th: np.cos(th))


# --- second variation of length ----------------------------------------------------------

def test_second_variation_circle_constant():
    u = cl.curve_from_terms({1: 1.0}, N=64)
    res = cl.second_variation_length(u, np.ones(256))
    assert abs(res["analytic"] - 2 * np.pi) < 1e-10
    assert res["rel_err"] <= 1e-4


def test_second_variation_circle_cosine():
    u = cl.curve_from_terms({1: 1.0}, N=64)
    th = theta_grid(256)
    res = cl.second_variation_length(u, np.cos(th))
    assert abs(res["analytic"] - 2 * np.pi) < 1e-10
    assert res["rel_err"] <= 1e-4


def test_second_variation_ellipse():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    arc = cl.resample_arclength(ee)
    res = cl.second_variation_length(arc, np.ones(4 * arc.N))
    # oracle: int kappa^2 ds for the (2, 1) ellipse by direct quadrature
    a, b = 2.0, 1.0
    tt = np.linspace(0, 2 * np.pi, 16384, endpoint=False)
    kap = a * b / (a * a * np.sin(tt) ** 2 + b * b * np.cos(tt) ** 2) ** 1.5
    ds = np.sqrt(a * a * np.sin(tt) ** 2 + b * b * np.cos(tt) ** 2)
    oracle = np.mean(kap ** 2 * ds) * 2 * np.pi
    assert abs(res["analytic"] - oracle) < 1e-8
    assert res["rel_err"] <= 1e-4


def test_second_variation_requires_arclength():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    with pytest.raises(NotArclength):
        cl.second_variation_length(ee, np.ones(256))


def test_resample_arclength_rejects_vanishing_speed():
    # the segment 2 cos theta stops at both ends: its length has no inverse
    seg = cl.curve_from_terms({1: 1.0, -1: 1.0}, N=64)
    with pytest.raises(NotImmersed, match="speed"):
        cl.resample_arclength(seg)


def test_resample_arclength_constant_speed():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    arc = cl.resample_arclength(ee)
    M = 4 * arc.N
    samples = cl.evaluate_at(arc, theta_grid(M))
    from trgeo._spectral import spectral_derivative
    speed = np.abs(spectral_derivative(samples, axis=0))
    assert np.max(np.abs(speed - np.mean(speed))) < 1e-6 * np.mean(speed)


def test_round_trip_identity():
    rng = np.random.default_rng(11)
    N = 48
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    for k in range(2, 8):
        coeffs[N + k] = (rng.normal() + 1j * rng.normal()) * 0.02
        coeffs[N - k] = (rng.normal() + 1j * rng.normal()) * 0.02
    src = cl.FourierCurve(coeffs=coeffs)
    back = cl.fourier_analyze(cl.synthesize(src, M=256), N=N)
    assert np.max(np.abs(back.coeffs - src.coeffs)) <= 1e-12


def test_coefficient_file_round_trip(tmp_path):
    src = cl.curve_from_terms({1: 1.5, -1: 0.5, 3: 0.1}, N=64)
    path = tmp_path / "coeffs.json"
    cl.save_coefficients(src, path)
    back = cl.load_coefficients(path, N=64)
    assert np.max(np.abs(back.coeffs - src.coeffs)) == 0.0

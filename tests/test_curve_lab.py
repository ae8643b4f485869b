"""Curve lab tests: analysis, radii, classification, continuation, lengths."""

import cmath
import json
import math
import re

import numpy as np
import pytest

from trgeo import curve_lab as cl
from trgeo._spectral import richardson, rk4_step, spectral_derivative
from trgeo.errors import (AliasingDetected, NotArclength, NotImmersed, OrientationError,
                          OutsideAnnulus, ValidationError)


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

ABEL_TOL = 1e-12          # tail increment at which an Abel mean stops


def abel_evaluate(curve, r, theta):
    """Abel mean lim_N sum a_n r^{|n|} e^{i n theta} for 0 <= r < 1.

    Partial symmetric sums are accumulated until the tail increment drops
    below ABEL_TOL (always reached here: the stored series is finite).
    """
    if not 0.0 <= r < 1.0:
        raise ValidationError("Abel evaluation needs 0 <= r < 1")
    total = curve.coefficient(0)
    for n in range(1, curve.N + 1):
        inc = (curve.coefficient(n) * cmath.exp(1j * n * theta)
               + curve.coefficient(-n) * cmath.exp(-1j * n * theta)) * r ** n
        total += inc
        if abs(inc) < ABEL_TOL and r ** (n + 1) * _tail_bound(curve, n + 1) < ABEL_TOL:
            break
    return total


def _tail_bound(curve, start):
    mags = np.abs(curve.coeffs)
    N = curve.N
    hi = np.concatenate([mags[: N - start + 1][::-1], mags[N + start:]])
    return float(np.sum(hi)) if hi.size else 0.0


def test_abel_circle():
    u = cl.curve_from_terms({1: 1.0}, N=64)
    assert abs(abel_evaluate(u, 0.9, 0.0) - 0.9) < 1e-14


def test_abel_zeta_two_partial_sums():
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1:] = 1.0 / n ** 2
    curve = cl.FourierCurve(coeffs=coeffs)
    target = np.pi ** 2 / 6.0
    vals = [abel_evaluate(curve, r, 0.0).real for r in (0.9, 0.99, 0.999)]
    gaps = [abs(v - target) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.011


def test_abel_ellipse_two_terms():
    ee = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    val = abel_evaluate(ee, 0.5, np.pi / 2)
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
    gaps = [abs(abel_evaluate(curve, 1.0 - 2.0 ** (-k), 0.7) - gamma0)
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


def _second_variation_fd_per_flow(curve, f):
    """The finite-difference side of second_variation_length, one RK4 flow
    per target time on a 1-D array, as the four flows were once taken."""
    M = 4 * curve.N
    samples = cl.evaluate_at(curve, theta_grid(M))
    speed = np.abs(spectral_derivative(samples, axis=0))
    fs = f / float(np.mean(speed))

    def flow_length(t_target, n_steps=16):
        z = samples
        h = t_target / n_steps
        for _ in range(n_steps):
            z = rk4_step(lambda w: 1j * fs * spectral_derivative(w, axis=0), z, h)
        return float(np.mean(np.abs(spectral_derivative(z, axis=0)))) * 2.0 * math.pi

    l0 = float(np.mean(speed)) * 2.0 * math.pi
    return richardson(lambda e: (flow_length(e) - 2.0 * l0 + flow_length(-e)) / e ** 2,
                      cl.SECONDVAR_EPS)


@pytest.mark.parametrize("mode, amplitude", [(1, 0.0), (1, 0.3), (2, 0.25)])
def test_second_variation_batched_flows_equal_the_per_flow_loop(mode, amplitude):
    arc = cl.resample_arclength(cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64))
    f = 1.0 + amplitude * np.cos(mode * theta_grid(4 * arc.N))
    # each flow is a contiguous row of one array: the same arithmetic, bit for bit
    assert cl.second_variation_length(arc, f)["fd"] == _second_variation_fd_per_flow(arc, f)


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


@pytest.mark.parametrize("mode", [1.5, True, -0.5])
def test_coefficient_file_refuses_a_mode_that_is_not_an_integer(tmp_path, mode):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([[1, 1.0, 0.0], [mode, 0.3, 0.0]]))
    with pytest.raises(ValueError, match=re.escape(f"entry 1 ([{mode!r}, 0.3, 0.0])")):
        cl.load_coefficients(path)
    # an integral float names an integer mode, as in fourier_curve's coefficients
    path.write_text(json.dumps([[1, 1.0, 0.0], [-1.0, 0.3, 0.0]]))
    assert cl.load_coefficients(path).coefficient(-1) == 0.3


@pytest.mark.parametrize("mode", [cl.MAX_MODE + 1, -cl.MAX_MODE - 1, 1e9, 1e300])
def test_coefficient_file_refuses_a_mode_past_max_mode_before_sizing(tmp_path, monkeypatch,
                                                                      mode):
    # without N the largest mode sizes the 2N + 1 coefficients: 1e9 would
    # take 32 GB, so the mode is refused before the curve is made
    def unreachable(terms, N=128):
        raise AssertionError(f"a curve of N = {N} was made")

    monkeypatch.setattr(cl, "curve_from_terms", unreachable)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([[1, 1.0, 0.0], [mode, 0.3, 0.0]]))
    with pytest.raises(ValueError, match=re.escape(
            f"entry 1 ([{mode!r}, 0.3, 0.0]): the mode {mode!r} is outside "
            f"[-{cl.MAX_MODE}, {cl.MAX_MODE}]")):
        cl.load_coefficients(path)


def test_coefficient_file_bound_admits_max_mode(tmp_path):
    # |n| = MAX_MODE passes the bound; with N = 64 the curve then refuses it
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([[1, 1.0, 0.0], [-cl.MAX_MODE, 0.3, 0.0]]))
    with pytest.raises(ValidationError, match=f"index {-cl.MAX_MODE} outside"):
        cl.load_coefficients(path, N=64)

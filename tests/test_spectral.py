"""Shared numerical primitives: FFT derivatives, off-grid Fourier evaluation,
RK4 and Richardson."""

import numpy as np

from trgeo import curve_lab as cl
import pytest

from trgeo._spectral import (evaluate_fourier, modes, richardson, rk4_step,
                              spectral_derivative)


def direct_sum(coeffs, *thetas):
    """Reference: sum of coeffs[a, b, ...] e^{i (m_a t1 + m_b t2)}, point by point."""
    ndim = len(thetas)
    ms = [modes(n) for n in coeffs.shape[:ndim]]
    out = []
    for point in zip(*(np.ravel(t) for t in thetas)):
        total = np.zeros(coeffs.shape[ndim:], dtype=complex)
        for idx in np.ndindex(*coeffs.shape[:ndim]):
            phase = sum(m[i] * t for m, i, t in zip(ms, idx, point))
            total = total + coeffs[idx] * np.exp(1j * phase)
        out.append(total)
    return np.array(out).reshape(np.shape(thetas[0]) + coeffs.shape[ndim:])


def test_evaluate_fourier_1d_nodes_and_off_grid():
    rng = np.random.default_rng(0)
    n = 32
    samples = rng.normal(size=(n, 3))
    coeffs = np.fft.fft(samples, axis=0) / n
    nodes = 2.0 * np.pi * np.arange(n) / n
    np.testing.assert_allclose(evaluate_fourier(coeffs, nodes), samples,
                               rtol=0, atol=1e-13)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(4, 5))
    got = evaluate_fourier(coeffs, theta)
    assert got.shape == (4, 5, 3)
    np.testing.assert_allclose(got, direct_sum(coeffs, theta), rtol=0, atol=1e-13)


def test_evaluate_fourier_2d_with_trailing_axis():
    rng = np.random.default_rng(1)
    n1, n2 = 16, 8
    samples = rng.normal(size=(n1, n2, 4))
    coeffs = np.fft.fftn(samples, axes=(0, 1)) / (n1 * n2)
    t1, t2 = np.meshgrid(2.0 * np.pi * np.arange(n1) / n1,
                         2.0 * np.pi * np.arange(n2) / n2, indexing="ij")
    np.testing.assert_allclose(evaluate_fourier(coeffs, t1, t2), samples,
                               rtol=0, atol=1e-13)
    p1 = rng.uniform(0.0, 2.0 * np.pi, size=40)
    p2 = rng.uniform(0.0, 2.0 * np.pi, size=40)
    got = evaluate_fourier(coeffs, p1, p2)
    assert got.shape == (40, 4)
    np.testing.assert_allclose(got, direct_sum(coeffs, p1, p2), rtol=0, atol=1e-13)


def test_evaluate_fourier_odd_size():
    rng = np.random.default_rng(3)
    n = 9
    coeffs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    theta = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, size=30)
    np.testing.assert_allclose(evaluate_fourier(coeffs, theta),
                               direct_sum(coeffs, theta), rtol=0, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("axis", [0, 1])
def test_real_spectral_derivative_matches_complex_path(order, axis):
    # cos(8 t1) and cos(16 t2) are the Nyquist modes of the two axes: their
    # odd derivatives vanish at the nodes, their even ones are kept
    n1, n2 = 16, 32
    t1, t2 = np.meshgrid(2.0 * np.pi * np.arange(n1) / n1,
                         2.0 * np.pi * np.arange(n2) / n2, indexing="ij")
    t, m, sign, nyq = ((t1, 1, -1.0, 8), (t2, 2, 1.0, 16))[axis]
    values = np.stack([np.sin(t1 + 2 * t2), np.cos(nyq * t), np.cos(t1 - t2)], axis=-1)
    if order == 1:
        exact = np.stack([m * np.cos(t1 + 2 * t2), np.zeros_like(t),
                          sign * np.sin(t1 - t2)], axis=-1)
    else:
        exact = np.stack([-m * m * np.sin(t1 + 2 * t2), -nyq ** 2 * np.cos(nyq * t),
                          -np.cos(t1 - t2)], axis=-1)
    real = spectral_derivative(values, axis=axis, order=order)
    via_complex = spectral_derivative(values.astype(complex), axis=axis, order=order)
    assert real.dtype == np.float64 and real.shape == values.shape
    np.testing.assert_allclose(real, via_complex.real, rtol=0, atol=1e-13)
    assert np.max(np.abs(via_complex.imag)) <= 1e-13
    np.testing.assert_allclose(real, exact, rtol=0, atol=1e-12)


def test_evaluate_at_matches_laurent_sum():
    rng = np.random.default_rng(2)
    N = 32
    coeffs = (rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)) / (2 * N + 1)
    curve = cl.FourierCurve(coeffs=coeffs)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=25)
    n = np.arange(-N, N + 1)
    laurent = np.array([np.sum(coeffs * np.exp(1j * n * t)) for t in theta])
    derivative = np.array([np.sum(1j * n * coeffs * np.exp(1j * n * t)) for t in theta])
    np.testing.assert_allclose(cl.evaluate_at(curve, theta), laurent,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(cl.evaluate_derivative(curve, theta), derivative,
                               rtol=0, atol=1e-12)


def test_rk4_step_fourth_order():
    def error(n_steps):
        y, h = 1.0 + 0.0j, 1.0 / n_steps
        for _ in range(n_steps):
            y = rk4_step(lambda v: 1j * v, y, h)
        return abs(y - np.exp(1j))

    ratio = error(10) / error(20)
    assert 15.0 < ratio < 17.0


def test_richardson_exact_on_quadratic_model():
    calls = []

    def estimate(h):
        calls.append(h)
        return 1.5 + 2.0 * h ** 2

    assert richardson(estimate, 0.5) == 1.5
    assert sorted(calls) == [0.25, 0.5]

"""Shared numerical primitives: FFT derivatives, off-grid Fourier evaluation,
the inversion of cumulative integrals, RK4 and Richardson."""

import numpy as np

from trgeo import curve_lab as cl
import pytest

from trgeo._spectral import (_derivative_multiplier, evaluate_fourier,
                              invert_cumulative, modes, richardson, rk4_step,
                              spectral_derivative)


def direct_sum(coeffs, theta):
    """Reference: sum of coeffs[a, ...] e^{i m_a theta}, point by point."""
    m = modes(coeffs.shape[0])
    out = []
    for t in np.ravel(theta):
        total = np.zeros(coeffs.shape[1:], dtype=complex)
        for a in range(coeffs.shape[0]):
            total = total + coeffs[a] * np.exp(1j * m[a] * t)
        out.append(total)
    return np.array(out).reshape(np.shape(theta) + coeffs.shape[1:])


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


def untruncated_inverse(weight, fractions, iterations=30):
    """Reference: Newton from the uniform guess on the antiderivative of every
    mode of the samples, evaluated by evaluate_fourier."""
    n = weight.size
    c = np.fft.fft(weight) / n
    m = modes(n)
    anti = np.zeros_like(c)
    anti[1:] = c[1:] / (1j * m[1:])
    columns = np.stack([anti, c], axis=1)
    target = 2.0 * np.pi * c[0].real * fractions
    theta = 2.0 * np.pi * fractions
    for _ in range(iterations):
        wave, rate = evaluate_fourier(columns, theta).T
        length = c[0].real * theta + (wave - anti.sum()).real
        theta = theta - (length - target) / rate.real
    assert np.max(np.abs(length - target)) < 1e-13 * target[-1]
    return theta


def test_invert_cumulative_matches_untruncated_inversion():
    # |gamma'| of the (2, 1) ellipse on the 8N grid of resample_arclength,
    # against the same speed on 16384 angles with no modes cut
    curve = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=64)
    fractions = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 64))

    def speed(n):
        return np.abs(cl.evaluate_derivative(curve, 2.0 * np.pi * np.arange(n) / n))

    theta, total = invert_cumulative(speed(512), fractions)
    reference = untruncated_inverse(speed(16384), fractions)
    assert np.max(np.abs(theta - reference)) < 1e-14
    assert abs(total - 2.0 * np.pi * np.mean(speed(16384))) < 1e-13


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


def uncached_derivative(values, axis, order=1):
    """Reference: spectral_derivative with the multiplier built on every call."""
    n = values.shape[axis]
    real = np.isrealobj(values)
    m = np.arange(n // 2 + 1) if real else modes(n)
    mult = (1j * m) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = m.size
    if real:
        return np.fft.irfft(np.fft.rfft(values, axis=axis) * mult.reshape(shape),
                            n=n, axis=axis)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)


@pytest.mark.parametrize("n", [15, 16, 32])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_cached_multiplier_gives_the_uncached_derivative_bitwise(n, order):
    rng = np.random.default_rng(n + order)
    real = rng.normal(size=(4, n, n))
    for values in (real, real + 1j * rng.normal(size=real.shape)):
        for axis in (1, 2, -1):
            assert np.array_equal(spectral_derivative(values, axis, order),
                                  uncached_derivative(values, axis, order))
    # the multiplier is shared between calls, so nobody may write to it
    shared = _derivative_multiplier(n, order, True)
    assert shared is _derivative_multiplier(n, order, True)
    assert not shared.flags.writeable

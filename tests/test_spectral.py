"""Shared numerical primitives: FFT derivatives, off-grid Fourier evaluation,
the inversion of cumulative integrals, RK4 and Richardson."""

import math
import tracemalloc

import numpy as np

from trgeo import _spectral
from trgeo import curve_lab as cl
import pytest

from trgeo._spectral import (_derivative_multiplier, band_basis, derivative_matrix,
                              evaluate_fourier, invert_cumulative, modes, richardson,
                              rk4_step, spectral_derivative, synthesize)
from trgeo.geodesic_flow import _MATRIX_NODES


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


def one_product(coeffs, theta):
    """Reference: evaluate_fourier as one product of all the phases at once."""
    theta = np.asarray(theta, dtype=float)
    n = coeffs.shape[0]
    half = np.exp(1j * theta.reshape(-1)[:, None] * np.arange(n // 2 + 1))
    phases = np.empty((half.shape[0], n), dtype=complex)
    phases[:, :(n + 1) // 2] = half[:, :(n + 1) // 2]
    np.conjugate(half[:, n // 2:0:-1], out=phases[:, (n + 1) // 2:])
    out = phases @ coeffs.reshape(n, -1)
    return out.reshape(theta.shape + coeffs.shape[1:])


@pytest.mark.parametrize("n, trailing, sizes", [
    (129, (), (1, 2, 7, 301, (7, 43))),
    (33, (2,), (1, 2, 7, 301, (7, 43))),
    (129, (2,), (1, 2, 7, 250, (7, 9))),
    (15, (4, 32), (1, 2, 7, 34, (3, 5))),
])
def test_chunked_evaluate_fourier_is_the_one_product_bitwise(monkeypatch, n, trailing, sizes):
    rng = np.random.default_rng(n + len(trailing))
    coeffs = rng.normal(size=(n,) + trailing) + 1j * rng.normal(size=(n,) + trailing)
    # angles as one list and as a (k, m) array; 7 and 301 points leave a
    # remainder of one point after chunks of 3 and 10 points
    thetas = [rng.uniform(-1.0, 7.0, size=size) for size in sizes]
    # OpenBLAS runs a product of more multiply-adds than this on several
    # threads, whose sums differ in the last bit from one thread's; the CLI
    # runs BLAS on one thread, and these products stay on one in any process
    assert all(theta.size * coeffs.size <= 2 ** 16 for theta in thetas)
    for points in (3, 10, 300):
        monkeypatch.setattr(_spectral, "_PHASE_ENTRIES", points * n)
        for theta in thetas:
            got = evaluate_fourier(coeffs, theta)
            assert got.shape == np.shape(theta) + trailing
            assert np.array_equal(got, one_product(coeffs, theta))
            # real coefficients are products of complex phases too
            assert np.array_equal(evaluate_fourier(coeffs.real, theta),
                                  one_product(coeffs.real, theta))


def test_evaluate_fourier_memory_does_not_grow_with_the_points():
    # resample_arclength's speed at N = 1024: 8N angles against 2N + 1 modes,
    # whose phases as one matrix take 268 MB
    N = 1024
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    theta = 2.0 * np.pi * np.arange(8 * N) / (8 * N)
    tracemalloc.start()
    try:
        evaluate_fourier(coeffs, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk: its phases, their half and its temporaries, 8 MB each at most
    assert peak < 4 * 16 * _spectral._PHASE_ENTRIES


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


def inline_inverse(weight, fractions):
    """Reference: invert_cumulative with its own phase matrix of the half
    spectrum at each Newton step, the evaluator it had before it called
    evaluate_fourier."""
    n = weight.size
    spec = np.fft.rfft(weight) / n
    spec[1:(n + 1) // 2] *= 2.0
    spec = spec[:np.flatnonzero(np.abs(spec) > np.finfo(float).eps * np.max(weight))[-1] + 1]
    m = np.arange(spec.size)
    anti = np.concatenate(([0.0], spec[1:] / (1j * m[1:])))
    anti[0] = -anti.sum().real
    columns = np.stack([anti, spec], axis=1)
    total = 2.0 * math.pi * spec[0].real
    targets = total * np.asarray(fractions, dtype=float)
    cumulative = np.concatenate(([0.0], np.cumsum(weight))) * (2.0 * math.pi / n)
    theta = np.interp(targets, cumulative, np.linspace(0.0, 2.0 * math.pi, n + 1))
    last = math.inf
    while True:
        wave, rate = (np.exp(1j * np.multiply.outer(theta, m)) @ columns).real.T
        step = (spec[0].real * theta + wave - targets) / rate
        theta, size = theta - step, np.max(np.abs(step))
        if not size < last:
            return theta, total
        last = size


def test_invert_cumulative_is_the_inline_evaluator_bitwise():
    # the (2, 1) ellipse's speed on the 8N grid of resample_arclength, and
    # the 1/f probe of geodesic_flow._constant_speed for f = 1 + 0.3 cos 2 theta;
    # N = 32 keeps each Newton product (256 angles, 55 modes kept) on one
    # BLAS thread, as in the chunked test above
    curve = cl.curve_from_terms({1: 1.5, -1: 0.5}, N=32)
    speed = np.abs(cl.evaluate_derivative(curve, 2.0 * np.pi * np.arange(256) / 256))
    probe = 1.0 / (1.0 + 0.3 * np.cos(2.0 * np.linspace(0.0, 2.0 * np.pi, 4096,
                                                          endpoint=False)))
    for weight, size in ((speed, 256), (probe, 64)):
        fractions = np.arange(size) / size
        theta, total = invert_cumulative(weight, fractions)
        want_theta, want_total = inline_inverse(weight, fractions)
        assert np.array_equal(theta, want_theta) and total == want_total


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


def test_derivative_matrix_is_spectral_derivative_up_to_the_cutoff():
    rng = np.random.default_rng(7)
    for n in range(2, _MATRIX_NODES + 1):
        D = derivative_matrix(n)
        real = rng.normal(size=(n, 3))
        for values in (real, real + 1j * rng.normal(size=real.shape)):
            # white noise up to the Nyquist mode: derivatives of size about n
            np.testing.assert_allclose(D @ values, spectral_derivative(values, axis=0),
                                       rtol=0, atol=1e-14 * n * np.max(np.abs(values)))
    # shared by every caller of the same size, so nobody may write to it
    assert derivative_matrix(32) is derivative_matrix(32)
    assert not derivative_matrix(32).flags.writeable


# every GridTorus size a band basis serves: powers of two from 16 to _MATRIX_NODES
_SHORT_SIZES = [2 ** k for k in range(4, _MATRIX_NODES.bit_length())]


def _rfft_filter(values, cutoffs):
    """values with the modes |m_k| > cutoff_k zeroed along each leading axis."""
    axes = tuple(range(len(cutoffs)))
    spectrum = np.fft.rfftn(values, axes=axes)
    for k, cut in enumerate(cutoffs):
        m = np.abs(modes(values.shape[k])) if k < len(cutoffs) - 1 \
            else np.arange(spectrum.shape[k])
        shape = [1] * values.ndim
        shape[k] = m.size
        spectrum *= (m <= cut).reshape(shape)
    return np.fft.irfftn(spectrum, s=values.shape[:len(cutoffs)], axes=axes)


def test_band_basis_filter_is_the_rfft_filter_on_every_short_grid():
    rng = np.random.default_rng(11)
    assert _SHORT_SIZES == [16, 32, 64, 128]
    for n in _SHORT_SIZES:
        # the 2/3 cutoff of the stepper and half of it
        for cut in (int(2.0 / 3.0 * (n // 2)), int(2.0 / 3.0 * (n // 2)) // 2):
            B = band_basis(n, cut)
            values = rng.normal(size=(n, 3))
            np.testing.assert_allclose(B @ (B.T @ values), _rfft_filter(values, [cut]),
                                       rtol=0, atol=1e-14 * np.max(np.abs(values)))
    for n0 in _SHORT_SIZES:
        for n1 in _SHORT_SIZES:
            cuts = [int(2.0 / 3.0 * (n0 // 2)), int(2.0 / 3.0 * (n1 // 2))]
            B0, B1 = band_basis(n0, cuts[0]), band_basis(n1, cuts[1])
            values = rng.normal(size=(n0, n1))
            # the tensor product: one filter per axis
            both = B0 @ (B0.T @ values @ B1) @ B1.T
            np.testing.assert_allclose(both, _rfft_filter(values, cuts),
                                       rtol=0, atol=1e-14 * np.max(np.abs(values)))


def test_band_basis_is_an_orthonormal_basis_of_the_band():
    for n in _SHORT_SIZES:
        cut = int(2.0 / 3.0 * (n // 2))
        B = band_basis(n, cut)
        assert B.shape == (n, 2 * cut + 1)
        np.testing.assert_allclose(B.T @ B, np.eye(2 * cut + 1), rtol=0, atol=1e-14)
        # it spans the band: B B^T is the FFT filter of the band
        np.testing.assert_allclose(B @ B.T, _rfft_filter(np.eye(n), [cut]), rtol=0, atol=1e-14)
    assert band_basis(32, 10) is band_basis(32, 10)
    assert not band_basis(32, 10).flags.writeable


@pytest.mark.parametrize("size", [16, 64, 1024])
def test_synthesize_is_the_forward_normed_inverse_fft(size):
    # ifft(spectrum) * size: the same bits as numpy's norm="forward" on a
    # power-of-two grid, negative modes taken modulo size
    rng = np.random.default_rng(size)
    n = rng.permutation(np.arange(-(size // 2) + 1, size // 2))[:size // 4]
    a = rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)
    spectrum = np.zeros(size, dtype=complex)
    spectrum[n] = a
    assert np.array_equal(synthesize(n, a, size), np.fft.ifft(spectrum, norm="forward"))

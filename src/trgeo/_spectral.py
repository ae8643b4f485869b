"""Numerical primitives shared by the geometry modules and their oracles.

All periodic data lives on uniform grids over [0, 2pi)^n. Derivatives are
spectral (multiplication by i*m in Fourier space); for even grid sizes the
Nyquist mode is dropped from odd-order derivatives, the standard choice for
real data. Quadrature of periodic integrands is the node sum times the cell
area, accumulated with math.fsum in fixed order so results are deterministic.

Besides the FFT helpers the module holds the building blocks of the
oracles: the off-grid Fourier evaluator (`evaluate_fourier`, one array of
angles for the first axis of the coefficients, the other axes riding
along), the inverse of theta -> int_0^theta w for w > 0 (`invert_cumulative`),
one RK4 step (`rk4_step`) and one Richardson level (`richardson`). Every
integrator, inversion and extrapolation in the package goes through these.
"""

import functools
import math

import numpy as np


def modes(n):
    """Integer Fourier modes in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n)


def spectral_derivative(values, axis, order=1):
    """Differentiate periodic samples along one grid axis.

    Works on real or complex arrays of any shape; the other axes (e.g.
    ambient components) ride along untouched. Real input goes through the
    half spectrum (rfft/irfft) with the same Nyquist rule.
    """
    n = values.shape[axis]
    real = np.isrealobj(values)
    mult = _derivative_multiplier(n, order, real)
    shape = [1] * values.ndim
    shape[axis] = mult.size
    mult = mult.reshape(shape)
    if real:
        spectrum = np.fft.rfft(values, axis=axis)
        spectrum *= mult
        return np.fft.irfft(spectrum, n=n, axis=axis)
    spectrum = np.fft.fft(values, axis=axis)
    spectrum *= mult
    return np.fft.ifft(spectrum, axis=axis)


@functools.lru_cache(maxsize=64)
def _derivative_multiplier(n, order, real):
    """(i m)^order over the modes of n samples (the half spectrum when real).

    The Nyquist mode of an even grid is zero for odd orders. The array is
    shared by every call with the same (n, order, real), so it is read-only.
    """
    m = np.arange(n // 2 + 1) if real else modes(n)
    mult = (1j * m) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    mult.flags.writeable = False
    return mult


def fourier_coefficients(samples):
    """Coefficients c_m along axis 0: samples(theta) = sum c_m e^{i m theta}."""
    return np.fft.fft(samples, axis=0) / samples.shape[0]


def evaluate_fourier(coeffs, theta):
    """Evaluate a Fourier series (FFT-ordered coeffs) at arbitrary angles.

    coeffs holds the modes along its first axis and may carry trailing axes;
    the result has shape theta.shape + coeffs.shape[1:]. One matrix product
    of the phases e^{i m theta} with the coefficients, O(points * coeffs.size).
    """
    theta = np.asarray(theta, dtype=float)
    n = coeffs.shape[0]
    # e^{i m theta} for m = 0..n//2 only; e^{-i m theta} is its conjugate
    half = np.exp(1j * theta.reshape(-1)[:, None] * np.arange(n // 2 + 1))
    phases = np.empty((half.shape[0], n), dtype=complex)
    phases[:, :(n + 1) // 2] = half[:, :(n + 1) // 2]
    np.conjugate(half[:, n // 2:0:-1], out=phases[:, (n + 1) // 2:])
    out = phases @ coeffs.reshape(n, -1)
    return out.reshape(theta.shape + coeffs.shape[1:])


def invert_cumulative(weight, fractions):
    """(theta, total): int_0^theta w = fractions * total, total = int_0^2pi w.

    weight is an array sampling a periodic w > 0 on the uniform grid of
    [0, 2pi). Its half spectrum, cut after the last mode above the samples'
    round-off (eps * max w), is integrated mode by mode. Newton on that
    antiderivative starts from the interpolated cumulative node sum and
    stops once its largest step no longer shrinks.
    """
    n = weight.size
    spec = np.fft.rfft(weight) / n
    spec[1:(n + 1) // 2] *= 2.0        # w = Re sum_{m >= 0} spec_m e^{i m theta}
    spec = spec[:np.flatnonzero(np.abs(spec) > np.finfo(float).eps * np.max(weight))[-1] + 1]
    m = np.arange(spec.size)
    anti = np.concatenate(([0.0], spec[1:] / (1j * m[1:])))
    anti[0] = -anti.sum().real         # int_0^theta w = spec_0 theta + Re sum anti_m e^{i m theta}
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


def rk4_step(rhs, y, h):
    """One classical Runge-Kutta step of y' = rhs(y) with step h."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0


def richardson(estimate, h):
    """One Richardson level for an O(h^2) estimate: (4 f(h/2) - f(h)) / 3."""
    return (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0


def periodic_total(density, cell):
    """Deterministic quadrature: fsum of all nodes (C order) times cell area."""
    return math.fsum(np.asarray(density, dtype=float).ravel(order="C")) * cell


def low_mode_field(rng, shape):
    """Random smooth periodic field of the Fourier modes |m_k| <= 3, max |f| = 1."""
    if len(shape) == 1:
        theta = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
        f = np.zeros(shape[0])
        for m in range(1, 4):
            a, b = rng.normal(size=2)
            f += a * np.cos(m * theta) + b * np.sin(m * theta)
    else:
        t1 = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
        t2 = 2.0 * np.pi * np.arange(shape[1]) / shape[1]
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        f = np.zeros(shape)
        for m1 in range(-3, 4):
            for m2 in range(-3, 4):
                if m1 == 0 and m2 == 0:
                    continue
                a, b = rng.normal(size=2)
                f += a * np.cos(m1 * T1 + m2 * T2) + b * np.sin(m1 * T1 + m2 * T2)
    return f / np.max(np.abs(f))

"""Numerical primitives shared by the geometry modules and their oracles.

All periodic data lives on uniform grids over [0, 2pi)^n. Derivatives are
spectral (multiplication by i*m in Fourier space); for even grid sizes the
Nyquist mode is dropped from odd-order derivatives, the standard choice for
real data. Quadrature of periodic integrands is the node sum times the cell
area, accumulated with math.fsum in fixed order so results are deterministic.

Besides the FFT helpers the module holds the three building blocks of the
oracles: the off-grid Fourier evaluator (`evaluate_fourier`, any number of
grid axes), one classical RK4 step (`rk4_step`) and one Richardson level for
O(h^2) estimates (`richardson`). Every integrator and extrapolation in the
package goes through these.
"""

import math

import numpy as np


def modes(n):
    """Integer Fourier modes in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n)


def spectral_derivative(values, axis, order=1):
    """Differentiate periodic samples along one grid axis.

    Works on real or complex arrays of any shape; extra trailing axes
    (e.g. ambient coordinates) ride along untouched. Real input goes through
    the half spectrum (rfft/irfft) with the same Nyquist rule.
    """
    n = values.shape[axis]
    real = np.isrealobj(values)
    m = np.arange(n // 2 + 1) if real else modes(n)
    mult = (1j * m) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = m.size
    mult = mult.reshape(shape)
    if real:
        return np.fft.irfft(np.fft.rfft(values, axis=axis) * mult, n=n, axis=axis)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult, axis=axis)


def fourier_coefficients(samples, axis=0):
    """FFT coefficients normalised so samples(theta) = sum c_m e^{i m theta}."""
    n = samples.shape[axis]
    return np.fft.fft(samples, axis=axis) / n


def evaluate_fourier(coeffs, *thetas):
    """Evaluate a Fourier series (FFT-ordered coeffs) at arbitrary angles.

    coeffs has one leading axis per angle array and may carry trailing axes;
    the angle arrays share one shape and the result has shape
    thetas[0].shape + trailing. The first grid axis is contracted with one
    matrix product, every further one pointwise, so the cost stays at
    O(points * coeffs.size).
    """
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    shape = thetas[0].shape
    ndim = len(thetas)
    trailing = coeffs.shape[ndim:]

    def phases(theta, n):
        # e^{i m theta} for m = 0..n//2 only; e^{-i m theta} is its conjugate
        half = np.exp(1j * theta.reshape(-1)[:, None] * np.arange(n // 2 + 1))
        out = np.empty((half.shape[0], n), dtype=complex)
        out[:, :(n + 1) // 2] = half[:, :(n + 1) // 2]
        np.conjugate(half[:, n // 2:0:-1], out=out[:, (n + 1) // 2:])
        return out

    # out[p, ...] = sum_{a,b} e^{i m_a theta1[p]} e^{i m_b theta2[p]} coeffs[a, b, ...]
    out = phases(thetas[0], coeffs.shape[0]) @ coeffs.reshape(coeffs.shape[0], -1)
    out = out.reshape((-1,) + coeffs.shape[1:])
    for k in range(1, ndim):
        out = np.einsum("pb,pb...->p...", phases(thetas[k], coeffs.shape[k]), out)
    return out.reshape(shape + trailing)


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


def low_mode_field(rng, shape, n_modes=3, amplitude=1.0):
    """Random smooth periodic scalar field built from a few low Fourier modes."""
    if len(shape) == 1:
        theta = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
        f = np.zeros(shape[0])
        for m in range(1, n_modes + 1):
            a, b = rng.normal(size=2)
            f += a * np.cos(m * theta) + b * np.sin(m * theta)
    else:
        t1 = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
        t2 = 2.0 * np.pi * np.arange(shape[1]) / shape[1]
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        f = np.zeros(shape)
        for m1 in range(-n_modes, n_modes + 1):
            for m2 in range(-n_modes, n_modes + 1):
                if m1 == 0 and m2 == 0:
                    continue
                a, b = rng.normal(size=2)
                f += a * np.cos(m1 * T1 + m2 * T2) + b * np.sin(m1 * T1 + m2 * T2)
    scale = np.max(np.abs(f))
    if scale == 0.0:
        return f
    return amplitude * f / scale

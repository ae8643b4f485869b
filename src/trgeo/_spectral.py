"""Numerical primitives shared by the geometry modules and their oracles.

All periodic data lives on uniform grids over [0, 2pi)^n. Derivatives are
spectral (multiplication by i*m in Fourier space); for even grid sizes the
Nyquist mode is dropped from odd-order derivatives, the standard choice for
real data. Quadrature of periodic integrands is the node sum times the cell
area, accumulated with math.fsum in fixed order so results are deterministic.

derivative_matrix holds the same first derivative as a dense matrix and
band_basis an orthonormal real basis of a band of modes, whose B B^T is
the filter that keeps the band; on short axes each is cheaper than two
FFTs. `synthesize` is the one inverse FFT of Fourier terms. Besides the
FFT helpers the module holds the building blocks of the oracles: the one
off-grid Fourier evaluator (`evaluate_fourier`, one array of angles for
the first axis of the coefficients, the other axes riding along, in chunks
of points of bounded memory), the inverse of theta -> int_0^theta w for
w > 0 (`invert_cumulative`, which evaluates through it), one RK4 step
(`rk4_step`) and one Richardson level (`richardson`). Every integrator,
inversion and extrapolation in the package goes through these.
"""

import functools
import math

import numpy as np

# the most phases e^{i m theta} evaluate_fourier forms at once (8 MB)
_PHASE_ENTRIES = 2 ** 19


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


@functools.lru_cache(maxsize=16)
def derivative_matrix(n):
    """The n x n matrix D of spectral_derivative: D @ v = d/dtheta of v.

    Column j is the derivative of the j-th unit sample through the
    multiplier of _derivative_multiplier, so D is the same operator, the
    Nyquist mode of an even n dropped (Trefethen, Spectral Methods in
    MATLAB, 2000, ch. 3). D is real, so it serves real and complex samples.
    Shared by every call with the same n, so it is read-only.
    """
    D = spectral_derivative(np.eye(n), axis=0)
    D.flags.writeable = False
    return D


@functools.lru_cache(maxsize=16)
def band_basis(n, cutoff):
    """The n x (2 cutoff + 1) orthonormal basis B of the modes |m| <= cutoff
    < n/2: the constant, cos(m theta), then sin(m theta) for m = 1..cutoff
    at the nodes, so |B^T v| = |v| for v in the band (Parseval). The angles
    come from j m mod n, so B B^T is the band's FFT filter to round-off.
    Shared by every call with the same (n, cutoff), so it is read-only."""
    angles = (2.0 * math.pi / n) * (np.outer(np.arange(n), np.arange(1, cutoff + 1)) % n)
    B = np.concatenate([np.full((n, 1), math.sqrt(1.0 / n)),
                        math.sqrt(2.0 / n) * np.cos(angles),
                        math.sqrt(2.0 / n) * np.sin(angles)], axis=1)
    B.flags.writeable = False
    return B


def synthesize(modes, amplitudes, size):
    """sum_k amplitudes_k e^{i modes_k theta} on size uniform angles (modes
    distinct modulo size): ifft * size, norm="forward"'s bits on 2^k nodes."""
    spectrum = np.zeros(size, dtype=complex)
    spectrum[np.asarray(modes) % size] = amplitudes
    return np.fft.ifft(spectrum) * size


def fourier_coefficients(samples):
    """Coefficients c_m along axis 0: samples(theta) = sum c_m e^{i m theta}."""
    return np.fft.fft(samples, axis=0) / samples.shape[0]


def evaluate_fourier(coeffs, theta):
    """Evaluate a Fourier series (FFT-ordered coeffs) at arbitrary angles.

    coeffs holds the modes along its first axis and may carry trailing axes;
    the result has shape theta.shape + coeffs.shape[1:]. The phases
    e^{i m theta} times the coefficients, O(points * coeffs.size), in chunks
    of points of at most _PHASE_ENTRIES phases. The last chunk takes two
    points or more, as BLAS sums one point by another kernel, so the bits
    are those of one product of all the phases.
    """
    theta = np.asarray(theta, dtype=float)
    n = coeffs.shape[0]
    flat = theta.reshape(-1)
    columns = coeffs.reshape(n, -1)
    out = np.empty((flat.size, columns.shape[1]), dtype=complex)
    bounds = [*range(0, max(flat.size - 1, 1), max(2, _PHASE_ENTRIES // n)), flat.size]
    for s, e in zip(bounds, bounds[1:]):
        # e^{i m theta} for m = 0..n//2 only; e^{-i m theta} is its conjugate
        half = np.exp(1j * flat[s:e, None] * np.arange(n // 2 + 1))
        phases = np.empty((e - s, n), dtype=complex)
        phases[:, :(n + 1) // 2] = half[:, :(n + 1) // 2]
        np.conjugate(half[:, n // 2:0:-1], out=phases[:, (n + 1) // 2:])
        np.matmul(phases, columns, out=out[s:e])
    return out.reshape(theta.shape + coeffs.shape[1:])


def invert_cumulative(weight, fractions):
    """(theta, total): int_0^theta w = fractions * total, total = int_0^2pi w.

    weight is an array sampling a periodic w > 0 on the uniform grid of
    [0, 2pi). Its half spectrum, cut after the last mode above the samples'
    round-off (eps * max w), is integrated mode by mode. Newton on that
    antiderivative starts from the interpolated cumulative node sum and
    stops once its largest step no longer shrinks; evaluate_fourier takes
    the half spectrum in FFT order, with a zero negative half.
    """
    n = weight.size
    spec = np.fft.rfft(weight) / n
    spec[1:(n + 1) // 2] *= 2.0        # w = Re sum_{m >= 0} spec_m e^{i m theta}
    spec = spec[:np.flatnonzero(np.abs(spec) > np.finfo(float).eps * np.max(weight))[-1] + 1]
    anti = np.concatenate(([0.0], spec[1:] / (1j * np.arange(1, spec.size))))
    anti[0] = -anti.sum().real         # int_0^theta w = spec_0 theta + Re sum anti_m e^{i m theta}
    columns = np.zeros((2 * spec.size - 1, 2), dtype=complex)
    columns[:spec.size] = np.stack([anti, spec], axis=1)
    total = 2.0 * math.pi * spec[0].real
    targets = total * np.asarray(fractions, dtype=float)
    cumulative = np.concatenate(([0.0], np.cumsum(weight))) * (2.0 * math.pi / n)
    theta = np.interp(targets, cumulative, np.linspace(0.0, 2.0 * math.pi, n + 1))
    last = math.inf
    while True:
        wave, rate = evaluate_fourier(columns, theta).real.T
        step = (spec[0].real * theta + wave - targets) / rate
        theta, size = theta - step, np.max(np.abs(step))
        if not size < last:
            return theta, total
        last = size


def rk4_step(rhs, y, h):
    """One classical Runge-Kutta step of y' = rhs(y) with step h.

    h is a number, or an array that broadcasts against y (one step per row).
    """
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


"""Fourier/Laurent analysis of closed plane curves.

A closed curve gamma: S^1 -> C is stored by its Fourier coefficients a_n for
n in [-N, N]. The two-sided power series sum a_n z^n is the holomorphic
continuation of the curve off the unit circle; its inner/outer convergence
radii decide whether the curve can be deformed holomorphically inward/outward.
The lab estimates those radii from coefficient decay, classifies the
direction d/dtheta accordingly, evaluates continuations and measures the
length profile Lambda(r) = int |z g'(z)| dtheta together with its convexity
in t = -log r.

Orientation is fixed anticlockwise: the signed area pi * sum n |a_n|^2 of an
analysed curve must be positive, mirror data is rejected.
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _spectral
from .errors import (AliasingDetected, NotArclength, NotImmersed, OrientationError,
                     OutsideAnnulus, ValidationError)

COEFF_FLOOR = 1e-15       # coefficients below this are treated as absent
RADIUS_MARGIN = 0.02      # decision band around radius 1
ELL1_EXPONENT = 1.1       # power-law exponent threshold for an l^1 tail
SECONDVAR_EPS = 1e-3      # flow time of the second variation's finite difference
ARCLENGTH_TOL = 1e-6      # relative speed variation an arclength curve may have
# largest |n| a coefficient file may name; without N it sizes the 2N + 1 coefficients
MAX_MODE = 2 ** 16

GEODESIC_ANNULUS = "geodesic_annulus"
RAY_ONLY = "ray_only"
NO_RAY = "no_ray"


@dataclass(frozen=True)
class FourierCurve:
    """Coefficients a_n, n in [-N, N], stored as coeffs[j] = a_{j - N}."""

    coeffs: np.ndarray
    parseval_residual: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValidationError("coeffs must be a_n for n in [-N, N] (odd length)")
        object.__setattr__(self, "coeffs", c)
        if self.N < 32:
            raise ValidationError("truncation N must be at least 32")

    @property
    def N(self):
        return self.coeffs.size // 2

    def coefficient(self, n):
        return self.coeffs[n + self.N]

    def side(self, sign):
        """|a_n| for n = 1..N on the positive (+1) or negative (-1) side."""
        N = self.N
        if sign > 0:
            return np.abs(self.coeffs[N + 1:])
        return np.abs(self.coeffs[N - 1::-1])

    def signed_area(self):
        n = np.arange(-self.N, self.N + 1)
        return math.pi * float(np.sum(n * np.abs(self.coeffs) ** 2))


def curve_from_terms(terms, N=128):
    """Curve from {n: a_n} or [n, re, im] triples, zero elsewhere."""
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    items = terms.items() if isinstance(terms, dict) else (
        (int(t[0]), complex(t[1], t[2])) for t in terms)
    for n, a in items:
        if abs(n) > N:
            raise ValidationError(f"coefficient index {n} outside [-{N}, {N}]")
        coeffs[n + N] = a
    return FourierCurve(coeffs=coeffs)


def save_coefficients(curve, path):
    triples = [[int(n - curve.N), float(c.real), float(c.imag)]
               for n, c in enumerate(curve.coeffs) if abs(c) > 0.0]
    with open(path, "w") as f:
        json.dump(triples, f)
        f.write("\n")


def _entry_problem(t):
    """Why an entry of a coefficient file is not [n, re, im], three finite
    numbers with an integer mode n, |n| <= MAX_MODE; None when it is."""
    if not isinstance(t, list) or len(t) != 3:
        return " is not an [n, re, im] triple"
    for part, x in zip(("mode", "real part", "imaginary part"), t):
        # JSON's true and false load as bool, a subclass of int
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return f": the {part} {x!r} is not {'an integer' if part == 'mode' else 'a number'}"
    # a comparison, not math.isfinite, which overflows on a huge JSON integer
    if not all(abs(x) <= sys.float_info.max for x in t):
        return " is not finite"
    if t[0] != int(t[0]):
        return f": the mode {t[0]!r} is not an integer"
    if abs(t[0]) > MAX_MODE:
        return f": the mode {t[0]!r} is outside [-{MAX_MODE}, {MAX_MODE}]"
    return None


def load_coefficients(path, N=None):
    """The curve of a file of [n, re, im] triples (save_coefficients).

    ValueError names the first entry that is not a triple of numbers
    (JSON's true and false are refused), that is not finite (JSON readers
    accept NaN and Infinity, and such a curve would run on into NaN
    output), whose mode is not an integer (1.5 would run as mode 1) or
    whose mode lies past MAX_MODE; the modes are checked before any array
    is sized from them. A top level that is not a list, or an empty list,
    is refused too.
    """
    with open(path) as f:
        triples = json.load(f)
    if not isinstance(triples, list):
        raise ValueError("the file does not hold a list of [n, re, im] triples")
    if not triples:
        raise ValueError("the file holds no [n, re, im] triple")
    for k, t in enumerate(triples):
        problem = _entry_problem(t)
        if problem is not None:
            raise ValueError(f"entry {k} ({t}){problem}")
    if N is None:
        N = max(32, max(abs(int(t[0])) for t in triples))
    return curve_from_terms(triples, N=N)


# --- analysis / synthesis -----------------------------------------------------

def fourier_analyze(samples, N, check_orientation=True):
    """FFT coefficients of uniformly sampled gamma(theta_j), j = 0..M-1.

    Requires M >= 4N with M a power of two; raises AliasingDetected when the
    sample spectrum carries more than 1e-8 of its energy above |n| = N.
    """
    samples = np.asarray(samples, dtype=complex)
    M = samples.size
    if M < 4 * N or (M & (M - 1)) != 0:
        raise ValidationError("need M >= 4N samples with M a power of two")
    raw = np.fft.fft(samples) / M
    m = _spectral.modes(M).astype(int)
    low = np.abs(m) <= N
    total = float(np.sum(np.abs(raw) ** 2))
    tail = float(np.sum(np.abs(raw[~low]) ** 2))
    if total > 0.0 and tail > 1e-8 * total:
        raise AliasingDetected(
            f"energy fraction {tail / total:.3g} above mode {N}; refine sampling"
        )
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[m[low] + N] = raw[low]
    residual = math.sqrt(tail / total) if total > 0.0 else 0.0
    curve = FourierCurve(coeffs=coeffs, parseval_residual=residual)
    if check_orientation and curve.signed_area() <= 0.0:
        raise OrientationError(
            "curve is clockwise or degenerate; the lab fixes anticlockwise data"
        )
    return curve


def synthesize(curve, M=None, r=1.0):
    """Samples of sum a_n r^n e^{i n theta} on M uniform angles."""
    N = curve.N
    M = 4 * N if M is None else M
    if M < 2 * N + 1:
        raise ValidationError("too few synthesis samples for the truncation")
    fft_coeffs = np.zeros(M, dtype=complex)
    # only the stored nonzero a_n: 0 * r^n would be NaN where r^n overflows
    n = np.flatnonzero(curve.coeffs) - N
    fft_coeffs[n % M] = curve.coeffs[n + N] * np.power(float(r), n.astype(float))
    return np.fft.ifft(fft_coeffs) * M


# --- radius estimation ----------------------------------------------------------

@dataclass
class RadiusEstimate:
    r_inner: float
    r_outer: float
    confidence: float            # rms residual of the slope extrapolation


def _tail(mags):
    """(n, |a_n|) over the tail window n = N/2..N of one side's |a_n|, n = 1..N."""
    lo, hi = mags.size // 2, mags.size
    return np.arange(lo, hi + 1), mags[lo - 1: hi]


def _side_slope(mags):
    """Extrapolated decay slope s of log|a_n| ~ s n over the tail window.

    The slopes of four chunks are fit against 1/n_center and extrapolated
    to n -> infinity; this removes the O(log n / n) bias of subgeometric tails
    that a single regression keeps. Returns (slope, residual) or None when
    the tail is numerically absent.
    """
    ns, vals = _tail(mags)
    keep = vals > COEFF_FLOOR
    if np.count_nonzero(keep) < 8:
        return None
    ns = ns[keep]
    logs = np.log(vals[keep])
    edges = np.linspace(0, ns.size, 5).astype(int)
    centers, slopes = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 3:
            continue
        x = ns[a:b].astype(float)
        y = logs[a:b]
        sl = np.polyfit(x, y, 1)[0]
        centers.append(np.mean(x))
        slopes.append(sl)
    if len(slopes) < 2:
        sl = float(np.polyfit(ns.astype(float), logs, 1)[0])
        return sl, 0.0
    inv = 1.0 / np.asarray(centers)
    coef = np.polyfit(inv, slopes, 1)
    fit = np.polyval(coef, inv)
    resid = float(np.sqrt(np.mean((np.asarray(slopes) - fit) ** 2)))
    return float(coef[1]), resid


def estimate_radii(curve):
    """Inner/outer convergence radii of the two-sided power series.

    A side whose tail sits entirely below the coefficient floor is flagged as
    unconstrained: radius inf outside, 0 inside (true for trigonometric
    polynomials, which continue to all of C*).
    """
    conf = 0.0
    out = _side_slope(curve.side(+1))
    if out is None:
        r_outer = math.inf
    else:
        r_outer = math.exp(-out[0])
        conf = max(conf, out[1])
    inn = _side_slope(curve.side(-1))
    if inn is None:
        r_inner = 0.0
    else:
        r_inner = math.exp(inn[0])
        conf = max(conf, inn[1])
    return RadiusEstimate(r_inner=r_inner, r_outer=r_outer, confidence=conf)


def _tail_power_exponent(mags):
    """Exponent p in |a_n| ~ n^{-p} over the tail window (log-log regression)."""
    ns, vals = _tail(mags)
    keep = vals > COEFF_FLOOR
    if np.count_nonzero(keep) < 8:
        return math.inf
    x = np.log(ns[keep].astype(float))
    y = np.log(vals[keep])
    return -float(np.polyfit(x, y, 1)[0])


@dataclass
class DirectionClass:
    kind: str                    # GEODESIC_ANNULUS | RAY_ONLY | NO_RAY
    evidence: RadiusEstimate
    ell1_exponent: float = math.inf


def classify_direction(curve):
    """Trichotomy for the direction d/dtheta.

    geodesic_annulus: continuable strictly both ways (r_inner and r_outer
    beyond RADIUS_MARGIN of 1); ray_only: continuable inward with an
    l^1-convergent positive tail but outer radius pinned to the unit circle;
    no_ray: everything else.
    """
    est = estimate_radii(curve)
    expo = _tail_power_exponent(curve.side(+1))
    inner_ok = est.r_inner < 1.0 - RADIUS_MARGIN
    if inner_ok and est.r_outer > 1.0 + RADIUS_MARGIN:
        return DirectionClass(kind=GEODESIC_ANNULUS, evidence=est, ell1_exponent=expo)
    boundary_convergent = expo > ELL1_EXPONENT
    if inner_ok and abs(est.r_outer - 1.0) <= RADIUS_MARGIN and boundary_convergent:
        return DirectionClass(kind=RAY_ONLY, evidence=est, ell1_exponent=expo)
    return DirectionClass(kind=NO_RAY, evidence=est, ell1_exponent=expo)


# --- continuation ----------------------------------------------------------------

def geodesic_evaluate(curve, r):
    """Samples of the holomorphic continuation g on 4N points of the circle |z| = r.

    r must lie in the classified annulus (r <= 1 for ray_only directions);
    r = 1 returns the original curve samples.
    """
    if r <= 0.0:
        raise OutsideAnnulus("radius must be positive")
    cls = classify_direction(curve)
    est = cls.evidence
    if cls.kind == GEODESIC_ANNULUS:
        ok = est.r_inner < r < est.r_outer
    elif cls.kind == RAY_ONLY:
        ok = est.r_inner < r <= 1.0
    else:
        ok = r == 1.0
    if not ok:
        raise OutsideAnnulus(
            f"r = {r} is outside the usable annulus "
            f"({est.r_inner:.4g}, {est.r_outer:.4g}) for class {cls.kind}"
        )
    return synthesize(curve, r=r)


# --- length profile ---------------------------------------------------------------

@dataclass
class LengthProfile:
    radii: np.ndarray
    t_values: np.ndarray         # t = -log r
    values: np.ndarray           # Lambda(r)
    second_differences: np.ndarray   # d^2/dt^2 of Lambda(e^{-t}), interior nodes


def length_at_radius(curve, r):
    """Lambda(r) = int |z g'(z)| dtheta on |z| = r, periodic quadrature on 4N nodes."""
    N = curve.N
    n = np.arange(-N, N + 1)
    zgp = FourierCurve(coeffs=curve.coeffs * n)      # z g'(z) has coefficients n a_n
    samples = synthesize(zgp, r=r)
    return float(np.mean(np.abs(samples))) * 2.0 * math.pi


def length_profile(curve, radii):
    """Length profile over the given radii with log-parameter second differences."""
    cls = classify_direction(curve)
    est = cls.evidence
    radii = np.asarray(sorted(float(r) for r in radii))
    if cls.kind == NO_RAY:
        if np.any(radii != 1.0):
            raise OutsideAnnulus("curve is not continuable off the unit circle")
    else:
        lo = est.r_inner
        hi = 1.0 if cls.kind == RAY_ONLY else est.r_outer
        if np.any(radii <= lo) or np.any(radii > hi):
            raise OutsideAnnulus(f"radii must lie in ({lo:.4g}, {hi:.4g}]")
    values = np.array([length_at_radius(curve, r) for r in radii])
    t = -np.log(radii)
    order = np.argsort(t)
    t_sorted = t[order]
    v_sorted = values[order]
    second = np.full(radii.size, np.nan)
    for k in range(1, radii.size - 1):
        h1 = t_sorted[k] - t_sorted[k - 1]
        h2 = t_sorted[k + 1] - t_sorted[k]
        d2 = 2.0 * (h1 * v_sorted[k + 1] - (h1 + h2) * v_sorted[k]
                    + h2 * v_sorted[k - 1]) / (h1 * h2 * (h1 + h2))
        second[order[k]] = d2
    return LengthProfile(radii=radii, t_values=t, values=values,
                         second_differences=second)


# --- reparametrization --------------------------------------------------------------

def resample_arclength(curve):
    """Resample a curve to constant |gamma'| by inverting cumulative length.

    The length int_0^theta |gamma'|, with |gamma'| sampled on M = 8N
    angles, is inverted at M uniform values and the resampled curve is
    re-analysed, so the output is again a FourierCurve. A speed not above
    1e-12 of its maximum (NaN included) has no inverse: NotImmersed.
    """
    N = curve.N
    M = 8 * N
    speed = np.abs(evaluate_derivative(curve, 2.0 * np.pi * np.arange(M) / M))
    min_speed = float(np.min(speed))
    if not min_speed > 1e-12 * float(np.max(speed)):
        raise NotImmersed(f"curve speed |gamma'| falls to {min_speed:.3g}, "
                          "not above 1e-12 of its maximum")
    theta, _ = _spectral.invert_cumulative(speed, np.arange(M) / M)
    samples = evaluate_at(curve, theta)
    return fourier_analyze(samples, N=N, check_orientation=False)


def evaluate_at(curve, theta):
    """gamma(theta) = sum a_n e^{i n theta} at arbitrary angles."""
    return _spectral.evaluate_fourier(np.fft.ifftshift(curve.coeffs), theta)


def evaluate_derivative(curve, theta):
    """gamma'(theta) = sum i n a_n e^{i n theta} at arbitrary angles."""
    n = np.arange(-curve.N, curve.N + 1)
    return _spectral.evaluate_fourier(np.fft.ifftshift(1j * n * curve.coeffs), theta)


# --- second variation of length ------------------------------------------------------

def curvature(samples):
    """Signed curvature of an anticlockwise curve from spectral derivatives."""
    gp = _spectral.spectral_derivative(samples, axis=0)
    gpp = _spectral.spectral_derivative(samples, axis=0, order=2)
    speed = np.abs(gp)
    return (gpp * np.conj(gp)).imag / speed ** 3


def second_variation_length(curve, f_values):
    """Analytic vs finite-difference second variation of length at the curve.

    The curve must be arclength-parametrized (|gamma'| constant to
    ARCLENGTH_TOL). f_values samples the deformation profile f on the curve
    grid (the deformation is d gamma / dt = i f gamma'). Analytic value:
    int (f')^2 + f^2 kappa^2 ds. The FD value flows to t = +-SECONDVAR_EPS
    and +-SECONDVAR_EPS/2 with RK4, the four flows as the rows of one array,
    and differences lengths, with one Richardson level.
    """
    M = 4 * curve.N
    samples = evaluate_at(curve, 2.0 * np.pi * np.arange(M) / M)
    gp = _spectral.spectral_derivative(samples, axis=0)
    speed = np.abs(gp)
    mean_speed = float(np.mean(speed))
    if np.max(np.abs(speed - mean_speed)) > ARCLENGTH_TOL * mean_speed:
        raise NotArclength("curve is not arclength-parametrized; resample first")
    f = np.asarray(f_values, dtype=float)
    if f.shape != (M,):
        raise ValidationError(f"f_values must have shape ({M},)")

    kappa = curvature(samples)
    fp = _spectral.spectral_derivative(f, axis=0) / mean_speed
    ds = mean_speed * 2.0 * math.pi / M
    analytic = math.fsum((fp ** 2 + f ** 2 * kappa ** 2) * ds)

    # deformation i f dgamma/ds: the grid angle is arclength up to the
    # constant speed, so the theta derivative is rescaled once
    fs = f / mean_speed

    def rhs(z):
        return 1j * fs * _spectral.spectral_derivative(z, axis=-1)

    # the four flows to t = +-eps/2, +-eps as the rows of one RK4 array,
    # 16 steps each; each row is contiguous, so it takes the transforms and
    # the mean of a flow of its own
    targets = np.array([SECONDVAR_EPS / 2.0, -SECONDVAR_EPS / 2.0,
                        SECONDVAR_EPS, -SECONDVAR_EPS])
    n_steps = 16
    z = np.tile(samples, (targets.size, 1))
    h = (targets / n_steps)[:, None]
    for _ in range(n_steps):
        z = _spectral.rk4_step(rhs, z, h)
    sp = np.abs(_spectral.spectral_derivative(z, axis=-1))
    lengths = dict(zip(targets.tolist(), (np.mean(sp, axis=-1) * 2.0 * math.pi).tolist()))

    l0 = float(np.mean(speed)) * 2.0 * math.pi

    def second_diff(e):
        return (lengths[e] - 2.0 * l0 + lengths[-e]) / e ** 2

    fd = _spectral.richardson(second_diff, SECONDVAR_EPS)
    return {"analytic": analytic, "fd": fd,
            "abs_err": abs(analytic - fd),
            "rel_err": abs(analytic - fd) / (1.0 + abs(analytic))}


# --- standard coefficient families ---------------------------------------------------

def family_coefficients(name, N=256):
    """Coefficient families exercising the three continuation classes.

    "annulus": geometric decay on both sides (continuable both ways);
    "ray_only": log-subgeometric positive side (radius exactly 1, smooth up
    to the boundary) with a geometric negative side; "no_ray": the
    log-subgeometric profile on both sides.
    """
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    n = np.arange(1, N + 1)
    sub = np.exp(-np.log(n.astype(float)) ** 2)       # n^{-log n}
    if name == "annulus":
        coeffs[N + 1] = 1.0
        coeffs[N + 1:] += 0.1 * 0.4 ** n
        coeffs[N - 1::-1] = 0.2 * 0.3 ** n
    elif name == "ray_only":
        coeffs[N + 1:] = sub
        coeffs[N - 1::-1] = 0.5 ** n
    elif name == "no_ray":
        coeffs[N + 1:] = sub
        coeffs[N - 1::-1] = sub
    else:
        raise ValidationError(f"unknown coefficient family {name!r}")
    return FourierCurve(coeffs=coeffs)

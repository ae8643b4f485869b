"""Flows of L: canonical geodesics d iota/dt = J iota_* X, the tangential flow
of X, and the two-curve problem.

Two schemes solve the Cauchy problem for coordinate-aligned X on flat charts:

* flow_spectral: exact continuation of the trigonometric-polynomial
  representative. For X = c d/dtheta_k each Fourier mode m along axis k is
  multiplied by e^{-m c t}; a winding (linear) part picks up the constant
  drift t c J(W e_k). Negative modes grow like e^{|m| c t}, which is the
  ill-posedness of the inward problem: growth past amp_max aborts, and for
  curves whose adverse-side radius estimate pins them to the unit circle the
  flow refuses to start at all. The family is made, residual-checked and
  validated in blocks of at most _BLOCK_NODES grid nodes, one inverse FFT
  and one stacked frame build per block, each block laid out
  (B, 2n) + grid.sizes with the components ahead of the grid axes.

* flow_timestep: guarded RK4 with a 2/3 dealiasing filter and a spectral
  tail-energy monitor that aborts (BlowUpDetected) when the retained top
  modes carry more than 1e-3 of the energy. It fails loudly on smooth
  non-analytic data instead of smoothing it away. Each right-hand side
  differentiates only along the live axes, those where a component of X is
  not exactly zero, and the filter and the tail fraction work on the half
  spectrum of the real points, laid out (2n,) + grid.sizes. It stays in
  physical space, independent of the mode-wise continuation it is compared
  against.

geodesic_family is the generator the variation oracles use: the same
guarded, residual-checked continuation on any chart (it only needs J to be
constant), for X = c d/dtheta_k and, after reparametrizing that axis to
constant speed, for X = f(theta_k) d/dtheta_k with f > 0. tangential_flow is
the flow of such an X on L itself, iota o phi_t(X).

solve_bvp_annulus fits a Laurent polynomial annulus map between two nested
Jordan curves by Gauss-Newton on (modulus, coefficients, boundary
correspondences), the discrete version of the doubly connected Riemann
mapping theorem. Each step eliminates the correspondence angles node by node.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral, curve_lab
from .errors import (AliasingDetected, AmplificationExceeded, BlowUpDetected,
                     GeodesicUnavailable, NotFinite, NotNested, StepTooLarge,
                     UnsupportedField, ValidationError)
from .immersion import Immersion, is_totally_real, is_totally_real_stack

AMP_MAX = 1e6
TAIL_ENERGY_ABORT = 1e-3
DEALIAS_FRACTION = 2.0 / 3.0
SPECTRAL_PRESENCE_FLOOR = 1e-15
# grid nodes one block of a spectral family holds (8 frames of 32x32); fixes
# how many frames are continued, residual-checked and validated at a time
_BLOCK_NODES = 8192
# RK4 steps of one tangential flow; RK4 steps of uniqueness_compare's stepper
TANGENTIAL_SUBSTEPS = 8
UNIQUENESS_STEPS = 200
# annulus BVP: Gauss-Newton steps, and the largest residual entry of convergence
BVP_MAX_ITER = 60
BVP_TOL = 1e-8


@dataclass
class FlowResult:
    times: list
    immersions: list
    amplification: float
    scheme: str                  # "spectral" | "timestep"
    geodesic_residual: Optional[float] = None


@dataclass
class BvpResult:
    modulus: float
    curve: curve_lab.FourierCurve     # Laurent coefficients of the annulus map
    outer_misfit: float
    inner_misfit: float
    converged: bool
    iterations: int
    residual_history: list
    min_map_derivative: float = 0.0   # min |g'| over the sampled annulus


def _axis_profile(X):
    """(axis, profile) when X = f(theta_axis) d/dtheta_axis, else None.

    profile holds f at the nodes of that axis. This is the one recogniser of
    such fields: the flow of X moves theta_axis alone, at a rate that depends
    on theta_axis alone. The zero field counts as f = 0 along axis 0.
    """
    comp = X.components
    live = [k for k in range(comp.shape[0]) if np.max(np.abs(comp[k])) >= 1e-14]
    if len(live) > 1:
        return None
    axis = live[0] if live else 0
    # rows: nodes along the axis; columns: the nodes across it
    f = np.moveaxis(comp[axis], axis, 0).reshape(comp.shape[1 + axis], -1)
    if np.max(np.abs(f - f[:, :1])) > 1e-12 * max(1.0, float(np.max(np.abs(f)))):
        return None
    return axis, f[:, 0]


def _coordinate_alignment(X):
    """(axis, c) when X = c d/dtheta_axis with constant c, else None."""
    prof = _axis_profile(X)
    if prof is None:
        return None
    axis, f = prof
    if np.max(np.abs(f - f[0])) > 1e-12 * max(1.0, abs(f[0])):
        return None
    return axis, float(f[0])


def _resample_axis(im, axis, theta):
    """im with the nodes of one grid axis moved to the angles theta.

    theta holds one new angle per node of that axis; every slice across the
    axis is re-evaluated at the same angles from its Fourier series, and a
    winding part W theta picks up W (theta - theta_node).
    """
    coeffs = _spectral.fourier_coefficients(np.moveaxis(im.points, axis, 0))
    pts = np.moveaxis(_spectral.evaluate_fourier(coeffs, theta), 0, axis).real
    if im.winding is not None:
        shape = [1] * im.points.ndim
        shape[axis] = theta.size
        pts = pts + (theta - im.grid.thetas(axis)).reshape(shape) * im.winding[:, axis]
    return Immersion(grid=im.grid, chart=im.chart, points=pts, winding=im.winding)


def _interpolant(values):
    """Trigonometric interpolant of periodic node values, as a callable."""
    coeffs = _spectral.fourier_coefficients(values)
    return lambda theta: _spectral.evaluate_fourier(coeffs, theta).real


def tangential_flow(im, X, t):
    """Reparametrization iota o phi_t(X) for X = f(theta_k) d/dtheta_k.

    The flow moves theta_k alone, at the rate f(theta_k), so one vectorised
    RK4 over the axis nodes gives their new angles and a one-axis spectral
    resample gives the points; the other axis rides along. Other fields
    raise UnsupportedField.
    """
    prof = _axis_profile(X)
    if prof is None:
        raise UnsupportedField("the density check needs X = f(theta_k) d/dtheta_k")
    axis, profile = prof
    rate = _interpolant(profile)
    theta = im.grid.thetas(axis)
    h = t / TANGENTIAL_SUBSTEPS
    for _ in range(TANGENTIAL_SUBSTEPS):
        theta = _spectral.rk4_step(rate, theta, h)
    return _resample_axis(im, axis, theta)


def _complex_components(im):
    """z_k = x_k + i y_k, laid out (n,) + grid.sizes; the flow acts mode-wise on these."""
    pts = im.components_first()
    return pts[:im.chart.n] + 1j * pts[im.chart.n:]


def mode_growth_guard(im, axis, c, t_extent):
    """Raise AmplificationExceeded for directions the data cannot support.

    Two guards: the amplitude cap e^{|m| |c t|} <= AMP_MAX over modes present
    above the spectral noise floor, and for curves with a populated adverse
    tail, the radius estimate itself (flowing inward needs inner radius
    below 1, outward needs outer radius above 1, each by RADIUS_MARGIN).
    """
    coeffs = np.fft.fftn(_complex_components(im), axes=tuple(range(1, 1 + im.n)))
    mags = np.abs(coeffs)
    scale = float(np.max(mags))
    m = _spectral.modes(im.grid.sizes[axis])
    shape = [1] * mags.ndim
    shape[1 + axis] = im.grid.sizes[axis]
    factors = np.exp(-np.reshape(m, shape) * c * t_extent)
    present = mags > SPECTRAL_PRESENCE_FLOOR * max(scale, 1.0)
    if not np.any(present):
        return 1.0
    amp = max(1.0, float(np.max(
        np.where(present, np.broadcast_to(factors, mags.shape), 0.0))))
    if amp > AMP_MAX:
        raise AmplificationExceeded(
            f"continuation would amplify present modes by {amp:.3g} > {AMP_MAX:g}"
        )
    if im.n == 1 and im.chart.dim == 2 and im.winding is None:
        gamma = im.complex_samples()
        M = gamma.size
        try:
            cur = curve_lab.fourier_analyze(gamma, M // 4, check_orientation=False)
        except (ValidationError, AliasingDetected):
            return amp
        est = curve_lab.estimate_radii(cur)
        if c * t_extent > 0 and math.isfinite(est.r_inner) and est.r_inner > 0.0:
            if est.r_inner >= 1.0 - curve_lab.RADIUS_MARGIN:
                raise AmplificationExceeded(
                    "inward continuation is ill-posed: inner radius estimate "
                    f"{est.r_inner:.4g} is not below 1"
                )
        if c * t_extent < 0 and math.isfinite(est.r_outer):
            if est.r_outer <= 1.0 + curve_lab.RADIUS_MARGIN:
                raise AmplificationExceeded(
                    "outward continuation is ill-posed: outer radius estimate "
                    f"{est.r_outer:.4g} is not above 1"
                )
    return amp


def flow_spectral(im, X, ts):
    """Exact mode-wise continuation for a coordinate-aligned field on a flat chart.

    The frames are produced in blocks of at most _BLOCK_NODES grid nodes;
    every block passes the geodesic residual check and is_totally_real_stack
    before the next is made, and the blocks are collected into one
    FlowResult. A family that fails both checks reports the failure of its
    earliest failing block.
    """
    axis, c, ts, amp = _spectral_setup(im, X, ts)
    immersions, residual = [], 0.0
    for pts, res in _checked_blocks(im, axis, c, ts):
        is_totally_real_stack(im.grid, im.chart, pts, im.winding)
        residual = max(residual, res)
        immersions += _members(im, pts)
    return FlowResult(times=ts, immersions=immersions, amplification=amp,
                      scheme="spectral", geodesic_residual=residual)


def geodesic_family(im, Y, ts):
    """Immersions along the geodesic d iota/dt = J iota_* Y at the times ts.

    Y = c d/dtheta_k: the continuation of flow_spectral, valid on any chart
    here since it only uses the constancy of J. Y = f(theta_k) d/dtheta_k
    with f > 0: the integral curves close up along the axis circle, so the
    axis is reparametrized to constant speed, where Y becomes (1/R) d/dpsi,
    and continued mode-wise; the same angle substitution applies to every
    transverse slice. Anything else raises GeodesicUnavailable. The family
    passes mode_growth_guard at its farthest time on each side of t = 0 and
    the geodesic residual check block by block; its members are not
    validated here, since total_volumes validates each one it integrates.
    """
    al = _coordinate_alignment(Y)
    if al is None:
        prof = _axis_profile(Y)
        if prof is None:
            raise GeodesicUnavailable(
                "no geodesic family generator for this direction field")
        axis, f = prof
        if np.min(f) <= 0.0:
            raise GeodesicUnavailable("axis-profile families need f > 0 everywhere")
        rep = curve_lab.reparametrize_by_field(_interpolant(f), M=im.grid.sizes[axis])
        im = _resample_axis(im, axis, rep["theta_of_s"])
        al = axis, 1.0 / rep["R"]
    axis, c = al
    ts = [float(t) for t in ts]
    _amplification(im, axis, c, ts)
    return [m for pts, _ in _checked_blocks(im, axis, c, ts) for m in _members(im, pts)]


def _members(im, pts):
    """The immersions of a block (B, 2n) + sizes, sharing im's grid, chart and winding."""
    return [Immersion(grid=im.grid, chart=im.chart, points=np.moveaxis(p, 0, -1),
                      winding=im.winding) for p in pts]


def _amplification(im, axis, c, ts):
    """mode_growth_guard at the farthest time on each side of t = 0, the two
    sides continuing in opposite directions; 1 when nothing moves."""
    ends = sorted({min(ts, default=0.0), max(ts, default=0.0)} - {0.0})
    return max((mode_growth_guard(im, axis, c, t) for t in ends), default=1.0)


def _spectral_setup(im, X, ts):
    """(axis, c, ts, amplification) of a spectral flow, after its guards."""
    if not im.chart.is_flat:
        raise UnsupportedField("spectral continuation is restricted to flat charts")
    al = _coordinate_alignment(X)
    if al is None:
        raise UnsupportedField(
            "flow_spectral needs X = c * d/dtheta_k; reparametrize general "
            "curve fields first"
        )
    axis, c = al
    ts = [float(t) for t in ts]
    return axis, c, ts, _amplification(im, axis, c, ts)


def _checked_blocks(im, axis, c, ts):
    """Blocks of _continued_blocks with their geodesic residuals, each checked.

    This is the one path to the continuation. A block whose residual is not
    below 1e-8 (NaN included) raises AmplificationExceeded; flow_spectral
    and uniqueness_compare also pass each block to is_totally_real_stack.
    """
    for pts in _continued_blocks(im, axis, c, ts):
        residual = _geodesic_residual(pts, im, axis, c)
        if not residual <= 1e-8:
            raise AmplificationExceeded(
                f"continued frames violate the geodesic equation by {residual:.3g}"
            )
        yield pts, residual


def _geodesic_residual(points, im, axis, c):
    """max |d iota/dt - J iota_* X| over a block of frames, both sides spectral.

    points is a block (B, 2n) + grid.sizes of _continued_blocks. d/dt of the
    continuation scales mode m by -m c; the right-hand side is J applied to
    c d iota/dtheta_axis, the derivative taking i m with the modes of the
    continuation. On an even axis that keeps the Nyquist mode as m = -n/2,
    where spectral_derivative (made for real data) drops it; the two sides
    are identical in exact arithmetic, so the residual certifies the
    implementation rather than the data. NaN anywhere gives NaN.
    """
    n = im.chart.n
    z = points[:, :n] + 1j * points[:, n:]
    grid_axes = tuple(range(2, z.ndim))
    coeffs = np.fft.fftn(z, axes=grid_axes)
    nk = im.grid.sizes[axis]
    m = _spectral.modes(nk)
    shape = [1] * z.ndim
    shape[2 + axis] = nk
    coeffs *= -c
    coeffs *= np.reshape(m, shape)
    dz_dt = np.fft.ifftn(coeffs, axes=grid_axes)
    rhs = np.fft.fft(z, axis=2 + axis)
    rhs *= np.reshape(1j * m, shape)
    rhs = np.fft.ifft(rhs, axis=2 + axis)
    rhs *= 1j * c
    if im.winding is not None:
        w = im.winding[:n, axis] + 1j * im.winding[n:, axis]
        w = np.reshape(w, (n,) + (1,) * im.n)
        dz_dt = dz_dt + 1j * c * w
        rhs = rhs + 1j * c * w
    dz_dt -= rhs
    return float(np.max(np.abs(dz_dt)))


def _continued_blocks(im, axis, c, ts):
    """Points of the continuation at ts, in blocks (B, 2n) + grid.sizes.

    Each Fourier mode m along the axis of each complex component z_k is
    multiplied by e^{-m c t}: the spectrum is taken once, and each block of
    at most _BLOCK_NODES nodes (at least one frame) is one inverse FFT. The
    components stay ahead of the grid axes throughout, so every transform
    line is contiguous in memory; _members and is_totally_real_stack read
    the blocks in that layout.
    """
    n = im.chart.n
    coeffs = np.fft.fftn(_complex_components(im), axes=tuple(range(1, 1 + im.n)))
    # numerically absent modes would only inject e^{|m| c t}-amplified noise
    mags = np.abs(coeffs)
    coeffs = np.where(mags > SPECTRAL_PRESENCE_FLOOR * max(float(np.max(mags)), 1.0),
                      coeffs, 0.0)
    nk = im.grid.sizes[axis]
    m = _spectral.modes(nk)
    shape = [1] * coeffs.ndim
    shape[1 + axis] = nk
    m_shaped = np.reshape(m, shape)
    drift = None
    if im.winding is not None:
        # linear part W theta_axis continues to W(theta + i c t): drift i c w
        w = im.winding[:n, axis] + 1j * im.winding[n:, axis]
        drift = np.reshape(1j * c * w, (n,) + (1,) * im.n)
    per_block = max(1, _BLOCK_NODES // math.prod(im.grid.sizes))
    for s in range(0, len(ts), per_block):
        t = np.reshape(ts[s:s + per_block], (-1,) + (1,) * coeffs.ndim)
        z_t = np.fft.ifftn(coeffs * np.exp(-m_shaped * c * t),
                           axes=tuple(range(2, 2 + im.n)))
        if drift is not None:
            z_t = z_t + t * drift
        block = np.empty((len(z_t), 2 * n) + im.grid.sizes)
        block[:, :n] = z_t.real
        block[:, n:] = z_t.imag
        yield block


def flow_timestep(im, X, t_final, dt, store_every=1):
    """RK4 time stepping of d iota/dt = J iota_* X with spectral guards.

    The state is laid out components first, (2n,) + grid.sizes, so every
    FFT line and the product with J run over contiguous memory; the stored
    frames are Immersions whose points are views of it with the components
    last. Only the live axes k, where X^k is not exactly zero, are
    differentiated: a skipped term is an exact zero, so the frames are the
    ones every axis would give (a coordinate field on a 2-torus takes one
    derivative per RK4 stage instead of two). The dealias filter and the
    tail fraction use the half spectrum of the last grid axis, whose
    interior columns count twice in the energy sums, so the fraction equals
    the full-spectrum one up to round-off. Masks, weights and the winding
    columns are built once per call, the derivative multipliers once per
    process (_spectral.spectral_derivative).
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    comp = X.components
    max_speed = float(np.max(np.abs(comp)))
    cutoffs = [int(DEALIAS_FRACTION * (s // 2)) for s in im.grid.sizes]
    m_eff = max(cutoffs)
    if dt * m_eff * max(max_speed, 1e-30) > 0.5:
        raise StepTooLarge(
            f"dt*m*|X| = {dt * m_eff * max_speed:.3g} > 0.5; reduce dt"
        )
    J = im.chart.J
    n = im.n
    grid_axes = tuple(range(1, 1 + n))
    # axes whose field component is exactly zero add exact zeros: skip them
    live = [k for k in range(n) if np.any(comp[k] != 0.0)]
    # W e_k laid out (2n,) + (1,) * n, added to the derivative along axis k
    drift = None if im.winding is None else [
        np.reshape(im.winding[:, k], (-1,) + (1,) * n) for k in range(n)]

    # dealias keeps |m_k| <= cutoff_k on every axis; the tail is the top half
    # of that band on any axis. Both masks live on the half spectrum of the
    # last grid axis, with a leading axis of 1 for the components.
    half = im.grid.sizes[:-1] + (im.grid.sizes[-1] // 2 + 1,)
    mask = np.ones((1,) + half, dtype=bool)
    tail_mask = np.zeros((1,) + half, dtype=bool)
    for k, s in enumerate(im.grid.sizes):
        m = np.abs(_spectral.modes(s)) if k < n - 1 else np.arange(half[-1])
        shape = [1] * (n + 1)
        shape[1 + k] = m.size
        mask = mask & (m <= cutoffs[k]).reshape(shape)
        tail_mask = tail_mask | ((m > cutoffs[k] / 2.0) & (m <= cutoffs[k])).reshape(shape)
    # energy weights: a half-spectrum column other than 0 and Nyquist stands
    # for two conjugate modes; the DC mode is left out of the budget
    weight = np.full((1,) + half, 2.0)
    weight[..., 0] = 1.0
    if im.grid.sizes[-1] % 2 == 0:
        weight[..., -1] = 1.0
    weight[(0,) * (n + 1)] = 0.0
    # columns: the weights of the total and of the tail, one row per
    # coefficient of the (2n,) + half spectrum, so one product gives both sums
    weights = np.stack([np.broadcast_to(w, (len(J),) + half).ravel()
                        for w in (weight, np.where(tail_mask, weight, 0.0))], axis=-1)

    def rhs(points):
        out = None
        for k in live:
            dk = _spectral.spectral_derivative(points, axis=1 + k)
            if drift is not None:
                dk += drift[k]
            dk *= comp[k]
            out = dk if out is None else out + dk
        if out is None:
            return np.zeros_like(points)
        return (J @ out.reshape(len(J), -1)).reshape(out.shape)

    def dealias(points):
        """Dealiased points and their spectral tail fraction, from one real FFT."""
        c = np.fft.rfftn(points, axes=grid_axes)
        c *= mask
        total, tail = (np.abs(c) ** 2).reshape(-1) @ weights
        frac = 0.0 if total == 0.0 else float(tail) / float(total)
        return np.fft.irfftn(c, s=im.grid.sizes, axes=grid_axes), frac

    def stored(points):
        return Immersion(grid=im.grid, chart=im.chart, points=np.moveaxis(points, 0, -1),
                         winding=im.winding)

    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
        n_steps = math.ceil(t_final / dt)
        dt = t_final / n_steps
    pts, _ = dealias(im.components_first())
    times = [0.0]
    frames_out = [stored(pts)]
    amp = 1.0
    base_norm = float(np.max(np.abs(pts)) + 1.0)
    for step in range(1, n_steps + 1):
        # every step makes a new array, so a stored frame is never written
        pts, frac = dealias(_spectral.rk4_step(rhs, pts, dt))
        t = step * dt
        # NaN and inf propagate to the maximum
        top = float(np.max(np.abs(pts)))
        amp = max(amp, (top + 1.0) / base_norm)
        if not math.isfinite(top) or frac > TAIL_ENERGY_ABORT:
            raise BlowUpDetected(
                f"spectral tail energy fraction {frac:.3g} at t = {t:.4g}",
                t_reached=t,
            )
        if step % store_every == 0 or step == n_steps:
            times.append(t)
            frames_out.append(stored(pts))
    is_totally_real(frames_out[-1])
    return FlowResult(times=times, immersions=frames_out, amplification=amp,
                      scheme="timestep")


def commutator_check(flow, X):
    """Consistency of the flow surface: d_t(iota_* X) vs d_s of d iota/dt.

    The two coordinate fields of the immersed strip must commute; since the
    spectral-in-s and FD-in-t operators commute exactly, the returned residual
    measures the s-derivative of the geodesic defect J iota_* X - d iota/dt.
    Time derivatives use 4th-order central differences when five frames are
    available, else 2nd-order.
    """
    times = np.asarray(flow.times, dtype=float)
    if times.size < 3:
        raise ValidationError("commutator check needs at least 3 time samples")
    ims = flow.immersions
    al = _coordinate_alignment(X)
    pts = np.stack([im.points for im in ims])
    if ims[0].winding is not None:
        mesh = ims[0].grid.mesh()
        lin = sum(np.asarray(m)[..., None] * ims[0].winding[:, k]
                  for k, m in enumerate(mesh))
        pts = pts + lin
    J = ims[0].chart.J

    def push(k):
        im_k = ims[k]
        vs = im_k.coordinate_vectors()
        return np.einsum("k...,k...i->...i", X.components, vs)

    dt_grid = np.diff(times)
    h = float(dt_grid[0])
    uniform = np.allclose(dt_grid, h, rtol=1e-10, atol=1e-14)
    if not uniform:
        raise ValidationError("commutator check expects a uniform time grid")
    worst = 0.0
    use4 = times.size >= 5
    lo = 2 if use4 else 1
    hi = times.size - lo
    axis = al[0] if al is not None else 0
    for k in range(lo, hi):
        if use4:
            dpdt = (pts[k - 2] - 8 * pts[k - 1] + 8 * pts[k + 1] - pts[k + 2]) / (12 * h)
        else:
            dpdt = (pts[k + 1] - pts[k - 1]) / (2 * h)
        ja = np.einsum("ij,...j->...i", J, push(k))
        defect = ja - dpdt
        resid = _spectral.spectral_derivative(defect, axis=axis)
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def uniqueness_compare(im, X, t_final):
    """Sup-norm gap between the spectral and time-stepped flows.

    The stepper takes UNIQUENESS_STEPS RK4 steps to t_final. The spectral
    family goes through the checks of flow_spectral block by block; each
    block is compared with the stepped frames of its times and then dropped,
    so the whole spectral family is never held at once.
    """
    stepped = flow_timestep(im, X, t_final, t_final / UNIQUENESS_STEPS)
    axis, c, ts, _ = _spectral_setup(im, X, stepped.times)
    worst, k = 0.0, 0
    for pts, _ in _checked_blocks(im, axis, c, ts):
        is_totally_real_stack(im.grid, im.chart, pts, im.winding)
        for a, b in zip(stepped.immersions[k:k + len(pts)], pts):
            worst = max(worst, float(np.max(np.abs(np.moveaxis(a.points, -1, 0) - b))))
        k += len(pts)
    return worst


# --- boundary value problem ---------------------------------------------------

def _winding_number(samples, z0):
    d = samples - z0
    ang = np.angle(d[np.r_[1:len(d), 0]] / d)
    return int(round(float(np.sum(ang)) / (2.0 * math.pi)))


def _require_nested(gamma0, gamma1):
    s0 = curve_lab.synthesize(gamma0, M=512)
    s1 = curve_lab.synthesize(gamma1, M=512)
    w_in = {_winding_number(s0, z) for z in s1[::16]}
    w_out = {_winding_number(s1, z) for z in s0[::16]}
    if w_in != {1} or w_out != {0}:
        raise NotNested(
            "curves must be disjoint with the second strictly inside the first"
        )


class _AnnulusProblem:
    """Residual and structured Gauss-Newton step of the annulus BVP.

    Unknowns x = (rho, Re a, Im a, beta, delta): the modulus, the Laurent
    coefficients a_n (n = -N..N) and the correspondence angles of the M
    outer and M inner nodes. Residual rows are (Re, Im) of
    g(z_j) - gamma0(beta_j) on |z| = 1, the same on |z| = rho against
    gamma1(delta_j), and the rotation gauge Im a_1.
    """

    def __init__(self, gamma0, gamma1, N, M):
        self.gamma0, self.gamma1, self.N, self.M = gamma0, gamma1, N, M
        self.alphas = 2.0 * math.pi * np.arange(M) / M
        self.n_idx = np.arange(-N, N + 1)
        self.basis = np.exp(1j * self.alphas)[:, None] ** self.n_idx

    def initial_guess(self):
        """rho from the enclosed-area ratio, a from gamma0, identity angles."""
        area0 = self.gamma0.signed_area()
        area1 = self.gamma1.signed_area()
        if area0 <= 0.0 or area1 <= 0.0:
            raise ValidationError("both curves must be anticlockwise")
        N, Ns = self.N, self.gamma0.N
        m = min(N, Ns)
        a = np.zeros(2 * N + 1, dtype=complex)
        a[N - m:N + m + 1] = self.gamma0.coeffs[Ns - m:Ns + m + 1]
        return np.concatenate([[math.sqrt(area1 / area0)], a.real, a.imag,
                               self.alphas, self.alphas])

    def unpack(self, x):
        na, M = 2 * self.N + 1, self.M
        a = x[1:1 + na] + 1j * x[1 + na:1 + 2 * na]
        return float(x[0]), a, x[1 + 2 * na:1 + 2 * na + M], x[1 + 2 * na + M:]

    def residual(self, x):
        rho, a, beta, delta = self.unpack(x)
        r_out = self.basis @ a - curve_lab.evaluate_at(self.gamma0, beta)
        r_in = (self.basis @ (rho ** self.n_idx * a)
                - curve_lab.evaluate_at(self.gamma1, delta))
        return np.concatenate([r_out.real, r_out.imag, r_in.real, r_in.imag,
                               [a[self.N + 1].imag]])

    def step(self, x, r):
        """Gauss-Newton step with the angles eliminated node by node.

        Node j's residual moves by dg_j + d_j dbeta_j with d_j = -gamma'(beta_j),
        so the best angle update leaves only the component of r_j + dg_j
        along the unit normal n_j = i d_j / |d_j|. Least squares on those
        2M normal components plus the gauge row gives (drho, da); the angle
        updates follow by back-substitution.
        """
        rho, a, beta, delta = self.unpack(x)
        N, M, na = self.N, self.M, 2 * self.N + 1
        basis_in = self.basis * rho ** self.n_idx
        dgin_drho = basis_in @ (self.n_idx / rho * a)
        d_out = -curve_lab.evaluate_derivative(self.gamma0, beta)
        d_in = -curve_lab.evaluate_derivative(self.gamma1, delta)
        cn_out = -1j * np.conj(d_out) / np.abs(d_out)    # conj(n_j)
        cn_in = -1j * np.conj(d_in) / np.abs(d_in)
        p_out = cn_out[:, None] * self.basis
        p_in = cn_in[:, None] * basis_in
        A = np.zeros((2 * M + 1, 1 + 2 * na))
        A[:M, 1:1 + na] = p_out.real
        A[:M, 1 + na:] = -p_out.imag
        A[M:2 * M, 0] = (cn_in * dgin_drho).real
        A[M:2 * M, 1:1 + na] = p_in.real
        A[M:2 * M, 1 + na:] = -p_in.imag
        A[2 * M, 1 + na + N + 1] = 1.0
        r_out = r[:M] + 1j * r[M:2 * M]
        r_in = r[2 * M:3 * M] + 1j * r[3 * M:4 * M]
        rhs = -np.concatenate([(cn_out * r_out).real, (cn_in * r_in).real,
                               [r[4 * M]]])
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
            raise NotFinite("annulus BVP: the residual or the Gauss-Newton step "
                            "is not finite")
        reduced, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        da = reduced[1:1 + na] + 1j * reduced[1 + na:]
        dg_out = self.basis @ da
        dg_in = basis_in @ da + dgin_drho * reduced[0]
        dbeta = -(np.conj(d_out) * (r_out + dg_out)).real / np.abs(d_out) ** 2
        ddelta = -(np.conj(d_in) * (r_in + dg_in)).real / np.abs(d_in) ** 2
        return np.concatenate([reduced, dbeta, ddelta])


def solve_bvp_annulus(gamma0, gamma1, N=32):
    """Fit g(z) = sum a_n z^n on {rho < |z| < 1} with g(S^1) = gamma0, g(rho S^1) = gamma1.

    Gauss-Newton with backtracking on unknowns (rho, coefficients, boundary
    correspondence angles); the rotation gauge is fixed by Im a_1 = 0.
    Initial guess: rho from the square root of the enclosed-area ratio,
    coefficients from the outer curve, identity correspondences at the
    M = max(8N, 64) nodes of each curve.

    Each node's residual depends on its own correspondence angle only, so
    the angle blocks of the Jacobian are diagonal. The step eliminates them
    node by node (a Schur complement, the variable-projection idea of
    Golub & Pereyra): projecting each node's residual onto the normal of its
    boundary curve leaves a (2M + 1) x (4N + 3) least-squares problem for
    the modulus and the coefficients instead of a (4M + 1) x (4N + 3 + 2M)
    one, and the angle updates follow by back-substitution.
    """
    if N < 1:
        raise ValidationError(f"N must be at least 1, got {N}")
    _require_nested(gamma0, gamma1)
    M = max(8 * N, 64)
    prob = _AnnulusProblem(gamma0, gamma1, N, M)
    x = prob.initial_guess()
    r = prob.residual(x)
    cost = float(r @ r)
    history = [math.sqrt(cost / r.size)]
    converged = False
    iterations = 0
    for it in range(BVP_MAX_ITER):
        if float(np.max(np.abs(r))) < BVP_TOL:
            converged = True
            break
        iterations = it + 1
        step = prob.step(x, r)
        alpha = 1.0
        improved = False
        while alpha > 1e-12:
            x_new = x + alpha * step
            rho_new = x_new[0]
            if 0.0 < rho_new < 1.0:
                r_new = prob.residual(x_new)
                cost_new = float(r_new @ r_new)
                if cost_new < cost:
                    x, r, cost = x_new, r_new, cost_new
                    improved = True
                    break
            alpha *= 0.5
        history.append(math.sqrt(cost / r.size))
        if not improved:
            break
        if float(np.max(np.abs(r))) < BVP_TOL:
            converged = True
            break
    rho, a, beta, delta = prob.unpack(x)
    n_idx = prob.n_idx
    n_store = max(N, 32)
    padded = np.zeros(2 * n_store + 1, dtype=complex)
    padded[n_store - N: n_store + N + 1] = a
    fitted = curve_lab.FourierCurve(coeffs=padded)
    out_part = np.abs(r[0:M] + 1j * r[M:2 * M])
    in_part = np.abs(r[2 * M:3 * M] + 1j * r[3 * M:4 * M])
    min_deriv = math.inf
    for rr in np.linspace(rho, 1.0, 9):
        zz = rr * np.exp(1j * prob.alphas)
        gp = (zz[:, None] ** (n_idx - 1) * n_idx) @ a
        min_deriv = min(min_deriv, float(np.min(np.abs(gp))))
    return BvpResult(
        modulus=rho,
        curve=fitted,
        outer_misfit=float(np.max(out_part)),
        inner_misfit=float(np.max(in_part)),
        converged=converged,
        iterations=iterations,
        residual_history=history,
        min_map_derivative=min_deriv,
    )

"""Flows of L: canonical geodesics d iota/dt = J iota_* X, the tangential flow
of X, and the two-curve problem.

Two schemes solve the Cauchy problem for X = f(theta_k) d/dtheta_k on any
chart. The geodesics are families of J-holomorphic curves, so they use J
and not the metric, and every chart here carries the standard J:

* flow_spectral: exact continuation of the trigonometric-polynomial
  representative. For X = c d/dtheta_k each Fourier mode m along axis k is
  multiplied by e^{-m c t}; a winding (linear) part picks up the constant
  drift t c J(W e_k). A varying f > 0 is continued on the axis
  reparametrized to constant speed (_constant_speed). Negative modes grow
  like e^{|m| c t}, which is the ill-posedness of the inward problem:
  growth past amp_max aborts, and for curves whose adverse-side radius
  estimate pins them to the unit circle the flow refuses to start at all.
  One call, _spectral_family, runs those guards and hands flow_spectral
  and uniqueness_compare the family, made, checked and validated in
  blocks of at most _BLOCK_NODES grid nodes, each laid out
  (B, 2n) + grid.sizes with the components ahead of the grid axes. The
  spectrum is taken once per family, for the growth guard and
  the continuation alike. One inverse FFT along the flow axis gives a
  block's points and both coordinate vector fields; one reduction checks
  that the points are finite, and the stack check validates the block
  from the Gram and omega matrices of those vectors, building no frame; it
  refuses a family that leaves the chart's domain. The transforms of the
  continuation run in place in work arrays made once per family; only the
  points block is new for each block, since members are views of it, and
  a block's vectors are valid until the next block is requested.

* flow_timestep: guarded RK4 with a 2/3 dealiasing filter and a spectral
  tail-energy monitor that aborts (BlowUpDetected) when the retained top
  modes carry more than 1e-3 of the energy. It fails loudly on smooth
  non-analytic data instead of smoothing it away. A step takes one of
  three routes. When every grid axis has at most _MATRIX_NODES nodes and
  X = f(theta_k) d/dtheta_k, a whole step is one cached operator along
  axis k, filter included, and the tail fraction is read off the state's
  coefficients in an orthonormal basis of the kept band. When some axis is
  longer and X is a coordinate field (every component one number, on one
  axis or several), a step is one forward and one inverse half-spectrum
  FFT around the RK4 polynomial applied mode by mode, its per-mode
  increments built once per call. Every other field takes four RK4
  stages, each differentiating by the FFT along the axes where X is not
  zero; after them the filter and monitor run on the half spectrum, with
  the same mask and tail rule as the per-mode step. The state is laid out
  (2n,) + grid.sizes and is kept in physical space between steps. The
  stepper applies the RK4 polynomial R(z), not the exponential e^z of the
  mode-wise continuation it is compared against. One stepping loop
  (_rk4_states) serves flow_timestep, which keeps frames of it, and
  uniqueness_compare, which subtracts each state from the spectral block
  of its time and keeps none.

tangential_flow is the flow of X = f(theta_k) d/dtheta_k on L itself,
iota o phi_t(X).

solve_bvp_annulus fits a Laurent polynomial annulus map between two nested
Jordan curves by Gauss-Newton on (modulus, coefficients, boundary
correspondences), the discrete version of the doubly connected Riemann
mapping theorem. Each step eliminates the correspondence angles node by node
and solves for the rest by one QR.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _spectral, curve_lab
from .errors import (AliasingDetected, AmplificationExceeded, BadArgument, BlowUpDetected,
                     NotFinite, NotNested, StepTooLarge, UnsupportedField, ValidationError)
from .immersion import Immersion, _check_stack, _volumes, is_totally_real

AMP_MAX = 1e6
TAIL_ENERGY_ABORT = 1e-3
DEALIAS_FRACTION = 2.0 / 3.0
SPECTRAL_PRESENCE_FLOOR = 1e-15
# the largest exponent whose e^x is a finite float
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# grid nodes one block of a spectral family holds (8 frames of 32x32); fixes
# how many frames are continued, checked and validated at a time
_BLOCK_NODES = 8192
# flow_timestep steps a one-axis field by one cached step operator when no
# grid axis is longer; its dense products lose to FFT stages from 256 nodes
_MATRIX_NODES = 128
# RK4 steps of one tangential flow; RK4 steps of uniqueness_compare's stepper;
# the most RK4 steps one flow_timestep call may take
TANGENTIAL_SUBSTEPS = 8
UNIQUENESS_STEPS = 200
MAX_TIMESTEPS = 100_000
# the most point coordinates the frames of one flow_timestep call, of one
# flow.run or of one curve.geodesic may keep: one frame of the largest grid
# on C^2 (1024 x 1024 x 4). At the bound a flow.run peaks at 1.34 to 1.37 GB
# RSS in 3.8 to 6.2 s and a curve.geodesic at 1.34 GB in 4.6 s, in a fresh
# process on a 2-core Xeon host, most of it formatting the frame CSVs
MAX_KEPT_NUMBERS = 2 ** 22
# annulus BVP: Gauss-Newton steps, and the largest residual entry of convergence
BVP_MAX_ITER = 60
BVP_TOL = 1e-8
# samples of each boundary in the nesting check: 2N + 1 of them resolve N <= 255
NESTING_SAMPLES = 512


@dataclass
class FlowResult:
    times: list
    immersions: list
    amplification: float
    scheme: str                  # "spectral" | "timestep"


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


def _resample_axis(points, axis, theta, w=None):
    """points with the nodes along one of its axes moved to the angles theta.

    theta holds one new angle per node of that axis; every line along it is
    re-evaluated at the same angles from its Fourier series. A winding
    column w = W e_k, laid out to broadcast against points, picks up
    w (theta - theta_node).
    """
    coeffs = _spectral.fourier_coefficients(np.moveaxis(points, axis, 0))
    out = np.moveaxis(_spectral.evaluate_fourier(coeffs, theta), 0, axis).real
    if w is not None:
        shape = [1] * points.ndim
        shape[axis] = theta.size
        nodes = 2.0 * np.pi * np.arange(theta.size) / theta.size
        out = out + (theta - nodes).reshape(shape) * w
    return out


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
    w = None if im.winding is None else im.winding[:, axis]
    return Immersion(grid=im.grid, chart=im.chart, winding=im.winding,
                     points=_resample_axis(im.points, axis, theta, w))


def _present_spectrum(im):
    """The spectrum of z_k = x_k + i y_k over the grid axes, laid out (n,) +
    grid.sizes, with the modes below SPECTRAL_PRESENCE_FLOOR of the largest
    (or of 1) set to zero: numerically absent, they would only inject
    e^{|m| c t}-amplified noise into a continuation."""
    pts = im.components_first()
    coeffs = np.fft.fftn(pts[:im.chart.n] + 1j * pts[im.chart.n:],
                         axes=tuple(range(1, 1 + im.n)))
    mags = np.abs(coeffs)
    return np.where(mags > SPECTRAL_PRESENCE_FLOOR * max(float(np.max(mags)), 1.0),
                    coeffs, 0.0)


def _growth_guard(im, spectrum, axis, c, t_extent):
    """Raise AmplificationExceeded for directions the data cannot support.

    spectrum is the _present_spectrum of im. Two guards: the amplitude cap
    e^{|m| |c t|} <= AMP_MAX over modes present above the spectral noise
    floor, and for curves with a populated adverse tail, the radius
    estimate itself (flowing inward needs inner radius below 1, outward
    needs outer radius above 1, each by RADIUS_MARGIN). Before either, a
    factor of any mode past the float range is refused unformed: the
    continuation multiplies every mode, absent ones too, by its factor.
    """
    m = _spectral.modes(im.grid.sizes[axis])
    shape = [1] * spectrum.ndim
    shape[1 + axis] = im.grid.sizes[axis]
    with np.errstate(over="ignore"):
        exponents = -np.reshape(m, shape) * c * t_extent
    top = float(np.max(exponents))
    if top > _LOG_FLOAT_MAX:
        raise AmplificationExceeded(
            f"continuation factors would reach e^{top:.4g}, past the float range")
    present = spectrum != 0.0
    if not np.any(present):
        return 1.0
    factors = np.exp(exponents)
    amp = max(1.0, float(np.max(
        np.where(present, np.broadcast_to(factors, spectrum.shape), 0.0))))
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
    """Exact mode-wise continuation of X = f(theta_k) d/dtheta_k on any chart.

    f must be constant or positive (_spectral_family). The frames are
    produced in blocks of at most _BLOCK_NODES grid nodes; every block
    passes the finiteness check (NotFinite) and the stack checks
    (immersion._check_stack) before the next is made, and the blocks are
    collected into one FlowResult. On the disk and the ball the stack check
    refuses a member that leaves the chart's domain (PointOutsideDomain). A
    family that fails reports the failure of its earliest failing block.
    """
    ts = [float(t) for t in ts]
    amp, blocks = _spectral_family(im, X, ts)
    immersions = [member for pts, _ in blocks for member in _members(im, pts)]
    return FlowResult(times=ts, immersions=immersions, amplification=amp,
                      scheme="spectral")


def family_volumes(im, X, ts):
    """Vol_J of each member of flow_spectral's family at ts, totalled block
    by block from the stack check's densities (immersion._volumes); no
    member is kept."""
    _, blocks = _spectral_family(im, X, [float(t) for t in ts])
    return [_volumes(j, g, im.grid.cell)["vol_j"]
            for _, (induced_vol, volj) in blocks for j, g in zip(volj, induced_vol)]


def require_kept(frames, numbers, name):
    """BadArgument naming the argument name when frames frames of numbers
    numbers each are more than MAX_KEPT_NUMBERS in all. flow_timestep checks
    its store_every so; a caller that writes out frames checks first."""
    if frames * numbers > MAX_KEPT_NUMBERS:
        raise BadArgument(f"{name}: {frames} frames of {numbers} numbers are more "
                          f"than the {MAX_KEPT_NUMBERS} numbers a flow keeps")


def _members(im, pts):
    """The immersions of a block (B, 2n) + sizes, sharing im's grid, chart and winding."""
    return [Immersion(grid=im.grid, chart=im.chart, points=np.moveaxis(p, 0, -1),
                      winding=im.winding) for p in pts]


def _constant_speed(f):
    """(theta, psi, c) that continue X = f(theta) d/dtheta at constant speed.

    f holds a periodic profile at M uniform nodes. With R = (1/2pi) int
    dtheta / f, X = c d/dpsi for c = 1/R. theta holds theta(psi_j) at the M
    uniform angles psi_j, inverting psi = int_0^theta 1 / (R f) with 1/f of
    the interpolant sampled on 4096 angles; psi holds the angles psi(theta_j)
    of the nodes, which map the continued members back, inverting
    theta = int_0^psi R f(theta(psi)) (_spectral.invert_cumulative both
    times). A profile at or below zero anywhere raises UnsupportedField:
    the 4096 angles hold the nodes of every grid, but the interpolant meets
    f there only to round-off, so the one test reads f with the probe.
    """
    rate = _interpolant(f)
    probe = rate(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
    if not np.minimum(np.min(f), np.min(probe)) > 0.0:
        raise UnsupportedField("the spectral continuation needs f > 0 everywhere")
    fractions = np.arange(f.size) / f.size
    theta, period = _spectral.invert_cumulative(1.0 / probe, fractions)
    R = period / (2.0 * math.pi)
    psi, _ = _spectral.invert_cumulative(R * rate(theta), fractions)
    return theta, psi, 1.0 / R


def _spectral_family(im, X, ts):
    """(amplification, blocks) of the spectral flow of X = f(theta_k)
    d/dtheta_k (_axis_profile) at the float times ts.

    The call makes the guards: other fields raise UnsupportedField, and so
    does a varying f that is not positive (_constant_speed). A constant
    f = c is continued on the grid of im; a varying one at c = 1/R on the
    axis resampled at theta(psi_j) (_constant_speed). The spectrum is the
    _present_spectrum of that immersion, and the amplification is
    _growth_guard's at the farthest time on each side of t = 0, the two
    sides continuing in opposite directions; 1 when nothing moves.

    blocks is the one path to the continuation: a generator of the points
    blocks of _continued_blocks, each checked before the next is made. A
    block holding a point that is not finite raises NotFinite naming the
    block's first and last time; then it passes the stack checks
    (immersion._check_stack), made from the coordinate vectors the
    continuation gives with the points. Each yields (points,
    (induced_vol, volj)): the points mapped back to the input's nodes along
    the flow axis (_resample_axis) for a varying f, and the densities of
    the stack check on the continued grid.
    """
    prof = _axis_profile(X)
    if prof is None:
        raise UnsupportedField("the spectral continuation needs X = f(theta_k) d/dtheta_k")
    axis, f = prof
    w = None if im.winding is None else im.winding[:, axis]
    c, psi = float(f[0]), None
    if np.max(np.abs(f - f[0])) > 1e-12 * max(1.0, abs(f[0])):
        theta, psi, c = _constant_speed(f)
        im = Immersion(grid=im.grid, chart=im.chart, winding=im.winding,
                       points=_resample_axis(im.points, axis, theta, w))
        # the winding column laid out against a block (B, 2n) + grid.sizes
        w = None if w is None else np.reshape(w, (-1,) + (1,) * im.n)
    spectrum = _present_spectrum(im)
    ends = sorted({min(ts, default=0.0), max(ts, default=0.0)} - {0.0})
    amp = max((_growth_guard(im, spectrum, axis, c, t) for t in ends), default=1.0)

    def blocks():
        first = 0
        for pts, vs in _continued_blocks(im, spectrum, axis, c, ts):
            last = first + len(pts) - 1
            if not np.isfinite(pts).all():
                raise NotFinite(f"the spectral continuation is not finite in the block "
                                f"of t = {ts[first]:.6g} to {ts[last]:.6g}")
            densities = _check_stack(im.grid, im.chart, pts, vs, im.winding)
            if psi is not None:
                pts = _resample_axis(pts, 2 + axis, psi, w)
            first = last + 1
            yield pts, densities
    return amp, blocks()


def _continued_blocks(im, spectrum, axis, c, ts):
    """Points of the continuation at ts in blocks (B, 2n) + grid.sizes, each
    paired with its coordinate vectors (n, 2n, B) + grid.sizes.

    Each Fourier mode m along the axis of each complex component z_k is
    multiplied by e^{-m c t}: spectrum is the _present_spectrum of im, and
    each block of at most _BLOCK_NODES nodes (at least one frame) is one
    inverse transform, run in place in a work array made once per family.
    Every other grid axis is brought to physical space once, and each block
    takes one inverse FFT along the flow axis of the stacked rows z,
    d z/dtheta_0, .., d z/dtheta_(n-1); the derivatives take the
    multipliers of spectral_derivative, so the vectors are
    _coordinate_vectors of the points up to round-off. Each points block is
    a new array, which members may keep as views; the vectors are a view of
    one array per family, valid only until the next block is requested.
    """
    n = im.chart.n
    # the spectrum gets a block axis after its component axis: (n, 1) + grid.sizes
    coeffs = spectrum[:, None]
    shape = [1] * im.n
    shape[axis] = im.grid.sizes[axis]
    m_shaped = np.reshape(_spectral.modes(im.grid.sizes[axis]), shape)
    drift = None
    if im.winding is not None:
        # linear part W theta_axis continues to W(theta + i c t): drift i c w
        w = im.winding[:n, axis] + 1j * im.winding[n:, axis]
        drift = np.reshape(1j * c * w, (n, 1) + (1,) * im.n)
    # a full block: as many frames as _BLOCK_NODES grid nodes hold (at
    # least one), or all of ts when they are fewer
    frames = max(1, min(len(ts), _BLOCK_NODES // math.prod(im.grid.sizes)))
    # rows (1 + n_grid, n, 1) + grid.sizes: z, then d z/dtheta_k for each
    # grid axis k, physical along every grid axis but the flow axis
    rows = [coeffs]
    for k, size in enumerate(im.grid.sizes):
        mult_shape = [1] * im.n
        mult_shape[k] = size
        mult = _spectral._derivative_multiplier(size, 1, False)
        rows.append(coeffs * np.reshape(mult, mult_shape))
    rows = np.stack(rows)
    for k in range(im.n):
        if k != axis:
            rows = np.fft.ifft(rows, axis=3 + k)
    # (1 + n_grid, n, frames) + grid.sizes: one transform line per row and node
    work = np.empty(rows.shape[:2] + (frames,) + im.grid.sizes, dtype=complex)
    vs_work = np.empty((im.n, 2 * n, frames) + im.grid.sizes)
    for s in range(0, len(ts), frames):
        t = np.reshape(ts[s:s + frames], (-1,) + (1,) * im.n)
        out = work[:, :, :len(t)]
        np.multiply(rows, np.exp(-m_shaped * c * t), out=out)
        np.fft.ifft(out, axis=3 + axis, out=out)
        z_t = out[0]
        vs = vs_work[:, :, :len(t)]
        vs[:, :n] = out[1:].real
        vs[:, n:] = out[1:].imag
        if im.winding is not None:
            vs += im.winding.T.reshape(im.winding.T.shape + (1,) * (1 + im.n))
            z_t += t * drift
        block = np.empty((len(t), 2 * n) + im.grid.sizes)
        block[:, :n] = z_t.real.swapaxes(0, 1)
        block[:, n:] = z_t.imag.swapaxes(0, 1)
        yield block, vs


def _along_axis(M, k, n_axes):
    """v -> M applied along grid axis k of a stepper state (2n,) + sizes.

    M times each (s0, s1) component slice on the state's axis 1 of a 2-D
    grid; on the last axis, the rows times M^T, laid out contiguously. M
    may be rectangular: that axis then takes its row count.
    """
    if k < n_axes - 1:
        return lambda points: M @ points
    MT = np.ascontiguousarray(M.T)
    # all the rows as one matrix, so that it is one product and not one per
    # component
    return lambda points: (points.reshape(-1, len(MT)) @ MT).reshape(
        points.shape[:-1] + MT.shape[1:])


def _band_tail(sizes, cutoffs):
    """The tail fraction of flow_timestep's monitor for a state in the band.

    B^T along every axis, B of _spectral.band_basis, gives the coefficients
    in the kept band, so the energies are sums of squares (Parseval): the
    total leaves DC out, the tail holds the modes past half the cutoff on
    some axis, as in _dealias_by_fft. A total whose root mean square is
    below SPECTRAL_PRESENCE_FLOOR of that of the means (or of 1) reads as
    zero: it is the round-off a derivative matrix leaves on constant lines,
    where the FFT leaves exact zeros.
    """
    n = len(sizes)
    coefficients = [_along_axis(_spectral.band_basis(s, cut).T, k, n)
                    for k, (s, cut) in enumerate(zip(sizes, cutoffs))]
    tail = np.zeros((), dtype=bool)
    for cut in cutoffs:
        tail = np.logical_or.outer(tail, np.r_[0, 1:cut + 1, 1:cut + 1] > cut / 2.0)
    # columns: the weights of the total, the tail and DC (the first
    # coefficient) in one component's energies, so one product gives all three
    dc = np.arange(tail.size) == 0
    weights = np.stack([~dc, tail.ravel(), dc], axis=-1).astype(float)

    def tail_fraction(points):
        c = points
        for coefficient in coefficients:
            c = coefficient(c)
        total, tail_energy, dc = (c * c).reshape(len(c), -1).sum(axis=0) @ weights
        floor = SPECTRAL_PRESENCE_FLOOR ** 2 * max(float(dc), points.size)
        return 0.0 if total <= floor else float(tail_energy) / float(total)
    return tail_fraction


def _half_spectrum_filter(sizes, cutoffs, n_comp):
    """(mask, tail_fraction): the dealias filter and monitor of flow_timestep
    on the half spectrum of the last grid axis (rfftn over the grid axes).

    mask keeps |m_k| <= cutoff_k on every axis, with a leading axis of 1
    for the components. tail_fraction(c) of a filtered spectrum c is the
    share of the energy in the top half of that band on any axis, DC left
    out; the interior columns of the last axis count twice, so it equals
    the full-spectrum fraction up to round-off.
    """
    n = len(sizes)
    half = sizes[:-1] + (sizes[-1] // 2 + 1,)
    mask = np.ones((1,) + half, dtype=bool)
    tail_mask = np.zeros((1,) + half, dtype=bool)
    for k, s in enumerate(sizes):
        m = np.abs(_spectral.modes(s)) if k < n - 1 else np.arange(half[-1])
        shape = [1] * (n + 1)
        shape[1 + k] = m.size
        mask = mask & (m <= cutoffs[k]).reshape(shape)
        tail_mask = tail_mask | ((m > cutoffs[k] / 2.0) & (m <= cutoffs[k])).reshape(shape)
    # energy weights: a half-spectrum column other than 0 and Nyquist stands
    # for two conjugate modes; the DC mode is left out of the budget
    weight = np.full((1,) + half, 2.0)
    weight[..., 0] = 1.0
    if sizes[-1] % 2 == 0:
        weight[..., -1] = 1.0
    weight[(0,) * (n + 1)] = 0.0
    # columns: the weights of the total and of the tail, one row per
    # coefficient of the (2n,) + half spectrum, so one product gives both sums
    weights = np.stack([np.broadcast_to(w, (n_comp,) + half).ravel()
                        for w in (weight, np.where(tail_mask, weight, 0.0))], axis=-1)

    def tail_fraction(c):
        total, tail = (np.abs(c) ** 2).reshape(-1) @ weights
        return 0.0 if total == 0.0 else float(tail) / float(total)
    return mask, tail_fraction


def _dealias_by_fft(sizes, cutoffs, n_comp):
    """points -> (the points filtered, their tail fraction), both by
    _half_spectrum_filter between one rfftn and one irfftn."""
    grid_axes = tuple(range(1, 1 + len(sizes)))
    mask, tail_fraction = _half_spectrum_filter(sizes, cutoffs, n_comp)

    def dealias(points):
        c = np.fft.rfftn(points, axes=grid_axes)
        c *= mask
        frac = tail_fraction(c)
        return np.fft.irfftn(c, s=sizes, axes=grid_axes), frac
    return dealias


def _fourier_step(J, sizes, cutoffs, scales, dt, winding):
    """y -> (y after one filtered RK4 step of dy/dt = J sum_k c_k (d_k y + W e_k),
    its tail fraction), every c_k a number.

    The right-hand side has constant coefficients, so an RK4 step is the
    polynomial R of dt J l on each mode, l = sum_k c_k i m_k (Trefethen,
    Spectral Methods in MATLAB, 2000, ch. 10), with the multipliers of
    spectral_derivative (Nyquist dropped). One rk4_step of du/dt = J l (u + I)
    from the zero (2n, 2n) + half state gives the increments R e_j - e_j of
    every unit state on every mode, filtered by the dealias mask. A step is
    then one rfftn, c mask + sum_j inc[:, j] c_j, the winding's increment
    dt J sum_k c_k W e_k at DC (where l = 0), the tail fraction of that
    spectrum and one irfftn.
    """
    n, n_comp = len(sizes), len(J)
    grid_axes = tuple(range(1, 1 + n))
    mask, tail_fraction = _half_spectrum_filter(sizes, cutoffs, n_comp)
    half = mask.shape[1:]
    ell = np.zeros(half, dtype=complex)
    for k, c in scales:
        shape = [1] * n
        shape[k] = half[k]
        ell += c * _spectral._derivative_multiplier(sizes[k], 1, k == n - 1).reshape(shape)
    eye = np.eye(n_comp).reshape((n_comp, n_comp) + (1,) * n)

    def rhs(u):
        lu = ell * (u + eye)
        return (J @ lu.reshape(n_comp, -1)).reshape(lu.shape)
    inc = _spectral.rk4_step(rhs, np.zeros((n_comp, n_comp) + half, dtype=complex), dt)
    inc *= mask[:, None]
    dc = None
    if winding is not None and scales:
        # a constant v is the DC coefficient v * prod(sizes) of the rfftn
        dc = dt * math.prod(sizes) * (J @ sum(c * winding[:, k] for k, c in scales))

    def advance(points):
        c = np.fft.rfftn(points, axes=grid_axes)
        out = c * mask
        for j in range(n_comp):
            out += inc[:, j] * c[j]
        if dc is not None:
            out[(slice(None),) + (0,) * n] += dc
        frac = tail_fraction(out)
        return np.fft.irfftn(out, s=sizes, axes=grid_axes), frac
    return advance


def _axis_step(J, sizes, cutoffs, axis, f, dt, w):
    """y -> (y after one filtered RK4 step of dy/dt = J f (d_axis y + w),
    its tail fraction), f a function of theta_axis.

    The right-hand side is linear and acts along one axis, so an RK4 step is
    one polynomial R of one operator (Trefethen, Spectral Methods in MATLAB,
    2000, ch. 10). With D of _spectral.derivative_matrix, one rk4_step of
    du/dt = i (f D u + b) from the zero state gives R e_j - e_j for b = f D
    e_j (no identity is subtracted, so round-off scales with the increment)
    and, for b = f, the winding's constant increment v. As J^2 = -1, the
    step is y + C y + J S y (+ Re v w + Im v J w), where C + i S = B B^T
    (R - I): B of _spectral.band_basis, the basis _band_tail reads, keeps
    the band of the increment. The other axes do not move, so a state in the
    band stays there.
    """
    s, n = sizes[axis], len(sizes)
    fD = f[:, None] * _spectral.derivative_matrix(s)
    # columns: the increments of the unit states, then v
    b = np.concatenate([fD, f[:, None]], axis=1)
    B = _spectral.band_basis(s, cutoffs[axis])
    inc = B @ (B.T @ _spectral.rk4_step(
        lambda u: 1j * (fD @ u + b), np.zeros(b.shape, dtype=complex), dt))
    C, S = (_along_axis(np.ascontiguousarray(part[:, :s]), axis, n)
            for part in (inc.real, inc.imag))
    shift = None
    if w is not None:
        shape = (len(J),) + tuple(s if k == axis else 1 for k in range(n))
        shift = (np.multiply.outer(w, inc[:, s].real)
                 + np.multiply.outer(J @ w, inc[:, s].imag)).reshape(shape)
    tail_fraction = _band_tail(sizes, cutoffs)

    def advance(points):
        out = (J @ S(points).reshape(len(J), -1)).reshape(points.shape)
        out += C(points)
        out += points
        if shift is not None:
            out += shift
        return out, tail_fraction(out)
    return advance


def _rk4_states(im, X, t_final, dt):
    """The RK4 stepper of flow_timestep and uniqueness_compare.

    Returns (times, states) after the up-front checks: dt must be positive
    and pass the StepTooLarge bound, and the steps to t_final may number at
    most MAX_TIMESTEPS (else BadArgument naming dt, a subnormal dt too).
    times is the schedule t = step * dt for steps 0..n_steps; when
    t_final / dt is not a whole number, n_steps is its ceiling and
    dt = t_final / n_steps, so the last step lands on t_final. states is a
    generator of (points, top) at those times: the state laid out
    (2n,) + grid.sizes and its largest absolute entry, the first one the
    initial points filtered on every axis. Every step makes a new array,
    so a state a caller holds is never written. A step whose state is not
    finite, or whose tail fraction exceeds TAIL_ENERGY_ABORT, raises
    BlowUpDetected.

    A step takes one of three routes, chosen once per call:
    * every grid axis has at most _MATRIX_NODES nodes and X is exactly
      f(theta_k) d/dtheta_k, the other components exact zeros: the step
      operator of _axis_step;
    * some grid axis is longer and every live component X^k is exactly one
      number c_k (a coordinate field, on one axis or several): the per-mode
      increments of _fourier_step;
    * any other field and grid: four rk4_step stages, each differentiating
      by the FFT along the axes where X^k is not exactly zero (a skipped
      term is an exact zero), then the filter and tail fraction of
      _dealias_by_fft.
    The two step operators are built once per call. The initial filter is
    _dealias_by_fft's on every route.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    comp = X.components
    max_speed = float(np.max(np.abs(comp)))
    sizes = im.grid.sizes
    cutoffs = [int(DEALIAS_FRACTION * (s // 2)) for s in sizes]
    m_eff = max(cutoffs)
    if dt * m_eff * max(max_speed, 1e-30) > 0.5:
        raise StepTooLarge(
            f"dt*m*|X| = {dt * m_eff * max_speed:.3g} > 0.5; reduce dt"
        )
    # a float until it is bounded: a subnormal dt makes it infinite, and one
    # at or past MAX_TIMESTEPS + 1 rounds or ceils past MAX_TIMESTEPS anyway
    n_steps = t_final / dt
    if n_steps < MAX_TIMESTEPS + 1:
        n_steps = int(round(n_steps))
        if abs(n_steps * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
            n_steps = math.ceil(t_final / dt)
            dt = t_final / n_steps
    if not n_steps <= MAX_TIMESTEPS:
        raise BadArgument(f"dt: t_final / dt asks for {n_steps:.3g} RK4 steps, "
                          f"more than {MAX_TIMESTEPS}")
    J = im.chart.J
    n = im.n
    # axes whose field component is exactly zero add exact zeros: skip them
    live = [k for k in range(n) if np.any(comp[k] != 0.0)]
    axis = live[0] if live else 0
    # rows: the nodes along the axis; columns: the nodes across it
    f = np.moveaxis(comp[axis], axis, 0).reshape(sizes[axis], -1)
    # X^k as one number where it is uniform (a coordinate field)
    scales = [(k, float(comp[k].flat[0]) if np.all(comp[k] == comp[k].flat[0]) else comp[k])
              for k in live]
    dealias = _dealias_by_fft(sizes, cutoffs, len(J))
    short = max(sizes) <= _MATRIX_NODES
    if short and len(live) <= 1 and np.all(f == f[:, :1]):
        advance = _axis_step(J, sizes, cutoffs, axis, f[:, 0], dt,
                             None if im.winding is None else im.winding[:, axis])
    elif not short and all(isinstance(scale, float) for _, scale in scales):
        advance = _fourier_step(J, sizes, cutoffs, scales, dt, im.winding)
    else:
        # W e_k laid out (2n,) + (1,) * n, added to the derivative along axis k
        drift = None if im.winding is None else [
            np.reshape(im.winding[:, k], (-1,) + (1,) * n) for k in range(n)]

        def rhs(points):
            out = None
            for k, scale in scales:
                dk = _spectral.spectral_derivative(points, axis=1 + k)
                if drift is not None:
                    dk += drift[k]
                dk *= scale
                out = dk if out is None else out + dk
            return (J @ out.reshape(len(J), -1)).reshape(out.shape)

        def advance(points):
            return dealias(_spectral.rk4_step(rhs, points, dt))

    # step 0 is the initial state, also when t_final asks for no step
    times = [step * dt for step in range(max(n_steps, 0) + 1)]

    def states():
        pts, _ = dealias(im.components_first())
        yield pts, float(np.max(np.abs(pts)))
        for t in times[1:]:
            pts, frac = advance(pts)
            # NaN and inf propagate to the maximum
            top = float(np.max(np.abs(pts)))
            if not math.isfinite(top) or frac > TAIL_ENERGY_ABORT:
                raise BlowUpDetected(
                    f"spectral tail energy fraction {frac:.3g} at t = {t:.4g}",
                    t_reached=t,
                )
            yield pts, top
    return times, states()


def flow_timestep(im, X, t_final, dt, store_every=1):
    """RK4 time stepping of d iota/dt = J iota_* X with spectral guards.

    The states come from _rk4_states, which makes the checks, owns the time
    schedule and raises BlowUpDetected; the state is laid out components
    first, (2n,) + grid.sizes, so every FFT line and matrix product and the
    product with J run over contiguous memory. flow_timestep keeps the
    first state, every store_every-th and the last as Immersions whose
    points are views of the state with the components last, tracks the
    amplification max (|state| + 1) / (|initial| + 1) in the sup norm, and
    validates the last frame (is_totally_real). After the checks of
    _rk4_states and before any step, kept frames holding more than
    MAX_KEPT_NUMBERS numbers in all raise BadArgument naming store_every.
    """
    times, states = _rk4_states(im, X, t_final, dt)
    n_steps = len(times) - 1
    # the steps 0, store_every, 2 store_every, .. and the last
    require_kept(-(-n_steps // store_every) + 1, im.points.size, "store_every")
    kept, frames_out, amp = [], [], 1.0
    for step, (pts, top) in enumerate(states):
        if step == 0:
            base_norm = top + 1.0
        amp = max(amp, (top + 1.0) / base_norm)
        if step % store_every == 0 or step == n_steps:
            kept.append(times[step])
            frames_out.append(_members(im, pts[None])[0])
    is_totally_real(frames_out[-1])
    return FlowResult(times=kept, immersions=frames_out, amplification=amp,
                      scheme="timestep")


def uniqueness_compare(im, X, t_final):
    """Sup-norm gap between the spectral and time-stepped flows.

    The stepper (_rk4_states) takes UNIQUENESS_STEPS RK4 steps to t_final
    in physical space, and its schedule gives the times of the spectral
    family (_spectral_family), which goes through the checks of
    flow_spectral block by block. The stepper advances beside it: each
    stepped state is subtracted from the block frame of its time, and the
    block is dropped after one reduction. So neither family is held: at
    most one block and one stepped state are alive at a time. The last
    stepped frame is validated (is_totally_real) as in flow_timestep.

    The errors come in the order the work runs: the stepper's up-front
    checks, then the spectral guards, then the first block or step that
    fails, a block being checked before the steps to its times are taken.
    """
    times, states = _rk4_states(im, X, t_final, t_final / UNIQUENESS_STEPS)
    _, blocks = _spectral_family(im, X, times)
    worst = 0.0
    for pts, _ in blocks:
        # the block is dropped after the comparison, so it takes the
        # differences in place, and one reduction compares the whole block
        for b in pts:
            last, _ = next(states)
            b -= last
        worst = max(worst, float(np.max(np.abs(pts, out=pts))))
    is_totally_real(_members(im, last[None])[0])
    return worst


# --- boundary value problem ---------------------------------------------------

def _winding_numbers(samples, points):
    """Winding number of the closed polygon `samples` about each of `points`."""
    d = samples - points[:, None]
    turn = np.roll(d, -1, axis=1)
    turn /= d
    return np.rint(np.sum(np.angle(turn), axis=1) / (2.0 * math.pi)).astype(int)


def _require_nested(gamma0, gamma1):
    """NotNested unless gamma1 lies inside gamma0; BadArgument naming a curve past N 255."""
    for name, curve in (("outer", gamma0), ("inner", gamma1)):
        if 2 * curve.N + 1 > NESTING_SAMPLES:
            raise BadArgument(f"{name}: a boundary curve's N must be <= "
                              f"{(NESTING_SAMPLES - 1) // 2}, got {curve.N}")
    s0 = curve_lab.synthesize(gamma0, M=NESTING_SAMPLES)
    s1 = curve_lab.synthesize(gamma1, M=NESTING_SAMPLES)
    w_in = set(_winding_numbers(s0, s1[::16]).tolist())
    w_out = set(_winding_numbers(s1, s0[::16]).tolist())
    if w_in != {1} or w_out != {0}:
        raise NotNested(
            "curves must be disjoint with the second strictly inside the first"
        )


def _value_and_tangent(curve):
    """FFT-ordered columns (a_n, i n a_n): gamma and gamma' in one evaluation."""
    n = np.arange(-curve.N, curve.N + 1)
    return np.fft.ifftshift(np.stack([curve.coeffs, 1j * n * curve.coeffs], axis=1),
                            axes=0)


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
        self._columns = (_value_and_tangent(gamma0), _value_and_tangent(gamma1))

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
        """(r, tangents): the residual, and (gamma0'(beta), gamma1'(delta)).

        One evaluation per curve gives its points and its tangents, so the
        step at an accepted iterate reads the tangents its residual made.
        """
        rho, a, beta, delta = self.unpack(x)
        out = _spectral.evaluate_fourier(self._columns[0], beta)
        inn = _spectral.evaluate_fourier(self._columns[1], delta)
        r_out = self.basis @ a - out[:, 0]
        r_in = self.basis @ (rho ** self.n_idx * a) - inn[:, 0]
        r = np.concatenate([r_out.real, r_out.imag, r_in.real, r_in.imag,
                            [a[self.N + 1].imag]])
        return r, (out[:, 1], inn[:, 1])

    def step(self, x, r, tangents):
        """Gauss-Newton step with the angles eliminated node by node.

        Node j's residual moves by dg_j + d_j dbeta_j with d_j = -gamma'(beta_j),
        so the best angle update leaves only the component of r_j + dg_j
        along the unit normal n_j = i d_j / |d_j|. Least squares on those
        2M normal components plus the gauge row gives (drho, da); the angle
        updates follow by back-substitution.

        The least-squares problem is solved by one Householder QR of A with
        the right-hand side as its last column: R's leading triangle against
        its last column gives the step, with no rank truncation. A zero pivot
        of that triangle raises NotFinite.
        """
        rho, a, beta, delta = self.unpack(x)
        N, M, na = self.N, self.M, 2 * self.N + 1
        basis_in = self.basis * rho ** self.n_idx
        dgin_drho = basis_in @ (self.n_idx / rho * a)
        d_out, d_in = -tangents[0], -tangents[1]
        cn_out = -1j * np.conj(d_out) / np.abs(d_out)    # conj(n_j)
        cn_in = -1j * np.conj(d_in) / np.abs(d_in)
        r_out = r[:M] + 1j * r[M:2 * M]
        r_in = r[2 * M:3 * M] + 1j * r[3 * M:4 * M]
        # columns: drho, Re da, Im da, then the right-hand side
        A = np.zeros((2 * M + 1, 2 + 2 * na))
        for rows, cn, basis, r_b in ((A[:M], cn_out, self.basis, r_out),
                                     (A[M:2 * M], cn_in, basis_in, r_in)):
            p = cn[:, None] * basis
            rows[:, 1:1 + na] = p.real
            rows[:, 1 + na:-1] = -p.imag
            rows[:, -1] = -(cn * r_b).real
        del p    # freed before the QR, which copies A twice
        A[M:2 * M, 0] = (cn_in * dgin_drho).real
        A[2 * M, 1 + na + N + 1] = 1.0
        A[2 * M, -1] = -r[4 * M]
        if not np.all(np.isfinite(A)):
            raise NotFinite("annulus BVP: the residual or the Gauss-Newton step "
                            "is not finite")
        R = np.linalg.qr(A, mode="r")
        if not np.all(np.diagonal(R)[:-1]):
            raise NotFinite("annulus BVP: the Gauss-Newton matrix is singular")
        reduced = np.linalg.solve(R[:-1, :-1], R[:-1, -1])
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
    one, and the angle updates follow by back-substitution. That problem is
    solved by QR without rank truncation: the inner columns carry rho^n, and
    a step that drops small singular values stalls on thin or high-N pairs.
    Each boundary curve has degree at most 255 (_require_nested).
    """
    if N < 1:
        raise ValidationError(f"N must be at least 1, got {N}")
    _require_nested(gamma0, gamma1)
    M = max(8 * N, 64)
    prob = _AnnulusProblem(gamma0, gamma1, N, M)
    x = prob.initial_guess()
    r, tangents = prob.residual(x)
    cost = float(r @ r)
    history = [math.sqrt(cost / r.size)]
    iterations = 0
    while iterations < BVP_MAX_ITER and not float(np.max(np.abs(r))) < BVP_TOL:
        iterations += 1
        step = prob.step(x, r, tangents)
        alpha = 1.0
        improved = False
        while alpha > 1e-12:
            x_new = x + alpha * step
            rho_new = x_new[0]
            if 0.0 < rho_new < 1.0:
                r_new, tangents_new = prob.residual(x_new)
                cost_new = float(r_new @ r_new)
                if cost_new < cost:
                    x, r, tangents, cost = x_new, r_new, tangents_new, cost_new
                    improved = True
                    break
            alpha *= 0.5
        history.append(math.sqrt(cost / r.size))
        if not improved:
            break
    converged = float(np.max(np.abs(r))) < BVP_TOL
    rho, a, beta, delta = prob.unpack(x)
    n_store = max(N, 32)
    padded = np.zeros(2 * n_store + 1, dtype=complex)
    padded[n_store - N: n_store + N + 1] = a
    fitted = curve_lab.FourierCurve(coeffs=padded)
    out_part = np.abs(r[0:M] + 1j * r[M:2 * M])
    in_part = np.abs(r[2 * M:3 * M] + 1j * r[3 * M:4 * M])
    # |g'(r e^{i alpha})| = |sum_n n a_n r^(n-1) e^{i n alpha}| on 9 radii at once
    radii = np.linspace(rho, 1.0, 9)
    gp = prob.basis @ ((prob.n_idx * a)[:, None] * radii ** (prob.n_idx - 1)[:, None])
    min_deriv = float(np.min(np.abs(gp)))
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

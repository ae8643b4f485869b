"""Test-only reference flows, the independent oracles of the production ones.

flow_on_torus_2d is the general 2-D tangential flow on L that the density
check used before it ran along one axis only: every grid angle moves under
RK4 along the full field X = X^1 d/dtheta_1 + X^2 d/dtheta_2, the field and
the points are evaluated off grid by a direct 2-D phase sum, and a winding
part W theta moves with both angles. It assumes nothing about the form of
X, so for X = f(theta_k) d/dtheta_k it checks
geodesic_flow.tangential_flow, which moves theta_k alone and resamples
along that axis only.

flow_timestep_full_spectrum is guarded RK4 for d iota/dt = J iota_* X with
nothing left out: every axis is differentiated, J is applied node by node,
and the dealias filter and the tail-energy monitor run on the complex full
spectrum. It checks geodesic_flow.flow_timestep, which skips the axes where
X is zero and works on the half spectrum.

geodesic_defect is J iota_* X - d iota/dt at the stored frames of a flow,
d iota/dt from central time differences of the frames and iota_* X from
their own coordinate vectors. The spectral continuation never forms a time
derivative, so the defect checks the geodesic equation of its frames
independently, at any c: it falls like h^4 until round-off.
commutator_check takes the theta-derivative of that defect, which measures
how far the flow surface is from commuting coordinate fields.
mode_growth_guard is the growth guard of geodesic_flow on one immersion,
with its spectrum taken there. continued_points is the mode-wise
continuation of a spectrum by one inverse FFT over all the grid axes, the
reference for geodesic_flow._continued_blocks, which brings the other axes
to physical space once and transforms each block along the flow axis.

perturbed_torus and wound_torus build the tori both are checked on, 32x32
unless other sizes are given.
"""

import math

import numpy as np

from trgeo import ambient, geodesic_flow as gf
from trgeo._spectral import modes, rk4_step, spectral_derivative
from trgeo.errors import BlowUpDetected, ValidationError
from trgeo.geodesic_flow import DEALIAS_FRACTION, TAIL_ENERGY_ABORT
from trgeo.immersion import GridTorus, Immersion, build_immersion, is_totally_real


def perturbed_torus(sizes=(32, 32)):
    return build_immersion(GridTorus(sizes), ambient.flat_chart(2),
                           "graph_perturbed_torus", r1=1.0, r2=1.0,
                           amplitude=0.3, mode=(1, 1)).im


def wound_torus(sizes=(32, 32)):
    """Straight torus with a sheared winding plus a periodic bump on the points."""
    qc = ambient.flat_quotient_chart(2)
    winding = [[1.0, 0.3], [0.0, 1.0], [0.2, 0.0], [0.0, 0.5]]
    st = build_immersion(GridTorus(sizes), qc, "straight_torus",
                         winding=winding, offset=[0.1, 0.2, 0.3, 0.4]).im
    t1, t2 = st.grid.mesh()
    bump = np.stack([0.1 * np.sin(t1 + t2), 0.05 * np.cos(t2), 0.1 * np.cos(t1),
                     0.05 * np.sin(2.0 * t1 - t2)], axis=-1)
    im = Immersion(grid=st.grid, chart=qc, points=st.points + bump,
                   winding=st.winding)
    is_totally_real(im)
    return im


def phase_sum_2d(coeffs, t1, t2):
    """sum_{a,b} coeffs[a, b, ...] e^{i (m_a t1 + m_b t2)} at each point (t1, t2).

    One phase matrix over all n1 * n2 modes, contracted with the
    coefficients by one matrix product; trailing axes of coeffs ride along.
    """
    n1, n2 = coeffs.shape[:2]
    t1, t2 = np.ravel(t1), np.ravel(t2)
    e1 = np.exp(1j * t1[:, None] * modes(n1))
    e2 = np.exp(1j * t2[:, None] * modes(n2))
    phases = (e1[:, :, None] * e2[:, None, :]).reshape(t1.size, n1 * n2)
    return phases @ coeffs.reshape(n1 * n2, -1)


def flow_on_torus_2d(im, X, t, substeps=8):
    """iota o phi_t(X) on a 2-torus by RK4 in both angles and 2-D evaluation."""
    n1, n2 = im.grid.sizes
    t1, t2 = im.grid.mesh()
    comp_coeffs = np.fft.fftn(np.moveaxis(X.components, 0, -1), axes=(0, 1)) / (n1 * n2)

    def field_at(thetas):
        return phase_sum_2d(comp_coeffs, thetas[0], thetas[1]).real.T.reshape(thetas.shape)

    thetas = np.stack([t1, t2])
    h = t / substeps
    for _ in range(substeps):
        thetas = rk4_step(field_at, thetas, h)

    pts_coeffs = np.fft.fftn(im.points, axes=(0, 1)) / (n1 * n2)
    pts = phase_sum_2d(pts_coeffs, thetas[0], thetas[1]).real.reshape(im.points.shape)
    if im.winding is not None:
        moved = np.stack([thetas[0] - t1, thetas[1] - t2], axis=-1)
        pts = pts + moved @ im.winding.T
    return Immersion(grid=im.grid, chart=im.chart, points=pts, winding=im.winding)


def flow_timestep_full_spectrum(im, X, t_final, dt):
    """(times, point arrays) of guarded RK4 on every axis and the full spectrum.

    The step-size guard and the final is_totally_real of the production
    flow are left out; both runs must raise BlowUpDetected at the same time.
    """
    comp = X.components
    cutoffs = [int(DEALIAS_FRACTION * (s // 2)) for s in im.grid.sizes]
    J = im.chart.J
    grid_axes = tuple(range(im.n))
    mask = np.ones(im.grid.sizes + (1,), dtype=bool)
    tail_mask = np.zeros(im.grid.sizes + (1,), dtype=bool)
    for k, s in enumerate(im.grid.sizes):
        m = np.abs(modes(s))
        shape = [1] * (im.n + 1)
        shape[k] = s
        mask = mask & (m <= cutoffs[k]).reshape(shape)
        tail_mask = tail_mask | ((m > cutoffs[k] / 2.0) & (m <= cutoffs[k])).reshape(shape)
    dc_mode = tuple([0] * im.n) + (slice(None),)

    def rhs(points):
        out = np.zeros_like(points)
        for k in range(im.n):
            dk = spectral_derivative(points, axis=k)
            if im.winding is not None:
                dk = dk + im.winding[:, k]
            out += comp[k][..., None] * dk
        return np.einsum("ij,...j->...i", J, out)

    def dealias(points):
        c = np.fft.fftn(points, axes=grid_axes) * mask
        energy = np.abs(c) ** 2
        energy[dc_mode] = 0.0
        total = float(np.sum(energy))
        frac = 0.0 if total == 0.0 else float(
            np.sum(np.where(tail_mask, energy, 0.0))) / total
        return np.fft.ifftn(c, axes=grid_axes).real, frac

    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
        n_steps = math.ceil(t_final / dt)
        dt = t_final / n_steps
    pts, _ = dealias(im.points)
    times, frames = [0.0], [pts]
    for step in range(1, n_steps + 1):
        pts, frac = dealias(rk4_step(rhs, pts, dt))
        t = step * dt
        if not np.all(np.isfinite(pts)) or frac > TAIL_ENERGY_ABORT:
            raise BlowUpDetected(
                f"spectral tail energy fraction {frac:.3g} at t = {t:.4g}",
                t_reached=t,
            )
        times.append(t)
        frames.append(pts)
    return times, frames


def mode_growth_guard(im, axis, c, t_extent):
    """geodesic_flow's growth guard of im flowing along axis at c to t_extent."""
    return gf._growth_guard(im, gf._present_spectrum(im), axis, c, t_extent)


def continued_points(im, spectrum, axis, c, ts):
    """The continuation of spectrum (n,) + grid.sizes at the times ts, laid
    out (len(ts), 2n) + grid.sizes: each mode m along the axis times
    e^{-m c t}, one ifftn over the grid axes, then the winding's drift
    t i c (W e_axis) on the complex components."""
    n = im.chart.n
    shape = [1] * im.n
    shape[axis] = im.grid.sizes[axis]
    t = np.reshape(np.asarray(ts, dtype=float), (-1,) + (1,) * im.n)
    factors = np.exp(-np.reshape(modes(im.grid.sizes[axis]), shape) * c * t)
    z = np.fft.ifftn(spectrum[:, None] * factors, axes=tuple(range(2, 2 + im.n)))
    if im.winding is not None:
        w = im.winding[:n, axis] + 1j * im.winding[n:, axis]
        z = z + t * np.reshape(1j * c * w, (n, 1) + (1,) * im.n)
    return np.concatenate([z.real, z.imag]).swapaxes(0, 1)


def geodesic_defect(flow, X):
    """J iota_* X - d iota/dt at each interior frame of a flow, laid out as
    the points, in the order of the frames.

    The time grid must be uniform with at least 3 samples. d iota/dt is the
    4th-order central difference of the frames when five are available,
    else the 2nd-order one; the linear part of a winding does not depend on
    t, so the points alone are differenced.
    """
    times = np.asarray(flow.times, dtype=float)
    if times.size < 3:
        raise ValidationError("the geodesic defect needs at least 3 time samples")
    dt_grid = np.diff(times)
    h = float(dt_grid[0])
    if not np.allclose(dt_grid, h, rtol=1e-10, atol=1e-14):
        raise ValidationError("the geodesic defect expects a uniform time grid")
    ims = flow.immersions
    pts = np.stack([im.points for im in ims])
    J = ims[0].chart.J
    lo = 2 if times.size >= 5 else 1
    defects = []
    for k in range(lo, times.size - lo):
        if lo == 2:
            dpdt = (pts[k - 2] - 8 * pts[k - 1] + 8 * pts[k + 1] - pts[k + 2]) / (12 * h)
        else:
            dpdt = (pts[k + 1] - pts[k - 1]) / (2 * h)
        push = np.einsum("k...,k...i->...i", X.components, ims[k].coordinate_vectors())
        defects.append(np.einsum("ij,...j->...i", J, push) - dpdt)
    return defects


def commutator_check(flow, X):
    """Consistency of the flow surface: d_t(iota_* X) vs d_s of d iota/dt.

    The two coordinate fields of the immersed strip must commute; since the
    spectral-in-s and FD-in-t operators commute exactly, the returned residual
    is the largest s-derivative of the geodesic defect J iota_* X - d iota/dt
    (geodesic_defect) along the axis of X.
    """
    prof = gf._axis_profile(X)
    axis = prof[0] if prof is not None else 0
    return max(float(np.max(np.abs(spectral_derivative(defect, axis=axis))))
               for defect in geodesic_defect(flow, X))

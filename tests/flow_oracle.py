"""General 2-D tangential flow on L, the independent oracle for the one-axis flow.

This is the flow the density check used before it ran along one axis only:
every grid angle moves under RK4 along the full field X = X^1 d/dtheta_1 +
X^2 d/dtheta_2, the field and the points are evaluated off grid by a direct
2-D phase sum, and a winding part W theta moves with both angles. It
assumes nothing about the form of X, so for X = f(theta_k) d/dtheta_k it
checks variation_harness._flow_on_torus, which moves theta_k alone and
resamples along that axis only.
"""

import numpy as np

from trgeo._spectral import modes, rk4_step
from trgeo.immersion import Immersion


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

"""Finite-difference oracle for the chart kernels of trgeo.ambient.

This is the derivative engine the chart kernels used before they became
exact, kept as an independent check: first derivatives of the potential by
the complex-step trick (the potential is evaluated on complexified
coordinates), the real Hessian by Richardson-extrapolated central
differences of that gradient, Christoffel symbols by one more Richardson
level of central differences of the metric, and the Ricci tensor by the
Kahler identity Ric = i ddbar(-log det H) with Richardson central
differences of -log det H. Its error is truncation-dominated, so halving
fd_step reduces the curvature residuals (by about 16x, down to ~1e-9).

The kernels take the chart's potential, n, radius and fd_step; the domain
checks stay with the chart.
"""

import numpy as np

from trgeo._spectral import richardson

_CSTEP = 1e-100          # complex-step size; cancellation-free
_K_METRIC = 1.0          # metric Hessian step, in units of fd_step * radius
_K_GAMMA = 30.0          # outer step for d(metric) in fd_christoffel
_K_RIC_INNER = 30.0      # step for the Hermitian Hessian inside -log det H
_K_RIC_OUTER = 100.0     # outer step for the Hessian of -log det H


def _phi_gradient(phi, pts):
    """Exact gradient of a potential via one complex step per coordinate."""
    d = pts.shape[-1]
    out = np.empty(pts.shape, dtype=float)
    base = pts.astype(complex)
    for a in range(d):
        z = base.copy()
        z[..., a] = z[..., a] + 1j * _CSTEP
        out[..., a] = np.asarray(phi(z)).imag / _CSTEP
    return out


def _gradient_jacobian(phi, pts, h):
    """Real Hessian of phi: Richardson central differences of the exact gradient."""
    d = pts.shape[-1]

    def jac(step):
        out = np.empty(pts.shape[:-1] + (d, d))
        for b in range(d):
            e = np.zeros(d)
            e[b] = step
            gp = _phi_gradient(phi, pts + e)
            gm = _phi_gradient(phi, pts - e)
            out[..., :, b] = (gp - gm) / (2.0 * step)
        return out

    hess = richardson(jac, h)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _value_hessian(f, pts, h):
    """Richardson central-difference Hessian of a scalar function of points."""
    d = pts.shape[-1]

    def hess_at(s):
        out = np.empty(pts.shape[:-1] + (d, d))
        f0 = f(pts)
        for a in range(d):
            ea = np.zeros(d)
            ea[a] = s
            out[..., a, a] = (f(pts + ea) - 2.0 * f0 + f(pts - ea)) / s ** 2
            for b in range(a + 1, d):
                eb = np.zeros(d)
                eb[b] = s
                mixed = (f(pts + ea + eb) - f(pts + ea - eb)
                         - f(pts - ea + eb) + f(pts - ea - eb)) / (4.0 * s * s)
                out[..., a, b] = mixed
                out[..., b, a] = mixed
        return out

    return richardson(hess_at, h)


def _complex_hessian(hess):
    """d^2 f / dz_j dz_bar_k from the real Hessian [[A, B], [B^T, D]] of f."""
    n = hess.shape[-1] // 2
    A = hess[..., :n, :n]
    D = hess[..., n:, n:]
    B = hess[..., :n, n:]
    return (A + D + 1j * (B - np.swapaxes(B, -1, -2))) / 4.0


def _assemble(H):
    """Real symmetric form of t(v, w) = 2 Re(v^T H conj(w))."""
    S, T = 2.0 * H.real, 2.0 * H.imag
    return np.block([[S, T], [-T, S]])


def _hermitian_hessian(chart, pts, step):
    return _complex_hessian(_gradient_jacobian(chart.phi, np.asarray(pts, dtype=float),
                                               step))


def fd_metric(chart, pts):
    """Metric g at pts, shape pts.shape[:-1] + (2n, 2n)."""
    step = _K_METRIC * chart.fd_step * chart.radius
    return _assemble(_hermitian_hessian(chart, pts, step))


def fd_christoffel(chart, pts):
    """Christoffel symbols Gamma^c_{ab} from central differences of fd_metric."""
    pts = np.asarray(pts, dtype=float)
    d = chart.dim
    h = _K_GAMMA * chart.fd_step * chart.radius

    def dg(step):
        out = np.empty(pts.shape[:-1] + (d, d, d))
        for b in range(d):
            e = np.zeros(d)
            e[b] = step
            out[..., b, :, :] = (fd_metric(chart, pts + e)
                                 - fd_metric(chart, pts - e)) / (2.0 * step)
        return out

    dgs = richardson(dg, h)
    ginv = np.linalg.inv(fd_metric(chart, pts))
    m = (np.einsum("...adb->...dab", dgs)
         + np.einsum("...bda->...dab", dgs)
         - dgs)
    gamma = 0.5 * np.einsum("...cd,...dab->...cab", ginv, m)
    return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))


def fd_ricci(chart, pts):
    """Ricci tensor: Richardson central-difference Hessian of -log det H."""
    pts = np.asarray(pts, dtype=float)
    h_in = _K_RIC_INNER * chart.fd_step * chart.radius
    h_out = _K_RIC_OUTER * chart.fd_step * chart.radius

    def neg_log_det(q):
        H = _hermitian_hessian(chart, q, h_in)
        if chart.n == 1:
            det = H[..., 0, 0].real
        else:
            det = (H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]).real
        return -np.log(det)

    ric = _assemble(_complex_hessian(_value_hessian(neg_log_det, pts, h_out)))
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))

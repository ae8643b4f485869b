"""Kahler ambient kernel on a single chart of R^{2n} ~ C^n.

Real coordinates are ordered (x_1..x_n, y_1..y_n) with z_k = x_k + i y_k, and
J is the constant matrix [[0, -I], [I, 0]], so J dx_k = dy_k exactly.

Charts are either flat or carry a Kahler potential phi. The Hermitian matrix
H_jk = d^2 phi / dz_j dz_bar_k determines the 2-form omega = i ddbar(phi) and
the compatible metric g(v, w) = omega(v, Jw) = 2 Re(v^T H conj(w)).

Derivative pipeline: first derivatives of phi use the complex-step trick
(exact to machine precision; potentials are evaluated on a complexified real
coordinate), second derivatives are Richardson-extrapolated central
differences of that gradient, and the curvature uses the Kahler identity
Ric = assemble(-log det H) with one more Richardson central-difference level.
This keeps every curvature residual truncation-dominated, so halving fd_step
actually reduces it, while staying inside 1e-6 of closed forms on the built-in
charts. A plain nested chain of second-order stencils cannot do both in
float64; see christoffels_at, which still uses the direct FD-of-metric route.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _spectral
from .errors import MetricNotPositiveDefinite, PointOutsideDomain, ValidationError

_CSTEP = 1e-100          # complex-step size; cancellation-free
_K_METRIC = 1.0          # metric Hessian step, in units of fd_step * radius
_K_GAMMA = 30.0          # outer step for d(metric) in christoffels_at
_K_RIC_INNER = 30.0      # step for the Hermitian Hessian inside -log det H
_K_RIC_OUTER = 100.0     # outer step for the Hessian of -log det H


def standard_j(n):
    """Constant complex structure matrix on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True)
class AmbientChart:
    """Immutable chart description: flat or potential-generated Kahler metric.

    For kind="potential" the callable phi must accept arrays of shape
    (..., 2n) and must tolerate complex entries (it is evaluated on the
    holomorphic extension in each real coordinate separately). Built-in
    potentials are polynomial/log expressions, which extend automatically.
    """

    n: int
    kind: str                      # "flat" | "potential"
    phi: Optional[Callable] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    fd_step: float = 1e-4
    name: str = "chart"
    quotient: bool = False         # flat chart with periodic identifications

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError("complex dimension must be 1 or 2")
        if self.kind not in ("flat", "potential"):
            raise ValidationError(f"unknown chart kind {self.kind!r}")
        if self.kind == "potential":
            if self.phi is None or self.radius is None:
                raise ValidationError("potential charts need phi and a domain radius")
            if self.fd_step <= 0:
                raise ValidationError("fd_step must be positive")
        if self.center is None:
            object.__setattr__(self, "center", np.zeros(2 * self.n))

    @property
    def dim(self):
        return 2 * self.n

    @property
    def J(self):
        return standard_j(self.n)

    @property
    def is_flat(self):
        return self.kind == "flat"

    def descriptor(self):
        d = {"name": self.name, "n": self.n, "kind": self.kind, "fd_step": self.fd_step}
        if self.radius is not None:
            d["radius"] = self.radius
        if self.quotient:
            d["quotient"] = True
        return d

    # -- domain ------------------------------------------------------------

    def stencil_reach(self):
        """Largest coordinate offset any internal stencil may probe."""
        if self.is_flat:
            return 0.0
        top = max(_K_GAMMA + _K_METRIC, _K_RIC_OUTER + _K_RIC_INNER)
        return 2.0 * top * self.fd_step * self.radius

    def require_inside(self, pts, margin=None):
        if self.is_flat:
            return
        pts = np.asarray(pts, dtype=float)
        if margin is None:
            margin = 2.0 * self.fd_step * self.radius
        r = np.sqrt(np.sum((pts - self.center) ** 2, axis=-1))
        bad = r > self.radius - margin
        if np.any(bad):
            worst = float(np.max(r))
            raise PointOutsideDomain(
                f"point at radius {worst:.6g} is not interior to chart "
                f"'{self.name}' (radius {self.radius}, margin {margin:.3g})"
            )

    # -- metric ------------------------------------------------------------

    def hermitian_hessian(self, pts, step=None):
        """H_jk = d^2 phi / dz_j dz_bar_k, shape pts.shape[:-1] + (n, n)."""
        if self.is_flat:
            shape = np.asarray(pts).shape[:-1] + (self.n, self.n)
            H = np.zeros(shape, dtype=complex)
            H[...] = 0.5 * np.eye(self.n)
            return H
        if step is None:
            step = _K_METRIC * self.fd_step * self.radius
        hess = _gradient_jacobian(self.phi, np.asarray(pts, dtype=float), step)
        n = self.n
        A = hess[..., :n, :n]
        D = hess[..., n:, n:]
        B = hess[..., :n, n:]
        return (A + D + 1j * (B - np.swapaxes(B, -1, -2))) / 4.0

    def metric_many(self, pts, check_pd=True):
        """Batched metric and 2-form matrices at chart points.

        On flat charts both are read-only broadcast views of I and J^T.
        """
        pts = np.asarray(pts, dtype=float)
        if self.is_flat:
            shape = pts.shape[:-1] + (self.dim, self.dim)
            return (np.broadcast_to(np.eye(self.dim), shape),
                    np.broadcast_to(self.J.T, shape))
        self.require_inside(pts)
        H = self.hermitian_hessian(pts)
        g = _assemble_symmetric(H)
        if check_pd:
            _require_positive_definite(g, self.name)
        omega = np.swapaxes(self.J, 0, 1) @ g
        return g, omega

    def christoffel_many(self, pts):
        """Levi-Civita symbols Gamma^c_{ab} from central differences of g."""
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return np.zeros(pts.shape[:-1] + (d, d, d))
        self.require_inside(pts, margin=self.stencil_reach())
        h = _K_GAMMA * self.fd_step * self.radius

        def dg(step):
            out = np.empty(pts.shape[:-1] + (d, d, d))
            for b in range(d):
                e = np.zeros(d)
                e[b] = step
                gp, _ = self.metric_many(pts + e, check_pd=False)
                gm, _ = self.metric_many(pts - e, check_pd=False)
                out[..., b, :, :] = (gp - gm) / (2.0 * step)
            return out

        dgs = _spectral.richardson(dg, h)
        g0, _ = self.metric_many(pts)
        ginv = np.linalg.inv(g0)
        m = (np.einsum("...adb->...dab", dgs)
             + np.einsum("...bda->...dab", dgs)
             - dgs)
        gamma = 0.5 * np.einsum("...cd,...dab->...cab", ginv, m)
        return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))

    def ricci_many(self, pts):
        """Ricci tensor via the Kahler identity Ric = assemble(-log det H)."""
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return np.zeros(pts.shape[:-1] + (d, d))
        self.require_inside(pts, margin=self.stencil_reach())
        h_in = _K_RIC_INNER * self.fd_step * self.radius
        h_out = _K_RIC_OUTER * self.fd_step * self.radius

        def neg_log_det(q):
            H = self.hermitian_hessian(q, step=h_in)
            if self.n == 1:
                det = H[..., 0, 0].real
            else:
                det = (H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]).real
            if np.any(det <= 0.0):
                raise MetricNotPositiveDefinite(
                    f"degenerate Hermitian Hessian while differentiating on '{self.name}'"
                )
            return -np.log(det)

        hess = _value_hessian(neg_log_det, pts, h_out)
        n = self.n
        A = hess[..., :n, :n]
        D = hess[..., n:, n:]
        B = hess[..., :n, n:]
        R = (A + D + 1j * (B - np.swapaxes(B, -1, -2))) / 4.0
        ric = _assemble_symmetric(R)
        return 0.5 * (ric + np.swapaxes(ric, -1, -2))


@dataclass
class MetricData:
    """Metric package at one chart point (curvature slots filled on demand)."""

    point: np.ndarray
    g: np.ndarray
    omega: np.ndarray
    christoffels: Optional[np.ndarray] = None
    ricci: Optional[np.ndarray] = None


# --- public single-point operations ---------------------------------------

def metric_at(chart, p):
    p = np.asarray(p, dtype=float)
    g, omega = chart.metric_many(p[None, :])
    return MetricData(point=p, g=g[0], omega=omega[0])


def christoffels_at(chart, p):
    p = np.asarray(p, dtype=float)
    return chart.christoffel_many(p[None, :])[0]


def ricci_at(chart, p):
    p = np.asarray(p, dtype=float)
    return chart.ricci_many(p[None, :])[0]


def verify_kahler_einstein(chart, sample_points):
    """Check nabla J = 0 and fit the best Einstein constant over samples.

    Returns a dict with max ||nabla J||, max ||Ric - c g|| (entrywise) and the
    least-squares constant c. Purely a report; never raises on non-Einstein.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 8:
        raise ValidationError("need at least 8 interior sample points")
    J = chart.J
    gamma = chart.christoffel_many(pts)
    nabla_j = 0.0
    for a in range(chart.dim):
        ga = gamma[:, :, a, :]
        comm = ga @ J - J @ ga
        nabla_j = max(nabla_j, float(np.max(np.abs(comm))))
    g, _ = chart.metric_many(pts)
    ric = chart.ricci_many(pts)
    c = float(np.sum(ric * g) / np.sum(g * g))
    resid = float(np.max(np.abs(ric - c * g)))
    return {
        "max_nabla_j": nabla_j,
        "max_einstein_residual": resid,
        "einstein_constant": c,
        "n_samples": int(pts.shape[0]),
    }


# --- built-in charts -------------------------------------------------------

def flat_chart(n=1):
    return AmbientChart(n=n, kind="flat", name=f"flat_c{n}")


def flat_quotient_chart(n=2):
    """Flat metric with periodic identifications: hosts closed straight tori."""
    return AmbientChart(n=n, kind="flat", name=f"flat_quotient_c{n}", quotient=True)


def _ball_log_potential(pts):
    # -2 log(1 - sum z_k^2): complex-safe holomorphic extension of -2 log(1-|p|^2)
    return -2.0 * np.log(1.0 - np.sum(np.asarray(pts) ** 2, axis=-1))


def poincare_disk(fd_step=1e-4):
    """Unit disk with curvature -1 (metric 4/(1-|z|^2)^2 at the origin scale)."""
    return AmbientChart(n=1, kind="potential", phi=_ball_log_potential,
                        radius=1.0, fd_step=fd_step, name="poincare_disk")


def complex_hyperbolic_ball(fd_step=1e-4):
    """Unit ball in C^2 with the same log potential; Einstein with c = -3/2."""
    return AmbientChart(n=2, kind="potential", phi=_ball_log_potential,
                        radius=1.0, fd_step=fd_step, name="complex_hyperbolic_ball")


def potential_chart(n, phi, radius, fd_step=1e-4, name="potential"):
    return AmbientChart(n=n, kind="potential", phi=phi, radius=radius,
                        fd_step=fd_step, name=name)


def chart_from_descriptor(desc):
    """Resolve a chart descriptor (scenario files) to a built-in chart."""
    name = desc.get("name")
    fd_step = desc.get("fd_step", 1e-4)
    if name in ("flat_c1", "flat"):
        return flat_chart(1)
    if name == "flat_c2":
        return flat_chart(2)
    if name in ("flat_quotient_c2", "flat_quotient"):
        return flat_quotient_chart(2)
    if name == "poincare_disk":
        return poincare_disk(fd_step=fd_step)
    if name == "complex_hyperbolic_ball":
        return complex_hyperbolic_ball(fd_step=fd_step)
    raise ValidationError(f"unknown chart descriptor {desc!r}")


# --- derivative engine ------------------------------------------------------

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

    hess = _spectral.richardson(jac, h)
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

    return _spectral.richardson(hess_at, h)


def _assemble_symmetric(H):
    """Symmetric 2-tensor t(v, w) = 2 Re(v^T H conj(w)) in real block form."""
    S = H.real
    T = H.imag
    n = H.shape[-1]
    out = np.empty(H.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = 2.0 * S
    out[..., n:, n:] = 2.0 * S
    out[..., :n, n:] = 2.0 * T
    out[..., n:, :n] = -2.0 * T
    return out


def _require_positive_definite(g, name):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(g)
        raise MetricNotPositiveDefinite(
            f"metric on chart '{name}' is not positive definite "
            f"(min eigenvalue {float(np.min(eigs)):.3g})"
        ) from None

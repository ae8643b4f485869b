"""Kahler ambient kernel on a single chart of R^{2n} ~ C^n.

Real coordinates are ordered (x_1..x_n, y_1..y_n) with z_k = x_k + i y_k, and
J is the constant matrix [[0, -I], [I, 0]], so J dx_k = dy_k exactly.

Charts are either flat or carry a Kahler potential phi. The Hermitian matrix
H_jk = d^2 phi / dz_j dz_bar_k determines the 2-form omega = i ddbar(phi) and
the compatible metric g(v, w) = omega(v, Jw) = 2 Re(v^T H conj(w)).

Derivative pipeline: exact, by truncated Taylor arithmetic (`_taylor`). Each
kernel evaluates phi once on the Taylor variables x_a + t_a, in fixed-size
blocks of points: at degree 2 for the metric, at degree 3 for the
Christoffel symbols (dg from the third-order coefficients), and at degree 4
for the Ricci tensor, which uses the Kahler identity Ric = i ddbar(-log det H)
with H, det H and -log det H formed as degree-2 series. verify_kahler_einstein
reads g, dg and the Ricci tensor off one degree-4 evaluation. Series carry
a bound on their degree, so products skip the pairs that are exact zeros
(the squares of the coordinates in the built-in potential, the low powers
in log's Horner scheme). The inverse metric of the Christoffel symbols (and
of H_J) is the closed-form inverse of the n x n Hermitian block H
(inverse_metric), not a 2n x 2n LAPACK inverse. The results are exact up to
round-off (|Ric + 3/2 g| ~ 4e-15 on the C^2 ball). The finite-difference
engine (complex-step gradients and Richardson central differences) is the
independent oracle for these kernels and lives in the tests
(tests/fd_oracle.py); at its default step it accepts exactly the points the
kernels accept.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _taylor
from .errors import MetricNotPositiveDefinite, PointOutsideDomain, ValidationError

# Domain margins, in units of the chart radius: the metric accepts only
# points 2 h inside the chart, Christoffel symbols and the Ricci tensor only
# points 2 * 130 h inside, where h = 1e-4 is the finite-difference oracle's
# default step and 130 h the reach of its stencils (tests/fd_oracle.py), so
# the oracle can check every point the kernels accept.
_MARGIN = 2.0 * 1e-4
_STENCIL_MARGIN = 2.0 * 130.0 * 1e-4
# pair products one Taylor product holds at a time (2 MB); fixes the block size
_BLOCK_PAIRS = 1 << 18


def standard_j(n):
    """Constant complex structure matrix on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True)
class AmbientChart:
    """Immutable chart description: flat or potential-generated Kahler metric.

    For kind="potential" the callable phi receives a NumPy object array of
    shape (2n,) holding truncated Taylor series, one per real coordinate,
    and must return one series. It may index that array and use +, -, *, /,
    integer powers, np.asarray, np.sum and np.log (NumPy hands ** and log to
    the elements); other ufuncs and casts to float are not supported and
    raise ValidationError. The built-in -2 log(1 - |z|^2) potential is
    written this way. For the test oracle phi must also accept complex
    arrays of shape (..., 2n).
    """

    n: int
    kind: str                      # "flat" | "potential"
    phi: Optional[Callable] = None
    radius: Optional[float] = None         # of the domain, a ball about 0
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

    @property
    def dim(self):
        return 2 * self.n

    @property
    def J(self):
        return standard_j(self.n)

    @property
    def is_flat(self):
        return self.kind == "flat"

    # -- domain ------------------------------------------------------------

    def require_inside(self, pts, margin=_MARGIN):
        """PointOutsideDomain unless every point lies margin * radius inside."""
        if self.is_flat:
            return
        pts = np.asarray(pts, dtype=float)
        margin = margin * self.radius
        r = np.sqrt(np.sum(pts ** 2, axis=-1))
        bad = r > self.radius - margin
        if np.any(bad):
            worst = float(np.max(r))
            raise PointOutsideDomain(
                f"point at radius {worst:.6g} is not interior to chart "
                f"'{self.name}' (radius {self.radius}, margin {margin:.3g})"
            )

    # -- metric ------------------------------------------------------------

    def _on_blocks(self, pts, degree, kernel, shape):
        """kernel(h) over fixed-size blocks of points, stacked into one array.

        h[a][b] is d^2 phi / dx_a dx_b as a Taylor series of degree - 2
        about each point of the block (phi evaluated once, at degree
        `degree`); kernel returns an array of shape (points,) + shape.
        """
        d = self.dim
        flat = pts.reshape(-1, d)
        out = np.empty((flat.shape[0],) + shape)
        size = max(1, _BLOCK_PAIRS // _taylor.n_pairs(d, degree))
        for s in range(0, flat.shape[0], size):
            try:
                phi = self.phi(_taylor.variables(flat[s:s + size], degree))
            except TypeError as e:
                raise ValidationError(
                    f"potential of chart '{self.name}' uses an operation Taylor "
                    f"arithmetic does not support ({e}); it may use +, -, *, /, "
                    "integer powers, np.asarray, np.sum and np.log"
                ) from None
            out[s:s + size] = kernel(_hessian(phi))
        return out.reshape(pts.shape[:-1] + shape)

    def metric_many(self, pts):
        """Batched metric and 2-form matrices at chart points.

        On flat charts both are read-only broadcast views of I and J^T.
        """
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            shape = pts.shape[:-1] + (d, d)
            return (np.broadcast_to(np.eye(d), shape),
                    np.broadcast_to(self.J.T, shape))
        self.require_inside(pts)
        g = self._on_blocks(pts, 2, lambda h: _kahler_tensor(_coefficient(h, 0)),
                            (d, d))
        _require_positive_definite(g, self.name)
        omega = np.swapaxes(self.J, 0, 1) @ g
        return g, omega

    def inverse_metric(self, g):
        """Inverses of metric matrices of this chart, shape (..., 2n, 2n).

        The kernels' metrics are g = 2 [[S, T], [-T, S]], the real form of
        t(v, w) = 2 Re(v^T H conj(w)) with H = S + iT Hermitian
        (_assemble_symmetric); g^-1 is the real form of H^-1 / 4, with H^-1
        in closed form (complex_inverse). On a flat chart g is I and this
        is the read-only identity view.
        """
        if self.is_flat:
            return np.broadcast_to(np.eye(self.dim), g.shape)
        n = self.n
        h = (g[..., :n, :n] + 1j * g[..., :n, n:]) * 0.5
        return _assemble_symmetric(complex_inverse(h) * 0.25)

    def christoffel_many(self, pts):
        """Levi-Civita symbols Gamma^c_{ab} from the exact first derivatives of g."""
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return np.zeros(pts.shape[:-1] + (d, d, d))
        self.require_inside(pts, _STENCIL_MARGIN)
        return self._christoffel(self._on_blocks(pts, 3, _g_dg, (1 + d, d, d)))

    def _christoffel(self, g_dg):
        """Gamma from [g, d_1 g, .., d_d g] on axis -3, after g's positivity check."""
        g0, dgs = g_dg[..., 0, :, :], g_dg[..., 1:, :, :]
        _require_positive_definite(g0, self.name)
        ginv = self.inverse_metric(g0)
        m = (np.einsum("...adb->...dab", dgs)
             + np.einsum("...bda->...dab", dgs)
             - dgs)
        gamma = 0.5 * np.einsum("...cd,...dab->...cab", ginv, m)
        return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))

    def ricci_many(self, pts):
        """Ricci tensor via the Kahler identity Ric = i ddbar(-log det H)."""
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return np.zeros(pts.shape[:-1] + (d, d))
        self.require_inside(pts, _STENCIL_MARGIN)
        return self._on_blocks(pts, 4, self._ricci, (d, d))

    def _ricci(self, h):
        """Ric from second derivatives h of phi given as degree-2 series."""
        n = self.n
        # H = S + iT with S_jk = (h[j][k] + h[n+j][n+k]) / 4 and
        # T_jk = (h[j][n+k] - h[k][n+j]) / 4, as degree-2 series
        s = [[(h[j][k] + h[n + j][n + k]) * 0.25 for k in range(n)]
             for j in range(n)]
        if n == 1:
            det = s[0][0]
        else:
            t = (h[0][n + 1] - h[1][n]) * 0.25
            det = s[0][0] * s[1][1] - s[0][1] * s[0][1] - t * t
        if np.any(det.c[0] <= 0.0):
            raise MetricNotPositiveDefinite(
                f"degenerate Hermitian Hessian on '{self.name}'")
        return _kahler_tensor(_coefficient(_hessian(-det.log()), 0))

    def _einstein_data(self, pts):
        """(g, Gamma, Ric) at points from one degree-4 evaluation of phi.

        The errors are those of christoffel_many, metric_many and ricci_many
        called in that order: g's positivity check comes before the Ricci
        tensor's own check, whichever block fails first.
        """
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return (self.metric_many(pts)[0], self.christoffel_many(pts),
                    self.ricci_many(pts))
        self.require_inside(pts, _STENCIL_MARGIN)
        ricci_errors = []

        def kernel(h):
            g_dg = _g_dg(h)
            try:
                ric = self._ricci(h)
            except MetricNotPositiveDefinite as e:
                ricci_errors.append(e)
                ric = np.zeros(g_dg.shape[:-3] + (d, d))
            return np.concatenate([g_dg, ric[..., None, :, :]], axis=-3)

        # [..., 0] = g, [..., 1 + b] = d_b g, [..., 1 + d] = Ric
        series = self._on_blocks(pts, 4, kernel, (2 + d, d, d))
        gamma = self._christoffel(series[..., :1 + d, :, :])
        if ricci_errors:
            raise ricci_errors[0]
        return series[..., 0, :, :], gamma, series[..., 1 + d, :, :]


def verify_kahler_einstein(chart, sample_points):
    """Check nabla J = 0 and fit the best Einstein constant over samples.

    Returns a dict with max ||nabla J||, max ||Ric - c g|| (entrywise) and the
    least-squares constant c. Purely a report; never raises on non-Einstein.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 8:
        raise ValidationError("need at least 8 interior sample points")
    J = chart.J
    g, gamma, ric = chart._einstein_data(pts)
    nabla_j = 0.0
    for a in range(chart.dim):
        ga = gamma[:, :, a, :]
        comm = ga @ J - J @ ga
        nabla_j = max(nabla_j, float(np.max(np.abs(comm))))
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
    # -2 log(1 - |p|^2) in the operations a potential may use (AmbientChart);
    # it also runs on complex coordinates, as the FD oracle needs
    return -2.0 * np.log(1.0 - np.sum(np.asarray(pts) ** 2, axis=-1))


def poincare_disk():
    """Unit disk with curvature -1 (metric 4/(1-|z|^2)^2 at the origin scale)."""
    return AmbientChart(n=1, kind="potential", phi=_ball_log_potential,
                        radius=1.0, name="poincare_disk")


def complex_hyperbolic_ball():
    """Unit ball in C^2 with the same log potential; Einstein with c = -3/2."""
    return AmbientChart(n=2, kind="potential", phi=_ball_log_potential,
                        radius=1.0, name="complex_hyperbolic_ball")


def potential_chart(n, phi, radius, name="potential"):
    return AmbientChart(n=n, kind="potential", phi=phi, radius=radius, name=name)


def chart_from_descriptor(desc):
    """Resolve a chart descriptor (scenario files) to a built-in chart."""
    name = desc.get("name")
    if name in ("flat_c1", "flat"):
        return flat_chart(1)
    if name == "flat_c2":
        return flat_chart(2)
    if name in ("flat_quotient_c2", "flat_quotient"):
        return flat_quotient_chart(2)
    if name == "poincare_disk":
        return poincare_disk()
    if name == "complex_hyperbolic_ball":
        return complex_hyperbolic_ball()
    raise ValidationError(f"unknown chart descriptor {desc!r}")


# --- Taylor helpers ---------------------------------------------------------

def _hessian(t):
    """Second derivatives of a Taylor series: h[a][b] = h[b][a], degree p - 2."""
    grad = [t.diff(a) for a in range(t.d)]
    h = [[None] * t.d for _ in range(t.d)]
    for a in range(t.d):
        for b in range(a, t.d):
            h[a][b] = h[b][a] = grad[a].diff(b)
    return h


def _g_dg(h):
    """[g, d_1 g, .., d_d g] stacked on axis -3, from h of degree >= 1.

    Coefficient 0 of h is the Hessian of phi and the coefficient of t_b its
    derivative along x_b.
    """
    return np.stack([_kahler_tensor(_coefficient(h, i)) for i in range(1 + len(h))],
                    axis=-3)


def _coefficient(h, k):
    """The k-th Taylor coefficients of a matrix of series, shape batch + (d, d)."""
    return np.stack([np.stack([e.c[k] for e in row], axis=-1) for row in h], axis=-2)


def _kahler_tensor(hess):
    """Symmetric tensor of i ddbar f from the real Hessian of f.

    H_jk = d^2 f / dz_j dz_bar_k = (A + D + i (B - B^T)) / 4 in terms of the
    real Hessian blocks [[A, B], [B^T, D]], assembled as 2 Re(v^T H conj(w)).
    """
    n = hess.shape[-1] // 2
    A = hess[..., :n, :n]
    D = hess[..., n:, n:]
    B = hess[..., :n, n:]
    return _assemble_symmetric((A + D + 1j * (B - np.swapaxes(B, -1, -2))) / 4.0)


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


def complex_inverse(m):
    """Inverses of n x n matrices, n <= 2, shape (..., n, n), in closed form."""
    if m.shape[-1] == 1:
        return 1.0 / m
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    adj = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    return adj / (a * d - b * c)[..., None, None]


def _require_positive_definite(g, name):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(g)
        raise MetricNotPositiveDefinite(
            f"metric on chart '{name}' is not positive definite "
            f"(min eigenvalue {float(np.min(eigs)):.3g})"
        ) from None

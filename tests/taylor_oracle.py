"""Truncated-Taylor oracle for the chart kernels of trgeo.ambient.

This is the derivative engine the chart kernels used before they became
closed forms in the radial potential, kept as an independent check for any
potential of the real coordinates: each kernel evaluates phi once on the
Taylor variables x_a + t_a (_taylor), in fixed-size blocks of points, at
degree 2 for the metric, at degree 3 for the Christoffel symbols (dg from
the third-order coefficients) and at degree 4 for the Ricci tensor, which
uses the Kahler identity Ric = i ddbar(-log det H) with H, det H and
-log det H formed as degree-2 series. The Levi-Civita assembly inverts g by
LAPACK and positivity is a Cholesky test, so neither shares code with the
package's kernel.

potential_chart(n, phi, radius) is a chart of this kind; taylor_twin(chart)
is the Taylor chart of a built-in radial chart's potential. phi receives a
NumPy object array of shape (2n,) holding truncated Taylor series, one per
real coordinate, and must return one series. It may index that array and
use +, -, *, /, integer powers, np.asarray, np.sum and np.log (NumPy hands
** and log to the elements); other ufuncs and casts to float are not
supported and raise ValidationError. For the finite-difference oracle phi
must also accept complex arrays of shape (..., 2n).
"""

from dataclasses import dataclass

import numpy as np

import _taylor
from trgeo.ambient import AmbientChart, _STENCIL_MARGIN, _assemble_symmetric
from trgeo.errors import MetricNotPositiveDefinite, ValidationError

# pair products one Taylor product holds at a time (2 MB); fixes the block size
_BLOCK_PAIRS = 1 << 18


@dataclass(frozen=True)
class TaylorChart(AmbientChart):
    """A chart whose kernels differentiate phi by truncated Taylor arithmetic."""

    kind: str = "potential"

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError("complex dimension must be 1 or 2")
        if self.phi is None or self.radius is None:
            raise ValidationError("potential charts need phi and a domain radius")

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
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        self.require_inside(pts)
        g = self._on_blocks(pts, 2, lambda h: _kahler_tensor(_coefficient(h, 0)),
                            (d, d))
        _require_positive_definite(g, self.name)
        return g, np.swapaxes(self.J, 0, 1) @ g

    def christoffel_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        self.require_inside(pts, _STENCIL_MARGIN)
        return self._levi_civita(self._on_blocks(pts, 3, _g_dg, (1 + d, d, d)))

    def _levi_civita(self, g_dg):
        """Gamma from [g, d_1 g, .., d_d g] on axis -3, after g's positivity check."""
        g0, dgs = g_dg[..., 0, :, :], g_dg[..., 1:, :, :]
        _require_positive_definite(g0, self.name)
        ginv = np.linalg.inv(g0)
        m = (np.einsum("...adb->...dab", dgs)
             + np.einsum("...bda->...dab", dgs)
             - dgs)
        gamma = 0.5 * np.einsum("...cd,...dab->...cab", ginv, m)
        return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))

    def ricci_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        self.require_inside(pts, _STENCIL_MARGIN)
        return self._on_blocks(pts, 4, self._ricci_of_hessian, (d, d))

    def _ricci_of_hessian(self, h):
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
        self.require_inside(pts, _STENCIL_MARGIN)
        ricci_errors = []

        def kernel(h):
            g_dg = _g_dg(h)
            try:
                ric = self._ricci_of_hessian(h)
            except MetricNotPositiveDefinite as e:
                ricci_errors.append(e)
                ric = np.zeros(g_dg.shape[:-3] + (d, d))
            return np.concatenate([g_dg, ric[..., None, :, :]], axis=-3)

        # [..., 0] = g, [..., 1 + b] = d_b g, [..., 1 + d] = Ric
        series = self._on_blocks(pts, 4, kernel, (2 + d, d, d))
        gamma = self._levi_civita(series[..., :1 + d, :, :])
        if ricci_errors:
            raise ricci_errors[0]
        return series[..., 0, :, :], gamma, series[..., 1 + d, :, :]


def potential_chart(n, phi, radius, name="potential"):
    return TaylorChart(n=n, phi=phi, radius=radius, name=name)


def taylor_twin(chart):
    """The Taylor chart of a radial chart's potential, under the same name."""
    return potential_chart(chart.n, chart.phi, chart.radius, chart.name)


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


def _require_positive_definite(g, name):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(g)
        raise MetricNotPositiveDefinite(
            f"metric on chart '{name}' is not positive definite "
            f"(min eigenvalue {float(np.min(eigs)):.3g})"
        ) from None

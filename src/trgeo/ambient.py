"""Kahler ambient kernel on a single chart of R^{2n} ~ C^n.

Real coordinates are ordered (x_1..x_n, y_1..y_n) with z_k = x_k + i y_k, and
J is the constant matrix [[0, -I], [I, 0]], so J dx_k = dy_k exactly.

Charts are either flat or radial: a Kahler potential phi(s) of s = |z|^2
alone. The Hermitian matrix H_jk = d^2 phi / dz_j dz_bar_k determines the
2-form omega = i ddbar(phi) and the compatible metric
g(v, w) = omega(v, Jw) = 2 Re(v^T H conj(w)).

Derivative pipeline: closed forms in the s-derivatives phi', .., phi''''
(the Calabi ansatz; Calabi, "Extremal Kahler metrics", 1982; Hwang & Singer,
Trans. AMS 354, 2002), which each radial chart supplies (AmbientChart.dphi):

- H_jk = phi' delta_jk + phi'' z_bar_j z_k. With p the real point and q = J p
  its real form is g = 2 phi' I + 2 phi'' M, M = p p^T + q q^T, which holds
  x_j x_k + y_j y_k in its diagonal blocks and the antisymmetric
  x_j y_k - y_j x_k off them (real arithmetic, so g is bitwise symmetric).
- d_a g = 4 phi''' p_a M + 2 phi'' (d_a M + 2 p_a I), with
  d_a M = e_a p^T + p e_a^T + (J e_a) q^T + q (J e_a)^T; the Christoffel
  symbols follow by the real Levi-Civita formula, so nabla J = 0 stays a
  check (verify_kahler_einstein) and is not true by construction.
- Ric = i ddbar(psi) with psi = -log det H = -(n - 1) log phi' - log u,
  u = phi' + s phi'': the same construction with psi', psi'' for phi', phi''.

H has the eigenvalue u on the complex line of z and phi' on its orthogonal
complement (n = 2), so g is positive definite exactly where u > 0 and, for
n = 2, phi' > 0, and g^-1 = (I - phi'' M / u) / (2 phi'). The kernels run
over fixed-size blocks of points. The results are exact up to round-off
(|Ric + 3/2 g| ~ 7e-15 on the C^2 ball). The independent oracles live in
the tests: the finite-difference engine (complex-step gradients and
Richardson central differences, tests/fd_oracle.py), which differentiates
phi itself and at its default step accepts exactly the points the kernels
accept, and the truncated-Taylor kernel of any potential of the real
coordinates (tests/taylor_oracle.py).
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BadArgument, MetricNotPositiveDefinite, PointOutsideDomain, ValidationError

# Domain margins, in units of the chart radius: the metric accepts only
# points 2 h inside the chart, Christoffel symbols and the Ricci tensor only
# points 2 * 130 h inside, where h = 1e-4 is the finite-difference oracle's
# default step and 130 h the reach of its stencils (tests/fd_oracle.py), so
# the oracle can check every point the kernels accept.
_MARGIN = 2.0 * 1e-4
_STENCIL_MARGIN = 2.0 * 130.0 * 1e-4
# points per kernel block: bounds the (2n, 2n, 2n, points) temporaries of
# the Christoffel symbols at about 256 kB each
_BLOCK = 512


class _Jets(NamedTuple):
    """A block of B points, points last: p (2n, B), q = J p, M = p p^T + q q^T
    (2n, 2n, B; the real form of z_bar_j z_k), s = |p|^2 and the potential's
    s-derivatives d1..d4 at s."""
    p: np.ndarray
    q: np.ndarray
    M: np.ndarray
    s: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    d4: np.ndarray


def standard_j(n):
    """Constant complex structure matrix on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True)
class AmbientChart:
    """Immutable chart description: flat or a radial Kahler potential.

    For kind="radial", phi(pts) is the potential of points of shape
    (..., 2n), real or complex (the finite-difference oracle evaluates it on
    complexified coordinates), and dphi(s) returns the four s-derivatives
    (phi', phi'', phi''', phi'''') of the same potential as functions of
    s = |p|^2, each an array of s's shape. The chart's domain is the ball
    of the given radius about 0.
    """

    n: int
    kind: str                      # "flat" | "radial"
    phi: Optional[Callable] = None
    dphi: Optional[Callable] = None
    radius: Optional[float] = None         # of the domain, a ball about 0
    name: str = "chart"
    quotient: bool = False         # flat chart with periodic identifications

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError("complex dimension must be 1 or 2")
        if self.kind not in ("flat", "radial"):
            raise ValidationError(f"unknown chart kind {self.kind!r}")
        if self.kind == "radial":
            if self.phi is None or self.dphi is None or self.radius is None:
                raise ValidationError("radial charts need phi, dphi and a domain radius")

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

    # -- kernels -------------------------------------------------------------

    def _on_blocks(self, pts, margin, kernel, shape):
        """kernel(jets) over fixed-size blocks of points, as one array.

        All points are checked against the domain first; each block then
        gets its _Jets and their positivity check. kernel returns an array
        of shape shape + (B,), points last, and the result is laid out
        pts.shape[:-1] + shape.
        """
        pts = np.asarray(pts, dtype=float)
        self.require_inside(pts, margin)
        flat = pts.reshape(-1, self.dim)
        out = np.empty((flat.shape[0],) + shape)
        for s in range(0, flat.shape[0], _BLOCK):
            jets = self._jets(np.ascontiguousarray(flat[s:s + _BLOCK].T))
            out[s:s + _BLOCK] = np.moveaxis(kernel(jets), -1, 0)
        return out.reshape(pts.shape[:-1] + shape)

    def _jets(self, p):
        """The _Jets of points p (2n, B), after the positivity check."""
        n = self.n
        q = np.concatenate([-p[n:], p[:n]])
        s = np.sum(p * p, axis=0)
        j = _Jets(p, q, p[:, None] * p + q[:, None] * q, s, *self.dphi(s))
        # the eigenvalues of H: u on the line of z, phi' across it (n = 2).
        # A NaN point passes on to NaN in g, which the frame check names as
        # non-finite geometry
        u = j.d1 + s * j.d2
        low = np.minimum(u, j.d1) if n == 2 else u
        if np.any(low <= 0.0):
            raise MetricNotPositiveDefinite(
                f"metric on chart '{self.name}' is not positive definite "
                f"(min eigenvalue {2.0 * float(np.nanmin(low)):.3g})")
        return j

    def _metric(self, j):
        return _real_form(j.d1, j.d2, j.M)

    def _ricci(self, j):
        """Ric from psi = -(n - 1) log phi' - log u, u = phi' + s phi''.

        psi' = -(n - 1) phi''/phi' - u'/u and
        psi'' = -(n - 1) (phi'''/phi' - (phi''/phi')^2) - u''/u + (u'/u)^2,
        with u' = 2 phi'' + s phi''' and u'' = 3 phi''' + s phi''''.
        """
        u = j.d1 + j.s * j.d2
        du = (2.0 * j.d2 + j.s * j.d3) / u
        psi1 = -du
        psi2 = du * du - (3.0 * j.d3 + j.s * j.d4) / u
        if self.n == 2:
            r = j.d2 / j.d1
            psi1 = psi1 - r
            psi2 = psi2 + (r * r - j.d3 / j.d1)
        return _real_form(psi1, psi2, j.M)

    def _christoffel(self, j):
        """Gamma^c_ab = g^cd (d_a g_db + d_b g_da - d_d g_ab) / 2 from the jets.

        d_a g_bc = 2 phi'' d_a M_bc + p_a (4 phi''' M_bc + 4 phi'' delta_bc),
        where d_a M = e_a p^T + (J e_a) q^T plus its transpose. g^-1 is
        (I - phi'' M / u) / (2 phi') in closed form (I / (2 u) for n = 1,
        where M = s I).
        """
        n, d = self.n, self.dim
        diag = np.arange(d)
        x = np.zeros((d, d, d, j.p.shape[-1]))
        x[diag, diag] = j.p
        x[np.arange(n), np.arange(n, d)] = j.q
        x[np.arange(n, d), np.arange(n)] = -j.q
        k = 4.0 * j.d3 * j.M
        k[diag, diag] += 4.0 * j.d2
        dgs = (2.0 * j.d2) * (x + x.swapaxes(1, 2)) + j.p[:, None, None] * k
        t = dgs.swapaxes(0, 1)
        m = t + t.swapaxes(1, 2) - dgs
        u = j.d1 + j.s * j.d2
        if n == 1:
            ginv = np.zeros((d, d) + u.shape)
            ginv[diag, diag] = 0.5 / u
        else:
            ginv = (-j.d2 / u) * j.M
            ginv[diag, diag] += 1.0
            ginv *= 0.5 / j.d1
        gamma = 0.5 * np.einsum("cdn,dabn->cabn", ginv, m)
        return 0.5 * (gamma + gamma.swapaxes(1, 2))

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
        g = self._on_blocks(pts, _MARGIN, self._metric, (d, d))
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
        """Levi-Civita symbols Gamma^c_{ab} from the closed-form first derivatives of g."""
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return np.zeros(pts.shape[:-1] + (d, d, d))
        return self._on_blocks(pts, _STENCIL_MARGIN, self._christoffel, (d, d, d))

    def ricci_many(self, pts):
        """Ricci tensor via the Kahler identity Ric = i ddbar(-log det H)."""
        pts = np.asarray(pts, dtype=float)
        d = self.dim
        if self.is_flat:
            return np.zeros(pts.shape[:-1] + (d, d))
        return self._on_blocks(pts, _STENCIL_MARGIN, self._ricci, (d, d))


def verify_kahler_einstein(chart, sample_points):
    """Check nabla J = 0 and fit the best Einstein constant over samples.

    Returns a dict with max ||nabla J||, max ||Ric - c g|| (entrywise) and the
    least-squares constant c. Purely a report; never raises on non-Einstein.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 8:
        raise ValidationError("need at least 8 interior sample points")
    J = chart.J
    # Gamma first: its domain check has the widest margin, and its
    # positivity check comes before the Ricci tensor's own
    gamma = chart.christoffel_many(pts)
    g, _ = chart.metric_many(pts)
    ric = chart.ricci_many(pts)
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
    # -2 log(1 - |p|^2); it also runs on complex coordinates, as the FD oracle needs
    return -2.0 * np.log(1.0 - np.sum(np.asarray(pts) ** 2, axis=-1))


def _ball_log_derivatives(s):
    # d^k/ds^k of -2 log(1 - s) = 2 (k - 1)! / (1 - s)^k
    w = 1.0 / (1.0 - s)
    d1 = 2.0 * w
    d2 = d1 * w
    d3 = 2.0 * d2 * w
    return d1, d2, d3, 3.0 * d3 * w


def poincare_disk():
    """Unit disk with curvature -1 (metric 4/(1-|z|^2)^2 at the origin scale)."""
    return AmbientChart(n=1, kind="radial", phi=_ball_log_potential,
                        dphi=_ball_log_derivatives, radius=1.0, name="poincare_disk")


def complex_hyperbolic_ball():
    """Unit ball in C^2 with the same log potential; Einstein with c = -3/2."""
    return AmbientChart(n=2, kind="radial", phi=_ball_log_potential,
                        dphi=_ball_log_derivatives, radius=1.0,
                        name="complex_hyperbolic_ball")


# the built-in charts by the name a scenario's chart descriptor gives
CHARTS = {"flat_c1": flat_chart, "flat_c2": lambda: flat_chart(2),
          "flat_quotient_c2": flat_quotient_chart, "poincare_disk": poincare_disk,
          "complex_hyperbolic_ball": complex_hyperbolic_ball}


def chart_from_descriptor(desc):
    """The built-in chart that a descriptor {"name": ...} names in CHARTS;
    BadArgument naming name for any other."""
    name = desc.get("name")
    if name not in CHARTS:
        raise BadArgument(f"name: unknown chart {name!r} (known: {', '.join(CHARTS)})")
    return CHARTS[name]()


# --- real forms ----------------------------------------------------------------

def _real_form(a, b, M):
    """2 a I + 2 b M, points last: the real form of a delta_jk + b z_bar_j z_k."""
    out = (2.0 * b) * M
    diag = np.arange(M.shape[0])
    out[diag, diag] += 2.0 * a
    return out


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

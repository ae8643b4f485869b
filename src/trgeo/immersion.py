"""Discretized totally real immersions of T^1 and T^2 into a chart.

An immersion is sampled on a uniform periodic grid. Tangent data comes from
FFT derivatives, so everything here assumes smooth periodic dependence on the
grid angles. Immersions into the flat quotient chart may carry a winding
matrix W: the actual position is W @ theta plus the stored periodic part,
which keeps spectral differentiation valid for closed straight tori.

The J-volume density rho_J is computed two ways at every node and the two are
cross-checked: as sqrt(det_C h_ij) for the Hermitian form h = g - i omega on
an orthonormal tangent frame, and as the square root of the ambient volume of
(e_1..e_n, Je_1..Je_n). Both equal 1 exactly on Lagrangian planes.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral
from .ambient import AmbientChart, chart_from_descriptor
from .errors import (DegenerateFrame, NotImmersed, NotTotallyReal,
                     ValidationError)

RHO_MIN = 1e-6            # numerical floor for "totally real"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class GridTorus:
    """Uniform periodic grid on T^n, n in {1, 2}; sizes are powers of two >= 16."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) not in (1, 2):
            raise ValidationError("GridTorus supports n = 1 or 2")
        for s in sizes:
            if s < 16 or (s & (s - 1)) != 0:
                raise ValidationError(f"grid size {s} must be a power of two >= 16")

    @property
    def n(self):
        return len(self.sizes)

    @property
    def spacing(self):
        return tuple(2.0 * np.pi / s for s in self.sizes)

    @property
    def cell(self):
        c = 1.0
        for s in self.sizes:
            c *= 2.0 * np.pi / s
        return c

    def thetas(self, axis):
        s = self.sizes[axis]
        return 2.0 * np.pi * np.arange(s) / s

    def mesh(self):
        axes = [self.thetas(k) for k in range(self.n)]
        if self.n == 1:
            return [axes[0]]
        return list(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class VectorFieldOnL:
    """Tangent field sum_k components[k] * d/d theta_k sampled on the grid."""

    grid: GridTorus
    components: np.ndarray      # shape (n,) + grid.sizes

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        if comp.shape != (self.grid.n,) + self.grid.sizes:
            raise ValidationError("field components must have shape (n,) + grid sizes")
        object.__setattr__(self, "components", comp)


def coordinate_field(grid, axis, scale=1.0):
    comp = np.zeros((grid.n,) + grid.sizes)
    comp[axis] = scale
    return VectorFieldOnL(grid=grid, components=comp)


@dataclass(frozen=True)
class Immersion:
    """Grid sample of a totally real immersion T^n -> chart.

    points holds the periodic part; winding (2n x n) holds the linear part
    used on quotient charts. positions() returns winding @ theta + points.
    """

    grid: GridTorus
    chart: AmbientChart
    points: np.ndarray           # grid.sizes + (2n,)
    winding: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != self.grid.sizes + (self.chart.dim,):
            raise ValidationError("points must have shape grid.sizes + (2n,)")
        object.__setattr__(self, "points", pts)
        if self.winding is not None:
            w = np.asarray(self.winding, dtype=float)
            if w.shape != (self.chart.dim, self.grid.n):
                raise ValidationError("winding must have shape (2n, n)")
            if np.any(w != 0.0) and not (self.chart.is_flat and self.chart.quotient):
                raise ValidationError("winding immersions require a flat quotient chart")
            object.__setattr__(self, "winding", w)

    @property
    def n(self):
        return self.grid.n

    def positions(self):
        if self.winding is None:
            return self.points
        mesh = self.grid.mesh()
        lin = sum(np.asarray(m)[..., None] * self.winding[:, k]
                  for k, m in enumerate(mesh))
        return self.points + lin

    def coordinate_vectors(self):
        """d iota / d theta_k arrays, shape (n,) + grid.sizes + (2n,)."""
        vs = np.stack([_spectral.spectral_derivative(self.points, axis=k)
                       for k in range(self.n)])
        if self.winding is not None:
            for k in range(self.n):
                vs[k] += self.winding[:, k]
        return vs

    def complex_samples(self):
        """For n = 1 curves in C: points as a complex array."""
        if self.n != 1 or self.chart.dim != 2:
            raise ValidationError("complex_samples needs a curve in a 1-dim chart")
        pos = self.positions()
        return pos[:, 0] + 1j * pos[:, 1]

    def to_dict(self):
        d = {
            "format_version": FORMAT_VERSION,
            "grid_sizes": list(self.grid.sizes),
            "chart": self.chart.descriptor(),
            "points": self.points.ravel(order="C").tolist(),
        }
        if self.winding is not None and np.any(self.winding != 0.0):
            d["winding"] = self.winding.tolist()
        return d


def immersion_from_dict(d):
    if d.get("format_version") != FORMAT_VERSION:
        raise ValidationError("unsupported immersion container version")
    grid = GridTorus(tuple(d["grid_sizes"]))
    chart = chart_from_descriptor(d["chart"])
    pts = np.array(d["points"], dtype=float).reshape(grid.sizes + (chart.dim,))
    winding = np.array(d["winding"], dtype=float) if "winding" in d else None
    return Immersion(grid=grid, chart=chart, points=pts, winding=winding)


def save_immersion(im, path):
    with open(path, "w") as f:
        json.dump(im.to_dict(), f, sort_keys=True)
        f.write("\n")


def load_immersion(path):
    with open(path) as f:
        return immersion_from_dict(json.load(f))


# --- frames and densities ---------------------------------------------------

@dataclass
class FrameData:
    """Grid-wide tangent frames and metric data at the immersed points."""

    vectors: np.ndarray          # (n,) + sizes + (2n,) coordinate fields
    frame: np.ndarray            # (n,) + sizes + (2n,) orthonormal e_i
    coeffs: np.ndarray           # (n, n) + sizes: e_i = sum_k coeffs[i,k] v_k
    g_ambient: np.ndarray        # sizes + (2n, 2n)
    omega_ambient: np.ndarray    # sizes + (2n, 2n)
    induced_vol: np.ndarray      # sizes: |v_1 ^ .. ^ v_n|_g


def frames(im):
    """Coordinate fields plus a Gram-Schmidt orthonormal tangent frame."""
    vs = im.coordinate_vectors()
    pos = im.positions()
    g, omega = im.chart.metric_many(pos)
    n = im.n
    sizes = im.grid.sizes

    def inner(a, b):
        return np.einsum("...i,...ij,...j->...", a, g, b)

    frame = np.empty_like(vs)
    coeffs = np.zeros((n, n) + sizes)
    gram = np.empty(sizes + (n, n))
    for i in range(n):
        for j in range(n):
            gram[..., i, j] = inner(vs[i], vs[j])
    induced_vol = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))

    for i in range(n):
        u = vs[i].copy()
        c = np.zeros((n,) + sizes)
        c[i] = 1.0
        for j in range(i):
            proj = inner(u, frame[j])
            u -= proj[..., None] * frame[j]
            c -= proj * coeffs[j]
        norms = np.sqrt(np.maximum(inner(u, u), 0.0))
        ref = np.sqrt(np.maximum(inner(vs[i], vs[i]), 0.0))
        if np.any(norms <= 1e-12 * np.maximum(ref, 1.0)):
            raise DegenerateFrame("coordinate frame is numerically degenerate")
        frame[i] = u / norms[..., None]
        coeffs[i] = c / norms
    return FrameData(vectors=vs, frame=frame, coeffs=coeffs,
                     g_ambient=g, omega_ambient=omega, induced_vol=induced_vol)


@dataclass
class JVolumeDensity:
    rho: np.ndarray
    volg_density: np.ndarray
    volj_density: np.ndarray
    formula_gap: float           # max |det_C formula - Gram formula|


def rho_of_frame(frame_vectors, g, omega, J):
    """Both rho_J formulas for orthonormal frames e_i; returns (rho_h, rho_vol).

    rho_h   = sqrt(det_C (delta_ij - i omega(e_i, e_j)))
    rho_vol = sqrt( sqrt(det g) * det[e_1 .. e_n, Je_1 .. Je_n] )
    """
    n = frame_vectors.shape[0]
    sizes = frame_vectors.shape[1:-1]
    h = np.empty(sizes + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            om = np.einsum("...i,...ij,...j->...", frame_vectors[i], omega,
                           frame_vectors[j])
            h[..., i, j] = (1.0 if i == j else 0.0) - 1j * om
    if n == 1:
        det_h = h[..., 0, 0].real
    else:
        det_h = (h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]).real
    rho_h = np.sqrt(np.maximum(det_h, 0.0))

    cols = [frame_vectors[i] for i in range(n)]
    cols += [np.einsum("ij,...j->...i", J, frame_vectors[i]) for i in range(n)]
    mat = np.stack(cols, axis=-1)
    det_g = np.linalg.det(g)
    vol = np.sqrt(np.maximum(det_g, 0.0)) * np.linalg.det(mat)
    rho_vol = np.sqrt(np.maximum(vol, 0.0))
    return rho_h, rho_vol


def density(im, fr=None):
    """Per-node rho_J and volume densities (theta-coordinate components)."""
    if fr is None:
        fr = frames(im)
    rho_h, rho_vol = rho_of_frame(fr.frame, fr.g_ambient, fr.omega_ambient,
                                  im.chart.J)
    gap = float(np.max(np.abs(rho_h - rho_vol)))
    volg = fr.induced_vol
    return JVolumeDensity(rho=rho_h, volg_density=volg,
                          volj_density=rho_h * volg, formula_gap=gap)


def is_totally_real(im, rho_min=RHO_MIN):
    """Validate the immersion: full-rank frame and rho_J above the floor."""
    im.chart.require_inside(im.positions())
    try:
        fr = frames(im)
    except DegenerateFrame as e:
        raise NotImmersed(str(e)) from None
    min_vol = float(np.min(fr.induced_vol))
    if min_vol <= 1e-10:
        raise NotImmersed(f"coordinate frame drops rank (min volume {min_vol:.3g})")
    dens = density(im, fr)
    min_rho = float(np.min(dens.rho))
    if min_rho <= rho_min:
        raise NotTotallyReal(
            f"rho_J reaches {min_rho:.3g} <= {rho_min:g}: partially complex "
            "to working precision"
        )
    return dens


def rho_j(im, node):
    """rho_J at one grid node (Hermitian-determinant value)."""
    dens = density(im)
    val = float(dens.rho[node])
    if val <= RHO_MIN:
        raise NotTotallyReal(f"rho_J({node}) = {val:.3g}")
    return val


def tangent_frame(im, node):
    """Coordinate vectors and the orthonormalized frame at one node."""
    fr = frames(im)
    vs = np.stack([fr.vectors[i][node] for i in range(im.n)])
    es = np.stack([fr.frame[i][node] for i in range(im.n)])
    return vs, es


def total_volumes(im):
    """Vol_J and Vol_g by deterministic periodic quadrature."""
    dens = is_totally_real(im)
    cell = im.grid.cell
    vol_j = _spectral.periodic_total(dens.volj_density, cell)
    vol_g = _spectral.periodic_total(dens.volg_density, cell)
    if vol_j > vol_g + 1e-10:
        raise NotTotallyReal("Vol_J exceeds Vol_g beyond tolerance")
    return {"vol_j": vol_j, "vol_g": vol_g}


# --- projections -------------------------------------------------------------

@dataclass
class Projections:
    pi_l: np.ndarray
    pi_j: np.ndarray
    pi_t: np.ndarray


def projections_many(im, fr=None):
    """pi_L, pi_J (splitting T M = TL + J TL) and the metric projection pi_T."""
    if fr is None:
        fr = frames(im)
    n = im.n
    d = im.chart.dim
    J = im.chart.J
    cols = [fr.frame[i] for i in range(n)]
    cols += [np.einsum("ij,...j->...i", J, fr.frame[i]) for i in range(n)]
    B = np.stack(cols, axis=-1)
    Binv = np.linalg.inv(B)
    sel = np.zeros((d, d))
    sel[:n, :n] = np.eye(n)
    pi_l = B @ sel @ Binv
    pi_j = np.broadcast_to(np.eye(d), pi_l.shape) - pi_l
    pi_t = np.zeros_like(pi_l)
    for i in range(n):
        ge = np.einsum("...ij,...j->...i", fr.g_ambient, fr.frame[i])
        pi_t += np.einsum("...i,...j->...ij", fr.frame[i], ge)
    return Projections(pi_l=pi_l, pi_j=pi_j, pi_t=pi_t)


def lagrangian_defect(im):
    """max_node |omega(e_1, e_2)| for surfaces; exactly 0 for curves."""
    if im.n == 1:
        return 0.0
    fr = frames(im)
    om = np.einsum("...i,...ij,...j->...", fr.frame[0], fr.omega_ambient,
                   fr.frame[1])
    return float(np.max(np.abs(om)))


# --- mean curvature -----------------------------------------------------------

@dataclass
class MeanCurvatureField:
    values: np.ndarray           # sizes + (2n,), lying in J(TL) nodewise
    max_tangential_leak: float   # max |pi_L applied to values|


def h_j_field(im):
    """J-mean-curvature field H_J = -J pi_T J tr_L(covariant d of pi_L^t).

    The trace runs over a global orthonormal frame e_i; the tensorial
    correction subtracts pi_L^t applied to the ambient derivative of the
    frame itself. Covariant derivatives combine FFT derivatives of the grid
    fields with the chart Christoffel symbols. The sign convention is the one
    that satisfies d/dt Vol_J = -int g(JY, H_J) vol_J for deformations JY;
    variation_harness.validate_hj_sign checks it against the FD oracle.
    """
    fr = frames(im)
    pr = projections_many(im, fr)
    pos = im.positions()
    J = im.chart.J
    n = im.n
    g = fr.g_ambient
    ginv = np.linalg.inv(g)
    pi_l_t = ginv @ np.swapaxes(pr.pi_l, -1, -2) @ g
    if im.chart.is_flat:
        gamma = None
    else:
        gamma = im.chart.christoffel_many(pos)

    def covariant_along(i, field):
        # nabla_{e_i} field for a grid field of ambient vectors
        out = np.zeros_like(field)
        for k in range(n):
            dk = _spectral.spectral_derivative(field, axis=k)
            out += fr.coeffs[i, k][..., None] * dk
        if gamma is not None:
            e_amb = fr.frame[i]
            out += np.einsum("...cab,...a,...b->...c", gamma, e_amb, field)
        return out

    total = np.zeros(im.grid.sizes + (im.chart.dim,))
    for i in range(n):
        f_i = np.einsum("...ij,...j->...i", pi_l_t, fr.frame[i])
        t1 = covariant_along(i, f_i)
        de = covariant_along(i, fr.frame[i])
        t2 = np.einsum("...ij,...j->...i", pi_l_t, de)
        total += t1 - t2
    js = np.einsum("ij,...j->...i", J, total)
    pt_js = np.einsum("...ij,...j->...i", pr.pi_t, js)
    values = -np.einsum("ij,...j->...i", J, pt_js)
    leak = np.einsum("...ij,...j->...i", pr.pi_l, values)
    return MeanCurvatureField(values=values,
                              max_tangential_leak=float(np.max(np.abs(leak))))


def pushforward(im, X, fr=None):
    """Ambient components of iota_* X for a VectorFieldOnL."""
    if fr is None:
        fr = frames(im)
    return np.einsum("k...,k...i->...i", X.components, fr.vectors)


# --- built-in immersion formulas ----------------------------------------------

def build_immersion(grid, chart, formula, **params):
    """Sample one of the built-in parametric families and validate it.

    Formulas: circle(r, center), ellipse(a, b), fourier_curve(coeffs),
    product_torus(r1, r2), graph_perturbed_torus(r1, r2, amplitude, mode),
    straight_torus(winding) on the flat quotient chart.
    """
    winding = None
    if formula in ("circle", "ellipse", "fourier_curve"):
        if grid.n != 1 or chart.dim != 2:
            raise ValidationError(f"{formula} needs a T^1 grid and a 1-dim chart")
        theta = grid.thetas(0)
        if formula == "circle":
            r = params.get("r", 1.0)
            center = complex(*params.get("center", (0.0, 0.0)))
            z = center + r * np.exp(1j * theta)
        elif formula == "ellipse":
            a, b = params.get("a", 2.0), params.get("b", 1.0)
            z = a * np.cos(theta) + 1j * b * np.sin(theta)
        else:
            z = _synthesize_coeffs(params["coeffs"], theta)
        pts = np.stack([z.real, z.imag], axis=-1)
    elif formula in ("product_torus", "graph_perturbed_torus"):
        if grid.n != 2 or chart.dim != 4:
            raise ValidationError(f"{formula} needs a T^2 grid and a 2-dim chart")
        t1, t2 = grid.mesh()
        r1 = params.get("r1", 1.0)
        r2 = params.get("r2", 1.0)
        z1 = r1 * np.exp(1j * t1)
        if formula == "product_torus":
            z2 = r2 * np.exp(1j * t2)
        else:
            amp = params.get("amplitude", 0.5)
            m1, m2 = params.get("mode", (1, 0))
            z2 = (r2 + amp * np.cos(m1 * t1 + m2 * t2)) * np.exp(1j * t2)
        pts = np.stack([z1.real, z2.real, z1.imag, z2.imag], axis=-1)
    elif formula == "straight_torus":
        if grid.n != 2 or chart.dim != 4 or not chart.quotient:
            raise ValidationError("straight_torus lives on the flat quotient chart")
        winding = np.asarray(params.get(
            "winding", [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), dtype=float)
        pts = np.zeros(grid.sizes + (4,))
        pts += np.asarray(params.get("offset", np.zeros(4)))
    else:
        raise ValidationError(f"unknown immersion formula {formula!r}")
    im = Immersion(grid=grid, chart=chart, points=pts, winding=winding)
    is_totally_real(im)
    return im


def _synthesize_coeffs(coeffs, theta):
    """Evaluate sum a_n e^{i n theta} from an [n, re, im] triple list or dict."""
    z = np.zeros_like(theta, dtype=complex)
    if isinstance(coeffs, dict):
        items = coeffs.items()
    else:
        items = ((int(t[0]), complex(t[1], t[2])) for t in coeffs)
    for ncoef, a in items:
        z = z + complex(a) * np.exp(1j * int(ncoef) * theta)
    return z


def reparametrized(im, shifts):
    """Immersion composed with the grid rotation theta_k -> theta_k + shift_k."""
    if im.winding is not None and np.any(im.winding != 0.0):
        raise ValidationError("reparametrized does not support winding immersions")
    pts = im.points
    for k, s in enumerate(shifts):
        nk = im.grid.sizes[k]
        m = _spectral.modes(nk)
        coef = np.fft.fft(pts, axis=k)
        shape = [1] * pts.ndim
        shape[k] = nk
        coef = coef * np.exp(1j * m * s).reshape(shape)
        pts = np.fft.ifft(coef, axis=k).real
    return Immersion(grid=im.grid, chart=im.chart, points=pts)


def export_density_csv(im, path):
    """Per-node rho_J and densities as CSV (node indices, rho, vol_g, vol_J)."""
    dens = density(im)
    with open(path, "w", newline="") as f:
        cols = [f"i{k}" for k in range(im.n)] + ["rho", "volg_density", "volj_density"]
        f.write(",".join(cols) + "\n")
        it = np.ndindex(*im.grid.sizes)
        for idx in it:
            row = [str(v) for v in idx]
            row += [format(float(a[idx]), ".17g")
                    for a in (dens.rho, dens.volg_density, dens.volj_density)]
            f.write(",".join(row) + "\n")

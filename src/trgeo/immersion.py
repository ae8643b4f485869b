"""Discretized totally real immersions of T^1 and T^2 into a chart.

An immersion is sampled on a uniform periodic grid. Tangent data comes from
FFT derivatives, so everything here assumes smooth periodic dependence on the
grid angles. Immersions into the flat quotient chart may carry a winding
matrix W: the actual position is W @ theta plus the stored periodic part,
which keeps spectral differentiation valid for closed straight tori.

The J-volume density rho_J is sqrt(det_C h_ij) for the Hermitian form
h = g - i omega on an orthonormal tangent frame. A second formula, the square
root of the ambient volume of (e_1..e_n, Je_1..Je_n), cross-checks it
wherever JVolumeDensity.formula_gap is read; validation alone skips it. Both
equal 1 exactly on Lagrangian planes.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _spectral
from .ambient import AmbientChart, chart_from_descriptor
from .errors import (DegenerateFrame, MetricNotPositiveDefinite, NotImmersed,
                     NotTotallyReal, PointOutsideDomain, ValidationError)

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
        return _positions(self.grid, self.points, self.winding)

    def coordinate_vectors(self):
        """d iota / d theta_k arrays, shape (n,) + grid.sizes + (2n,)."""
        return np.moveaxis(_coordinate_vectors(self.grid, self.components_first(),
                                               self.winding), 1, -1)

    def components_first(self):
        """The points copied to (2n,) + grid.sizes, the layout of the geometry code.

        A copy and not a moved view: numpy's FFTs lay out their output in
        memory as their input is laid out, so a view would keep the
        components last in memory.
        """
        return np.ascontiguousarray(np.moveaxis(self.points, -1, 0))

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


# Inside the geometry code the ambient components come ahead of the grid
# axes, so that every FFT line and every nodewise sum over the components
# runs over contiguous memory: one immersion is (2n,) + grid.sizes and a
# stack of B immersions sharing a grid, a chart and a winding is
# (2n, B) + grid.sizes. The public arrays (Immersion.points, the Geometry
# fields) and the chart kernels keep the components last; each call
# converts once. The helpers below address the grid axes from the end, so
# one immersion and a stack go through the same arithmetic.

def _positions(grid, points, winding):
    """winding @ theta + points, components last, for one immersion or a stack."""
    if winding is None:
        return points
    lin = sum(np.asarray(m)[..., None] * winding[:, k]
              for k, m in enumerate(grid.mesh()))
    return points + lin


def _coordinate_vectors(grid, points, winding):
    """d iota / d theta_k of points (2n,) + nodes, stacked: (n, 2n) + nodes."""
    n = grid.n
    vs = np.stack([_spectral.spectral_derivative(points, axis=k - n)
                   for k in range(n)])
    if winding is not None:
        vs += winding.T.reshape(winding.T.shape + (1,) * (points.ndim - 1))
    return vs


# --- geometry of one immersion -----------------------------------------------

def _apply(mat, v):
    """Nodewise product mat v of a matrix field nodes + (2n, 2n) with v (2n,) + nodes.

    A field that is one matrix broadcast over the nodes (zero strides on its
    node axes, as flat charts' metric_many returns for I and J^T) is applied
    as one (2n x 2n) @ (2n x nodes) matrix product; for those 0/+-1
    matrices that is exact.
    """
    if not any(mat.strides[:-2]):
        flat = mat[(0,) * (mat.ndim - 2)] @ v.reshape(v.shape[0], -1)
        return flat.reshape(v.shape)
    return np.einsum("...ij,j...->i...", mat, v)


def _dot(a, b):
    """Nodewise Euclidean dot product a . b over the leading component axis."""
    return np.einsum("i...,i...->...", a, b)


@dataclass
class Geometry:
    """Orthonormal tangent frame of one immersion and what is read off it.

    frames(im) builds the frame fields; the J-density, the projections, H_J
    and the Lagrangian defect are computed on first read and kept, so a
    caller that holds one Geometry builds each of them at most once. The
    object lives in its caller's scope; nothing is cached on the Immersion.
    vectors and frame keep the components last, as views of the builder's
    components-first arrays (see _frame_fields).
    """

    im: Immersion = field(repr=False)
    vectors: np.ndarray          # (n,) + sizes + (2n,) coordinate fields
    frame: np.ndarray            # (n,) + sizes + (2n,) orthonormal e_i
    coeffs: np.ndarray           # (n, n) + sizes: e_i = sum_k coeffs[i,k] v_k
    g_ambient: np.ndarray        # sizes + (2n, 2n)
    omega_ambient: np.ndarray    # sizes + (2n, 2n)
    induced_vol: np.ndarray      # sizes: |v_1 ^ .. ^ v_n|_g

    @cached_property
    def density(self):
        """Per-node rho_J and volume densities (theta-coordinate components)."""
        rho = _rho_h(np.moveaxis(self.frame, -1, 1), self.omega_ambient)
        volg = self.induced_vol
        return JVolumeDensity(rho=rho, volg_density=volg, volj_density=rho * volg,
                              frame=self.frame, g_ambient=self.g_ambient,
                              J=self.im.chart.J)

    def volumes(self):
        """Vol_J and Vol_g by deterministic periodic quadrature."""
        cell = self.im.grid.cell
        vol_j = _spectral.periodic_total(self.density.volj_density, cell)
        vol_g = _spectral.periodic_total(self.density.volg_density, cell)
        if vol_j > vol_g + 1e-10:
            raise NotTotallyReal("Vol_J exceeds Vol_g beyond tolerance")
        return {"vol_j": vol_j, "vol_g": vol_g}

    @cached_property
    def pi_l(self):
        """Projection onto TL along J TL (the splitting T M = TL + J TL)."""
        n, d = self.im.n, self.im.chart.dim
        J = self.im.chart.J
        cols = [self.frame[i] for i in range(n)]
        cols += [np.einsum("ij,...j->...i", J, self.frame[i]) for i in range(n)]
        B = np.stack(cols, axis=-1)
        sel = np.zeros((d, d))
        sel[:n, :n] = np.eye(n)
        return B @ sel @ np.linalg.inv(B)

    @cached_property
    def pi_j(self):
        """Projection onto J TL along TL."""
        return np.broadcast_to(np.eye(self.im.chart.dim), self.pi_l.shape) - self.pi_l

    @cached_property
    def pi_t(self):
        """Metric (g-orthogonal) projection onto TL."""
        pi_t = np.zeros_like(self.pi_l)
        for i in range(self.im.n):
            ge = np.einsum("...ij,...j->...i", self.g_ambient, self.frame[i])
            pi_t += np.einsum("...i,...j->...ij", self.frame[i], ge)
        return pi_t

    @cached_property
    def lagrangian_defect(self):
        """max_node |omega(e_1, e_2)| for surfaces; exactly 0 for curves."""
        if self.im.n == 1:
            return 0.0
        om = np.einsum("...i,...ij,...j->...", self.frame[0], self.omega_ambient,
                       self.frame[1])
        return float(np.max(np.abs(om)))

    def pushforward(self, X):
        """Ambient components of iota_* X for a VectorFieldOnL."""
        return np.einsum("k...,k...i->...i", X.components, self.vectors)

    def divergence(self, W_components):
        """Divergence on (L, g) of a tangent field (components w.r.t. d/dtheta_k)."""
        vol = self.induced_vol
        out = np.zeros(self.im.grid.sizes)
        for k in range(self.im.n):
            out += _spectral.spectral_derivative(vol * W_components[k], axis=k)
        return out / vol

    def d_along(self, i, values):
        """Flat derivative along e_i of a grid field of ambient vectors."""
        out = np.zeros_like(values)
        for k in range(self.im.n):
            dk = _spectral.spectral_derivative(values, axis=k)
            out += self.coeffs[i, k][..., None] * dk
        return out

    @cached_property
    def h_j(self):
        """J-mean-curvature field H_J = -J pi_T J tr_L(covariant d of pi_L^t).

        The trace runs over the orthonormal frame e_i; the tensorial
        correction subtracts pi_L^t applied to the ambient derivative of the
        frame itself. Covariant derivatives combine FFT derivatives of the
        grid fields with the chart Christoffel symbols. The sign convention is
        the one that satisfies d/dt Vol_J = -int g(JY, H_J) vol_J for
        deformations JY; variation_harness.validate_hj_sign checks it against
        the FD oracle.
        """
        im = self.im
        J = im.chart.J
        g = self.g_ambient
        pi_l_t = np.linalg.inv(g) @ np.swapaxes(self.pi_l, -1, -2) @ g
        gamma = None if im.chart.is_flat else im.chart.christoffel_many(im.positions())

        def covariant_along(i, values):
            out = self.d_along(i, values)
            if gamma is not None:
                out += np.einsum("...cab,...a,...b->...c", gamma, self.frame[i], values)
            return out

        total = np.zeros(im.grid.sizes + (im.chart.dim,))
        for i in range(im.n):
            f_i = np.einsum("...ij,...j->...i", pi_l_t, self.frame[i])
            t1 = covariant_along(i, f_i)
            de = covariant_along(i, self.frame[i])
            t2 = np.einsum("...ij,...j->...i", pi_l_t, de)
            total += t1 - t2
        js = np.einsum("ij,...j->...i", J, total)
        pt_js = np.einsum("...ij,...j->...i", self.pi_t, js)
        values = -np.einsum("ij,...j->...i", J, pt_js)
        leak = np.einsum("...ij,...j->...i", self.pi_l, values)
        return MeanCurvatureField(values=values,
                                  max_tangential_leak=float(np.max(np.abs(leak))))


def frames(im):
    """The Geometry of im: coordinate fields and a Gram-Schmidt orthonormal frame.

    The fields come from _frame_fields, the only Gram-Schmidt of the
    package, which also serves stacks of immersions (is_totally_real_stack). Raises
    DegenerateFrame when a frame vector's norm is not above its floor at some
    node, NaN and inf included.
    """
    # coordinate_vectors is a components-last view; this is its contiguous base
    vs = np.moveaxis(im.coordinate_vectors(), -1, 1)
    frame, coeffs, g, omega, induced_vol, degenerate = _frame_fields(
        im.grid, im.chart, vs, im.positions())
    if degenerate:
        raise DegenerateFrame(_degenerate_message(induced_vol))
    return Geometry(im=im, vectors=np.moveaxis(vs, 1, -1),
                    frame=np.moveaxis(frame, 1, -1), coeffs=coeffs,
                    g_ambient=g, omega_ambient=omega, induced_vol=induced_vol)


def _frame_fields(grid, chart, vs, pos):
    """Frame fields of one immersion or of a stack sharing grid and chart.

    Components come first in vs, the coordinate vectors, (n, 2n) + nodes,
    where nodes is grid.sizes for one immersion and (B,) + grid.sizes for a
    stack; pos are the chart positions as the chart takes them,
    nodes + (2n,). Inner products are g v formed once per vector (_apply),
    then a dot product over the component axis; the Gram determinant is the
    closed form for n <= 2.
    Returns (frame, coeffs, g, omega, induced_vol, degenerate): frame is
    (n, 2n) + nodes, coeffs (n, n) + nodes, g and omega the chart's
    nodes + (2n, 2n), and degenerate holds one flag per member (shape nodes
    minus the grid axes), set when the volume is not finite or a frame
    vector's norm is not above 1e-12 of its length at some node. Such nodes
    are divided by 1 instead, so no member disturbs another.
    """
    g, omega = chart.metric_many(pos)
    n = grid.n
    nodes = pos.shape[:-1]

    g_vs = [_apply(g, v) for v in vs]
    gram = [[_dot(vs[i], g_vs[j]) for j in range(n)] for i in range(n)]
    det = gram[0][0] if n == 1 else gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    induced_vol = np.sqrt(np.maximum(det, 0.0))

    bad = ~np.isfinite(induced_vol)
    frame = np.empty_like(vs)
    g_frame = np.empty_like(vs[:-1])    # g e_i is read only by the later vectors
    coeffs = np.zeros((n, n) + nodes)
    for i in range(n):
        u, g_u = vs[i], g_vs[i]
        c = np.zeros((n,) + nodes)
        c[i] = 1.0
        if i > 0:
            u = u.copy()
            for j in range(i):
                proj = _dot(u, g_frame[j])
                u -= proj * frame[j]
                c -= proj * coeffs[j]
            g_u = _apply(g, u)
        norms = np.sqrt(np.maximum(_dot(u, g_u), 0.0))
        ref = np.sqrt(np.maximum(gram[i][i], 0.0))
        # "not above the floor", so that NaN fails as well
        low = ~(norms > 1e-12 * np.maximum(ref, 1.0))
        bad |= low
        norms = np.where(low, 1.0, norms)
        # the norms broadcast over the component axis ahead of the nodes
        np.divide(u, norms, out=frame[i])
        if i < n - 1:
            np.divide(g_u, norms, out=g_frame[i])
        np.divide(c, norms, out=coeffs[i])
    degenerate = np.any(bad, axis=tuple(range(-n, 0)))
    return frame, coeffs, g, omega, induced_vol, degenerate


def _degenerate_message(induced_vol):
    """What the frame check says about one immersion that fails it."""
    if not np.all(np.isfinite(induced_vol)):
        return "coordinate frame is not finite (NaN or inf in the geometry)"
    return "coordinate frame is numerically degenerate"


def _rho_h(frame_vectors, omega):
    """sqrt(det_C (delta_ij - i omega(e_i, e_j))) for orthonormal frames e_i.

    frame_vectors is (n, 2n) + nodes, components first as _frame_fields
    makes them; omega is nodes + (2n, 2n). omega is antisymmetric, so the
    real part of the determinant is 1 for curves and
    1 - om_00 om_11 + om_01 om_10 for surfaces.
    """
    n = frame_vectors.shape[0]
    if n == 1:
        return np.ones(frame_vectors.shape[2:])
    om_e = [_apply(omega, e) for e in frame_vectors]
    om = [[_dot(frame_vectors[i], om_e[j]) for j in range(n)] for i in range(n)]
    det_h = 1.0 - om[0][0] * om[1][1] + om[0][1] * om[1][0]
    return np.sqrt(np.maximum(det_h, 0.0))


def _rho_vol(frame_vectors, g, J):
    """sqrt( sqrt(det g) * det[e_1 .. e_n, Je_1 .. Je_n] ), by LAPACK."""
    n = frame_vectors.shape[0]
    cols = [frame_vectors[i] for i in range(n)]
    cols += [np.einsum("ij,...j->...i", J, frame_vectors[i]) for i in range(n)]
    mat = np.stack(cols, axis=-1)
    det_g = np.linalg.det(g)
    vol = np.sqrt(np.maximum(det_g, 0.0)) * np.linalg.det(mat)
    return np.sqrt(np.maximum(vol, 0.0))


def rho_of_frame(frame_vectors, g, omega, J):
    """Both rho_J formulas for orthonormal frames e_i; returns (rho_h, rho_vol).

    rho_h   = sqrt(det_C (delta_ij - i omega(e_i, e_j)))
    rho_vol = sqrt( sqrt(det g) * det[e_1 .. e_n, Je_1 .. Je_n] )

    frame_vectors is (n,) + nodes + (2n,), as Geometry.frame.
    """
    return (_rho_h(np.moveaxis(frame_vectors, -1, 1), omega),
            _rho_vol(frame_vectors, g, J))


@dataclass
class JVolumeDensity:
    """Per-node rho_J (det_C formula) and the volume densities.

    The Gram formula rho_vol and the cross-check formula_gap are computed
    on first read, from the frame, metric and J the density was built on.
    """

    rho: np.ndarray
    volg_density: np.ndarray
    volj_density: np.ndarray
    frame: np.ndarray = field(repr=False)
    g_ambient: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)

    @cached_property
    def rho_vol(self):
        return _rho_vol(self.frame, self.g_ambient, self.J)

    @cached_property
    def formula_gap(self):
        """max |det_C formula - Gram formula| over the nodes."""
        return float(np.max(np.abs(self.rho - self.rho_vol)))


@dataclass
class MeanCurvatureField:
    values: np.ndarray           # sizes + (2n,), lying in J(TL) nodewise
    max_tangential_leak: float   # max |pi_L applied to values|


def density(im):
    """Per-node rho_J and volume densities of a fresh Geometry."""
    return frames(im).density


def _require_volume_and_rho(induced_vol, rho):
    """The volume check, then the rho_J check against RHO_MIN, of one immersion.

    rho is called only once the volume check passed. Both are written as
    "not above the floor", so NaN fails them.
    """
    min_vol = float(np.min(induced_vol))
    if not min_vol > 1e-10:
        raise NotImmersed(f"coordinate frame drops rank (min volume {min_vol:.3g})")
    min_rho = float(np.min(rho()))
    if not min_rho > RHO_MIN:
        raise NotTotallyReal(
            f"rho_J reaches {min_rho:.3g} <= {RHO_MIN:g}: partially complex "
            "to working precision"
        )


def _validated(im):
    """Geometry of im after the checks of is_totally_real."""
    im.chart.require_inside(im.positions())
    # overflow shows up as non-finite geometry, which the frame check names
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            geo = frames(im)
        except DegenerateFrame as e:
            raise NotImmersed(str(e)) from None
        _require_volume_and_rho(geo.induced_vol, lambda: geo.density.rho)
    return geo


def is_totally_real(im):
    """Validate the immersion: full-rank frame and rho_J above RHO_MIN."""
    return _validated(im).density


def is_totally_real_stack(grid, chart, points, winding=None):
    """is_totally_real on every member of a stack, from one frame build.

    points is (B, 2n) + grid.sizes, the components ahead of the grid axes:
    B immersions sharing grid, chart and winding, member b being
    Immersion(points=np.moveaxis(points[b], 0, -1)). The frame builder reads
    the stack copied to (2n, B) + grid.sizes. The checks are reduced per
    member, and the error raised is the one the loop
    `for p in points: is_totally_real(Immersion(...))` raises: the first
    failing member, and within it the frame check, then the volume check,
    then the rho_J check. A domain or metric failure of the stack as a whole
    is handed to that loop, which names the member.
    """
    points = np.asarray(points, dtype=float)
    pos = _positions(grid, np.moveaxis(points, 1, -1), winding)
    try:
        chart.require_inside(pos)
        with np.errstate(over="ignore", invalid="ignore"):
            # the copy lives only while the coordinate vectors are made
            vs = _coordinate_vectors(
                grid, np.ascontiguousarray(np.moveaxis(points, 1, 0)), winding)
            frame, _, _, omega, induced_vol, degenerate = _frame_fields(
                grid, chart, vs, pos)
            rho = _rho_h(frame, omega)
    except (PointOutsideDomain, MetricNotPositiveDefinite):
        for p in points:
            is_totally_real(Immersion(grid=grid, chart=chart,
                                      points=np.moveaxis(p, 0, -1),
                                      winding=winding))
        raise
    for b in range(points.shape[0]):
        if degenerate[b]:
            raise NotImmersed(_degenerate_message(induced_vol[b]))
        _require_volume_and_rho(induced_vol[b], lambda: rho[b])


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
    """Vol_J and Vol_g of a validated immersion by periodic quadrature."""
    return _validated(im).volumes()


def lagrangian_defect(im):
    """max_node |omega(e_1, e_2)| for surfaces; exactly 0 for curves."""
    return frames(im).lagrangian_defect


def h_j_field(im):
    """J-mean-curvature field of im (see Geometry.h_j)."""
    return frames(im).h_j


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


def export_density_csv(dens, path):
    """Per-node rho_J and densities as CSV (node indices, rho, vol_g, vol_J)."""
    sizes = dens.rho.shape
    cols = [f"i{k}" for k in range(len(sizes))] + ["rho", "volg_density",
                                                   "volj_density"]
    # '%.17g' % x is the same string as format(x, '.17g')
    row = ",".join(["%d"] * len(sizes) + ["%.17g"] * 3) + "\n"
    table = np.vstack([np.indices(sizes).reshape(len(sizes), -1)]
                      + [np.ravel(a) for a in (dens.rho, dens.volg_density,
                                               dens.volj_density)])
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        f.write("".join(row % r for r in map(tuple, table.T.tolist())))

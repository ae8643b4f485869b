"""Discretized totally real immersions of T^1 and T^2 into a chart.

An immersion is sampled on a uniform periodic grid. Tangent data comes from
FFT derivatives, so everything here assumes smooth periodic dependence on the
grid angles. Immersions into the flat quotient chart may carry a winding
matrix W: the actual position is W @ theta plus the stored periodic part,
which keeps spectral differentiation valid for closed straight tori.

The J-volume density rho_J is sqrt(det_C h_ij) for the Hermitian form
h = g - i omega on an orthonormal tangent frame. No frame is built: with G
and W the Gram and omega matrices of the coordinate vectors v_k,
rho_J^2 = det(G - i W) / det G, so vol_g = sqrt(det G) and
vol_J = sqrt(det G - W_01^2) (_gram_volumes). One validator, _validate,
reads these for one immersion (is_totally_real) and for a stack of them
(_check_stack, the blocks of the geodesic flow). The Geometry of one
immersion reads the rest off v_k, G and G^-1, the projections and H_J
included. A second formula, the square root of the ambient volume of
(v_1..v_n, Jv_1..Jv_n) over det G, cross-checks rho_J wherever
Geometry.formula_gap is read. Both equal 1 exactly on Lagrangian planes.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _spectral, curve_lab
from .ambient import AmbientChart, complex_inverse
from .errors import (MetricNotPositiveDefinite, NotImmersed, NotTotallyReal, PointOutsideDomain,
                     ValidationError)

RHO_MIN = 1e-6            # numerical floor for "totally real"
_VOLUME_MIN = 1e-10       # numerical floor for an immersed frame
MAX_GRID_SIZE = 1024      # the most nodes a grid axis may have


@dataclass(frozen=True)
class GridTorus:
    """Uniform periodic grid on T^n, n in {1, 2}; sizes: powers of two, 16..MAX_GRID_SIZE."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) not in (1, 2):
            raise ValidationError("GridTorus supports n = 1 or 2")
        for s in sizes:
            if not 16 <= s <= MAX_GRID_SIZE or (s & (s - 1)) != 0:
                raise ValidationError(f"grid size {s} must be a power of two in "
                                      f"[16, {MAX_GRID_SIZE}]")

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
    """Geometry of one validated immersion and what is read off it.

    is_totally_real makes it from the coordinate fields v_k, the chart
    fields and the Gram matrix G_kl = g(v_k, v_l) it validated, and the
    J-volume density it read off them. Everything else is tensorial and is
    read off the same fields with no orthonormal frame: rho_J as the
    quotient vol_J / vol_g, the Gram-formula cross-check rho_vol and
    formula_gap, the projections, H_J (a trace through G^-1) and the
    Lagrangian defect. Each is built on first read and kept. The object
    lives in its caller's scope; nothing is cached on the Immersion.
    vectors keeps the components last.
    """

    im: Immersion = field(repr=False)
    vectors: np.ndarray          # (n,) + sizes + (2n,) coordinate fields
    g_ambient: np.ndarray        # sizes + (2n, 2n)
    omega_ambient: np.ndarray    # sizes + (2n, 2n)
    gram: np.ndarray             # sizes + (n, n): G_kl = g(v_k, v_l)
    induced_vol: np.ndarray      # sizes: |v_1 ^ .. ^ v_n|_g = sqrt(det G)
    volj_density: np.ndarray     # sizes: rho_J |v_1 ^ .. ^ v_n|_g (theta coordinates)

    @cached_property
    def rho(self):
        """Per-node rho_J, the quotient validation holds above RHO_MIN."""
        return self.volj_density / self.induced_vol

    @cached_property
    def rho_vol(self):
        """Per-node rho_J by the Gram-determinant formula (the cross-check)."""
        chart = self.im.chart
        return _rho_vol(self.vectors, self.gram, None if chart.is_flat else self.g_ambient,
                        chart.J)

    @cached_property
    def formula_gap(self):
        """max |Gram-matrix formula - Gram-determinant formula| over the nodes."""
        return float(np.max(np.abs(self.rho - self.rho_vol)))

    def volumes(self):
        """Vol_J and Vol_g by deterministic periodic quadrature (_volumes)."""
        return _volumes(self.volj_density, self.induced_vol, self.im.grid.cell)

    @cached_property
    def pi_l(self):
        """Projection onto TL along J TL (the splitting T M = TL + J TL).

        In complex form, v = (x, y) is w = x + iy and Jv_k is i v_k. With W
        the complex n x n matrix whose columns are the coordinate vectors
        v_k (any basis of TL), v = sum_k Re(c_k) v_k + Im(c_k) Jv_k for
        c = W^-1 w, so pi_L v = sum_k Re((W^-1 w)_k) v_k: as a matrix,
        V [Re W^-1, -Im W^-1] with W^-1 in closed form.
        """
        n = self.im.n
        V = np.stack(list(self.vectors), axis=-1)
        w_inv = complex_inverse(V[..., :n, :] + 1j * V[..., n:, :])
        return V @ np.concatenate([w_inv.real, -w_inv.imag], axis=-1)

    @cached_property
    def _gram_inverse(self):
        """sizes + (n, n): G^-1, in closed form."""
        return complex_inverse(self.gram)

    @cached_property
    def _dual(self):
        """[w_1 .. w_n], components first, (2n,) + sizes each: the basis
        w_l = sum_k (G^-1)_kl v_k of TL, with g(w_l, v_m) = delta_lm."""
        vs = np.moveaxis(self.vectors, -1, 1)
        return [sum(self._gram_inverse[..., k, l] * vs[k] for k in range(self.im.n))
                for l in range(self.im.n)]

    @cached_property
    def pi_t(self):
        """Metric (g-orthogonal) projection onto TL: sum_l w_l (g v_l)^T."""
        vs = np.moveaxis(self.vectors, -1, 1)
        pi_t = sum(w[:, None] * _apply(self.g_ambient, v)[None]
                   for w, v in zip(self._dual, vs))
        return np.moveaxis(pi_t, (0, 1), (-2, -1))

    @cached_property
    def lagrangian_defect(self):
        """max_node |omega(e_1, e_2)| for an orthonormal frame of TL, read as
        |omega(v_1, v_2)| / vol_g; exactly 0 for curves."""
        if self.im.n == 1:
            return 0.0
        om = np.einsum("...i,...ij,...j->...", self.vectors[0], self.omega_ambient,
                       self.vectors[1])
        return float(np.max(np.abs(om / self.induced_vol)))

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

    @cached_property
    def h_j(self):
        """J-mean-curvature field H_J = -J pi_T J tr_L(covariant d of pi_L^t).

        The trace is sum_kl (G^-1)_kl T(v_k, v_l) of the tensor
        T(a, b) = nabla_a (pi_L^t b) - pi_L^t nabla_a b, whose second term is
        the tensorial correction. Covariant derivatives combine FFT
        derivatives of the grid fields with the chart Christoffel symbols,
        which are contracted once per term, with sum_l w_l (x) pi_L^t v_l and
        sum_l w_l (x) v_l for the dual basis w_l (_dual). The sign convention
        is the one that satisfies d/dt Vol_J = -int g(JY, H_J) vol_J for
        deformations JY, which variation_harness.check_first_variation holds
        to the FD oracle.
        """
        im = self.im
        J, g = im.chart.J, self.g_ambient
        pi_l_t = im.chart.inverse_metric(g) @ np.swapaxes(self.pi_l, -1, -2) @ g
        g_inv = self._gram_inverse
        vs = np.moveaxis(self.vectors, -1, 1)
        p_vs = [_apply(pi_l_t, v) for v in vs]
        # sum_kl (G^-1)_kl d_k (pi_L^t v_l) and sum_kl (G^-1)_kl d_k v_l
        d_p = d_v = 0.0
        for k in range(im.n):
            for l in range(im.n):
                d_p = d_p + g_inv[..., k, l] * _spectral.spectral_derivative(p_vs[l], k - im.n)
                d_v = d_v + g_inv[..., k, l] * _spectral.spectral_derivative(vs[l], k - im.n)
        if not im.chart.is_flat:
            gamma = im.chart.christoffel_many(im.positions())
            for out, fields in ((d_p, p_vs), (d_v, vs)):
                pairs = sum(w[:, None] * f[None] for w, f in zip(self._dual, fields))
                out += np.einsum("...cab,ab...->c...", gamma, pairs)
        total = np.moveaxis(d_p - _apply(pi_l_t, d_v), 0, -1)
        js = np.einsum("ij,...j->...i", J, total)
        pt_js = np.einsum("...ij,...j->...i", self.pi_t, js)
        values = -np.einsum("ij,...j->...i", J, pt_js)
        leak = np.einsum("...ij,...j->...i", self.pi_l, values)
        return MeanCurvatureField(values=values,
                                  max_tangential_leak=float(np.max(np.abs(leak))))


def _volumes(volj_density, induced_vol, cell):
    """Vol_J and Vol_g of one immersion's densities (Geometry.volumes)."""
    vol_j = _spectral.periodic_total(volj_density, cell)
    vol_g = _spectral.periodic_total(induced_vol, cell)
    if vol_j > vol_g + 1e-10:
        raise NotTotallyReal("Vol_J exceeds Vol_g beyond tolerance")
    return {"vol_j": vol_j, "vol_g": vol_g}


def _rho_vol(vectors, gram, g, J):
    """sqrt( sqrt(det g) * det[v_1 .. v_n, Jv_1 .. Jv_n] / det G ), by LAPACK.

    vectors is (n,) + nodes + (2n,) and gram nodes + (n, n). For an
    orthonormal frame e = v C, det[e, Je] = det[v, Jv] det(C)^2 and
    det(C)^2 = 1 / det G. g None is a flat chart's identity metric, whose
    det g = 1.0 is left out: sqrt(1.0) * d == d.
    """
    cols = list(vectors) + [np.einsum("ij,...j->...i", J, v) for v in vectors]
    vol = np.linalg.det(np.stack(cols, axis=-1)) / np.linalg.det(gram)
    if g is not None:
        vol = np.sqrt(np.maximum(np.linalg.det(g), 0.0)) * vol
    return np.sqrt(np.maximum(vol, 0.0))


@dataclass
class MeanCurvatureField:
    values: np.ndarray           # sizes + (2n,), lying in J(TL) nodewise
    max_tangential_leak: float   # max |pi_L applied to values|


def is_totally_real(im):
    """The Geometry of im, validated (_validate): full-rank coordinate
    vectors and rho_J above RHO_MIN."""
    pos = im.positions()
    # overflow shows up as non-finite geometry, which the frame check names
    with np.errstate(over="ignore", invalid="ignore"):
        # coordinate_vectors is a components-last view; this is its contiguous base
        vs = np.moveaxis(im.coordinate_vectors(), -1, 1)
    g, omega, gram, induced_vol, volj = _validate(im.grid, im.chart, pos, vs)
    return Geometry(im=im, vectors=np.moveaxis(vs, 1, -1), g_ambient=g, omega_ambient=omega,
                    gram=np.moveaxis(np.array(gram), (0, 1), (-2, -1)),
                    induced_vol=induced_vol, volj_density=volj)


def _check_stack(grid, chart, points, vs, winding):
    """is_totally_real on every member of a stack: _validate of its layout.

    points is (B, 2n) + grid.sizes, the components ahead of the grid axes:
    B immersions sharing grid, chart and winding, member b being
    Immersion(points=np.moveaxis(points[b], 0, -1)); vs are its coordinate
    vectors, (n, 2n, B) + grid.sizes. It returns the densities
    (induced_vol, volj). A domain or metric failure of the stack as a whole
    is handed to the loop `for p in points: is_totally_real(Immersion(...))`,
    which names the member.
    """
    pos = _positions(grid, np.moveaxis(points, 1, -1), winding)
    try:
        return _validate(grid, chart, pos, vs)[3:]
    except (PointOutsideDomain, MetricNotPositiveDefinite):
        for p in points:
            is_totally_real(Immersion(grid=grid, chart=chart, points=np.moveaxis(p, 0, -1),
                                      winding=winding))
        raise


def _validate(grid, chart, pos, vs):
    """(g, omega, gram, induced_vol, volj) of one immersion or a stack, checked.

    pos are the chart positions, members + grid.sizes + (2n,), and vs the
    coordinate vectors, (n, 2n) + members + grid.sizes, where members is ()
    for one immersion and (B,) for a stack. The checks are reduced per
    member from _gram_volumes, and the error raised is the one that the
    members checked one by one raise: the first failing member, and within
    it the frame check (NotImmersed), then the volume check (NotImmersed),
    then the rho_J check against RHO_MIN (NotTotallyReal). Each is written
    as "not above the floor", so that NaN fails it.
    """
    # outside the ignore context, so that an overflow here is NotFinite
    chart.require_inside(pos)
    # overflow shows up as non-finite geometry, which the frame check names
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, omega = chart.metric_many(pos)
        gram, induced_vol, volj, low = _gram_volumes(vs, None if chart.is_flat else g, omega)
        # each member's checks in one reduction over the node axes
        nodes = tuple(range(-grid.n, 0))
        degenerate = np.any(low, axis=nodes)
        finite = np.all(np.isfinite(induced_vol), axis=nodes)
        min_vol = np.min(induced_vol, axis=nodes)
        min_rho = np.min(volj / induced_vol, axis=nodes)
    for b in np.ndindex(degenerate.shape):
        if degenerate[b]:
            raise NotImmersed("coordinate frame is numerically degenerate" if finite[b]
                              else "coordinate frame is not finite (NaN or inf in the geometry)")
        if not min_vol[b] > _VOLUME_MIN:
            raise NotImmersed(f"coordinate frame drops rank (min volume {min_vol[b]:.3g})")
        if not min_rho[b] > RHO_MIN:
            raise NotTotallyReal(f"rho_J reaches {min_rho[b]:.3g} <= {RHO_MIN:g}: "
                                 "partially complex to working precision")
    return g, omega, gram, induced_vol, volj


def _gram_volumes(vs, g, omega):
    """(gram, induced_vol, volj_density, low) of coordinate vectors.

    vs is (n, 2n) + nodes, components first; g and omega are the chart's
    nodes + (2n, 2n), g None a flat chart's identity metric. gram is
    G_ij = g(v_i, v_j) as nested lists of node arrays (g v_i formed once
    per vector, _apply; v_i itself when g is None). With W_ij =
    omega(v_i, v_j), rho_J^2 = det(G - i W) / det G, so vol_g = sqrt(det G)
    and vol_J = sqrt(det G - W_01^2) for surfaces, sqrt(G_00) for curves.
    low marks the nodes where the Gram-Schmidt vectors of v would fall to
    their floor, read off G as |u_0|^2 = G_00 and |u_1|^2 = det G / G_00,
    and where vol_g is not finite; NaN is low.
    """
    n = vs.shape[0]
    g_vs = vs if g is None else [_apply(g, v) for v in vs]
    gram = [[_dot(vs[i], g_vs[j]) for j in range(n)] for i in range(n)]
    det = gram[0][0] if n == 1 else gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    induced_vol = np.sqrt(np.maximum(det, 0.0))
    squares = [gram[0][0]]
    volj = induced_vol
    if n == 2:
        squares.append(det / gram[0][0])
        w01 = _dot(vs[0], _apply(omega, vs[1]))
        volj = np.sqrt(np.maximum(det - w01 * w01, 0.0))
    low = ~np.isfinite(induced_vol)
    for i, square in enumerate(squares):
        ref = np.sqrt(np.maximum(gram[i][i], 0.0))
        # "not above the floor", so that NaN fails as well
        low |= ~(np.sqrt(np.maximum(square, 0.0)) > 1e-12 * np.maximum(ref, 1.0))
    return gram, induced_vol, volj, low


# --- built-in immersion formulas ----------------------------------------------

# each formula's arguments: name -> (shape, default). Shape () is one number,
# (k, ...) nested lists of k entries, None any number of entries; a default of
# None marks an argument the formula needs.
FORMULAS = {
    "circle": {"r": ((), 1.0), "center": ((2,), [0.0, 0.0])},
    "ellipse": {"a": ((), 2.0), "b": ((), 1.0)},
    "fourier_curve": {"coeffs": ((None, 3), None)},
    "product_torus": {"r1": ((), 1.0), "r2": ((), 1.0)},
    "graph_perturbed_torus": {"r1": ((), 1.0), "r2": ((), 1.0),
                              "amplitude": ((), 0.5), "mode": ((2,), [1, 0])},
    "straight_torus": {"winding": ((4, 2), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                       "offset": ((4,), [0.0, 0.0, 0.0, 0.0])},
}


def build_immersion(grid, chart, formula, **params):
    """Sample one of the built-in parametric families and validate it.

    Returns the validated Geometry (is_totally_real); the immersion is its
    im. FORMULAS names each formula's arguments and their defaults; an
    argument it does not name raises ValidationError, and so does a missing
    one without a default. straight_torus lives on the flat quotient chart.
    fourier_curve reads its coeffs as curves read terms (curve_lab.fourier_terms):
    each mode is an integer below half the grid in modulus, and appears once.
    """
    if formula not in FORMULAS:
        raise ValidationError(f"unknown immersion formula {formula!r}")
    known = FORMULAS[formula]
    unknown = sorted(params.keys() - known.keys())
    if unknown:
        raise ValidationError(f"{formula} has no argument {unknown[0]!r} "
                              f"(known: {', '.join(known)})")
    args = {key: default for key, (_, default) in known.items()} | params
    missing = [key for key, value in args.items() if value is None]
    if missing:
        raise ValidationError(f"{formula} needs the argument {missing[0]!r}")
    winding = None
    if formula in ("circle", "ellipse", "fourier_curve"):
        if grid.n != 1 or chart.dim != 2:
            raise ValidationError(f"{formula} needs a T^1 grid and a 1-dim chart")
        theta = grid.thetas(0)
        if formula == "circle":
            z = complex(*args["center"]) + args["r"] * np.exp(1j * theta)
        elif formula == "ellipse":
            z = args["a"] * np.cos(theta) + 1j * args["b"] * np.sin(theta)
        else:
            size = grid.sizes[0]
            z = _spectral.synthesize(*curve_lab.fourier_terms(args["coeffs"], size // 2 - 1,
                                                              "coeffs"), size)
        pts = np.stack([z.real, z.imag], axis=-1)
    elif formula in ("product_torus", "graph_perturbed_torus"):
        if grid.n != 2 or chart.dim != 4:
            raise ValidationError(f"{formula} needs a T^2 grid and a 2-dim chart")
        t1, t2 = grid.mesh()
        z1 = args["r1"] * np.exp(1j * t1)
        if formula == "product_torus":
            z2 = args["r2"] * np.exp(1j * t2)
        else:
            m1, m2 = args["mode"]
            z2 = (args["r2"] + args["amplitude"] * np.cos(m1 * t1 + m2 * t2)) * np.exp(1j * t2)
        pts = np.stack([z1.real, z2.real, z1.imag, z2.imag], axis=-1)
    else:
        if grid.n != 2 or chart.dim != 4 or not chart.quotient:
            raise ValidationError("straight_torus lives on the flat quotient chart")
        winding = np.asarray(args["winding"], dtype=float)
        pts = np.zeros(grid.sizes + (4,))
        pts += np.asarray(args["offset"])
    return is_totally_real(Immersion(grid=grid, chart=chart, points=pts, winding=winding))

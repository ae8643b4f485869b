"""Test-side checks of the variation formulas of trgeo.variation_harness.

validate_hj_sign holds the sign convention of Geometry.h_j to the FD
first variation for random low-mode fields (low_mode_field). h_j_of_frame
is H_J by the trace over an orthonormal frame, a check of Geometry.h_j's
trace through G^-1.
mixed_density_second_variation is the frame-trace formula of the mixed
second variation of the J-density on flat charts, with its own FD side; its
orthonormal frame is rho_oracle.gram_schmidt's.
"""

import numpy as np

from rho_oracle import gram_schmidt
from trgeo import _spectral
from trgeo.errors import NumericalError, ValidationError
from trgeo.immersion import Immersion, VectorFieldOnL, is_totally_real
from trgeo.variation_harness import DENSITY_EPS, check_first_variation


def low_mode_field(rng, shape):
    """Random smooth periodic field of the Fourier modes |m_k| <= 3, max |f| = 1."""
    if len(shape) == 1:
        theta = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
        f = np.zeros(shape[0])
        for m in range(1, 4):
            a, b = rng.normal(size=2)
            f += a * np.cos(m * theta) + b * np.sin(m * theta)
    else:
        t1 = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
        t2 = 2.0 * np.pi * np.arange(shape[1]) / shape[1]
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        f = np.zeros(shape)
        for m1 in range(-3, 4):
            for m2 in range(-3, 4):
                if m1 == 0 and m2 == 0:
                    continue
                a, b = rng.normal(size=2)
                f += a * np.cos(m1 * T1 + m2 * T2) + b * np.sin(m1 * T1 + m2 * T2)
    return f / np.max(np.abs(f))


def d_along(coeffs, i, values):
    """Flat derivative along e_i = sum_k coeffs[i, k] v_k of a grid field of
    ambient vectors, nodes + (2n,)."""
    out = np.zeros_like(values)
    for k in range(coeffs.shape[0]):
        dk = _spectral.spectral_derivative(values, axis=k)
        out += coeffs[i, k][..., None] * dk
    return out


def h_j_of_frame(geo):
    """H_J values by the trace over the Gram-Schmidt frame e_i (gram_schmidt):
    -J pi_T J sum_i [nabla_{e_i} (pi_L^t e_i) - pi_L^t nabla_{e_i} e_i], with
    pi_T = sum_i e_i (g e_i)^T and pi_L the Geometry's."""
    im = geo.im
    J, g = im.chart.J, geo.g_ambient
    frame, coeffs = gram_schmidt(geo)
    pi_l_t = im.chart.inverse_metric(g) @ np.swapaxes(geo.pi_l, -1, -2) @ g
    gamma = None if im.chart.is_flat else im.chart.christoffel_many(im.positions())

    def covariant_along(i, values):
        out = d_along(coeffs, i, values)
        if gamma is not None:
            out += np.einsum("...cab,...a,...b->...c", gamma, frame[i], values)
        return out

    total = 0.0
    for i in range(im.n):
        f_i = np.einsum("...ij,...j->...i", pi_l_t, frame[i])
        total = total + covariant_along(i, f_i) - np.einsum(
            "...ij,...j->...i", pi_l_t, covariant_along(i, frame[i]))
    pi_t = sum(np.einsum("...i,...j->...ij", e, np.einsum("...ij,...j->...i", g, e))
               for e in frame)
    return -np.einsum("ij,...jk,kl,...l->...i", J, pi_t, J, total)


class SignConventionMismatch(NumericalError):
    """Mean-curvature sign check against the finite-difference oracle failed."""


def validate_hj_sign(geo):
    """Check the H_J sign convention against the FD oracle for random fields.

    Five low-mode fields (seed 7) on the immersion of the Geometry geo must
    each meet the first-variation identity to 1e-3 of 1 + |analytic|. Raises
    SignConventionMismatch if it holds with the opposite sign; raises
    NotTotallyReal etc. if a deformed immersion is invalid.
    """
    im = geo.im
    rng = np.random.default_rng(7)
    for k in range(5):
        comps = np.stack([low_mode_field(rng, im.grid.sizes)
                          for _ in range(im.n)])
        Y = VectorFieldOnL(grid=im.grid, components=comps)
        rep = check_first_variation(geo, Y, context=f"sign check {k}")
        scale = 1.0 + abs(rep.analytic)
        if rep.abs_err > 1e-3 * scale:
            flipped = abs(-rep.analytic - rep.fd)
            if flipped < rep.abs_err * 1e-2:
                raise SignConventionMismatch(
                    "H_J satisfies the variational identity with flipped sign"
                )
            raise SignConventionMismatch(
                f"first-variation identity fails: analytic {rep.analytic:.6g} "
                f"vs fd {rep.fd:.6g}"
            )
    return True


def mixed_density_second_variation(geo, W, Z):
    """Mixed d^2/ds dt of the J-density for the linear family iota + sW + tZ
    about the immersion of the Geometry geo.

    W, Z are ambient-vector grid fields along L (flat chart, torsion-free,
    curvature-free case). Returns (analytic array, fd array): the analytic
    side is the frame-trace formula

        sum_ij [ g(pi_L J D_i W, e_j) g(pi_L J D_j Z, e_i)
               - g(pi_L D_i W, e_j) g(pi_L D_j Z, e_i) ]
        + (sum_i g(pi_L D_i W, e_i)) (sum_j g(pi_L D_j Z, e_j))

    times the J-density, with D_i the ambient derivative along e_i.
    """
    im = geo.im
    if not im.chart.is_flat:
        raise ValidationError("mixed check is exercised on flat charts only")
    pi_l = geo.pi_l
    frame, coeffs = gram_schmidt(geo)
    J = im.chart.J
    n = im.n
    g = geo.g_ambient
    a_w = np.empty((n, n) + im.grid.sizes)
    a_z = np.empty((n, n) + im.grid.sizes)
    b_w = np.empty((n, n) + im.grid.sizes)
    b_z = np.empty((n, n) + im.grid.sizes)
    for i in range(n):
        dw = d_along(coeffs, i, W)
        dz = d_along(coeffs, i, Z)
        pl_dw = np.einsum("...ij,...j->...i", pi_l, dw)
        pl_dz = np.einsum("...ij,...j->...i", pi_l, dz)
        pl_jdw = np.einsum("...ij,jk,...k->...i", pi_l, J, dw)
        pl_jdz = np.einsum("...ij,jk,...k->...i", pi_l, J, dz)
        for j in range(n):
            a_w[i, j] = np.einsum("...i,...ij,...j->...", pl_dw, g, frame[j])
            a_z[i, j] = np.einsum("...i,...ij,...j->...", pl_dz, g, frame[j])
            b_w[i, j] = np.einsum("...i,...ij,...j->...", pl_jdw, g, frame[j])
            b_z[i, j] = np.einsum("...i,...ij,...j->...", pl_jdz, g, frame[j])
    term1 = np.einsum("ij...,ji...->...", b_w, b_z)
    term2 = np.einsum("ij...,ji...->...", a_w, a_z)
    trace_w = np.einsum("ii...->...", a_w)
    trace_z = np.einsum("ii...->...", a_z)
    analytic = (term1 - term2 + trace_w * trace_z) * geo.volj_density

    def dens_at(s, t):
        pts = im.points + s * W + t * Z
        return is_totally_real(Immersion(grid=im.grid, chart=im.chart, points=pts,
                                         winding=im.winding)).volj_density

    def mixed_diff(e):
        return (dens_at(e, e) - dens_at(e, -e)
                - dens_at(-e, e) + dens_at(-e, -e)) / (4.0 * e ** 2)

    return analytic, _spectral.richardson(mixed_diff, DENSITY_EPS)

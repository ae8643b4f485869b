"""Test-side checks of the variation formulas of trgeo.variation_harness.

validate_hj_sign holds the sign convention of Geometry.h_j to the FD
first variation for random low-mode fields. mixed_density_second_variation
is the frame-trace formula of the mixed second variation of the J-density
on flat charts, with its own FD side.
"""

import numpy as np

from trgeo import _spectral
from trgeo.errors import NumericalError, ValidationError
from trgeo.immersion import Immersion, VectorFieldOnL, is_totally_real
from trgeo.variation_harness import DENSITY_EPS, check_first_variation


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
        comps = np.stack([_spectral.low_mode_field(rng, im.grid.sizes)
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
    J = im.chart.J
    n = im.n
    g = geo.g_ambient
    a_w = np.empty((n, n) + im.grid.sizes)
    a_z = np.empty((n, n) + im.grid.sizes)
    b_w = np.empty((n, n) + im.grid.sizes)
    b_z = np.empty((n, n) + im.grid.sizes)
    for i in range(n):
        dw = geo.d_along(i, W)
        dz = geo.d_along(i, Z)
        pl_dw = np.einsum("...ij,...j->...i", pi_l, dw)
        pl_dz = np.einsum("...ij,...j->...i", pi_l, dz)
        pl_jdw = np.einsum("...ij,jk,...k->...i", pi_l, J, dw)
        pl_jdz = np.einsum("...ij,jk,...k->...i", pi_l, J, dz)
        for j in range(n):
            a_w[i, j] = np.einsum("...i,...ij,...j->...", pl_dw, g, geo.frame[j])
            a_z[i, j] = np.einsum("...i,...ij,...j->...", pl_dz, g, geo.frame[j])
            b_w[i, j] = np.einsum("...i,...ij,...j->...", pl_jdw, g, geo.frame[j])
            b_z[i, j] = np.einsum("...i,...ij,...j->...", pl_jdz, g, geo.frame[j])
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

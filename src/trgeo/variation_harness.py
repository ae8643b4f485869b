"""Finite-difference oracles for variations of the J-volume.

First variations are checked by deforming grid points linearly along an
ambient field Z = iota_* X + J iota_* Y (only the t-derivative at 0 matters,
so the linear extension is as good as any) with Richardson-extrapolated
central differences in the step. Second variations are taken along genuine
geodesic families d iota/dt = J iota_* Y, generated by mode-wise continuation
of the complex components; the continuation only uses the constancy of J on
the chart, so it provides the geodesic family on every built-in chart even
though the public spectral flow is restricted to flat ones. The tangential
density identities are checked by flowing L along X = f(theta_k) d/dtheta_k:
that flow moves theta_k alone, so it is one RK4 over the axis angles and one
resample along that axis (geodesic_flow._resample_axis); other fields raise
UnsupportedField.

Analytic counterparts:
  first variation      -int g(JY, H_J) vol_J
  tangential density   d/dt vol_J = Div(rho_J X) vol_g,
                       d2/dt2 vol_J = Div(X Div(rho_J X)) vol_g
  geodesic second var  int (Div(rho_J Y)/rho_J)^2 + g(JY,H_J)^2 - Ric(Y,Y) vol_J
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral
from .curve_lab import reparametrize_by_field
from .errors import (GeodesicUnavailable, SignConventionMismatch, UnsupportedField,
                     ValidationError)
from .geodesic_flow import (_axis_profile, _continue_modes, _coordinate_alignment,
                            _resample_axis)
from .immersion import (GridTorus, Immersion, VectorFieldOnL, density, frames,
                        total_volumes)

FD_EPS_DEFAULT = (1e-2, 5e-3, 2.5e-3)


@dataclass
class VariationReport:
    analytic: float
    fd: float
    abs_err: float
    rel_err: float
    richardson_order: Optional[float]
    context: str

    def to_dict(self):
        return {
            "analytic": self.analytic,
            "fd": self.fd,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "richardson_order": self.richardson_order,
            "context": self.context,
        }


def _make_report(analytic, fd, order, context):
    abs_err = abs(analytic - fd)
    return VariationReport(
        analytic=float(analytic), fd=float(fd), abs_err=float(abs_err),
        rel_err=float(abs_err / (1.0 + abs(analytic))),
        richardson_order=order, context=context,
    )


def deform_linear(im, Z, t):
    """Immersion with points moved to iota + t Z (Z per-node ambient vectors)."""
    return Immersion(grid=im.grid, chart=im.chart, points=im.points + t * Z,
                     winding=im.winding)


def fd_first_variation(im, Z, eps_list=FD_EPS_DEFAULT):
    """Central-difference derivative of Vol_J under the deformation Z.

    Returns (value, order); each deformed immersion is re-validated, so a
    deformation that destroys the totally real condition raises
    NotTotallyReal.
    """
    eps_list = sorted(eps_list, reverse=True)

    def vol(t):
        return total_volumes(deform_linear(im, Z, t))["vol_j"]

    diffs = [(vol(e) - vol(-e)) / (2.0 * e) for e in eps_list]
    order = None
    if len(diffs) >= 3:
        d01 = diffs[0] - diffs[1]
        d12 = diffs[1] - diffs[2]
        floor = 1e-11 * (1.0 + abs(diffs[-1]))
        # the order estimate is meaningless once the differences sit in noise
        if abs(d12) > floor and abs(d01) > floor:
            order = float(np.log2(abs(d01) / abs(d12)))
    if len(diffs) >= 2:
        value = (4.0 * diffs[-1] - diffs[-2]) / 3.0
    else:
        value = diffs[-1]
    return value, order


def check_first_variation(im, Y, eps_list=FD_EPS_DEFAULT, context=""):
    """Analytic -int g(JY, H_J) vol_J against the FD derivative of Vol_J."""
    geo = frames(im)
    jy = np.einsum("ij,...j->...i", im.chart.J, geo.pushforward(Y))
    integrand = np.einsum("...i,...ij,...j->...", jy, geo.g_ambient, geo.h_j.values)
    analytic = -_spectral.periodic_total(integrand * geo.density.volj_density,
                                         im.grid.cell)
    fd, order = fd_first_variation(im, jy, eps_list=eps_list)
    return _make_report(analytic, fd, order, context or "first variation")


def validate_hj_sign(im, n_fields=5, seed=7, tol=1e-3):
    """Check the H_J sign convention against the FD oracle for random fields.

    Raises SignConventionMismatch if the variational identity holds with the
    opposite sign; raises NotTotallyReal etc. if the immersion is invalid.
    """
    rng = np.random.default_rng(seed)
    for k in range(n_fields):
        comps = np.stack([
            _spectral.low_mode_field(rng, im.grid.sizes, amplitude=1.0)
            for _ in range(im.n)
        ])
        Y = VectorFieldOnL(grid=im.grid, components=comps)
        rep = check_first_variation(im, Y, context=f"sign check {k}")
        scale = 1.0 + abs(rep.analytic)
        if rep.abs_err > tol * scale:
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


# --- tangential density checks ---------------------------------------------------

def _interpolant(values):
    """Trigonometric interpolant of periodic node values, as a callable."""
    coeffs = _spectral.fourier_coefficients(values)
    return lambda theta: _spectral.evaluate_fourier(coeffs, theta).real


def _flow_on_torus(im, X, t, substeps=8):
    """Reparametrization iota o phi_t(X) for X = f(theta_k) d/dtheta_k.

    The flow moves theta_k alone, at the rate f(theta_k), so one vectorised
    RK4 over the axis nodes gives their new angles and a one-axis spectral
    resample gives the points; the other axis rides along.
    """
    prof = _axis_profile(X)
    if prof is None:
        raise UnsupportedField("the density check needs X = f(theta_k) d/dtheta_k")
    axis, profile = prof
    rate = _interpolant(profile)
    theta = im.grid.thetas(axis)
    h = t / substeps
    for _ in range(substeps):
        theta = _spectral.rk4_step(rate, theta, h)
    return _resample_axis(im, axis, theta)


def check_density_divergence(im, X, eps=1e-3, context=""):
    """Pointwise first/second t-derivatives of vol_J under the tangential flow.

    Compares against Div(rho_J X) vol_g and Div(X Div(rho_J X)) vol_g and
    returns a pair of reports whose analytic/fd slots carry the max-norm node
    values; rel_err is the worst pointwise relative error.
    """
    geo = frames(im)
    rho_x = geo.density.rho[None, ...] * X.components
    div1 = geo.divergence(rho_x)
    first_exact = div1 * geo.induced_vol
    div1_x = X.components * div1[None, ...]
    second_exact = geo.divergence(div1_x) * geo.induced_vol

    d_p = density(_flow_on_torus(im, X, eps)).volj_density
    d_m = density(_flow_on_torus(im, X, -eps)).volj_density
    d_p2 = density(_flow_on_torus(im, X, eps / 2.0)).volj_density
    d_m2 = density(_flow_on_torus(im, X, -eps / 2.0)).volj_density
    d_0 = geo.density.volj_density
    fd1_a = (d_p - d_m) / (2.0 * eps)
    fd1_b = (d_p2 - d_m2) / eps
    fd1 = (4.0 * fd1_b - fd1_a) / 3.0
    fd2_a = (d_p - 2.0 * d_0 + d_m) / eps ** 2
    fd2_b = (d_p2 - 2.0 * d_0 + d_m2) / (eps / 2.0) ** 2
    fd2 = (4.0 * fd2_b - fd2_a) / 3.0

    scale = float(np.max(np.abs(d_0)))
    rel1 = float(np.max(np.abs(fd1 - first_exact))) / scale
    rel2 = float(np.max(np.abs(fd2 - second_exact))) / scale
    rep1 = VariationReport(
        analytic=float(np.max(np.abs(first_exact))), fd=float(np.max(np.abs(fd1))),
        abs_err=float(np.max(np.abs(fd1 - first_exact))), rel_err=rel1,
        richardson_order=None, context=(context or "density divergence") + " [1st]")
    rep2 = VariationReport(
        analytic=float(np.max(np.abs(second_exact))), fd=float(np.max(np.abs(fd2))),
        abs_err=float(np.max(np.abs(fd2 - second_exact))), rel_err=rel2,
        richardson_order=None, context=(context or "density divergence") + " [2nd]")
    integral_second = _spectral.periodic_total(second_exact, im.grid.cell)
    return rep1, rep2, integral_second


# --- geodesic second variation -----------------------------------------------------

def _reparametrized_family_axis(im, axis, profile, ts):
    """Geodesic family for Y = f(theta_axis) d/dtheta_axis with f > 0.

    Integral curves close up along the axis circle; reparametrizing them to
    constant speed turns the field into (1/R) d/dpsi, after which continuation
    is mode-wise. The same angle substitution applies to every transverse
    slice since f depends on theta_axis only.
    """
    if np.min(profile) <= 0.0:
        raise GeodesicUnavailable("axis-profile families need f > 0 everywhere")
    rep = reparametrize_by_field(_interpolant(profile), M=im.grid.sizes[axis])
    im2 = _resample_axis(im, axis, rep["theta_of_s"])
    return _continue_modes(im2, axis, 1.0 / rep["R"], ts)


def geodesic_family(im, Y, ts):
    """Immersions along the geodesic d iota/dt = J iota_* Y.

    Coordinate-aligned Y: exact mode-wise continuation (valid on any chart
    here, J being constant). Fields f(theta_k) d/dtheta_k with positive f:
    reparametrized continuation along that axis. Anything else:
    GeodesicUnavailable. The members are not validated here; total_volumes
    validates each one it integrates.
    """
    al = _coordinate_alignment(Y)
    if al is not None:
        return _continue_modes(im, al[0], al[1], ts)
    prof = _axis_profile(Y)
    if prof is not None:
        return _reparametrized_family_axis(im, prof[0], prof[1], ts)
    raise GeodesicUnavailable(
        "no geodesic family generator for this direction field"
    )


def second_variation_integrand(im, Y):
    """(Div(rho_J Y)/rho_J)^2 + g(JY, H_J)^2 - Ric(Y, Y), per node."""
    geo = frames(im)
    dens = geo.density
    rho_y = dens.rho[None, ...] * Y.components
    div_term = geo.divergence(rho_y) / dens.rho
    y_amb = geo.pushforward(Y)
    jy = np.einsum("ij,...j->...i", im.chart.J, y_amb)
    hj_term = np.einsum("...i,...ij,...j->...", jy, geo.g_ambient, geo.h_j.values)
    if im.chart.is_flat:
        ric_term = np.zeros(im.grid.sizes)
    else:
        ric = im.chart.ricci_many(im.positions())
        ric_term = np.einsum("...i,...ij,...j->...", y_amb, ric, y_amb)
    return div_term ** 2 + hj_term ** 2 - ric_term, dens


def check_second_variation_kahler(im, Y, tau=1e-2, context=""):
    """Second derivative of Vol_J along the geodesic family vs the integrand.

    fd side: 5-point fourth-order second difference of Vol_J over the family
    at times {0, +-tau, +-2tau}.
    """
    integrand, dens = second_variation_integrand(im, Y)
    analytic = _spectral.periodic_total(integrand * dens.volj_density,
                                        im.grid.cell)
    ts = [-2.0 * tau, -tau, 0.0, tau, 2.0 * tau]
    fam = geodesic_family(im, Y, ts)
    vols = [total_volumes(f)["vol_j"] for f in fam]
    fd = (-vols[0] + 16.0 * vols[1] - 30.0 * vols[2]
          + 16.0 * vols[3] - vols[4]) / (12.0 * tau ** 2)
    return _make_report(analytic, fd, None, context or "second variation")


def mixed_density_second_variation(im, W, Z, eps=1e-3):
    """Mixed d^2/ds dt of the J-density for the linear family iota + sW + tZ.

    W, Z are ambient-vector grid fields along L (flat chart, torsion-free,
    curvature-free case). Returns (analytic array, fd array): the analytic
    side is the frame-trace formula

        sum_ij [ g(pi_L J D_i W, e_j) g(pi_L J D_j Z, e_i)
               - g(pi_L D_i W, e_j) g(pi_L D_j Z, e_i) ]
        + (sum_i g(pi_L D_i W, e_i)) (sum_j g(pi_L D_j Z, e_j))

    times the J-density, with D_i the ambient derivative along e_i.
    """
    if not im.chart.is_flat:
        raise ValidationError("mixed check is exercised on flat charts only")
    geo = frames(im)
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
    analytic = (term1 - term2 + trace_w * trace_z) * geo.density.volj_density

    def dens_at(s, t):
        pts = im.points + s * W + t * Z
        return density(Immersion(grid=im.grid, chart=im.chart, points=pts,
                                 winding=im.winding)).volj_density

    def mixed_diff(e):
        return (dens_at(e, e) - dens_at(e, -e)
                - dens_at(-e, e) + dens_at(-e, -e)) / (4.0 * e ** 2)

    return analytic, _spectral.richardson(mixed_diff, eps)


# --- convexity experiments -----------------------------------------------------------

def convexity_experiment(family, t_grid):
    """Vol_J along a named geodesic family with second differences.

    family: dict descriptor, e.g.
      {"kind": "flat_circle", "r0": 1.0, "grid": 64}
      {"kind": "flat_torus", "r1": 1.0, "r2": 2.0, "axis": 0, "grid": 32}
      {"kind": "poincare_circle", "r0": 1.0, "grid": 64}
      {"kind": "quotient_torus_shear", "amplitude": 0.3, "grid": 32}
    t values must be increasing and uniformly spaced.
    """
    from . import ambient as amb
    from .immersion import build_immersion, coordinate_field

    t_grid = np.asarray([float(t) for t in t_grid])
    if t_grid.size < 3 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("need an increasing t grid with >= 3 samples")
    kind = family.get("kind")
    gsz = int(family.get("grid", 64))
    if kind == "flat_circle":
        chart = amb.flat_chart(1)
        im = build_immersion(GridTorus((gsz,)), chart, "circle",
                             r=family.get("r0", 1.0))
        Y = coordinate_field(im.grid, 0)
    elif kind == "flat_torus":
        chart = amb.flat_chart(2)
        im = build_immersion(GridTorus((gsz, gsz)), chart, "product_torus",
                             r1=family.get("r1", 1.0), r2=family.get("r2", 2.0))
        Y = coordinate_field(im.grid, int(family.get("axis", 0)))
    elif kind == "poincare_circle":
        chart = amb.poincare_disk()
        r0 = family.get("r0", 1.0)
        im = build_immersion(GridTorus((gsz,)), chart, "circle",
                             r=r0 * math.exp(-float(t_grid[0])))
        Y = coordinate_field(im.grid, 0)
        t_grid = t_grid - t_grid[0]
    elif kind == "quotient_torus_shear":
        chart = amb.flat_quotient_chart(2)
        im = build_immersion(GridTorus((gsz, gsz)), chart, "straight_torus")
        theta = im.grid.thetas(0)
        amp = family.get("amplitude", 0.3)
        comp = np.zeros((2, gsz, gsz))
        comp[0] = (1.0 + amp * np.cos(theta))[:, None]
        Y = VectorFieldOnL(grid=im.grid, components=comp)
    else:
        raise ValidationError(f"unknown family kind {kind!r}")
    fam = geodesic_family(im, Y, list(t_grid))
    vols = np.array([total_volumes(f)["vol_j"] for f in fam])
    h = float(t_grid[1] - t_grid[0])
    second = np.full(t_grid.size, np.nan)
    second[1:-1] = (vols[2:] - 2.0 * vols[1:-1] + vols[:-2]) / h ** 2
    return {"t": t_grid, "vol_j": vols, "second_differences": second}

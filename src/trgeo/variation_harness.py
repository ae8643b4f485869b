"""Finite-difference oracles for variations of the J-volume.

First variations are checked by deforming grid points linearly along an
ambient field Z = iota_* X + J iota_* Y (only the t-derivative at 0 matters,
so the linear extension is as good as any) with Richardson-extrapolated
central differences in the step. Second variations are taken along genuine
geodesic families d iota/dt = J iota_* Y, Y = f(theta_k) d/dtheta_k with f
constant or positive (geodesic_flow.flow_spectral, the guarded and
validated mode-wise continuation, on every built-in chart), whose Vol_J it
reports member by member. The tangential density identities are checked by
flowing L along X = f(theta_k) d/dtheta_k (geodesic_flow.tangential_flow).

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
from .errors import ValidationError
from .geodesic_flow import flow_spectral, tangential_flow
from .immersion import GridTorus, Immersion, VectorFieldOnL, is_totally_real

# FD steps: first variation (descending, each half the one before), the
# pointwise density checks, and the second variation along a geodesic family
FD_EPS = (1e-2, 5e-3, 2.5e-3)
DENSITY_EPS = 1e-3
SECOND_TAU = 1e-2


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


def fd_first_variation(im, Z):
    """Central-difference derivative of Vol_J under the deformation Z.

    Returns (value, order): the Richardson value of the two smaller FD_EPS
    steps and the observed order of the three. Each deformed immersion is
    re-validated, so a deformation that destroys the totally real condition
    raises NotTotallyReal.
    """
    def vol(t):
        return is_totally_real(deform_linear(im, Z, t)).volumes()["vol_j"]

    diffs = {e: (vol(e) - vol(-e)) / (2.0 * e) for e in FD_EPS}
    d0, d1, d2 = diffs.values()
    order = None
    floor = 1e-11 * (1.0 + abs(d2))
    # the order estimate is meaningless once the differences sit in noise
    if abs(d1 - d2) > floor and abs(d0 - d1) > floor:
        order = float(np.log2(abs(d0 - d1) / abs(d1 - d2)))
    return _spectral.richardson(diffs.__getitem__, FD_EPS[1]), order


def check_first_variation(geo, Y, context=""):
    """Analytic -int g(JY, H_J) vol_J against the FD derivative of Vol_J,
    for the Geometry geo of an immersion."""
    im = geo.im
    jy = np.einsum("ij,...j->...i", im.chart.J, geo.pushforward(Y))
    integrand = np.einsum("...i,...ij,...j->...", jy, geo.g_ambient, geo.h_j.values)
    analytic = -_spectral.periodic_total(integrand * geo.volj_density,
                                         im.grid.cell)
    fd, order = fd_first_variation(im, jy)
    return _make_report(analytic, fd, order, context or "first variation")


# --- tangential density checks ---------------------------------------------------

def check_density_divergence(geo, X):
    """Pointwise first/second t-derivatives of vol_J under the tangential flow
    of the immersion of the Geometry geo.

    Compares against Div(rho_J X) vol_g and Div(X Div(rho_J X)) vol_g and
    returns a pair of reports whose analytic/fd slots carry the max-norm node
    values; rel_err is the worst pointwise relative error.
    """
    im = geo.im
    rho_x = geo.rho[None, ...] * X.components
    div1 = geo.divergence(rho_x)
    first_exact = div1 * geo.induced_vol
    div1_x = X.components * div1[None, ...]
    second_exact = geo.divergence(div1_x) * geo.induced_vol

    eps = DENSITY_EPS
    d = {t: is_totally_real(tangential_flow(im, X, t)).volj_density
         for t in (eps, -eps, eps / 2.0, -eps / 2.0)}
    d_0 = geo.volj_density
    fd1 = _spectral.richardson(lambda h: (d[h] - d[-h]) / (2.0 * h), eps)
    fd2 = _spectral.richardson(lambda h: (d[h] - 2.0 * d_0 + d[-h]) / h ** 2, eps)

    scale = float(np.max(np.abs(d_0)))
    rel1 = float(np.max(np.abs(fd1 - first_exact))) / scale
    rel2 = float(np.max(np.abs(fd2 - second_exact))) / scale
    rep1 = VariationReport(
        analytic=float(np.max(np.abs(first_exact))), fd=float(np.max(np.abs(fd1))),
        abs_err=float(np.max(np.abs(fd1 - first_exact))), rel_err=rel1,
        richardson_order=None, context="density divergence [1st]")
    rep2 = VariationReport(
        analytic=float(np.max(np.abs(second_exact))), fd=float(np.max(np.abs(fd2))),
        abs_err=float(np.max(np.abs(fd2 - second_exact))), rel_err=rel2,
        richardson_order=None, context="density divergence [2nd]")
    integral_second = _spectral.periodic_total(second_exact, im.grid.cell)
    return rep1, rep2, integral_second


# --- geodesic second variation -----------------------------------------------------

def second_variation_integrand(geo, Y):
    """(Div(rho_J Y)/rho_J)^2 + g(JY, H_J)^2 - Ric(Y, Y) per node of the
    Geometry geo."""
    im = geo.im
    rho_y = geo.rho[None, ...] * Y.components
    div_term = geo.divergence(rho_y) / geo.rho
    y_amb = geo.pushforward(Y)
    jy = np.einsum("ij,...j->...i", im.chart.J, y_amb)
    hj_term = np.einsum("...i,...ij,...j->...", jy, geo.g_ambient, geo.h_j.values)
    if im.chart.is_flat:
        ric_term = np.zeros(im.grid.sizes)
    else:
        ric = im.chart.ricci_many(im.positions())
        ric_term = np.einsum("...i,...ij,...j->...", y_amb, ric, y_amb)
    return div_term ** 2 + hj_term ** 2 - ric_term


def check_second_variation_kahler(geo, Y, context=""):
    """Second derivative of Vol_J along the geodesic family vs the integrand.

    fd side: 5-point fourth-order second difference of Vol_J over the family
    at times {0, +-tau, +-2tau}, tau = SECOND_TAU.
    """
    tau = SECOND_TAU
    analytic = _spectral.periodic_total(
        second_variation_integrand(geo, Y) * geo.volj_density, geo.im.grid.cell)
    ts = [-2.0 * tau, -tau, 0.0, tau, 2.0 * tau]
    vols = flow_spectral(geo.im, Y, ts).vol_j
    fd = (-vols[0] + 16.0 * vols[1] - 30.0 * vols[2]
          + 16.0 * vols[3] - vols[4]) / (12.0 * tau ** 2)
    return _make_report(analytic, fd, None, context or "second variation")


# --- convexity experiments -----------------------------------------------------------

# each family kind's keys besides "kind", with their defaults: grid counts the
# nodes per axis, axis picks the flat torus's field direction (0 or 1)
FAMILIES = {
    "flat_circle": {"grid": 64, "r0": 1.0},
    "flat_torus": {"grid": 64, "r1": 1.0, "r2": 2.0, "axis": 0},
    "poincare_circle": {"grid": 64, "r0": 1.0},
    "quotient_torus_shear": {"grid": 64, "amplitude": 0.3},
}


def convexity_experiment(family, t_grid):
    """Vol_J along a named geodesic family with second differences.

    family: dict descriptor with a "kind" of FAMILIES and any of its keys, e.g.
      {"kind": "flat_torus", "r1": 1.0, "r2": 2.0, "axis": 0, "grid": 32};
    a key the kind does not read raises ValidationError.
    t values must be increasing and uniformly spaced.
    """
    from . import ambient as amb
    from .immersion import build_immersion, coordinate_field

    kind = family.get("kind")
    if kind not in FAMILIES:
        raise ValidationError(f"unknown family kind {kind!r}")
    unknown = sorted(family.keys() - {"kind", *FAMILIES[kind]})
    if unknown:
        raise ValidationError(f"family.{unknown[0]}: unknown field "
                              f"(known: kind, {', '.join(FAMILIES[kind])})")
    f = FAMILIES[kind] | family
    t_grid = np.asarray([float(t) for t in t_grid])
    steps = np.diff(t_grid)
    if t_grid.size < 3 or np.any(steps <= 0):
        raise ValidationError("need an increasing t grid with >= 3 samples")
    # the second differences below divide by one step squared
    if not np.allclose(steps, steps[0], rtol=1e-10, atol=1e-14):
        raise ValidationError(f"t_grid must be uniformly spaced; its steps run from "
                              f"{np.min(steps):.6g} to {np.max(steps):.6g}")
    gsz = int(f["grid"])
    if kind == "flat_circle":
        chart = amb.flat_chart(1)
        im = build_immersion(GridTorus((gsz,)), chart, "circle", r=f["r0"]).im
        Y = coordinate_field(im.grid, 0)
    elif kind == "flat_torus":
        chart = amb.flat_chart(2)
        im = build_immersion(GridTorus((gsz, gsz)), chart, "product_torus",
                             r1=f["r1"], r2=f["r2"]).im
        Y = coordinate_field(im.grid, int(f["axis"]))
    elif kind == "poincare_circle":
        chart = amb.poincare_disk()
        im = build_immersion(GridTorus((gsz,)), chart, "circle",
                             r=f["r0"] * math.exp(-float(t_grid[0]))).im
        Y = coordinate_field(im.grid, 0)
        t_grid = t_grid - t_grid[0]
    else:
        chart = amb.flat_quotient_chart(2)
        im = build_immersion(GridTorus((gsz, gsz)), chart, "straight_torus").im
        theta = im.grid.thetas(0)
        comp = np.zeros((2, gsz, gsz))
        comp[0] = (1.0 + f["amplitude"] * np.cos(theta))[:, None]
        Y = VectorFieldOnL(grid=im.grid, components=comp)
    vols = np.array(flow_spectral(im, Y, list(t_grid)).vol_j)
    h = float(t_grid[1] - t_grid[0])
    second = np.full(t_grid.size, np.nan)
    second[1:-1] = (vols[2:] - 2.0 * vols[1:-1] + vols[:-2]) / h ** 2
    return {"t": t_grid, "vol_j": vols, "second_differences": second}

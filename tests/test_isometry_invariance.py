"""Invariance under holomorphic isometries: an exact oracle with no step size.

A holomorphic isometry preserves g and J, so Vol_J, Vol_g, rho_J, |H_J|_g
and the first and second variations along a tangent field given in
theta-coordinates are the same for an immersion and for its image, to
round-off. The check runs the chart kernel (metric, Christoffel symbols in
H_J, the Ricci term), the Gram-matrix geometry (rho_J, the projections and
the trace through G^-1 in H_J) and the quadrature on points no built-in
formula produces.

Maps (Rudin, Function Theory in the Unit Ball of C^n, 1980, 2.2.1): the
automorphisms phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>) of the unit
ball, s_a = sqrt(1 - |a|^2), P_a the orthogonal projection onto C a and
Q_a = I - P_a, which for n = 1 are the Moebius maps (a - z) / (1 - conj(a) z)
of the disk; on flat C^2 a unitary map plus a translation.

Bounds, from the values measured on these cases: Vol_J and Vol_g agree to
1.5e-16 relative (bound 1e-15); rho_J nodewise to 2.6e-13 on the ball with
a = (0, 0.3i), whose image torus is the least resolved by the 32 x 32 grid,
and below 1e-14 elsewhere (bound 1e-12); the analytic second variation to
6e-16 relative (bound 4e-15). |H_J|_g nodewise, relative to its maximum,
is set per case: it differentiates the points twice, so it carries the
spectral round-off of the image's resolution. Measured 9.8e-11 on the ball
with a = (0, 0.3i) (bound 1e-9, 10x headroom), 2.8e-12 with
a = (-0.25, 0.1 - 0.2i) (bound 3e-11, 11x), 5e-14 to 7.5e-14 on the other
two balls and on flat C^2 (bound 1e-12, 13x), and 7.5e-14 to 2.2e-13 on the
disk (bound 2e-12, 9x). The analytic first variation along a random
low-mode field agrees to 5e-15 relative (bound 5e-14, 10x).

The geodesics d iota/dt = J iota_* Y are families of J-holomorphic curves,
so a holomorphic map carries the family of iota onto that of its image.
flow_spectral with Y = 0.5 d/dtheta_k at t = 0.1, 0.2 and -0.1 meets this
to 3.4e-15 to 5.4e-15 in the points on the ball (bound 5e-14, 9x), and to
1.2e-15 on the disk ellipse (bound 1.5e-14, 12x). The ball torus is taken
at 64 x 64 for a = (0, 0.3i) along theta_1: at 32 x 32 the two families
differ by 1.4e-12, the grid's resolution of the image.
"""

import numpy as np
import pytest

from trgeo import _spectral, ambient, geodesic_flow as gf, immersion as imm
from trgeo import variation_harness as vh

from variation_oracle import low_mode_field


def _ball_automorphism(a):
    a = np.asarray(a, dtype=complex)
    aa = np.vdot(a, a).real
    s = np.sqrt(1.0 - aa)

    def phi(z):
        za = z @ a.conj()                      # <z, a>
        pz = za[..., None] * a / aa            # P_a z
        return (a - pz - s * (z - pz)) / (1.0 - za)[..., None]

    return phi


def _unitary_translation(u, b):
    return lambda z: z @ np.asarray(u).T + np.asarray(b)


def _mapped(im, phi):
    """Immersion(points=phi(points)) in the same chart."""
    n = im.chart.n
    w = phi(im.points[..., :n] + 1j * im.points[..., n:])
    return imm.Immersion(grid=im.grid, chart=im.chart,
                         points=np.concatenate([w.real, w.imag], axis=-1))


def _invariants(im):
    """Vol_J, Vol_g, rho_J and |H_J|_g nodewise, and the analytic first and
    second variations along fields given in theta-coordinates."""
    geo = imm.is_totally_real(im)
    rng = np.random.default_rng(3)
    X = imm.VectorFieldOnL(grid=im.grid, components=np.stack(
        [low_mode_field(rng, im.grid.sizes) for _ in range(im.n)]))
    first = vh.check_first_variation(geo, X).analytic
    Y = imm.coordinate_field(im.grid, 0, 0.5)
    second = _spectral.periodic_total(
        vh.second_variation_integrand(geo, Y) * geo.volj_density, im.grid.cell)
    h = geo.h_j.values
    hj = np.sqrt(np.einsum("...i,...ij,...j->...", h, geo.g_ambient, h))
    vols = geo.volumes()
    return vols["vol_j"], vols["vol_g"], geo.rho, hj, first, second


_ROTATION = np.exp(0.3j) * np.array([[np.cos(0.7), 1j * np.sin(0.7)],
                                     [1j * np.sin(0.7), np.cos(0.7)]])

_BALL_TORUS = {"r1": 0.3, "r2": 0.35, "amplitude": 0.05, "mode": [1, 1]}

# (label, chart, grid sizes, formula, args, map, bound on |H_J|_g relative to its max)
_CASES = [
    *(("ball", ambient.complex_hyperbolic_ball(), (32, 32), "graph_perturbed_torus",
       _BALL_TORUS, _ball_automorphism(a), hj_bound)
      for a, hj_bound in (([0.2 + 0.1j, -0.15], 1e-12), ([0.0, 0.3j], 1e-9),
                          ([-0.25, 0.1 - 0.2j], 3e-11), ([0.05j, 0.05], 1e-12))),
    *(("disk", ambient.poincare_disk(), (64,), "ellipse", {"a": 0.5, "b": 0.3},
       _ball_automorphism([a]), 2e-12)
      for a in (0.3 + 0.2j, -0.4j, 0.1)),
    ("flat", ambient.flat_chart(2), (32, 32), "graph_perturbed_torus",
     {"r1": 1.0, "r2": 1.5, "amplitude": 0.2, "mode": [1, 1]},
     _unitary_translation(_ROTATION, [0.3 - 0.1j, 2.0 + 0.5j]), 1e-12),
]


@pytest.mark.parametrize("label,chart,sizes,formula,args,phi,hj_bound", _CASES,
                         ids=[f"{c[0]}{k}" for k, c in enumerate(_CASES)])
def test_holomorphic_isometry_leaves_the_functional_unchanged(label, chart, sizes, formula,
                                                            args, phi, hj_bound):
    im = imm.build_immersion(imm.GridTorus(sizes), chart, formula, **args).im
    vol_j, vol_g, rho, hj, first, second = _invariants(im)
    vol_j1, vol_g1, rho1, hj1, first1, second1 = _invariants(_mapped(im, phi))
    assert abs(vol_j1 - vol_j) <= 1e-15 * vol_j
    assert abs(vol_g1 - vol_g) <= 1e-15 * vol_g
    assert np.max(np.abs(rho1 - rho)) <= 1e-12
    assert np.max(np.abs(hj1 - hj)) <= hj_bound * np.max(hj)
    assert abs(first1 - first) <= 5e-14 * abs(first)
    assert abs(second1 - second) <= 4e-15 * abs(second)


def test_the_maps_are_isometries_of_their_charts():
    # g(phi(p)) (d phi v, d phi w) = g(p)(v, w), with d phi from the complex
    # derivative of phi by a complex step; holds to round-off
    rng = np.random.default_rng(7)
    for _, chart, _, _, _, phi, _ in _CASES:
        n = chart.n
        z = (rng.uniform(-0.3, 0.3, (16, n)) + 1j * rng.uniform(-0.3, 0.3, (16, n)))
        jac = np.stack([(phi(z + 1e-7 * e) - phi(z - 1e-7 * e)) / 2e-7
                        for e in np.eye(n)], axis=-1)   # d phi_i / dz_k, O(1e-14)
        # the real form of a complex-linear map A is [[Re A, -Im A], [Im A, Re A]]
        real = np.block([[jac.real, -jac.imag], [jac.imag, jac.real]])
        w = phi(z)
        g0, _ = chart.metric_many(np.concatenate([z.real, z.imag], axis=-1))
        g1, _ = chart.metric_many(np.concatenate([w.real, w.imag], axis=-1))
        pulled = np.swapaxes(real, -1, -2) @ g1 @ real
        assert np.max(np.abs(pulled - g0)) <= 1e-8 * np.max(np.abs(g0))


# (chart, grid sizes, formula, args, the map's a, flow axis, bound on the points)
@pytest.mark.parametrize("chart,sizes,formula,args,a,axis,bound", [
    *((ambient.complex_hyperbolic_ball(), (32, 32), "graph_perturbed_torus", _BALL_TORUS,
       [0.2 + 0.1j, -0.15], axis, 5e-14) for axis in (0, 1)),
    (ambient.complex_hyperbolic_ball(), (32, 32), "graph_perturbed_torus", _BALL_TORUS,
     [0.0, 0.3j], 0, 5e-14),
    (ambient.complex_hyperbolic_ball(), (64, 64), "graph_perturbed_torus", _BALL_TORUS,
     [0.0, 0.3j], 1, 5e-14),
    (ambient.poincare_disk(), (64,), "ellipse", {"a": 0.5, "b": 0.3}, [0.3 + 0.2j], 0,
     1.5e-14),
], ids=["ball-a0-axis0", "ball-a0-axis1", "ball-a1-axis0", "ball64-a1-axis1", "disk"])
def test_holomorphic_isometry_maps_the_geodesic_family(chart, sizes, formula, args, a,
                                                       axis, bound):
    im = imm.build_immersion(imm.GridTorus(sizes), chart, formula, **args).im
    phi = _ball_automorphism(a)
    Y = imm.coordinate_field(im.grid, axis, 0.5)
    ts = [0.1, 0.2, -0.1]
    family = gf.flow_spectral(im, Y, ts).immersions
    image_family = gf.flow_spectral(_mapped(im, phi), Y, ts).immersions
    for member, image_member in zip(family, image_family):
        assert np.max(np.abs(_mapped(member, phi).points - image_member.points)) <= bound

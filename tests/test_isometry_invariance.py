"""Invariance under holomorphic isometries: an exact oracle with no step size.

A holomorphic isometry preserves g and J, so Vol_J, Vol_g, rho_J and the
second variation along a tangent field given in theta-coordinates are the
same for an immersion and for its image, to round-off. The check runs the
chart kernel (metric, Christoffel symbols in H_J, the Ricci term),
the frames and the quadrature on points no built-in formula produces.

Maps (Rudin, Function Theory in the Unit Ball of C^n, 1980, 2.2.1): the
automorphisms phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>) of the unit
ball, s_a = sqrt(1 - |a|^2), P_a the orthogonal projection onto C a and
Q_a = I - P_a, which for n = 1 are the Moebius maps (a - z) / (1 - conj(a) z)
of the disk; on flat C^2 a unitary map plus a translation.

Bounds, from the values measured on these cases: Vol_J and Vol_g agree to
1.5e-16 relative (bound 1e-15); rho_J nodewise to 2.6e-13 on the ball with
a = (0, 0.3i), whose image torus is the least resolved by the 32 x 32 grid,
and below 1e-14 elsewhere (bound 1e-12); the analytic second variation to
6e-16 relative (bound 4e-15).
"""

import numpy as np
import pytest

from trgeo import _spectral, ambient, immersion as imm, variation_harness as vh


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
    geo = imm.is_totally_real(im)
    Y = imm.coordinate_field(im.grid, 0, 0.5)
    second = _spectral.periodic_total(
        vh.second_variation_integrand(geo, Y) * geo.volj_density, im.grid.cell)
    vols = geo.volumes()
    return vols["vol_j"], vols["vol_g"], geo.rho, second


_ROTATION = np.exp(0.3j) * np.array([[np.cos(0.7), 1j * np.sin(0.7)],
                                     [1j * np.sin(0.7), np.cos(0.7)]])

_CASES = [
    *(("ball", ambient.complex_hyperbolic_ball(), (32, 32), "graph_perturbed_torus",
       {"r1": 0.3, "r2": 0.35, "amplitude": 0.05, "mode": [1, 1]}, _ball_automorphism(a))
      for a in ([0.2 + 0.1j, -0.15], [0.0, 0.3j], [-0.25, 0.1 - 0.2j], [0.05j, 0.05])),
    *(("disk", ambient.poincare_disk(), (64,), "ellipse", {"a": 0.5, "b": 0.3},
       _ball_automorphism([a]))
      for a in (0.3 + 0.2j, -0.4j, 0.1)),
    ("flat", ambient.flat_chart(2), (32, 32), "graph_perturbed_torus",
     {"r1": 1.0, "r2": 1.5, "amplitude": 0.2, "mode": [1, 1]},
     _unitary_translation(_ROTATION, [0.3 - 0.1j, 2.0 + 0.5j])),
]


@pytest.mark.parametrize("label,chart,sizes,formula,args,phi", _CASES,
                         ids=[f"{c[0]}{k}" for k, c in enumerate(_CASES)])
def test_holomorphic_isometry_leaves_the_functional_unchanged(label, chart, sizes, formula,
                                                            args, phi):
    im = imm.build_immersion(imm.GridTorus(sizes), chart, formula, **args).im
    vol_j, vol_g, rho, second = _invariants(im)
    vol_j1, vol_g1, rho1, second1 = _invariants(_mapped(im, phi))
    assert abs(vol_j1 - vol_j) <= 1e-15 * vol_j
    assert abs(vol_g1 - vol_g) <= 1e-15 * vol_g
    assert np.max(np.abs(rho1 - rho)) <= 1e-12
    assert abs(second1 - second) <= 4e-15 * abs(second)


def test_the_maps_are_isometries_of_their_charts():
    # g(phi(p)) (d phi v, d phi w) = g(p)(v, w), with d phi from the complex
    # derivative of phi by a complex step; holds to round-off
    rng = np.random.default_rng(7)
    for _, chart, _, _, _, phi in _CASES:
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

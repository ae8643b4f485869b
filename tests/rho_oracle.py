"""The orthonormal-frame side of trgeo.immersion's rho_J, as an oracle.

The package reads rho_J, the projections and H_J off the coordinate
vectors and their Gram matrix, with no frame. The tests hold those to the
frame formulas kept here: gram_schmidt, the g-orthonormal frame of the
coordinate vectors, and rho_of_frame, the Hermitian determinant
sqrt(det_C (delta_ij - i omega(e_i, e_j))) with the Gram determinant of
(e_1..e_n, Je_1..Je_n), det g by LAPACK for every chart, flat ones included
(the package leaves a flat chart's det g = 1 out).
"""

import numpy as np


def _inner(g, a, b):
    """Nodewise g(a, b) of vectors nodes + (2n,)."""
    return np.einsum("...i,...ij,...j->...", a, g, b)


def gram_schmidt(geo):
    """(frame, coeffs) of a Geometry's coordinate vectors v_k.

    frame is (n,) + nodes + (2n,), the g-orthonormal e_i, and coeffs
    (n, n) + nodes, with e_i = sum_k coeffs[i, k] v_k.
    """
    vs, g = geo.vectors, geo.g_ambient
    n = vs.shape[0]
    frame = np.empty_like(vs)
    coeffs = np.zeros((n, n) + vs.shape[1:-1])
    for i in range(n):
        u = vs[i].copy()
        c = np.zeros((n,) + vs.shape[1:-1])
        c[i] = 1.0
        for j in range(i):
            proj = _inner(g, u, frame[j])
            u -= proj[..., None] * frame[j]
            c -= proj * coeffs[j]
        norm = np.sqrt(_inner(g, u, u))
        frame[i] = u / norm[..., None]
        coeffs[i] = c / norm
    return frame, coeffs


def rho_h(frame_vectors, omega):
    """sqrt(det_C (delta_ij - i omega(e_i, e_j))) for orthonormal frames e_i.

    omega is antisymmetric, so the real part of the determinant is 1 for
    curves and 1 - om_00 om_11 + om_01 om_10 for surfaces.
    """
    n = frame_vectors.shape[0]
    if n == 1:
        return np.ones(frame_vectors.shape[1:-1])
    om = [[_inner(omega, frame_vectors[i], frame_vectors[j]) for j in range(n)]
          for i in range(n)]
    return np.sqrt(np.maximum(1.0 - om[0][0] * om[1][1] + om[0][1] * om[1][0], 0.0))


def rho_of_frame(frame_vectors, g, omega, J):
    """Both rho_J formulas for orthonormal frames e_i; returns (rho_h, rho_vol).

    rho_h   = sqrt(det_C (delta_ij - i omega(e_i, e_j)))
    rho_vol = sqrt( sqrt(det g) * det[e_1 .. e_n, Je_1 .. Je_n] )

    frame_vectors is (n,) + nodes + (2n,), as gram_schmidt makes them.
    """
    n = frame_vectors.shape[0]
    cols = [frame_vectors[i] for i in range(n)]
    cols += [np.einsum("ij,...j->...i", J, frame_vectors[i]) for i in range(n)]
    vol = np.sqrt(np.maximum(np.linalg.det(g), 0.0)) * np.linalg.det(np.stack(cols, axis=-1))
    return rho_h(frame_vectors, omega), np.sqrt(np.maximum(vol, 0.0))

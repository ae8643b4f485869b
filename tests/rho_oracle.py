"""Both rho_J formulas of trgeo.immersion for given orthonormal frames.

rho_of_frame is the two-formula evaluation the package used to export: the
Hermitian determinant of the package's Geometry.rho, and the Gram
determinant with det g by LAPACK for every chart, flat ones included (the
package leaves a flat chart's det g = 1 out).
"""

import numpy as np

from trgeo import immersion as imm


def rho_of_frame(frame_vectors, g, omega, J):
    """Both rho_J formulas for orthonormal frames e_i; returns (rho_h, rho_vol).

    rho_h   = sqrt(det_C (delta_ij - i omega(e_i, e_j)))
    rho_vol = sqrt( sqrt(det g) * det[e_1 .. e_n, Je_1 .. Je_n] )

    frame_vectors is (n,) + nodes + (2n,), as Geometry.frame.
    """
    n = frame_vectors.shape[0]
    cols = [frame_vectors[i] for i in range(n)]
    cols += [np.einsum("ij,...j->...i", J, frame_vectors[i]) for i in range(n)]
    vol = np.sqrt(np.maximum(np.linalg.det(g), 0.0)) * np.linalg.det(np.stack(cols, axis=-1))
    return (imm._rho_h(np.moveaxis(frame_vectors, -1, 1), omega),
            np.sqrt(np.maximum(vol, 0.0)))

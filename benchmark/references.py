"""Reference computations made apart from kronbures.

The benchmark checks every unit's outputs against these. Each function
works on plain numpy arrays with numpy or scipy and never calls the
library, so a fault in the library cannot also move its reference.
"""

from __future__ import annotations

import numpy as np


def bures_sq_ambient(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Bures distance tr A + tr B - 2 tr (A^1/2 B A^1/2)^1/2 by sqrtm."""
    from scipy.linalg import sqrtm

    s = np.real(sqrtm(a))
    cross = float(np.trace(np.real(sqrtm(s @ b @ s))))
    return float(np.trace(a) + np.trace(b)) - 2.0 * cross


def kron_embedding(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The ambient matrix V (x) U of a factor pair."""
    return np.kron(v, u)


def coefficient_sigma1(u_eigs, v_eigs, weights) -> float:
    """Top singular value of c_pq = sum_i w_i sqrt(u_ip v_iq), by a dense SVD."""
    c = np.einsum("i,ip,iq->pq", weights, np.sqrt(u_eigs), np.sqrt(v_eigs))
    return float(np.linalg.svd(c, compute_uv=False)[0])


def slice_objective(x, y, u_eigs, v_eigs, weights) -> float:
    """Weighted squared Bures distance from diag(y) (x) diag(x) to the slice data.

    Each datum is diag(v_i) (x) diag(u_i); all matrices are diagonal, so
    every term is sum_pq (sqrt(x_p y_q) - sqrt(u_ip v_iq))^2.
    """
    target = np.sqrt(np.outer(x, y))
    data = np.sqrt(u_eigs[:, :, None] * v_eigs[:, None, :])
    return float(np.einsum("i,ipq->", weights, (target[None] - data) ** 2))


def commuting_bw_barycenter(basis, eig_rows, weights) -> np.ndarray:
    """Bures-Wasserstein barycenter (sum_i w_i D_i^1/2)^2 of commuting matrices.

    Row i of ``eig_rows`` holds the eigenvalues of datum i in the common
    orthogonal ``basis``.
    """
    root = np.asarray(weights) @ np.sqrt(np.asarray(eig_rows))
    return (basis * root**2) @ basis.T


def profile_sigma2(a, b, c, d, t: float) -> float:
    """Second singular value of H_t = (1-t) a b^T + t c d^T, by a dense SVD."""
    h = (1.0 - t) * np.outer(a, b) + t * np.outer(c, d)
    return float(np.linalg.svd(h, compute_uv=False)[1])

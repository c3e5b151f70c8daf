"""Bures-Wasserstein distance, optimal transport maps, and geodesics on the
full SPD cone, plus the Gaussian W2 wrapper."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotCommuting,
    NumericalConsistencyError,
    ParameterOutOfRange,
)
from .spd_core import SpdMatrix, spd_inv_sqrt, spd_sqrt, symmetrize

# Relative commutator norm below which a pair is treated as commuting.
COMMUTE_TOL = 1e-10

# Transport maps must reproduce their endpoints to this relative accuracy.
TRANSPORT_CHECK_TOL = 1e-10

_NEGATIVE_CLAMP = 1e-10


@dataclass(frozen=True, eq=False)
class GeodesicCurve:
    """Bures geodesic with its transport map precomputed once.

    Evaluation at any t is then two matrix multiplies.
    """

    start: SpdMatrix
    transport: SpdMatrix


def _check_same_dim(a: SpdMatrix, b: SpdMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def _clamp_distance_sq(d2: float, scale: float) -> float:
    # Round-off may push the squared distance slightly negative; a deficit
    # beyond the tolerance indicates a bug, not noise.
    if d2 >= 0.0:
        return d2
    if d2 >= -_NEGATIVE_CLAMP * scale:
        return 0.0
    raise NumericalConsistencyError(
        f"squared distance {d2:.6e} negative beyond round-off at scale {scale:.6e}"
    )


def _check_commuting(a: np.ndarray, b: np.ndarray, label: str) -> None:
    comm = np.linalg.norm(a @ b - b @ a)
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    if comm > COMMUTE_TOL * scale:
        raise NotCommuting(
            f"{label} do not commute: relative commutator norm "
            f"{comm / scale:.6e} exceeds {COMMUTE_TOL:.1e}"
        )


# The whitened product S B S, S = A^1/2, is formed and decomposed only by
# the two helpers below; see SpdMatrix for why it is never validated.


def _whitened_eigvals(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized S B S, clipped at 0."""
    return np.clip(np.linalg.eigvalsh(symmetrize(s @ b @ s)), 0.0, None)


def _whitened_root(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(S B S)^1/2 from one eigh of the symmetrized product, clipped at 0."""
    w, q = np.linalg.eigh(symmetrize(s @ b @ s))
    return (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T


def bures_distance_sq(a: SpdMatrix, b: SpdMatrix) -> float:
    """Squared Bures-Wasserstein distance tr(A) + tr(B) - 2 tr((A^1/2 B A^1/2)^1/2)."""
    _check_same_dim(a, b)
    w = _whitened_eigvals(spd_sqrt(a), b.mat)
    tr_sum = a.trace() + b.trace()
    d2 = tr_sum - 2.0 * float(np.sqrt(w).sum())
    return _clamp_distance_sq(d2, tr_sum)


def transport_map(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Optimal transport T = A^-1/2 (A^1/2 B A^1/2)^1/2 A^-1/2, with T A T = B."""
    _check_same_dim(a, b)
    r = spd_inv_sqrt(a)
    t = SpdMatrix(r @ _whitened_root(spd_sqrt(a), b.mat) @ r)
    defect = np.linalg.norm(t.mat @ a.mat @ t.mat - b.mat)
    if defect > TRANSPORT_CHECK_TOL * np.linalg.norm(b.mat):
        raise NumericalConsistencyError(
            f"transport defining property violated: relative defect "
            f"{defect / np.linalg.norm(b.mat):.6e}"
        )
    return t


def geodesic(a: SpdMatrix, b: SpdMatrix) -> GeodesicCurve:
    """Bures geodesic curve from A to B."""
    return GeodesicCurve(start=a, transport=transport_map(a, b))


def geodesic_eval(curve: GeodesicCurve, t: float) -> SpdMatrix:
    """Point ((1-t)I + tT) A ((1-t)I + tT) on the geodesic, t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"geodesic parameter {t} outside [0, 1]")
    n = curve.start.dim
    ct = (1.0 - t) * np.eye(n) + t * curve.transport.mat
    return SpdMatrix(ct @ curve.start.mat @ ct)


def commuting_geodesic_eval(a: SpdMatrix, b: SpdMatrix, t: float) -> SpdMatrix:
    """Geodesic ((1-t) A^1/2 + t B^1/2)^2 for commuting endpoints."""
    _check_same_dim(a, b)
    _check_commuting(a.mat, b.mat, "endpoints")
    mix = (1.0 - t) * spd_sqrt(a) + t * spd_sqrt(b)
    return SpdMatrix(mix @ mix)


def gaussian_w2_sq(m0, k0: SpdMatrix, m1, k1: SpdMatrix) -> float:
    """Squared W2 distance between Gaussians: ||m0 - m1||^2 + d_B^2(K0, K1)."""
    m0 = np.asarray(m0, dtype=float).ravel()
    m1 = np.asarray(m1, dtype=float).ravel()
    if m0.shape != m1.shape:
        raise DimensionMismatch(f"mean shapes differ: {m0.shape} vs {m1.shape}")
    if m0.size != k0.dim:
        raise DimensionMismatch(
            f"mean dimension {m0.size} does not match covariance dimension {k0.dim}"
        )
    return float(np.dot(m0 - m1, m0 - m1)) + bures_distance_sq(k0, k1)

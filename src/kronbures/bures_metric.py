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
class TransportMap:
    """SPD matrix T with T @ A @ T = B for the endpoints it was built from."""

    matrix: SpdMatrix


@dataclass(frozen=True, eq=False)
class GeodesicCurve:
    """Bures geodesic with its transport map precomputed once.

    Evaluation at any t is then two matrix multiplies.
    """

    start: SpdMatrix
    end: SpdMatrix
    transport: TransportMap


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


def bures_distance_sq(a: SpdMatrix, b: SpdMatrix) -> float:
    """Squared Bures-Wasserstein distance tr(A) + tr(B) - 2 tr((A^1/2 B A^1/2)^1/2)."""
    _check_same_dim(a, b)
    s = spd_sqrt(a).mat
    mid = symmetrize(s @ b.mat @ s)
    w = np.clip(np.linalg.eigvalsh(mid), 0.0, None)
    tr_sum = a.trace() + b.trace()
    d2 = tr_sum - 2.0 * float(np.sqrt(w).sum())
    return _clamp_distance_sq(d2, tr_sum)


def transport_map(a: SpdMatrix, b: SpdMatrix) -> TransportMap:
    """Optimal transport T = A^-1/2 (A^1/2 B A^1/2)^1/2 A^-1/2."""
    _check_same_dim(a, b)
    s = spd_sqrt(a).mat
    r = spd_inv_sqrt(a).mat
    # A^1/2 B A^1/2 can fall below the SPD margin while T is well
    # conditioned (for V0 (x) U and V1 (x) U it carries U^2), so its root
    # comes from a spectrum clipped at 0, as in bures_distance_sq.
    w, q = np.linalg.eigh(symmetrize(s @ b.mat @ s))
    mid = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
    t = SpdMatrix(r @ mid @ r)
    defect = np.linalg.norm(t.mat @ a.mat @ t.mat - b.mat)
    if defect > TRANSPORT_CHECK_TOL * np.linalg.norm(b.mat):
        raise NumericalConsistencyError(
            f"transport defining property violated: relative defect "
            f"{defect / np.linalg.norm(b.mat):.6e}"
        )
    return TransportMap(matrix=t)


def geodesic(a: SpdMatrix, b: SpdMatrix) -> GeodesicCurve:
    """Bures geodesic curve from A to B."""
    return GeodesicCurve(start=a, end=b, transport=transport_map(a, b))


def geodesic_eval(curve: GeodesicCurve, t: float) -> SpdMatrix:
    """Point ((1-t)I + tT) A ((1-t)I + tT) on the geodesic, t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"geodesic parameter {t} outside [0, 1]")
    n = curve.start.dim
    ct = (1.0 - t) * np.eye(n) + t * curve.transport.matrix.mat
    return SpdMatrix(ct @ curve.start.mat @ ct)


def commuting_geodesic_eval(a: SpdMatrix, b: SpdMatrix, t: float) -> SpdMatrix:
    """Geodesic ((1-t) A^1/2 + t B^1/2)^2 for commuting endpoints."""
    _check_same_dim(a, b)
    comm = np.linalg.norm(a.mat @ b.mat - b.mat @ a.mat)
    scale = np.linalg.norm(a.mat) * np.linalg.norm(b.mat)
    if comm > COMMUTE_TOL * scale:
        raise NotCommuting(
            f"relative commutator norm {comm / scale:.6e} exceeds {COMMUTE_TOL:.1e}"
        )
    mix = (1.0 - t) * spd_sqrt(a).mat + t * spd_sqrt(b).mat
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

"""The determinant-normalized Kronecker model.

Points are pairs (U, V) of SPD factors with det U = 1, embedded in the
ambient cone as V (x) U. This module provides the embedding and its
inverse, the pairwise spectral reduction of the Bures distance, factor
leaves with their geodesics, and matrix-normal W2.

Every leaf operation goes through one chart. ``leaf_factor`` maps a leaf
point to its moving factor, V on a row leaf and tau U on a column leaf
(V = tau V_star), and ``leaf_point`` maps a factor back. The chart is a
homothety of ratio tr(anchor) onto the SPD cone, so leaf geodesics,
distances and barycenters are the standard Bures ones of the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bures_metric import (
    _clamp_distance_sq,
    _whitened_eigvals,
    bures_distance_sq,
    geodesic,
    geodesic_eval,
)
from .errors import (
    DimensionMismatch,
    GaugeViolation,
    NotInModel,
    NotOnLeaf,
    ParameterOutOfRange,
)
from .spd_core import (
    EigenDecomposition,
    SpdMatrix,
    gauge_normalize,
    kron,
    log_det,
    partial_trace_1,
    partial_trace_2,
    spd_sqrt,
)

# |log det U| per dimension allowed by the determinant gauge.
GAUGE_TOL = 1e-10

# Relative reconstruction error above which a matrix is rejected as off-model.
MEMBERSHIP_TOL = 1e-8

# Relative tolerance of leaf membership checks.
LEAF_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class KroneckerPoint:
    """Gauge-normalized factor pair (U, V) representing V (x) U."""

    u_factor: SpdMatrix
    v_factor: SpdMatrix

    def __post_init__(self):
        if self.u_factor.dim != self.v_factor.dim:
            raise DimensionMismatch(
                f"factor dimensions differ: {self.u_factor.dim} vs {self.v_factor.dim}"
            )
        drift = abs(log_det(self.u_factor))
        if drift > GAUGE_TOL * self.n:
            raise GaugeViolation(
                f"|log det U| = {drift:.6e} violates the unit-determinant gauge"
            )

    @property
    def n(self) -> int:
        return self.u_factor.dim

    @classmethod
    def from_factors(cls, u: SpdMatrix, v: SpdMatrix) -> "KroneckerPoint":
        """Build a model point from an arbitrary SPD pair by gauge normalizing."""
        return cls(*gauge_normalize(u, v))


class LeafKind(Enum):
    ROW = "row"
    COL = "col"


@dataclass(frozen=True, eq=False)
class FactorLeaf:
    """One-factor subfamily of the model.

    A row leaf fixes the normalized U-factor at its anchor; a column leaf
    fixes the V-factor up to the positive scalar absorbed by the gauge.
    """

    kind: LeafKind
    anchor: SpdMatrix

    def __post_init__(self):
        if self.kind is LeafKind.ROW:
            drift = abs(log_det(self.anchor))
            if drift > GAUGE_TOL * self.anchor.dim:
                raise GaugeViolation(
                    f"row-leaf anchor has |log det| = {drift:.6e}"
                )


def row_leaf(u_star: SpdMatrix) -> FactorLeaf:
    return FactorLeaf(kind=LeafKind.ROW, anchor=u_star)


def col_leaf(v_star: SpdMatrix) -> FactorLeaf:
    return FactorLeaf(kind=LeafKind.COL, anchor=v_star)


@dataclass(frozen=True, eq=False)
class MatrixNormalLaw:
    """Matrix-normal law with mean M and Kronecker covariance V (x) U."""

    mean: np.ndarray
    point: KroneckerPoint

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (self.point.n, self.point.n):
            raise DimensionMismatch(
                f"mean shape {mean.shape} does not match factor dimension {self.point.n}"
            )
        object.__setattr__(self, "mean", mean)


@dataclass(frozen=True, eq=False)
class PairwiseSpectrum:
    """Eigenvalues of the two whitened factor products, sorted descending."""

    alpha: np.ndarray
    beta: np.ndarray


def embed(p: KroneckerPoint) -> SpdMatrix:
    """Ambient embedding V (x) U of a model point.

    Its spectrum comes from the factors' cached ones: eigenvalues
    v_i u_j with eigenvectors r_i (x) q_j (Van Loan, J. Comput. Appl.
    Math. 123, 2000), stably sorted descending. SpdMatrix applies its
    margin test to that exact product spectrum; no n^2-sized eigh runs.
    """
    ev, eu = p.v_factor.eig, p.u_factor.eig
    n = p.n
    w = np.multiply.outer(ev.eigenvalues, eu.eigenvalues).ravel()
    order = np.argsort(-w, kind="stable")
    i, j = np.divmod(order, n)
    # Column k is r_{i_k} (x) q_{j_k}: kron(R, Q)[:, order] built directly.
    r = np.take(ev.eigenvectors, i, axis=1)
    q = np.take(eu.eigenvectors, j, axis=1)
    vecs = (r[:, None, :] * q[None, :, :]).reshape(n * n, n * n)
    eig = EigenDecomposition(w[order], vecs)
    return SpdMatrix(kron(p.v_factor.mat, p.u_factor.mat), _eig=eig)


def recover_factors(k: SpdMatrix) -> KroneckerPoint:
    """Invert the embedding on the model via partial traces.

    Since tr1(K) = tr(V) U and tr2(K) = tr(U) V, the pair (tr1(K),
    tr2(K) / tr tr1(K)) represents V (x) U before the gauge; membership is
    verified by reconstructing the input.
    """
    n = round(float(np.sqrt(k.dim)))
    if n * n != k.dim:
        raise DimensionMismatch(f"dimension {k.dim} is not a perfect square")
    t1 = SpdMatrix(partial_trace_1(k.mat, n))
    t2 = SpdMatrix(partial_trace_2(k.mat, n) / t1.trace())
    p = KroneckerPoint.from_factors(t1, t2)
    defect = np.linalg.norm(kron(p.v_factor.mat, p.u_factor.mat) - k.mat)
    if defect > MEMBERSHIP_TOL * np.linalg.norm(k.mat):
        raise NotInModel(
            f"reconstruction defect {defect / np.linalg.norm(k.mat):.6e} exceeds "
            f"{MEMBERSHIP_TOL:.1e}"
        )
    return p


def _whitened_spectrum(a0: SpdMatrix, a1: SpdMatrix) -> np.ndarray:
    # Descending, the order PairwiseSpectrum documents.
    return np.ascontiguousarray(_whitened_eigvals(spd_sqrt(a0), a1.mat)[::-1])


def pairwise_bures_sq_reduced(
    p0: KroneckerPoint, p1: KroneckerPoint
) -> tuple[float, PairwiseSpectrum]:
    """Squared Bures distance between embeddings from factor-size spectra.

    Uses the product form tr(A^1/2) tr(B^1/2) for the cross term, so the
    whole computation costs two n x n eigendecompositions.
    """
    if p0.n != p1.n:
        raise DimensionMismatch(f"factor dimensions differ: {p0.n} vs {p1.n}")
    alpha = _whitened_spectrum(p0.v_factor, p1.v_factor)
    beta = _whitened_spectrum(p0.u_factor, p1.u_factor)
    tr_sum = (
        p0.u_factor.trace() * p0.v_factor.trace()
        + p1.u_factor.trace() * p1.v_factor.trace()
    )
    d2 = tr_sum - 2.0 * float(np.sqrt(alpha).sum()) * float(np.sqrt(beta).sum())
    return _clamp_distance_sq(d2, tr_sum), PairwiseSpectrum(alpha=alpha, beta=beta)


def matrix_normal_w2_sq(l0: MatrixNormalLaw, l1: MatrixNormalLaw) -> float:
    """Squared W2 between matrix-normal laws: ||M0 - M1||_F^2 + reduced Bures."""
    if l0.mean.shape != l1.mean.shape:
        raise DimensionMismatch(
            f"mean shapes differ: {l0.mean.shape} vs {l1.mean.shape}"
        )
    d2, _ = pairwise_bures_sq_reduced(l0.point, l1.point)
    diff = l0.mean - l1.mean
    return float(np.sum(diff * diff)) + d2


def _col_scale(leaf: FactorLeaf, p: KroneckerPoint) -> float:
    """Least-squares scalar with V approximately tau * V_star."""
    anchor = leaf.anchor.mat
    return float(np.sum(p.v_factor.mat * anchor) / np.sum(anchor * anchor))


def leaf_membership(leaf: FactorLeaf, p: KroneckerPoint) -> bool:
    """Whether a point lies on the leaf, up to relative tolerance LEAF_TOL."""
    if leaf.anchor.dim != p.n:
        raise DimensionMismatch(
            f"leaf dimension {leaf.anchor.dim} does not match point dimension {p.n}"
        )
    anchor = leaf.anchor.mat
    tol = LEAF_TOL * np.linalg.norm(anchor)
    if leaf.kind is LeafKind.ROW:
        return np.linalg.norm(p.u_factor.mat - anchor) <= tol
    tau = _col_scale(leaf, p)
    if tau <= 0.0:
        return False
    return np.linalg.norm(p.v_factor.mat / tau - anchor) <= tol


def leaf_factor(leaf: FactorLeaf, p: KroneckerPoint) -> SpdMatrix:
    """Chart of a leaf point: V on a row leaf, tau U on a column leaf.

    Raises NotOnLeaf off the leaf. The chart scales squared Bures distances
    by tr(anchor) and carries Bures geodesics to Bures geodesics.
    """
    if not leaf_membership(leaf, p):
        raise NotOnLeaf(f"point is not on the {leaf.kind.value} leaf")
    if leaf.kind is LeafKind.ROW:
        return p.v_factor
    return p.u_factor.scaled(_col_scale(leaf, p))


def leaf_point(leaf: FactorLeaf, m: SpdMatrix) -> KroneckerPoint:
    """Inverse chart: the leaf point whose moving factor is m."""
    if leaf.kind is LeafKind.ROW:
        return KroneckerPoint(u_factor=leaf.anchor, v_factor=m)
    return KroneckerPoint.from_factors(m, leaf.anchor)


def leaf_geodesic(
    leaf: FactorLeaf, p0: KroneckerPoint, p1: KroneckerPoint, t: float
) -> KroneckerPoint:
    """Geodesic between two leaf points, expressed in factor coordinates.

    The embedding of the result coincides with the ambient Bures geodesic
    between the embeddings; leaves are geodesically closed.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"geodesic parameter {t} outside [0, 1]")
    curve = geodesic(leaf_factor(leaf, p0), leaf_factor(leaf, p1))
    return leaf_point(leaf, geodesic_eval(curve, t))


def homothety_distance(leaf: FactorLeaf, p0: KroneckerPoint, p1: KroneckerPoint) -> float:
    """Squared leaf distance tr(anchor) * d_B^2 of the moving factors.

    Each leaf is a homothetic copy of the SPD cone, so this equals the
    ambient squared distance between the embeddings.
    """
    m0, m1 = leaf_factor(leaf, p0), leaf_factor(leaf, p1)
    return leaf.anchor.trace() * bures_distance_sq(m0, m1)


def point_to_json(p: KroneckerPoint) -> dict:
    """JSON-ready dict {"n", "u", "v"} for a model point."""
    return {"n": p.n, "u": p.u_factor.mat.tolist(), "v": p.v_factor.mat.tolist()}


def point_from_json(obj: dict) -> KroneckerPoint:
    """Inverse of :func:`point_to_json`; validates dimensions and gauge."""
    u = SpdMatrix(obj["u"])
    v = SpdMatrix(obj["v"])
    if u.dim != int(obj["n"]):
        raise DimensionMismatch(
            f"declared dimension {obj['n']} does not match factor dimension {u.dim}"
        )
    return KroneckerPoint(u_factor=u, v_factor=v)

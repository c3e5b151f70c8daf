"""The determinant-normalized Kronecker model.

Points are pairs (U, V) of SPD factors with det U = 1, embedded in the
ambient cone as V (x) U. This module provides the embedding and its
inverse, the pairwise spectral reduction of the Bures distance, and
factor leaves with their geodesics.

Every leaf operation goes through one chart. ``leaf_factor`` maps a leaf
point to its moving factor, V on a row leaf and tau U on a column leaf
(V = tau V_star), and ``leaf_point`` maps a factor back. The chart is a
homothety of ratio tr(anchor) onto the SPD cone, so leaf geodesics,
distances and barycenters are the standard Bures ones of the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .bures_metric import (
    _check_parameter,
    _clamp_distance_sq,
    _gram_eigvals,
    _root_factors,
    bures_distance_sq,
    geodesic,
    geodesic_eval,
)
from .errors import GaugeViolation, NotInModel, NotOnLeaf
from .spd_core import (
    EigenDecomposition,
    SpdMatrix,
    _leave,
    _match_dims,
    _take,
    gauge_normalize,
    kron,
    partial_trace_1,
    partial_trace_2,
)

# |log det U| per dimension allowed by the determinant gauge.
GAUGE_TOL = 1e-10

# Relative reconstruction error above which a matrix is rejected as off-model.
MEMBERSHIP_TOL = 1e-8

# Relative tolerance of leaf membership checks.
LEAF_TOL = 1e-8


def _check_gauge(name: str, log_eigs) -> None:
    """Reject the logs of eigenvalues, one row or a stack of rows, whose
    eigenvalue product drifts from one: |sum log| may not exceed GAUGE_TOL
    per dimension. Summing logs neither over- nor underflows."""
    drift = float(np.abs(log_eigs.sum(axis=-1)).max())
    if drift > GAUGE_TOL * log_eigs.shape[-1]:
        raise GaugeViolation(
            f"{name} has |log det| = {drift:.6e}, violating the unit-determinant gauge"
        )


@dataclass(frozen=True, eq=False)
class KroneckerPoint:
    """Gauge-normalized factor pair (U, V) representing V (x) U.

    Two private caches serve the reduced distance: the stack (Y_V, Y_U) of
    shape (2, n, n) of the factors' root factors Y = Q L^1/2 from
    ``bures_metric._root_factors`` (Y Y^T is the factor), which both points
    of a pair contribute to its Gram product, and the float tr U * tr V.
    Each is computed on first use and read-only. The caches hold only
    n x n arrays; the n^2 x n^2 embedding caches nothing.

    ``pairwise_bures_sq_reduced(p0, self)`` leaves its squared distance, a
    float, on ``self`` for ``reduced_distances_sq(p0, points)``, by the one
    hand-off rule of ``spd_core._leave``.
    """

    u_factor: SpdMatrix
    v_factor: SpdMatrix

    def __post_init__(self):
        _match_dims(self.u_factor.dim, self.v_factor.dim)
        _check_gauge("U", np.log(self.u_factor.eig.eigenvalues))

    @property
    def n(self) -> int:
        return self.u_factor.dim

    @cached_property
    def _y_factors(self) -> np.ndarray:
        y = np.stack((_root_factors(self.v_factor), _root_factors(self.u_factor)))
        y.setflags(write=False)
        return y

    @cached_property
    def _trace_product(self) -> float:
        return self.u_factor.trace() * self.v_factor.trace()

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
            _check_gauge("row-leaf anchor", np.log(self.anchor.eig.eigenvalues))


def row_leaf(u_star: SpdMatrix) -> FactorLeaf:
    return FactorLeaf(kind=LeafKind.ROW, anchor=u_star)


def col_leaf(v_star: SpdMatrix) -> FactorLeaf:
    return FactorLeaf(kind=LeafKind.COL, anchor=v_star)


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
    verified by reconstructing the input. The partial traces raise
    DimensionMismatch unless K is n^2 x n^2.
    """
    t1 = SpdMatrix(partial_trace_1(k.mat))
    t2 = SpdMatrix(partial_trace_2(k.mat) / t1.trace())
    p = KroneckerPoint.from_factors(t1, t2)
    defect = np.linalg.norm(kron(p.v_factor.mat, p.u_factor.mat) - k.mat)
    if defect > MEMBERSHIP_TOL * np.linalg.norm(k.mat):
        raise NotInModel(
            f"reconstruction defect {defect / np.linalg.norm(k.mat):.6e} exceeds "
            f"{MEMBERSHIP_TOL:.1e}"
        )
    return p


def _reduced_sq(p0: KroneckerPoint, p1: KroneckerPoint) -> tuple[float, np.ndarray]:
    """(d^2, spectrum): the clamped squared distance by the product form
    tr(A^1/2) tr(B^1/2) of the cross term, and the ascending (2, n)
    spectrum of the whitened V (row 0) and U (row 1) products, from one
    Gram product of the root stacks and one stacked eigvalsh."""
    spectrum = _gram_eigvals(p0._y_factors, p1._y_factors)
    cross = np.sqrt(spectrum).sum(axis=-1)
    tr_sum = p0._trace_product + p1._trace_product
    d2 = _clamp_distance_sq(tr_sum - 2.0 * float(cross[0]) * float(cross[1]), tr_sum)
    return d2, spectrum


def pairwise_bures_sq_reduced(
    p0: KroneckerPoint, p1: KroneckerPoint
) -> tuple[float, np.ndarray]:
    """(d^2, spectrum) of ``_reduced_sq``: the squared Bures distance
    between embeddings, and the whitened factor spectra as a fresh array.

    The whole computation costs one stacked Gram product of the two
    points' root factors and one stacked eigendecomposition of the two
    n x n whitened factors, plus each point's two root factors on its
    first use. The squared distance is left on p1 (``spd_core._leave``)
    for ``reduced_distances_sq(p0, ...)``.
    """
    _match_dims(p0.n, p1.n)
    d2, spectrum = _reduced_sq(p0, p1)
    _leave(p1, p0, d2)
    return d2, spectrum


def reduced_distances_sq(p: KroneckerPoint, points) -> np.ndarray:
    """Squared Bures distances from p to each point, by the reduced formula.

    A point that holds the squared distance a ``pairwise_bures_sq_reduced(p,
    point)`` call left on it (``spd_core._leave``) hands it over and its
    slot is cleared, so a point listed twice is served once. Every other
    entry is computed by the per-pair function that call runs, so entry i
    equals ``pairwise_bures_sq_reduced(p, points[i])[0]`` bit for bit
    whichever way it was served. No slot is taken before every dimension
    has been checked.
    """
    points = list(points)
    for q in points:
        _match_dims(p.n, q.n)
    out = np.empty(len(points))
    for i, q in enumerate(points):
        d2 = _take(q, p)
        out[i] = _reduced_sq(p, q)[0] if d2 is None else d2
    return out


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x 2^-e, e) with the largest entry of x 2^-e in [0.5, 1), an exact
    scaling. x is an SPD factor or a positive eigenvalue vector, whose
    largest entry is also its largest in magnitude."""
    e = math.frexp(x.max())[1]
    return np.ldexp(x, -e), e


def _col_scale(anchor: np.ndarray, other: np.ndarray) -> tuple[float, int] | None:
    """(t, k) for the least-squares scalar tau = t 2^k with other
    approximately tau * anchor, if other lies on anchor's column leaf
    (tau > 0 and |other / tau - anchor| <= LEAF_TOL |anchor|), else None.
    V carries a point's whole scale, so tau and the gap are formed on
    unit-scaled copies, where no scale of V makes their sums under- or
    overflow; elsewhere the copies give the same bits."""
    (a, ea), (o, eo) = _unit_scaled(anchor), _unit_scaled(other)
    t = float(np.sum(o * a) / np.sum(a * a))
    if t > 0.0 and np.linalg.norm(o / t - a) <= LEAF_TOL * np.linalg.norm(a):
        return t, eo - ea
    return None


def _on_leaf(kind: LeafKind, anchor: np.ndarray, other: np.ndarray) -> bool:
    """The one-factor leaf test, at relative tolerance LEAF_TOL.

    other is the point's factor on the anchored side: U on a row leaf,
    which must equal the anchor, and V on a column leaf, which must be a
    positive multiple of it (``_col_scale``). The test reads Frobenius
    norms only, so it serves factors and their eigenvalue vectors in a
    common orthogonal basis alike.
    """
    if kind is LeafKind.COL:
        return _col_scale(anchor, other) is not None
    return bool(np.linalg.norm(other - anchor) <= LEAF_TOL * np.linalg.norm(anchor))


def leaf_membership(leaf: FactorLeaf, p: KroneckerPoint) -> bool:
    """Whether a point lies on the leaf, up to relative tolerance LEAF_TOL."""
    _match_dims(leaf.anchor.dim, p.n)
    other = p.u_factor if leaf.kind is LeafKind.ROW else p.v_factor
    return _on_leaf(leaf.kind, leaf.anchor.mat, other.mat)


def leaf_factor(leaf: FactorLeaf, p: KroneckerPoint) -> SpdMatrix:
    """Chart of a leaf point: V on a row leaf, tau U on a column leaf.

    Raises NotOnLeaf off the leaf. The chart scales squared Bures distances
    by tr(anchor) and carries Bures geodesics to Bures geodesics.
    """
    if leaf.kind is LeafKind.ROW:
        if leaf_membership(leaf, p):
            return p.v_factor
    else:
        _match_dims(leaf.anchor.dim, p.n)
        scale = _col_scale(leaf.anchor.mat, p.v_factor.mat)
        if scale is not None:
            return p.u_factor.scaled(float(np.ldexp(*scale)))
    raise NotOnLeaf(f"point is not on the {leaf.kind.value} leaf")


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
    _check_parameter(t)
    curve = geodesic(leaf_factor(leaf, p0), leaf_factor(leaf, p1))
    return leaf_point(leaf, geodesic_eval(curve, t))


def homothety_distance(leaf: FactorLeaf, p0: KroneckerPoint, p1: KroneckerPoint) -> float:
    """Squared leaf distance tr(anchor) * d_B^2 of the moving factors.

    Each leaf is a homothetic copy of the SPD cone, so this equals the
    ambient squared distance between the embeddings.
    """
    m0, m1 = leaf_factor(leaf, p0), leaf_factor(leaf, p1)
    return leaf.anchor.trace() * bures_distance_sq(m0, m1)


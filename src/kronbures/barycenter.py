"""Restricted barycenter solvers.

The fixed commuting-coordinate slice has an exact Perron singular-vector
minimizer; common factor leaves reduce to the standard Bures-Wasserstein
barycenter on the SPD cone. Exact alternating block steps on the slice,
with a first-order stop in logarithmic coordinates, serve as the
independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bures_metric import (
    _whitened_product,
    _whitened_root_eig,
    transport_map,
)
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonPositiveCoordinate,
    NumericalConsistencyError,
    ParameterOutOfRange,
)
from .kron_model import (
    FactorLeaf,
    KroneckerPoint,
    _check_gauge,
    leaf_factor,
    leaf_point,
    reduced_distances_sq,
)
from .spd_core import SpdMatrix, _check_positive, _match_dims, _square, _store_positive

WEIGHT_TOL = 1e-12

# Solver iteration budgets and stopping tolerances.
BW_MAX_ITER = 500
BW_TOL = 1e-10
# Converging slice solves take at most ~110 alternating sweeps; a solve whose
# residual sits on its round-off floor above ORACLE_GRAD_TOL never converges.
ORACLE_MAX_ITER = 1000
ORACLE_GRAD_TOL = 1e-8


def _check_weights(weights, count: int) -> np.ndarray:
    w = _check_positive("weights", weights)
    if w.shape != (count,):
        raise DimensionMismatch(f"expected {count} weights, got shape {w.shape}")
    # A sum that overflows reads inf and fails the test.
    with np.errstate(over="ignore"):
        total = w.sum()
    if abs(total - 1.0) > WEIGHT_TOL * max(1.0, count):
        raise ParameterOutOfRange(f"weights sum to {total!r}, expected 1")
    return w


@dataclass(frozen=True, eq=False)
class SliceData:
    """Commuting-coordinate slice data: eigenvalue rows and weights.

    Row i of u_eigs and v_eigs holds the chart eigenvalues of datum i; the
    u rows carry the determinant gauge (unit product). Arrays and checked
    weights are stored as read-only float copies, so ``kappa`` stays valid.
    """

    u_eigs: np.ndarray
    v_eigs: np.ndarray
    weights: np.ndarray
    kappa: float = field(init=False)

    def __post_init__(self):
        _store_positive(self, 2, u_eigs=self.u_eigs, v_eigs=self.v_eigs)
        _check_gauge("u eigenvalue rows", np.log(self.u_eigs))
        _store_positive(self, 1, weights=_check_weights(self.weights, self.count))
        # Constant part of the slice objective, computed once.
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = float(
                np.dot(self.weights, self.u_eigs.sum(axis=1) * self.v_eigs.sum(axis=1))
            )
        if not math.isfinite(kappa):
            raise NonPositiveCoordinate("slice objective constant kappa overflows")
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self) -> int:
        return self.u_eigs.shape[1]

    @property
    def count(self) -> int:
        return self.u_eigs.shape[0]


@dataclass(frozen=True, eq=False)
class PerronSolution:
    """Positive top singular triple of the coefficient matrix, plus the
    gauge factor alpha = (prod u1)^(-1/n)."""

    sigma1: float
    u1: np.ndarray
    v1: np.ndarray
    alpha: float


@dataclass(frozen=True, eq=False)
class SliceBarycenter:
    """Exact slice minimizer coordinates and objective value."""

    x_star: np.ndarray
    y_star: np.ndarray
    min_value: float
    perron: PerronSolution


@dataclass(frozen=True, eq=False)
class LeafBarycenter:
    """Leafwise barycenter with the underlying factor-level solution."""

    point: KroneckerPoint
    factor_solution: SpdMatrix


def objective_J(k: KroneckerPoint, data, weights) -> float:
    """Weighted sum of squared Bures distances from the model point k to the
    model points in data, by the reduced pairwise formula."""
    data = list(data)
    w = _check_weights(weights, len(data))
    d2 = reduced_distances_sq(k, data)
    return float(sum(wi * di for wi, di in zip(w, d2)))


def coefficient_matrix(data: SliceData) -> np.ndarray:
    """Entrywise positive matrix c_pq = sum_i w_i sqrt(u_ip v_iq)."""
    su = np.sqrt(data.u_eigs)
    sv = np.sqrt(data.v_eigs)
    return (su * data.weights[:, None]).T @ sv


def slice_objective(x, y, data: SliceData) -> float:
    """Barycenter objective restricted to the fixed coordinate slice."""
    x = _check_positive("x", x)
    y = _check_positive("y", y)
    if x.shape != (data.n,) or y.shape != (data.n,):
        raise DimensionMismatch(
            f"coordinate shapes {x.shape}, {y.shape} do not match n = {data.n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        cross = float(np.sqrt(x) @ coefficient_matrix(data) @ np.sqrt(y))
        value = float(x.sum() * y.sum() + data.kappa - 2.0 * cross)
    if not math.isfinite(value):
        raise NonPositiveCoordinate("slice objective overflows")
    return value


def perron_singular_pair(c_mat) -> PerronSolution:
    """Top singular triple of a positive matrix from one eigh of CC^T.

    CC^T is entrywise positive, so its top eigenvalue is simple and its
    eigenvector can be taken entrywise positive (Perron-Frobenius); eigh
    fixes it only up to sign, hence the absolute value.
    """
    c_mat = _square(c_mat)
    _check_positive("coefficient matrix", c_mat)
    # A product that overflows reads inf: in CC^T, before its eigh, or in sigma1.
    with np.errstate(over="ignore"):
        gram = c_mat @ c_mat.T
        sigma1 = math.inf
        if np.isfinite(gram).all():
            u = np.abs(np.linalg.eigh(gram)[1][:, -1])
            v = c_mat.T @ u
            sigma1 = float(np.linalg.norm(v))
    if not math.isfinite(sigma1):
        raise NonPositiveCoordinate("products of the coefficient matrix overflow")
    v1 = v / sigma1
    res = max(
        float(np.linalg.norm(c_mat @ v1 - sigma1 * u)),
        float(np.linalg.norm(c_mat.T @ u - sigma1 * v1)),
    )
    if res > 1e-10 * sigma1:
        raise NumericalConsistencyError(
            f"Perron singular residual {res:.3e} exceeds 1e-10 * sigma1"
        )
    alpha = float(np.exp(-np.log(u).mean()))
    return PerronSolution(sigma1=sigma1, u1=u, v1=v1, alpha=alpha)


def slice_barycenter(data: SliceData) -> SliceBarycenter:
    """Exact slice minimizer x*_p = alpha^2 u1_p^2, y*_q = sigma1^2 v1_q^2 / alpha^2."""
    perron = perron_singular_pair(coefficient_matrix(data))
    x_star = perron.alpha**2 * perron.u1**2
    y_star = (perron.sigma1**2 / perron.alpha**2) * perron.v1**2
    min_value = data.kappa - perron.sigma1**2
    return SliceBarycenter(
        x_star=x_star, y_star=y_star, min_value=min_value, perron=perron
    )


def _weighted_root_sum(q: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i Q_i diag(w_i r_i) Q_i^T for stacks Q of eigenvectors and r of
    root eigenvalues: w_i scales the eigenvalues, all N roots come from one
    stacked matmul, and Python's sum adds them in data order, where
    ndarray.sum would add N >= 8 roots of size 1 x 1 pairwise."""
    return sum((q * (w[:, None] * r)[..., None, :]) @ np.swapaxes(q, -1, -2))


def bw_barycenter(mats, weights) -> SpdMatrix:
    """Bures-Wasserstein barycenter on the SPD cone by fixed-point iteration.

    Starts at V_0 = S S^T, S = sum_i w_i V_i^1/2, the barycenter itself when
    the data commute (Bhatia, Jain and Lim, Expo. Math. 37, 2019); the
    iteration converges from any SPD start (Alvarez-Esteban et al.,
    J. Math. Anal. Appl. 441, 2016). The start and each step sum their
    weighted roots by one helper, with w_i folded into the eigenvalues: the
    start's Q_i diag(w_i l_i^1/2) Q_i^T scale the columns of V_i's cached
    eigenvectors, a step's W_i diag(w_i r_i) W_i^T those of its stacked
    eigh. It stops when the stationarity residual
    ||sum_i w_i T_{V -> V_i} - I||_F falls below BW_TOL. Each step works in
    V's eigenbasis V = Q L Q^T, with h = sqrt(diag L), Y = Q L^1/2 and
    Z = Q L^-1/2:
    G' = sum_i w_i (Y^T M_i Y)^1/2 is Q^T G Q for the usual
    G = sum_i w_i (V^1/2 M_i V^1/2)^1/2, the residual is
    ||G' / (h h^T) - I||_F entrywise, and the next iterate V^-1/2 G^2 V^-1/2
    is (Z G')(Z G')^T. No inverse root is formed, so the residual's
    round-off does not grow with the condition number of V.
    """
    mats = list(mats)
    w = _check_weights(weights, len(mats))
    n = mats[0].dim
    for m in mats:
        _match_dims(n, m.dim)
    e = np.stack([m.eig.eigenvectors for m in mats])
    s = _weighted_root_sum(e, np.sqrt(np.stack([m.eig.eigenvalues for m in mats])), w)
    v = SpdMatrix(s @ s.T)
    stack = np.stack([m.mat for m in mats])
    eye = np.eye(n)
    best = (np.inf, v)
    for _ in range(BW_MAX_ITER):
        q, h = v.eig.eigenvectors, np.sqrt(v.eig.eigenvalues)
        # All N roots (Y^T M_i Y)^1/2, Y = Q diag(h), from one stacked eigh.
        g = _weighted_root_sum(*_whitened_root_eig(_whitened_product(q * h, stack)), w)
        residual = float(np.linalg.norm(g / np.multiply.outer(h, h) - eye))
        if residual < best[0]:
            best = (residual, v)
        if residual <= BW_TOL:
            return v
        half = (q / h) @ g
        v = SpdMatrix(half @ half.T)
    raise NoConvergence(
        f"fixed point not stationary after {BW_MAX_ITER} iterations; residual "
        f"{best[0]:.3e}",
        best=best[1],
        residual=best[0],
    )


def bw_stationarity_residual(v: SpdMatrix, mats, weights) -> float:
    """Residual ||sum_i w_i T_{V -> V_i} - I||_F of the barycenter fixed point."""
    mats = list(mats)
    w = _check_weights(weights, len(mats))
    total = sum(wi * transport_map(v, m).mat for wi, m in zip(w, mats))
    return float(np.linalg.norm(total - np.eye(v.dim)))


def leaf_barycenter(leaf: FactorLeaf, points, weights) -> LeafBarycenter:
    """Barycenter within a factor leaf via the factor-level BW barycenter."""
    points = list(points)
    w = _check_weights(weights, len(points))
    m_bar = bw_barycenter([leaf_factor(leaf, p) for p in points], w)
    point = leaf_point(leaf, m_bar)
    return LeafBarycenter(point=point, factor_solution=m_bar)


def log_coordinate_oracle(data: SliceData) -> tuple[np.ndarray, np.ndarray, float]:
    """Slice minimizer by exact alternating block steps.

    Works in p = sqrt(x), q = sqrt(y), where the slice objective is
    f = |p|^2 |q|^2 + kappa - 2 p^T C q with C = coefficient_matrix(data).
    One sweep sets q = C^T p / |p|^2, then p = C q / |q|^2: each is the
    exact minimizer of f over its block, so f never increases. The sweep
    ends with p / g and q * g, g = exp(mean log p), which leaves f unchanged
    and restores sum log x = 0. This is the slice case of the alternating
    exact Bures-Wasserstein steps, a Bures analogue of the flip-flop
    algorithm (Dutilleul, J. Stat. Comput. Simul. 64, 1999). The start is
    the geometric mean of the data rows. C is entrywise positive, so the
    iterates stay positive and the positive stationary pair is unique
    (Perron-Frobenius); no eigensolver or Perron quantity is used, so the
    oracle stays independent of slice_barycenter.

    The residual is the first-order residual in log coordinates s = log x,
    r = log y with the s-part projected onto sum s = 0:
    ||(g_s - mean g_s, g_r)||, g_s = x sum y - p o (C q) and
    g_r = y sum x - q o (C^T p). Returns (x, y, residual) after the first
    sweep that ends with residual <= ORACLE_GRAD_TOL; raises NoConvergence
    with the log coordinates (s, r) of the last iterate after
    ORACLE_MAX_ITER sweeps.
    """
    c_mat = coefficient_matrix(data)
    p = np.exp(0.5 * np.log(data.u_eigs).mean(axis=0))
    q = np.exp(0.5 * np.log(data.v_eigs).mean(axis=0))
    ctp = c_mat.T @ p
    for _ in range(ORACLE_MAX_ITER):
        q = ctp / p.dot(p)
        cq = c_mat @ q
        p = cq / q.dot(q)
        g = math.exp(np.log(p).mean())
        p /= g
        q *= g
        cq *= g
        ctp = c_mat.T @ p
        x, y = p * p, q * q
        g_s = x * y.sum() - p * cq
        g_s -= g_s.mean()
        g_r = y * x.sum() - q * ctp
        residual = math.sqrt(g_s.dot(g_s) + g_r.dot(g_r))
        if residual <= ORACLE_GRAD_TOL:
            return x, y, residual
    raise NoConvergence(
        f"alternating steps not stationary after {ORACLE_MAX_ITER} sweeps; "
        f"residual {residual:.3e}",
        best=np.log(np.concatenate([x, y])),
        residual=residual,
    )

"""Restricted barycenter solvers.

The fixed commuting-coordinate slice has an exact Perron singular-vector
minimizer; common factor leaves reduce to the standard Bures-Wasserstein
barycenter on the SPD cone. A projected-gradient solve in logarithmic
coordinates serves as the independent numerical oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bures_metric import (
    _root_factors,
    _whitened_product,
    _whitened_root_eig,
    transport_map,
)
from .errors import (
    DimensionMismatch,
    NoConvergence,
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
from .spd_core import SpdMatrix, _check_positive

logger = logging.getLogger(__name__)

WEIGHT_TOL = 1e-12

# Solver iteration budgets and stopping tolerances. ORACLE_BOUND is the
# half-width of the oracle's box on every log coordinate.
BW_MAX_ITER = 500
BW_TOL = 1e-10
ORACLE_MAX_ITER = 20000
ORACLE_GRAD_TOL = 1e-8
ORACLE_BOUND = 8.0


def _check_weights(weights, count: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape != (count,):
        raise DimensionMismatch(f"expected {count} weights, got shape {w.shape}")
    _check_positive("weights", w)
    if abs(w.sum() - 1.0) > WEIGHT_TOL * max(1.0, count):
        raise ParameterOutOfRange(f"weights sum to {w.sum()!r}, expected 1")
    return w


@dataclass(eq=False)
class SliceData:
    """Commuting-coordinate slice data: eigenvalue rows and weights.

    Row i of u_eigs and v_eigs holds the chart eigenvalues of datum i; the
    u rows carry the determinant gauge (unit product).
    """

    u_eigs: np.ndarray
    v_eigs: np.ndarray
    weights: np.ndarray
    kappa: float = field(init=False)

    def __post_init__(self):
        self.u_eigs = np.asarray(self.u_eigs, dtype=float)
        self.v_eigs = np.asarray(self.v_eigs, dtype=float)
        if self.u_eigs.ndim != 2 or self.u_eigs.shape != self.v_eigs.shape:
            raise DimensionMismatch(
                f"eigenvalue arrays have shapes {self.u_eigs.shape} and "
                f"{self.v_eigs.shape}"
            )
        _check_positive("u_eigs", self.u_eigs)
        _check_positive("v_eigs", self.v_eigs)
        _check_gauge("u eigenvalue rows", self.u_eigs)
        self.weights = _check_weights(self.weights, self.count)
        # Constant part of the slice objective, computed once.
        self.kappa = float(
            np.dot(self.weights, self.u_eigs.sum(axis=1) * self.v_eigs.sum(axis=1))
        )

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

    leaf: FactorLeaf
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
    cross = float(np.sqrt(x) @ coefficient_matrix(data) @ np.sqrt(y))
    return float(x.sum() * y.sum() + data.kappa - 2.0 * cross)


def perron_singular_pair(c_mat) -> PerronSolution:
    """Top singular triple of a positive matrix from one eigh of CC^T.

    CC^T is entrywise positive, so its top eigenvalue is simple and its
    eigenvector can be taken entrywise positive (Perron-Frobenius); eigh
    fixes it only up to sign, hence the absolute value.
    """
    c_mat = np.asarray(c_mat, dtype=float)
    if c_mat.ndim != 2 or c_mat.shape[0] != c_mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {c_mat.shape}")
    _check_positive("coefficient matrix", c_mat)
    u = np.abs(np.linalg.eigh(c_mat @ c_mat.T)[1][:, -1])
    v = c_mat.T @ u
    sigma1 = float(np.linalg.norm(v))
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


def bw_barycenter(mats, weights) -> SpdMatrix:
    """Bures-Wasserstein barycenter on the SPD cone by fixed-point iteration.

    Starts at the weighted arithmetic mean and stops when the stationarity
    residual ||sum_i w_i T_{V -> V_i} - I||_F falls below BW_TOL. Each step
    works in V's eigenbasis V = Q L Q^T, with h = sqrt(diag L), Y = Q L^1/2
    and Z = Q L^-1/2: G' = sum_i w_i (Y^T M_i Y)^1/2 is Q^T G Q for the
    usual G = sum_i w_i (V^1/2 M_i V^1/2)^1/2, the residual is
    ||G' / (h h^T) - I||_F entrywise, and the next iterate V^-1/2 G^2 V^-1/2
    is (Z G')(Z G')^T. No inverse root is formed, so the residual's
    round-off does not grow with the condition number of V.
    """
    mats = list(mats)
    w = _check_weights(weights, len(mats))
    n = mats[0].dim
    for m in mats:
        if m.dim != n:
            raise DimensionMismatch("barycenter data have mixed dimensions")
    v = SpdMatrix(sum(wi * m.mat for wi, m in zip(w, mats)))
    stack = np.stack([m.mat for m in mats])
    eye = np.eye(n)
    prev_residual = np.inf
    best = (np.inf, v)
    for _ in range(BW_MAX_ITER):
        y, z = _root_factors(v)
        h = np.sqrt(v.eig.eigenvalues)
        # All N roots (Y^T M_i Y)^1/2 from one stacked eigh; summed in data order.
        q, r = _whitened_root_eig(_whitened_product(y, stack))
        roots = (q * r[..., None, :]) @ np.swapaxes(q, -1, -2)
        g = sum(wi * root for wi, root in zip(w, roots))
        residual = float(np.linalg.norm(g / np.multiply.outer(h, h) - eye))
        if residual < best[0]:
            best = (residual, v)
        if residual > prev_residual:
            logger.debug(
                "barycenter residual increased from %.3e to %.3e",
                prev_residual,
                residual,
            )
        prev_residual = residual
        if residual <= BW_TOL:
            return v
        half = z @ g
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
    return LeafBarycenter(leaf=leaf, point=point, factor_solution=m_bar)


def _project_centered_box(vec: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection onto {sum = 0} intersected with [-bound, bound]^n.

    A continuous quadratic knapsack problem, solved exactly by the
    breakpoint method (Helgason, Kennington and Lall, Math. Program. 18,
    1980; Kiwiel, Math. Program. 112, 2008). The projection is
    clip(vec - tau, -bound, bound), where tau is the root of the
    nonincreasing piecewise-linear g(tau) = sum clip(vec - tau, -bound, bound),
    whose slope changes only at the 2n breakpoints vec +- bound. g is
    evaluated at the sorted breakpoints in one (2n, n) broadcast, exact to
    round-off at each of them; the first breakpoint with g <= 0 closes the
    segment holding the root, and tau follows by linear interpolation
    there. Tied breakpoints give empty segments, which are never chosen;
    a root on a flat piece of g lands on that piece's left end. An input
    already in the set is returned unchanged. A constant input, n = 1
    included, projects to 0; it is the one input whose breakpoints can
    all round to a single value (bound below half an ulp of the entries),
    leaving no sign change to find. Every clip is the ufunc pair
    minimum(maximum(v, -bound), bound), which gives np.clip's bits.
    """
    if (vec == vec[0]).all():
        return np.zeros_like(vec)
    if vec.sum() == 0.0 and np.abs(vec).max() <= bound:
        return vec.copy()
    breaks = np.concatenate([vec - bound, vec + bound])
    breaks.sort()
    clipped = vec - breaks[:, None]
    np.maximum(clipped, -bound, out=clipped)
    g = np.minimum(clipped, bound, out=clipped).sum(axis=1)
    k = int((g <= 0.0).argmax())
    lo, hi = breaks[k - 1], breaks[k]
    tau = lo + (hi - lo) * (g[k - 1] / (g[k - 1] - g[k]))
    return np.minimum(np.maximum(vec - tau, -bound), bound)


def log_coordinate_oracle(data: SliceData) -> tuple[np.ndarray, np.ndarray, float]:
    """Slice minimizer by projected gradient descent in log coordinates.

    Works in s = log x, r = log y with the linear constraint sum(s) = 0 and
    box bounds [-ORACLE_BOUND, ORACLE_BOUND], using Barzilai-Borwein steps
    safeguarded by a backtracking line search. Independent of the Perron
    route; returns (x, y, projected first-order residual). Stops early once
    the objective decrease stays below float resolution, since the line
    search cannot certify progress past that point. Each trial point is
    evaluated once: that evaluation keeps x = e^s, y = e^r, e^(s/2),
    e^(r/2) and their sums, the gradient at the accepted point is formed
    from them, and the returned x, y are the accepted point's own.
    """
    c_mat = coefficient_matrix(data)
    n = data.n
    bound = ORACLE_BOUND
    kappa = data.kappa

    def project(z):
        out = np.empty_like(z)
        out[:n] = _project_centered_box(z[:n], bound)
        np.minimum(np.maximum(z[n:], -bound), bound, out=out[n:])
        return out

    def residual_at(z, g):
        # np.linalg.norm of a vector is sqrt(d.dot(d)), without its wrapper.
        d = z - project(z - g)
        return math.sqrt(d.dot(d))

    def evaluate(z):
        """Objective at z, and the values its gradient is formed from."""
        s, r = z[:n], z[n:]
        x = np.exp(s)
        y = np.exp(r)
        sx = np.exp(0.5 * s)
        sy = np.exp(0.5 * r)
        x_sum, y_sum = x.sum(), y.sum()
        f = float(x_sum * y_sum + kappa - 2.0 * float(sx @ c_mat @ sy))
        return f, (x, y, sx, sy, x_sum, y_sum)

    def gradient(point):
        x, y, sx, sy, x_sum, y_sum = point
        g = np.empty(2 * n)
        np.subtract(x * y_sum, sx * (c_mat @ sy), out=g[:n])
        np.subtract(y * x_sum, sy * (c_mat.T @ sx), out=g[n:])
        return g

    z = project(
        np.concatenate(
            [np.log(data.u_eigs).mean(axis=0), np.log(data.v_eigs).mean(axis=0)]
        )
    )
    f, point = evaluate(z)
    g = gradient(point)
    step = 1.0
    stalled = 0
    residual = residual_at(z, g)
    for _ in range(ORACLE_MAX_ITER):
        if residual <= ORACLE_GRAD_TOL or stalled >= 20:
            return point[0], point[1], residual
        while True:
            z_new = project(z - step * g)
            dz = z_new - z
            dz_sq = float(dz @ dz)
            f_new, point_new = evaluate(z_new)
            if f_new <= f + float(g @ dz) + dz_sq / (2.0 * step):
                break
            step *= 0.5
            if step < 1e-14:
                break
        g_new = gradient(point_new)
        dg = g_new - g
        curv = float(dz @ dg)
        if curv > 0.0:
            step = min(max(dz_sq / curv, 1e-12), 1e8)
        else:
            step = min(step * 2.0, 1.0)
        stalled = stalled + 1 if f - f_new <= 1e-15 * max(1.0, abs(f)) else 0
        z, f, g, point = z_new, f_new, g_new, point_new
        residual = residual_at(z, g)
    if residual <= ORACLE_GRAD_TOL:
        return point[0], point[1], residual
    raise NoConvergence(
        f"projected gradient made no further progress after {ORACLE_MAX_ITER} "
        f"iterations; residual {residual:.3e}",
        best=z,
        residual=residual,
    )

"""Restricted barycenter solvers.

The fixed commuting-coordinate slice has an exact Perron singular-vector
minimizer; common factor leaves reduce to the standard Bures-Wasserstein
barycenter on the SPD cone. A projected-gradient solve in logarithmic
coordinates serves as the independent numerical oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bures_metric import _whitened_root, transport_map
from .errors import (
    DimensionMismatch,
    GaugeViolation,
    NoConvergence,
    NonPositiveCoordinate,
    NotSimultaneouslyDiagonalizable,
    NumericalConsistencyError,
    ParameterOutOfRange,
)
from .kron_model import (
    GAUGE_TOL,
    FactorLeaf,
    KroneckerPoint,
    leaf_factor,
    leaf_point,
    pairwise_bures_sq_reduced,
)
from .spd_core import SpdMatrix, spd_inv_sqrt, spd_sqrt

logger = logging.getLogger(__name__)

WEIGHT_TOL = 1e-12

# Solver iteration budgets and stopping tolerances. ORACLE_BOUND is the
# half-width of the oracle's box on every log coordinate.
BW_MAX_ITER = 500
BW_TOL = 1e-10
ORACLE_MAX_ITER = 20000
ORACLE_GRAD_TOL = 1e-8
ORACLE_BOUND = 8.0


def _check_positive(name: str, vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=float).ravel()
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise NonPositiveCoordinate(f"{name} must be entrywise finite and positive")
    return arr


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
    """Commuting-coordinate slice data: bases, eigenvalue rows, weights.

    Row i of u_eigs and v_eigs holds the chart eigenvalues of datum i; the
    u rows carry the determinant gauge (unit product). The bases default
    to the identity for diagonal data.
    """

    u_eigs: np.ndarray
    v_eigs: np.ndarray
    weights: np.ndarray
    q_basis: np.ndarray = None
    r_basis: np.ndarray = None
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
        count, n = self.u_eigs.shape
        drift = np.abs(np.log(self.u_eigs).sum(axis=1)).max()
        if drift > GAUGE_TOL * max(n, 1):
            raise GaugeViolation(
                f"u eigenvalue rows drift from unit product by {drift:.6e}"
            )
        self.weights = _check_weights(self.weights, count)
        for name in ("q_basis", "r_basis"):
            basis = getattr(self, name)
            if basis is None:
                basis = np.eye(n)
            else:
                basis = np.asarray(basis, dtype=float)
                if basis.shape != (n, n):
                    raise DimensionMismatch(
                        f"{name} has shape {basis.shape}, expected {(n, n)}"
                    )
                if np.linalg.norm(basis.T @ basis - np.eye(n)) > 1e-10:
                    raise NotSimultaneouslyDiagonalizable(f"{name} is not orthogonal")
            setattr(self, name, basis)
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


def slice_data_to_json(data: SliceData) -> dict:
    """JSON-ready dict with keys n, N, weights, u_eigs, v_eigs, q_basis, r_basis."""
    return {
        "n": data.n,
        "N": data.count,
        "weights": data.weights.tolist(),
        "u_eigs": data.u_eigs.tolist(),
        "v_eigs": data.v_eigs.tolist(),
        "q_basis": data.q_basis.tolist(),
        "r_basis": data.r_basis.tolist(),
    }


def slice_data_from_json(obj: dict) -> SliceData:
    """Inverse of :func:`slice_data_to_json`; bases default to the identity."""
    data = SliceData(
        u_eigs=obj["u_eigs"],
        v_eigs=obj["v_eigs"],
        weights=obj["weights"],
        q_basis=obj.get("q_basis"),
        r_basis=obj.get("r_basis"),
    )
    if data.n != int(obj["n"]) or data.count != int(obj["N"]):
        raise DimensionMismatch(
            f"declared sizes ({obj['n']}, {obj['N']}) do not match data "
            f"({data.n}, {data.count})"
        )
    return data


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
    return float(
        sum(wi * pairwise_bures_sq_reduced(k, d)[0] for wi, d in zip(w, data))
    )


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
    residual ||sum_i w_i T_{V -> V_i} - I||_F falls below BW_TOL.
    """
    mats = list(mats)
    w = _check_weights(weights, len(mats))
    n = mats[0].dim
    for m in mats:
        if m.dim != n:
            raise DimensionMismatch("barycenter data have mixed dimensions")
    v = SpdMatrix(sum(wi * m.mat for wi, m in zip(w, mats)))
    eye = np.eye(n)
    prev_residual = np.inf
    best = (np.inf, v)
    for _ in range(BW_MAX_ITER):
        s = spd_sqrt(v)
        r = spd_inv_sqrt(v)
        g = sum(wi * _whitened_root(s, m.mat) for wi, m in zip(w, mats))
        residual = float(np.linalg.norm(r @ g @ r - eye))
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
        half = r @ g
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
    leaving no sign change to find.
    """
    if np.all(vec == vec[0]):
        return np.zeros_like(vec)
    if vec.sum() == 0.0 and np.abs(vec).max() <= bound:
        return vec.copy()
    breaks = np.sort(np.concatenate([vec - bound, vec + bound]))
    g = np.clip(vec - breaks[:, None], -bound, bound).sum(axis=1)
    k = int(np.argmax(g <= 0.0))
    lo, hi = breaks[k - 1], breaks[k]
    tau = lo + (hi - lo) * (g[k - 1] / (g[k - 1] - g[k]))
    return np.clip(vec - tau, -bound, bound)


def log_coordinate_oracle(data: SliceData) -> tuple[np.ndarray, np.ndarray, float]:
    """Slice minimizer by projected gradient descent in log coordinates.

    Works in s = log x, r = log y with the linear constraint sum(s) = 0 and
    box bounds [-ORACLE_BOUND, ORACLE_BOUND], using Barzilai-Borwein steps
    safeguarded by a backtracking line search. Independent of the Perron
    route; returns (x, y, projected first-order residual). Stops early once
    the objective decrease stays below float resolution, since the line
    search cannot certify progress past that point.
    """
    c_mat = coefficient_matrix(data)
    n = data.n
    bound = ORACLE_BOUND

    def split(z):
        return z[:n], z[n:]

    def project(z):
        s, r = split(z)
        return np.concatenate(
            [_project_centered_box(s, bound), np.clip(r, -bound, bound)]
        )

    def objective(z):
        s, r = split(z)
        x = np.exp(s)
        y = np.exp(r)
        cross = float(np.exp(0.5 * s) @ c_mat @ np.exp(0.5 * r))
        return float(x.sum() * y.sum() + data.kappa - 2.0 * cross)

    def gradient(z):
        s, r = split(z)
        x = np.exp(s)
        y = np.exp(r)
        sx = np.exp(0.5 * s)
        sy = np.exp(0.5 * r)
        gs = x * y.sum() - sx * (c_mat @ sy)
        gr = y * x.sum() - sy * (c_mat.T @ sx)
        return np.concatenate([gs, gr])

    z = project(
        np.concatenate(
            [np.log(data.u_eigs).mean(axis=0), np.log(data.v_eigs).mean(axis=0)]
        )
    )
    f = objective(z)
    g = gradient(z)
    step = 1.0
    stalled = 0
    residual = float(np.linalg.norm(z - project(z - g)))
    for _ in range(ORACLE_MAX_ITER):
        if residual <= ORACLE_GRAD_TOL or stalled >= 20:
            s, r = split(z)
            return np.exp(s), np.exp(r), residual
        while True:
            z_new = project(z - step * g)
            dz = z_new - z
            f_new = objective(z_new)
            if f_new <= f + float(g @ dz) + float(dz @ dz) / (2.0 * step):
                break
            step *= 0.5
            if step < 1e-14:
                break
        g_new = gradient(z_new)
        dg = g_new - g
        curv = float(dz @ dg)
        if curv > 0.0:
            step = min(max(float(dz @ dz) / curv, 1e-12), 1e8)
        else:
            step = min(step * 2.0, 1.0)
        stalled = stalled + 1 if f - f_new <= 1e-15 * max(1.0, abs(f)) else 0
        z, f, g = z_new, f_new, g_new
        residual = float(np.linalg.norm(z - project(z - g)))
    if residual <= ORACLE_GRAD_TOL:
        s, r = split(z)
        return np.exp(s), np.exp(r), residual
    raise NoConvergence(
        f"projected gradient made no further progress after {ORACLE_MAX_ITER} "
        f"iterations; residual {residual:.3e}",
        best=z,
        residual=residual,
    )

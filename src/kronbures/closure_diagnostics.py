"""Geodesic-closure diagnostics for the Kronecker model.

Fixed commuting charts and their square-root profiles, the departure
moduli with closed forms, the partial-trace residual projection, whitened
initial velocities, endpoint tangency and rigidity classification, the
2x2 pattern test, and the isotropic pullback metric.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bures_metric import _check_commuting, transport_map
from .errors import (
    DimensionMismatch,
    GaugeViolation,
    InconsistentVerdict,
    NonPositiveCoordinate,
    NotSimultaneouslyDiagonalizable,
    NumericalConsistencyError,
    ParameterOutOfRange,
    TraceNotZero,
)
from .kron_model import (
    GAUGE_TOL,
    KroneckerPoint,
    col_leaf,
    leaf_membership,
    row_leaf,
)
from .spd_core import (
    SpdMatrix,
    kron,
    partial_trace_1,
    partial_trace_2,
    spd_inv_sqrt,
    spd_sqrt,
    symmetrize,
)

# Thresholds for the rank-one and 2x2 pattern checks.
RANK_TOL = 1e-10
PATTERN_TOL = 1e-10

# Bound on ||Pi(Z0)||_F relative to ||P||_F ||Q||_F, the size of the terms
# of Z0 that cancel on a common leaf. For exact leaf pairs with G G^T +
# 0.01 I factors the relative residual is a round-off floor that grows with
# n and with conditioning (at most 1.1e-10 at n = 8, 4.6e-10 at n = 16 and
# 1.5e-9 at n = 32 over 40 seeds); generic pairs stay above 0.97. The value
# must sit between the two, with room for that growth.
RESIDUAL_TOL = 1e-8

# Off-diagonal mass allowed when verifying a joint eigenbasis.
CHART_TOL = 1e-8

_EIG_GROUP_TOL = 1e-8
_PROFILE_GAUGE_TOL = 1e-8


class ClosureVerdict(Enum):
    ALWAYS_IN_MODEL_ROW_LEAF = "always_in_model_row_leaf"
    ALWAYS_IN_MODEL_COL_LEAF = "always_in_model_col_leaf"
    DEPARTS_IMMEDIATELY = "departs_immediately"


class RigidityVerdict(Enum):
    COMMON_ROW_LEAF = "common_row_leaf"
    COMMON_COL_LEAF = "common_col_leaf"
    DEPARTS = "departs"


@dataclass(frozen=True, eq=False)
class CommutingChart:
    """Joint diagonalizing bases and eigenvalue vectors for a commuting pair.

    Q diagonalizes both U factors, R both V factors, and the U eigenvalue
    rows carry the determinant gauge (unit product).
    """

    q_basis: np.ndarray
    r_basis: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        n = self.u0.shape[0]
        for name, basis in (("q_basis", self.q_basis), ("r_basis", self.r_basis)):
            if basis.shape != (n, n):
                raise DimensionMismatch(f"{name} has shape {basis.shape}, expected {(n, n)}")
            defect = np.linalg.norm(basis.T @ basis - np.eye(n))
            if defect > 1e-10:
                raise NotSimultaneouslyDiagonalizable(
                    f"{name} is not orthogonal: defect {defect:.6e}"
                )
        for name, vals in (("u0", self.u0), ("u1", self.u1), ("v0", self.v0), ("v1", self.v1)):
            if not np.all(np.isfinite(vals) & (vals > 0.0)):
                raise NonPositiveCoordinate(
                    f"{name} has non-finite or nonpositive eigenvalues"
                )
        for name, vals in (("u0", self.u0), ("u1", self.u1)):
            drift = abs(float(np.log(vals).sum()))
            if drift > GAUGE_TOL * n:
                raise GaugeViolation(f"{name} eigenvalue product drifts by {drift:.6e}")

    @property
    def n(self) -> int:
        return self.u0.shape[0]


@dataclass(frozen=True, eq=False)
class SqrtProfile:
    """Square-root vectors a, b, c, d of the chart eigenvalues.

    The interpolant H_t = (1-t) a b^T + t c d^T collects the square roots
    of the commuting geodesic's diagonal entries.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n = self.a.shape[0]
        for name, vec in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            if vec.shape != (n,):
                raise DimensionMismatch(f"{name} has shape {vec.shape}, expected {(n,)}")
            if not np.all(np.isfinite(vec) & (vec > 0.0)):
                raise NonPositiveCoordinate(
                    f"profile vector {name} must be finite and positive"
                )
        for name, vec in (("a", self.a), ("c", self.c)):
            drift = abs(float(np.log(vec).sum()))
            if drift > _PROFILE_GAUGE_TOL * max(n, 1):
                raise GaugeViolation(
                    f"profile vector {name} has log-product drift {drift:.6e}"
                )

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def from_chart(cls, chart: CommutingChart) -> "SqrtProfile":
        return cls(
            a=np.sqrt(chart.u0),
            b=np.sqrt(chart.v0),
            c=np.sqrt(chart.u1),
            d=np.sqrt(chart.v1),
        )


@dataclass(frozen=True, eq=False)
class DepartureCoefficients:
    """Norms and inner products of the profile vectors.

    A = |a|^2, C = |c|^2, rho = <a, c>, B = |b|^2, D = |d|^2, sigma = <b, d>.
    """

    A: float
    B: float
    C: float
    D: float
    rho: float
    sigma: float

    def __post_init__(self):
        for name, val in (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D)):
            if not (np.isfinite(val) and val > 0.0):
                raise NonPositiveCoordinate(
                    f"coefficient {name} must be finite and positive"
                )
        for name, val in (("rho", self.rho), ("sigma", self.sigma)):
            if not np.isfinite(val):
                raise NonPositiveCoordinate(f"coefficient {name} must be finite")
        # Cauchy-Schwarz, with slack for round-off on collinear profiles.
        if self.rho**2 > self.A * self.C * (1.0 + 1e-9):
            raise NumericalConsistencyError("rho^2 exceeds A*C beyond round-off")
        if self.sigma**2 > self.B * self.D * (1.0 + 1e-9):
            raise NumericalConsistencyError("sigma^2 exceeds B*D beyond round-off")

    @classmethod
    def from_profile(cls, profile: SqrtProfile) -> "DepartureCoefficients":
        return cls(
            A=float(np.dot(profile.a, profile.a)),
            B=float(np.dot(profile.b, profile.b)),
            C=float(np.dot(profile.c, profile.c)),
            D=float(np.dot(profile.d, profile.d)),
            rho=float(np.dot(profile.a, profile.c)),
            sigma=float(np.dot(profile.b, profile.d)),
        )


@dataclass(frozen=True, eq=False)
class FactorTransports:
    """Factor Bures transports and their whitened similarity images.

    P = V0^-1/2 S_V V0^1/2 and Q = U0^-1/2 S_U U0^1/2 share the spectra of
    S_V and S_U; the ambient transport factorizes as S_V (x) S_U.
    """

    s_u: SpdMatrix
    s_v: SpdMatrix
    p_mat: np.ndarray
    q_mat: np.ndarray


@dataclass(frozen=True, eq=False)
class TangencyReport:
    """Frobenius norm of the partial-trace residual Pi(Z0), and the verdict."""

    residual_norm: float
    verdict: RigidityVerdict


def _joint_eigenbasis(a: SpdMatrix, b_mat: np.ndarray) -> np.ndarray:
    """Orthogonal basis diagonalizing A and, within its eigenspaces, B.

    Eigenvalues of A are taken descending; ties are broken by descending
    eigenvalue of B inside each repeated-eigenvalue group.
    """
    w = a.eig.eigenvalues
    q = a.eig.eigenvectors.copy()
    gap = _EIG_GROUP_TOL * max(w[0], np.finfo(float).tiny)
    start = 0
    for stop in range(1, len(w) + 1):
        if stop < len(w) and w[start] - w[stop] <= gap:
            continue
        if stop - start > 1:
            qg = q[:, start:stop]
            _, qb = np.linalg.eigh(symmetrize(qg.T @ b_mat @ qg))
            q[:, start:stop] = qg @ qb[:, ::-1]
        start = stop
    return q


def _diagonalize_pair(
    a0: SpdMatrix, a1: SpdMatrix, label: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    basis = _joint_eigenbasis(a0, a1.mat)
    vals = []
    for m in (a0.mat, a1.mat):
        rotated = basis.T @ m @ basis
        diag = np.diag(rotated).copy()
        off = np.linalg.norm(rotated - np.diag(diag))
        if off > CHART_TOL * np.linalg.norm(m):
            raise NotSimultaneouslyDiagonalizable(
                f"{label} factors have off-diagonal mass {off:.6e} in the joint basis"
            )
        vals.append(diag)
    return basis, vals[0], vals[1]


def build_chart(p0: KroneckerPoint, p1: KroneckerPoint) -> CommutingChart:
    """Joint diagonalizing chart for simultaneously diagonalizable endpoints."""
    if p0.n != p1.n:
        raise DimensionMismatch(f"factor dimensions differ: {p0.n} vs {p1.n}")
    _check_commuting(p0.u_factor.mat, p1.u_factor.mat, "U factors")
    _check_commuting(p0.v_factor.mat, p1.v_factor.mat, "V factors")
    q, u0, u1 = _diagonalize_pair(p0.u_factor, p1.u_factor, "U")
    r, v0, v1 = _diagonalize_pair(p0.v_factor, p1.v_factor, "V")
    return CommutingChart(q_basis=q, r_basis=r, u0=u0, u1=u1, v0=v0, v1=v1)


def profile_matrix(profile: SqrtProfile, t: float) -> np.ndarray:
    """Interpolant H_t = (1-t) a b^T + t c d^T."""
    return (1.0 - t) * np.outer(profile.a, profile.b) + t * np.outer(
        profile.c, profile.d
    )


def sqrt_profile_at(chart: CommutingChart, t: float) -> np.ndarray:
    """Square-root profile H_t of the commuting geodesic in the chart basis.

    The entrywise squares of H_t are the geodesic's diagonal entries in the
    basis R (x) Q; H_t has rank one exactly when the geodesic point stays
    in the model.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"profile parameter {t} outside [0, 1]")
    return profile_matrix(SqrtProfile.from_chart(chart), t)


def classify_closure_commuting(chart: CommutingChart) -> ClosureVerdict:
    """Fixed-chart closure verdict from the eigenvalue vectors.

    Row leaf iff the U eigenvalues agree entrywise, column leaf iff the V
    eigenvalues are positively proportional; anything else departs the
    model immediately.
    """
    if np.max(np.abs(chart.u1 - chart.u0)) <= RANK_TOL * np.max(chart.u0):
        return ClosureVerdict.ALWAYS_IN_MODEL_ROW_LEAF
    tau = float(np.dot(chart.v0, chart.v1) / np.dot(chart.v0, chart.v0))
    if tau > 0.0 and np.max(np.abs(chart.v1 - tau * chart.v0)) <= RANK_TOL * np.max(
        chart.v1
    ):
        return ClosureVerdict.ALWAYS_IN_MODEL_COL_LEAF
    return ClosureVerdict.DEPARTS_IMMEDIATELY


def _collinearity_defects(coeffs: DepartureCoefficients) -> tuple[float, float]:
    # Exact zeros here are meaningful: bitwise-equal leaf profiles cancel
    # exactly, which makes the moduli vanish identically on leaves.
    du = max(coeffs.A * coeffs.C - coeffs.rho * coeffs.rho, 0.0)
    dv = max(coeffs.B * coeffs.D - coeffs.sigma * coeffs.sigma, 0.0)
    return du, dv


def _t_grid(t) -> np.ndarray:
    """t as a 1-D float grid; every entry must lie in [0, 1]."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionMismatch(
            f"modulus parameter must be a scalar or 1-D, got shape {ts.shape}"
        )
    ts = ts.reshape(-1)
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise ParameterOutOfRange(
            f"modulus parameter {ts[outside][0]} outside [0, 1]"
        )
    return ts


def _like_t(t, values: np.ndarray):
    """A float for a scalar t, else the array of values over the grid."""
    return float(values[0]) if np.ndim(t) == 0 else values


def delta_geo_closed_form(coeffs: DepartureCoefficients, t):
    """Square-root departure modulus sigma_2(H_t) in closed form.

    t is a scalar (returns a float) or a 1-D grid (returns an array).
    """
    ts = _t_grid(t)
    du, dv = _collinearity_defects(coeffs)
    s = 1.0 - ts
    big_t = (
        s**2 * coeffs.A * coeffs.B
        + 2.0 * ts * s * coeffs.rho * coeffs.sigma
        + ts * ts * coeffs.C * coeffs.D
    )
    delta = ts * ts * s**2 * du * dv
    rad = big_t * big_t - 4.0 * delta
    negative = rad < -1e-12 * big_t * big_t
    if negative.any():
        raise NumericalConsistencyError(
            f"discriminant {rad[negative][0]:.6e} negative beyond round-off"
        )
    # Smaller quadratic root in product form: no cancellation for small
    # Delta and an exact zero whenever a collinearity defect vanishes.
    denom = big_t + np.sqrt(np.maximum(rad, 0.0))
    ratio = np.divide(2.0 * delta, denom, out=np.zeros_like(ts), where=denom > 0.0)
    return _like_t(t, np.sqrt(ratio))


def delta_geo_svd(h: np.ndarray) -> float:
    """Second singular value of the profile; oracle for the closed form."""
    h = np.asarray(h, dtype=float)
    if min(h.shape) < 2:
        return 0.0
    return float(np.linalg.svd(h, compute_uv=False)[1])


def delta_geo_asymptote(coeffs: DepartureCoefficients) -> float:
    """Quadratic coefficient of delta_geo(t)^2 = coeff * t^2 + O(t^3)."""
    du, dv = _collinearity_defects(coeffs)
    return du * dv / (coeffs.A * coeffs.B)


def delta_diag(profile: SqrtProfile, t):
    """Diagonal-profile departure modulus, the singular-value tail of M_t.

    M_t = H_t o H_t = X diag(w_t) Y^T with X = [a o a, a o c, c o c],
    Y = [b o b, b o d, d o d] and w_t = ((1-t)^2, 2t(1-t), t^2). The thin
    QR factorizations X = Q_X R_X and Y = Q_Y R_Y do not depend on t, and
    M_t has the singular values of the 3x3 matrix R_X diag(w_t) R_Y^T, so a
    grid of t is one stacked SVD. Nothing is squared, so the tail keeps
    absolute accuracy near round-off times ||M_t||_2 even where it is tiny.
    t is a scalar (returns a float) or a 1-D grid (returns an array).
    """
    ts = _t_grid(t)
    du, dv = _collinearity_defects(DepartureCoefficients.from_profile(profile))
    if du == 0.0 or dv == 0.0:
        # Collinear profile vectors make H_t rank one for every t.
        return _like_t(t, np.zeros_like(ts))
    a, b, c, d = profile.a, profile.b, profile.c, profile.d
    r_x = np.linalg.qr(np.column_stack((a * a, a * c, c * c)), mode="r")
    r_y = np.linalg.qr(np.column_stack((b * b, b * d, d * d)), mode="r")
    weights = np.column_stack(((1.0 - ts) ** 2, 2.0 * ts * (1.0 - ts), ts**2))
    sv = np.linalg.svd((r_x * weights[:, None, :]) @ r_y.T, compute_uv=False)
    tail = np.sqrt(np.sum(sv[:, 1:] ** 2, axis=1))
    # At t = 0 and t = 1 a single weight survives and M_t has rank one.
    return _like_t(t, np.where((ts > 0.0) & (ts < 1.0), tail, 0.0))


def pi_residual(z, n: int) -> np.ndarray:
    """Partial-trace residual, the projection away from Kronecker sums.

    Pi(Z) = Z - (1/n) I (x) tr1(Z) - (1/n) tr2(Z) (x) I + tr(Z)/n^2 I.
    Both partial traces of the result vanish, and the kernel is exactly
    the Kronecker-sum space {I (x) A + B (x) I}.
    """
    z = symmetrize(z)
    if z.shape != (n * n, n * n):
        raise DimensionMismatch(
            f"expected a {n * n} x {n * n} matrix, got shape {z.shape}"
        )
    t1 = partial_trace_1(z, n)
    t2 = partial_trace_2(z, n)
    eye = np.eye(n)
    out = z - kron(eye, t1) / n - kron(t2, eye) / n
    out[np.diag_indices_from(out)] += np.trace(z) / n**2
    return out


def factor_transports(p0: KroneckerPoint, p1: KroneckerPoint) -> FactorTransports:
    """Factor Bures transports S_U, S_V and the whitened maps P, Q."""
    if p0.n != p1.n:
        raise DimensionMismatch(f"factor dimensions differ: {p0.n} vs {p1.n}")
    s_v = transport_map(p0.v_factor, p1.v_factor)
    s_u = transport_map(p0.u_factor, p1.u_factor)
    return FactorTransports(
        s_u=s_u,
        s_v=s_v,
        p_mat=spd_inv_sqrt(p0.v_factor) @ s_v.mat @ spd_sqrt(p0.v_factor),
        q_mat=spd_inv_sqrt(p0.u_factor) @ s_u.mat @ spd_sqrt(p0.u_factor),
    )


def whitened_initial_velocity(ft: FactorTransports) -> np.ndarray:
    """Whitened initial velocity Z0 = P (x) Q + P^T (x) Q^T - 2I."""
    m = kron(ft.p_mat, ft.q_mat)
    z0 = m + m.T
    z0[np.diag_indices_from(z0)] -= 2.0
    return z0


def _trace_free_norm(m: np.ndarray) -> float:
    """Frobenius norm of the trace-free part dev(M) = M - (tr M / n) I."""
    n = m.shape[0]
    return float(np.linalg.norm(m - (np.trace(m) / n) * np.eye(n)))


def endpoint_rigidity_classify(
    p0: KroneckerPoint, p1: KroneckerPoint
) -> TangencyReport:
    """Classify an endpoint pair by the partial-trace residual of Z0.

    The verdict is whether p1 lies on the row leaf of p0's U factor, else
    on the column leaf of p0's V factor (``leaf_membership``). The report
    asserts the rigidity equivalence, so a residual of at most
    RESIDUAL_TOL * ||P||_F ||Q||_F must coincide with a common-leaf
    verdict. Disagreement raises InconsistentVerdict. The residual norm
    comes from the n x n factor transports; no n^2 x n^2 matrix is formed.
    """
    ft = factor_transports(p0, p1)
    # Pi(X (x) Y) = dev(X) (x) dev(Y), so Pi(Z0) = dev(P) (x) dev(Q) + its
    # transpose and ||Pi(Z0)||_F^2 = 2 (||dev P||^2 ||dev Q||^2 +
    # tr(dev(P)^2) tr(dev(Q)^2)). dev(P) is similar to the symmetric
    # dev(S_V), so tr(dev(P)^2) = ||dev S_V||^2 >= 0, and likewise for Q.
    cross = _trace_free_norm(ft.p_mat) * _trace_free_norm(ft.q_mat)
    twisted = _trace_free_norm(ft.s_v.mat) * _trace_free_norm(ft.s_u.mat)
    residual_norm = float(np.sqrt(2.0) * np.hypot(cross, twisted))
    relative = residual_norm / float(
        np.linalg.norm(ft.p_mat) * np.linalg.norm(ft.q_mat)
    )

    if leaf_membership(row_leaf(p0.u_factor), p1):
        verdict = RigidityVerdict.COMMON_ROW_LEAF
    elif leaf_membership(col_leaf(p0.v_factor), p1):
        verdict = RigidityVerdict.COMMON_COL_LEAF
    else:
        verdict = RigidityVerdict.DEPARTS

    on_leaf = verdict is not RigidityVerdict.DEPARTS
    if on_leaf != (relative <= RESIDUAL_TOL):
        raise InconsistentVerdict(
            f"factor verdict {verdict.value} conflicts with relative residual "
            f"{relative:.6e} at tolerance {RESIDUAL_TOL:.1e}"
        )
    return TangencyReport(residual_norm=residual_norm, verdict=verdict)


_PATTERN_RELATIONS = (
    ("z14=0", lambda z: abs(z[0, 3])),
    ("z23=0", lambda z: abs(z[1, 2])),
    ("z12=z34", lambda z: abs(z[0, 1] - z[2, 3])),
    ("z13=z24", lambda z: abs(z[0, 2] - z[1, 3])),
    ("z11-z22=z33-z44", lambda z: abs((z[0, 0] - z[1, 1]) - (z[2, 2] - z[3, 3]))),
)


def pattern_2x2_check(z0) -> tuple[bool, list[str]]:
    """Entrywise tangency relations for n = 2.

    Returns whether all relations hold and the list of violated ones;
    agreement with the residual test is exact up to tolerances.
    """
    z0 = symmetrize(z0)
    if z0.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4 x 4 matrix, got shape {z0.shape}")
    scale = max(1.0, float(np.linalg.norm(z0)))
    violated = [
        name for name, gap in _PATTERN_RELATIONS if gap(z0) > PATTERN_TOL * scale
    ]
    return not violated, violated


def pullback_metric_isotropic(n: int, s: float, h_u, h_v) -> float:
    """Pullback metric (n/4)(s |H_U|^2 + |H_V|^2 / s) at the point (I, sI).

    H_U must be trace-free, matching the tangent space of the
    determinant-normalized factor.
    """
    if not (np.isfinite(s) and s > 0.0):
        raise ParameterOutOfRange(
            f"isotropic scale must be finite and positive, got {s}"
        )
    h_u = symmetrize(h_u)
    h_v = symmetrize(h_v)
    if h_u.shape != (n, n) or h_v.shape != (n, n):
        raise DimensionMismatch(
            f"tangent shapes {h_u.shape}, {h_v.shape} do not match n = {n}"
        )
    norm_u = float(np.linalg.norm(h_u))
    if abs(float(np.trace(h_u))) > 1e-12 * max(norm_u, np.finfo(float).tiny):
        raise TraceNotZero(f"tr(H_U) = {np.trace(h_u):.6e} is not zero")
    norm_v = float(np.linalg.norm(h_v))
    return 0.25 * n * (s * norm_u**2 + norm_v**2 / s)


def departure_profile_rows(profile: SqrtProfile, ts=None):
    """Yield (t, delta_geo, delta_diag) records over a t grid.

    Each modulus is evaluated once over the whole grid.
    """
    ts = np.linspace(0.0, 1.0, 201) if ts is None else np.asarray(ts, dtype=float)
    geo = delta_geo_closed_form(DepartureCoefficients.from_profile(profile), ts)
    diag = delta_diag(profile, ts)
    yield from zip(ts.tolist(), geo.tolist(), diag.tolist())


def write_departure_profile(path, profile: SqrtProfile, ts=None) -> None:
    """Write the per-t departure profile as CSV columns (t, delta_geo, delta_diag)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "delta_geo", "delta_diag"])
        for t, dgeo, ddiag in departure_profile_rows(profile, ts):
            writer.writerow([repr(t), repr(dgeo), repr(ddiag)])

"""Geodesic-closure diagnostics for the Kronecker model.

Fixed commuting charts are coordinates, not a second geometry: the Bures
geodesic between commuting endpoints is ((1-t) A^1/2 + t B^1/2)^2, with
square-root profile ``profile_matrix(SqrtProfile.from_chart(chart), t)``.
Also the departure moduli with closed forms, the partial-trace residual
projection, whitened initial velocities, endpoint tangency and rigidity
classification, the 2x2 pattern test, and the isotropic pullback metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bures_metric import (
    _check_parameter,
    _check_transport,
    _curve_parameter,
    _gram_product,
    _whitened_root_eig,
)
from .errors import (
    DimensionMismatch,
    InconsistentVerdict,
    NonPositiveCoordinate,
    NotSimultaneouslyDiagonalizable,
    NumericalConsistencyError,
    ParameterOutOfRange,
    TraceNotZero,
)
from .kron_model import KroneckerPoint, LeafKind, _check_gauge, _on_leaf
from .spd_core import (
    SpdMatrix,
    _Deferred,
    _check_positive,
    _match_dims,
    _positive_scalar,
    _store_positive,
    _symmetrized,
    kron,
    partial_trace_1,
    partial_trace_2,
    symmetrize,
)

# Threshold for the 2x2 pattern check.
PATTERN_TOL = 1e-10

# Bound on ||Pi(Z0)||_F relative to ||P||_F ||Q||_F, the size of the terms
# of Z0 that cancel on a common leaf. On exact leaf pairs it is round-off:
# with bench_cli.gen_spd factors (seeds 0-39; p1 shares p0's U, or V up to
# scale) at most 8.9e-12, 6.3e-12 and 9.3e-12 at n = 8, 16 and 32, while
# pairs of independent points stay at or above 0.966, 1.12 and 1.26. The
# value must sit between the two.
RESIDUAL_TOL = 1e-8

# Relative commutator norm below which a factor pair is treated as commuting.
COMMUTE_TOL = 1e-10

# Off-diagonal mass allowed when verifying a joint eigenbasis.
CHART_TOL = 1e-8

_EIG_GROUP_TOL = 1e-8


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
    """Eigenvalue vectors of a commuting pair in a joint diagonalizing basis.

    They are stored as read-only float copies of one shape (n,), n >= 1,
    entrywise finite and positive; u0 and u1 carry the determinant gauge.
    """

    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        _store_positive(self, 1, u0=self.u0, u1=self.u1, v0=self.v0, v1=self.v1)
        _check_gauge("u0", np.log(self.u0))
        _check_gauge("u1", np.log(self.u1))


@dataclass(frozen=True, eq=False)
class SqrtProfile:
    """Square-root vectors a, b, c, d of the chart eigenvalues.

    The interpolant H_t = (1-t) a b^T + t c d^T collects the square roots
    of the commuting geodesic's diagonal entries. Stored as the chart's
    vectors are; a o a and c o c, its U eigenvalues, carry the gauge.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        _store_positive(self, 1, a=self.a, b=self.b, c=self.c, d=self.d)
        _check_gauge("a o a", 2.0 * np.log(self.a))
        _check_gauge("c o c", 2.0 * np.log(self.c))

    @classmethod
    def from_chart(cls, chart: CommutingChart) -> "SqrtProfile":
        return cls(
            a=np.sqrt(chart.u0),
            b=np.sqrt(chart.v0),
            c=np.sqrt(chart.u1),
            d=np.sqrt(chart.v1),
        )


@dataclass(frozen=True, eq=False)
class FactorTransports:
    """Factor Bures transports and their whitened similarity images.

    P = V0^-1/2 S_V V0^1/2 and Q = U0^-1/2 S_U U0^1/2 share the spectra of
    S_V and S_U; the ambient transport factorizes as S_V (x) S_U. With
    V0 = E L E^T, S_V = Z R Z^T for Z = E L^-1/2 and the whitened root
    R = (Y^T V1 Y)^1/2 = W diag(r) W^T, Y = E L^1/2. One eigh gives W and
    r with U's, R is formed from them here at factor size, and P is
    E L^-1 R E^T; Q likewise. No root of V0 or U0 is formed.
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
            _, qb = np.linalg.eigh(_symmetrized(qg.T @ b_mat @ qg))
            q[:, start:stop] = qg @ qb[:, ::-1]
        start = stop
    return q


def _check_commuting(a: np.ndarray, b: np.ndarray, label: str) -> None:
    comm = np.linalg.norm(a @ b - b @ a)
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    if comm > COMMUTE_TOL * scale:
        raise NotSimultaneouslyDiagonalizable(
            f"{label} do not commute: relative commutator norm "
            f"{comm / scale:.6e} exceeds {COMMUTE_TOL:.1e}"
        )


def _diagonalize_pair(
    a0: SpdMatrix, a1: SpdMatrix, label: str
) -> tuple[np.ndarray, np.ndarray]:
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
    return vals[0], vals[1]


def build_chart(p0: KroneckerPoint, p1: KroneckerPoint) -> CommutingChart:
    """Joint diagonalizing chart for simultaneously diagonalizable endpoints.

    A factor pair whose relative commutator exceeds COMMUTE_TOL, or whose
    joint basis leaves off-diagonal mass above CHART_TOL, raises
    NotSimultaneouslyDiagonalizable; neither test implies the other.
    """
    _match_dims(p0.n, p1.n)
    _check_commuting(p0.u_factor.mat, p1.u_factor.mat, "U factors")
    _check_commuting(p0.v_factor.mat, p1.v_factor.mat, "V factors")
    u0, u1 = _diagonalize_pair(p0.u_factor, p1.u_factor, "U")
    v0, v1 = _diagonalize_pair(p0.v_factor, p1.v_factor, "V")
    return CommutingChart(u0=u0, u1=u1, v0=v0, v1=v1)


def profile_matrix(profile: SqrtProfile, t: float) -> np.ndarray:
    """Interpolant H_t = (1-t) a b^T + t c d^T, t in [0, 1].

    For ``SqrtProfile.from_chart(chart)``, the entrywise squares of H_t are
    the commuting geodesic's diagonal entries in the joint eigenbasis R (x) Q,
    and H_t has rank one exactly when the geodesic point stays in the model.
    """
    t = _check_parameter(t)
    return (1.0 - t) * np.outer(profile.a, profile.b) + t * np.outer(
        profile.c, profile.d
    )


def classify_closure_commuting(chart: CommutingChart) -> ClosureVerdict:
    """Fixed-chart closure verdict from the eigenvalue vectors.

    Row leaf iff the U eigenvalues agree, column leaf iff the V eigenvalues
    are positively proportional, both by the factor test of
    ``leaf_membership``; anything else departs the model immediately.
    """
    if _on_leaf(LeafKind.ROW, chart.u0, chart.u1):
        return ClosureVerdict.ALWAYS_IN_MODEL_ROW_LEAF
    if _on_leaf(LeafKind.COL, chart.v0, chart.v1):
        return ClosureVerdict.ALWAYS_IN_MODEL_COL_LEAF
    return ClosureVerdict.DEPARTS_IMMEDIATELY


def _coefficients(profile: SqrtProfile):
    """Norms and inner products of the profile vectors, and the collinearity
    defects du = A C - rho^2 and dv = B D - sigma^2.

    A = |a|^2, B = |b|^2, C = |c|^2, D = |d|^2, rho = <a, c>, sigma = <b, d>.
    Only under- or overflow can make A, B, C or D non-positive or infinite.
    Each defect is formed as the Gram determinant's projection residual,
    du = A |c - (rho/A) a|^2 and dv = B |d - (sigma/B) b|^2, not by the
    subtraction, which cancels near a leaf: for c = a (1 + O(eps)) the
    defect is O(eps^2) A C and keeps its relative accuracy of about
    machine epsilon / eps. Both are non-negative as formed.
    """
    a, b, c, d = profile.a, profile.b, profile.c, profile.d
    # An overflowing norm reads inf and fails the check below.
    with np.errstate(over="ignore"):
        big_a = float(np.dot(a, a))
        big_b = float(np.dot(b, b))
        big_c = float(np.dot(c, c))
        big_d = float(np.dot(d, d))
        rho = float(np.dot(a, c))
        sigma = float(np.dot(b, d))
    _check_positive("coefficients A, B, C, D", (big_a, big_b, big_c, big_d))
    # Exact zeros here are meaningful: for bitwise-equal leaf copies rho and
    # A are one dot product, so rho/A is 1 and the residual is exactly 0,
    # which makes the moduli vanish identically on leaves. A product that
    # overflows reads inf, which the moduli reject.
    with np.errstate(over="ignore"):
        res_u = c - (rho / big_a) * a
        res_v = d - (sigma / big_b) * b
        du = big_a * float(np.dot(res_u, res_u))
        dv = big_b * float(np.dot(res_v, res_v))
    return big_a, big_b, big_c, big_d, rho, sigma, du, dv


def _like_t(t: np.ndarray, values: np.ndarray):
    """A float for a scalar t, else the array of values over the grid."""
    return float(values[0]) if t.ndim == 0 else values


def delta_geo_closed_form(profile: SqrtProfile, t):
    """Square-root departure modulus sigma_2(H_t) in closed form.

    t is a scalar (returns a float) or a 1-D grid (returns an array), both
    checked by the curve-parameter rule of ``geodesic_eval``.
    """
    t = _curve_parameter(t)
    ts = t.reshape(-1)
    big_a, big_b, big_c, big_d, rho, sigma, du, dv = _coefficients(profile)
    s = 1.0 - ts
    with np.errstate(over="ignore", invalid="ignore"):
        big_t = s**2 * big_a * big_b + 2.0 * ts * s * rho * sigma + ts * ts * big_c * big_d
        delta = ts * ts * s**2 * du * dv
        rad = big_t * big_t - 4.0 * delta
    # Finite coefficients whose products overflow read inf or NaN here.
    if not np.isfinite(rad).all():
        raise NonPositiveCoordinate("products of the profile coefficients overflow")
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


def delta_geo_asymptote(profile: SqrtProfile) -> float:
    """Quadratic coefficient of delta_geo(t)^2 = coeff * t^2 + O(t^3)."""
    big_a, big_b, *_, du, dv = _coefficients(profile)
    coeff = du * dv / (big_a * big_b)
    if not np.isfinite(coeff):
        raise NonPositiveCoordinate("products of the profile coefficients overflow")
    return coeff


def delta_diag(profile: SqrtProfile, t):
    """Diagonal-profile departure modulus, the singular-value tail of M_t.

    M_t = H_t o H_t = X diag(w_t) Y^T with X = [a o a, a o c, c o c],
    Y = [b o b, b o d, d o d] and w_t = ((1-t)^2, 2t(1-t), t^2). The thin
    QR factorizations X = Q_X R_X and Y = Q_Y R_Y do not depend on t, and
    M_t has the singular values of the 3x3 matrix R_X diag(w_t) R_Y^T, so a
    grid of t is one stacked SVD. Nothing is squared, so the tail keeps
    absolute accuracy near round-off times ||M_t||_2 even where it is tiny.
    t is a scalar (returns a float) or a 1-D grid (returns an array), both
    checked by the curve-parameter rule of ``geodesic_eval``.
    """
    t = _curve_parameter(t)
    ts = t.reshape(-1)
    *_, du, dv = _coefficients(profile)
    if du == 0.0 or dv == 0.0:
        # Exactly collinear profile vectors make H_t rank one for every t.
        return _like_t(t, np.zeros_like(ts))
    a, b, c, d = profile.a, profile.b, profile.c, profile.d
    r_x = np.linalg.qr(np.column_stack((a * a, a * c, c * c)), mode="r")
    r_y = np.linalg.qr(np.column_stack((b * b, b * d, d * d)), mode="r")
    weights = np.column_stack(((1.0 - ts) ** 2, 2.0 * ts * (1.0 - ts), ts**2))
    sv = np.linalg.svd((r_x * weights[:, None, :]) @ r_y.T, compute_uv=False)
    tail = np.sqrt(np.sum(sv[:, 1:] ** 2, axis=1))
    # At t = 0 and t = 1 a single weight survives and M_t has rank one.
    return _like_t(t, np.where((ts > 0.0) & (ts < 1.0), tail, 0.0))


def pi_residual(z) -> np.ndarray:
    """Partial-trace residual, the projection away from Kronecker sums.

    Pi(Z) = Z - (1/n) I (x) tr1(Z) - (1/n) tr2(Z) (x) I + tr(Z)/n^2 I for
    an n^2 x n^2 matrix Z. Both partial traces of the result vanish, and the
    kernel is exactly the Kronecker-sum space {I (x) A + B (x) I}. A sum
    that overflows raises ParameterOutOfRange.
    """
    z = symmetrize(z)
    t1 = partial_trace_1(z)
    t2 = partial_trace_2(z)
    n = t1.shape[0]
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        out = z - kron(eye, t1) / n - kron(t2, eye) / n
        out[np.diag_indices_from(out)] += np.trace(z) / n**2
    if not np.isfinite(out).all():
        raise ParameterOutOfRange("partial-trace residual overflows")
    return out


def factor_transports(p0: KroneckerPoint, p1: KroneckerPoint) -> FactorTransports:
    """Factor Bures transports S_U, S_V and the whitened maps P, Q.

    One stacked eigh of the Gram products of the points' cached root
    stacks gives (W, r) for V and U; each S is bounded and checked as
    transport_map's T is. The V pair is whitened as c V0 and c V1, for the
    power of four c <= 2^1022 that brings c^2 v0_max v1_max into [1/4, 8),
    by c^1/2 on the V rows of copies of the root stacks: exact, and S_V and
    P do not depend on c, so no V scale from 1e-300 to 1e300 under- or
    overflows their products.
    """
    _match_dims(p0.n, p1.n)
    top = sum(math.frexp(p.v_factor.eig.eigenvalues[0])[1] for p in (p0, p1))
    root_c = np.array([math.ldexp(1.0, -max(top // 4, -511)), 1.0])[:, None, None]
    c = root_c * root_c
    w, r = _whitened_root_eig(_gram_product(*(p._y_factors * root_c for p in (p0, p1))))
    # Eigenvalues (descending) and eigenvectors of c V0 and U0.
    lam = c[:, 0] * np.stack((p0.v_factor.eig.eigenvalues, p0.u_factor.eig.eigenvalues))
    e = np.stack((p0.v_factor.eig.eigenvectors, p0.u_factor.eig.eigenvectors))
    h = (e / np.sqrt(lam)[:, None, :]) @ w * np.sqrt(r)[:, None, :]
    s_v, s_u = (
        SpdMatrix(hi @ hi.T, _eig=_Deferred(ri[0] / li[0], ri[-1] / li[-1]))
        for hi, ri, li in zip(h, r.tolist(), lam.tolist())
    )
    t = np.stack((s_v.mat, s_u.mat))
    a, b = (c * np.stack((p.v_factor.mat, p.u_factor.mat)) for p in (p0, p1))
    _check_transport(t @ a @ t, b)
    root = (w * r[:, None, :]) @ w.swapaxes(-1, -2)
    p_mat, q_mat = (e / lam[:, None, :]) @ root @ e.swapaxes(-1, -2)
    return FactorTransports(s_u=s_u, s_v=s_v, p_mat=p_mat, q_mat=q_mat)


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
    on the column leaf of p0's V factor, by the factor test that
    ``leaf_membership`` and, in a chart, ``classify_closure_commuting``
    apply. The report asserts the rigidity equivalence, so a residual of
    at most RESIDUAL_TOL * ||P||_F ||Q||_F must coincide with a
    common-leaf verdict. Disagreement raises InconsistentVerdict. The residual norm
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

    if _on_leaf(LeafKind.ROW, p0.u_factor.mat, p1.u_factor.mat):
        verdict = RigidityVerdict.COMMON_ROW_LEAF
    elif _on_leaf(LeafKind.COL, p0.v_factor.mat, p1.v_factor.mat):
        verdict = RigidityVerdict.COMMON_COL_LEAF
    else:
        verdict = RigidityVerdict.DEPARTS
    if (verdict is RigidityVerdict.DEPARTS) == (relative <= RESIDUAL_TOL):
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
    agreement with the residual test is exact up to tolerances. A gap is
    violated above PATTERN_TOL * max(1, ||Z0||_F). The norm and the gaps
    are formed on Z0 2^-e, for the least e >= 0 with max|Z0| < 2^e, so
    none overflows; the scaling is exact, so every finite Z0 answers, with
    the verdict of Z0 itself.
    """
    z0 = symmetrize(z0)
    if z0.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4 x 4 matrix, got shape {z0.shape}")
    e = max(math.frexp(float(np.abs(z0).max()))[1], 0)
    z = np.ldexp(z0, -e)
    scale = max(math.ldexp(1.0, -e), float(np.linalg.norm(z)))
    violated = [name for name, gap in _PATTERN_RELATIONS if gap(z) > PATTERN_TOL * scale]
    return not violated, violated


def pullback_metric_isotropic(s: float, h_u, h_v) -> float:
    """Pullback metric (n/4)(s |H_U|^2 + |H_V|^2 / s) at the point (I, sI).

    H_U and H_V are n x n tangents of one shape. H_U must be trace-free,
    matching the tangent space of the determinant-normalized factor. A
    norm or a metric that overflows raises ParameterOutOfRange.
    """
    s = _positive_scalar(s, "isotropic scale", ParameterOutOfRange)
    h_u = symmetrize(h_u)
    h_v = symmetrize(h_v)
    if h_u.ndim != 2 or h_v.shape != h_u.shape:
        raise DimensionMismatch(
            f"tangents of shapes {h_u.shape}, {h_v.shape} are not n x n of one shape"
        )
    n = h_u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm_u, norm_v = np.linalg.norm(h_u), np.linalg.norm(h_v)
        trace_u = np.trace(h_u)
        metric = float(0.25 * n * (s * norm_u**2 + norm_v**2 / s))
    if not math.isfinite(metric):
        raise ParameterOutOfRange("isotropic pullback metric overflows")
    if abs(trace_u) > 1e-12 * max(norm_u, np.finfo(float).tiny):
        raise TraceNotZero(f"tr(H_U) = {trace_u:.6e} is not zero")
    return metric


def departure_profile_rows(profile: SqrtProfile, ts):
    """Yield (t, delta_geo, delta_diag) records over the t grid ts, or one
    record for a scalar ts. Each modulus is evaluated once over the grid.
    """
    ts = _curve_parameter(ts).reshape(-1)
    geo = delta_geo_closed_form(profile, ts)
    diag = delta_diag(profile, ts)
    yield from zip(ts.tolist(), geo.tolist(), diag.tolist())


"""Bures-Wasserstein distance, optimal transport maps, and geodesics on the
full SPD cone."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalConsistencyError, ParameterOutOfRange
from .spd_core import SpdMatrix, _Deferred, _leave, _match_dims, _take, symmetrize

# Transport maps must reproduce their endpoints to this relative accuracy.
TRANSPORT_CHECK_TOL = 1e-10

_NEGATIVE_CLAMP = 1e-10


@dataclass(frozen=True, eq=False)
class GeodesicCurve:
    """Bures geodesic with its transport map precomputed once; built by
    ``geodesic`` only.

    It keeps the products TA and TAT that the transport's check formed, so
    a point costs O(N^2) arithmetic and no matrix product, and the bounds
    r_min / a_max <= lambda(T) <= r_max / a_min from the transport. A point
    is validated by a margin proved from those bounds and the start point's
    spectrum, and by one eigvalsh when they do not decide it.
    """

    start: SpdMatrix
    transport: SpdMatrix
    _ta: np.ndarray = field(repr=False)
    _tat: np.ndarray = field(repr=False)
    _transport_bounds: _Deferred = field(repr=False)


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


# The whitened product Y^T B Y, for a square-root factor Y Y^T = A, is
# formed, symmetrized, by _whitened_product alone, and decomposed only by
# the helpers below; see SpdMatrix for why it is never validated. Its
# spectrum does not depend on which factor: Y^T B Y is orthogonally
# similar to A^1/2 B A^1/2. Every caller takes Y = Q L^1/2 and, where it
# needs one, Z = Q L^-1/2 = Y^-T from the cached A = Q L Q^T, two column
# scalings, so the small eigendirections of A are never rounded through a
# formed root A^-1/2. Y and B may each be one n x n matrix or a stack of
# shape (m, n, n): Y^T B Y is then one broadcast matmul and its
# decomposition one stacked LAPACK call, which runs the same per-matrix
# routine as m separate calls and returns the same bits. With
# Y^T B Y = W diag(w) W^T and r = sqrt(max(w, 0)), the transport
# T = Z R Z^T, R = W diag(r) W^T, is the Gram product H H^T of
# H = Z W diag(r)^1/2: the product Z W and one syrk at N = n^2. Weyl on
# Z R Z^T gives r_min / a_max <= lambda(T) <= r_max / a_min; those bounds
# and the check's products TA and TAT reach a GeodesicCurve only through
# geodesic. R itself is formed only at factor size, by factor_transports,
# and once per datum by bw_barycenter, whose fixed point sums the roots.
# A transport from a to b decomposes the product bures_distance_sq(a, b)
# left (spd_core._leave); one helper forms it, so the bits are the same.


def _whitened_product(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The symmetrized Y^T B Y; Y and B may also be (m, n, n) stacks that
    broadcast."""
    return symmetrize(np.swapaxes(y, -1, -2) @ b @ y)


def _whitened_eigvals(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized Y^T B Y, clipped at 0; Y and
    B may also be (m, n, n) stacks that broadcast."""
    return np.maximum(np.linalg.eigvalsh(_whitened_product(y, b)), 0.0)


def _whitened_root_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, r): the eigenvectors W of a whitened product M = W diag(w) W^T
    from _whitened_product, from one eigh, and the ascending eigenvalues
    r = sqrt(max(w, 0)) of its root."""
    w, q = np.linalg.eigh(m)
    return q, np.sqrt(np.maximum(w, 0.0))


def _extremes(a: SpdMatrix) -> tuple[float, float]:
    """(a_max, a_min) from A's cached spectrum."""
    w = a.eig.eigenvalues
    return float(w[0]), float(w[-1])


def _root_factors(a: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Y = Q L^1/2 and Z = Q L^-1/2 from A's cached eigendecomposition:
    Y Y^T = A and Z = Y^-T."""
    q = a.eig.eigenvectors
    h = np.sqrt(a.eig.eigenvalues)
    return q * h, q / h


def bures_distance_sq(a: SpdMatrix, b: SpdMatrix) -> float:
    """Squared Bures-Wasserstein distance tr(A) + tr(B) - 2 tr((A^1/2 B A^1/2)^1/2)."""
    _match_dims(a.dim, b.dim)
    m = _whitened_product(_root_factors(a)[0], b.mat)
    m.setflags(write=False)
    _leave(a, b, m)
    w = np.maximum(np.linalg.eigvalsh(m), 0.0)
    tr_sum = a.trace() + b.trace()
    d2 = tr_sum - 2.0 * float(np.sqrt(w).sum())
    return _clamp_distance_sq(d2, tr_sum)


def transport_map(
    a: SpdMatrix, b: SpdMatrix, *, _parts: list | None = None
) -> SpdMatrix:
    """Optimal transport T = A^-1/2 (A^1/2 B A^1/2)^1/2 A^-1/2, with T A T = B.

    ``_parts``, a list, receives the products TA and TAT that the check
    formed and T's spectral bounds; ``geodesic`` passes it, and no other
    caller keeps them.
    """
    _match_dims(a.dim, b.dim)
    t, _, parts = _transport(a, b)
    if _parts is not None:
        _parts.extend(parts)
    return t


def _transport(
    a: SpdMatrix, b: SpdMatrix
) -> tuple[SpdMatrix, tuple[np.ndarray, np.ndarray], tuple]:
    """(T, (W, r), (TA, TAT, bounds)) for transport_map(a, b): T = H H^T with
    H = Z W diag(r)^1/2, from the eigenvectors W and root eigenvalues r of
    Y^T B Y, the products TA and TAT of the check ||TAT - B||_F <=
    TRANSPORT_CHECK_TOL ||B||_F, and the bounds
    r_min / a_max <= lambda(T) <= r_max / a_min, which validate T when they
    prove the margin."""
    y, z = _root_factors(a)
    m = _take(a, b)
    if m is None:
        m = _whitened_product(y, b.mat)
    # Y is freed before the eigh, M after it, and Z and then H before the
    # check allocates TA and TAT: a curve and one point peak at six N x N
    # arrays.
    del y
    q, r = _whitened_root_eig(m)
    del m
    h = z @ q
    del z
    h *= np.sqrt(r)
    a_max, a_min = _extremes(a)
    bounds = _Deferred(float(r[0]) / a_max, float(r[-1]) / a_min)
    # One C-contiguous buffer times its own transpose runs numpy's syrk.
    t = SpdMatrix(h @ h.T, _eig=bounds)
    del h
    ta = t.mat @ a.mat
    tat = ta @ t.mat
    defect = np.linalg.norm(tat - b.mat)
    if defect > TRANSPORT_CHECK_TOL * np.linalg.norm(b.mat):
        raise NumericalConsistencyError(
            f"transport defining property violated: relative defect "
            f"{defect / np.linalg.norm(b.mat):.6e}"
        )
    return t, (q, r), (ta, tat, bounds)


def geodesic(a: SpdMatrix, b: SpdMatrix) -> GeodesicCurve:
    """Bures geodesic curve from A to B."""
    parts = []
    t = transport_map(a, b, _parts=parts)
    return GeodesicCurve(a, t, *parts)


def _geodesic_bounds(curve: GeodesicCurve, t: float) -> _Deferred:
    """Bounds on the spectrum of gamma(t), the tighter of two Weyl forms,
    with r_min = tau_min a_max and r_max = tau_max a_min from T's bounds:
    (A) gamma = (Z S)(Z S)^T with S = (1-t) L + t R, and (B) gamma = C A C
    with C = (1-t) I + t T. Each is the square of a root-sized bound, so
    only a bound beyond the float range overflows (to inf, which falls
    back)."""
    tau_min, tau_max = curve._transport_bounds
    a_max, a_min = _extremes(curve.start)
    s = 1.0 - t
    lower = max(
        (s * a_min + t * (tau_min * a_max)) / math.sqrt(a_max),
        (s + t * tau_min) * math.sqrt(a_min),
    )
    upper = min(
        (s * a_max + t * (tau_max * a_min)) / math.sqrt(a_min),
        (s + t * tau_max) * math.sqrt(a_max),
    )
    return _Deferred(lower * lower, upper * upper)


def _curve_parameter(t) -> np.ndarray:
    """The one rule for a curve parameter: t, a real scalar or 1-D grid with
    every entry in [0, 1], as a float array (a float grid is not copied).
    Strings, None, complex values and NaN raise ParameterOutOfRange."""
    try:
        ts = np.asarray(t)
    except ValueError:  # a ragged nesting has no shape
        raise DimensionMismatch(f"curve parameter {t!r} has no array shape") from None
    if ts.dtype.kind not in "biuf":
        raise ParameterOutOfRange(f"curve parameter {t!r} is not real")
    if ts.ndim > 1:
        raise DimensionMismatch(f"curve parameter of shape {ts.shape} is not 1-D")
    ts = ts.astype(float, copy=False)
    # NaN fails the comparison too.
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise ParameterOutOfRange(f"curve parameter {ts[outside][0]} outside [0, 1]")
    return ts


def _check_parameter(t) -> float:
    """A scalar t that passes ``_curve_parameter``, as a float."""
    ts = _curve_parameter(t)
    if ts.ndim != 0:
        raise DimensionMismatch(f"curve parameter of shape {ts.shape} is not a scalar")
    return float(ts)


def geodesic_eval(curve: GeodesicCurve, t: float) -> SpdMatrix:
    """Point ((1-t)I + tT) A ((1-t)I + tT) on the geodesic, t in [0, 1].

    Formed as (1-t)^2 A + t(1-t)(TA + (TA)^T) + t^2 TAT in one buffer from
    the curve's products, so gamma(0) is A and gamma(1) is (T A) T, bit
    for bit. With C = (1-t)I + tT, s = 1-t >= 0 and T's diagonal positive,
    |C| = sI + t|T| entrywise, so the terms of |C||A||C| are s^2|A|,
    st(|T||A| + |A||T|) and t^2|T||A||T|: the round-off of forming TA, TAT
    and their sum is bounded by c N eps times those same terms, which is
    what the 64 N eps slack of the proved margin covers.
    """
    t = _check_parameter(t)
    s = 1.0 - t
    out = curve._ta + curve._ta.T
    out *= t * s
    out += (s * s) * curve.start.mat
    out += (t * t) * curve._tat
    return SpdMatrix(out, _eig=_geodesic_bounds(curve, t))


"""Transports, geodesic midpoints, BW barycenters, reduced distances and
the whitened factor transports against a 60-digit reference.

The reference takes the float64 inputs as exact and forms
T = A^-1/2 (A^1/2 B A^1/2)^1/2 A^-1/2, the midpoint (I + T) A (I + T) / 4,
the reduced squared distance and P = V0^-1/2 S_V V0^1/2 from mpmath's
symmetric eigendecompositions at 60 significant digits; it shares no code
with the library.
"""

import mpmath
import numpy as np
import pytest

from kronbures import (
    KroneckerPoint,
    SpdMatrix,
    bw_barycenter,
    factor_transports,
    geodesic,
    geodesic_eval,
    pairwise_bures_sq_reduced,
    transport_map,
)

EPS = np.finfo(float).eps


@pytest.fixture(autouse=True)
def sixty_digits():
    with mpmath.workdps(60):
        yield


def _mp(a):
    return mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in np.asarray(a)])


def _spectral(a, f):
    """f applied to the spectrum of the symmetric mpmath matrix a."""
    w, q = mpmath.eigsy(a)
    return q * mpmath.diag([f(x) for x in w]) * q.T


def _ref_transport(a, b):
    s = _spectral(a, mpmath.sqrt)
    r = _spectral(a, lambda x: 1 / mpmath.sqrt(x))
    return r * _spectral(s * b * s, mpmath.sqrt) * r


def _ref_similar(a, b):
    """A^-1/2 T A^1/2 for the transport T from A to B."""
    return _spectral(a, lambda x: 1 / mpmath.sqrt(x)) * _ref_transport(a, b) * _spectral(
        a, mpmath.sqrt
    )


def _trace(m):
    return sum(m[i, i] for i in range(m.rows))


def _ref_cross(a, b):
    """tr (A^1/2 B A^1/2)^1/2."""
    s = _spectral(a, mpmath.sqrt)
    return sum(mpmath.sqrt(x) for x in mpmath.eigsy(s * b * s)[0])


def _ref_reduced(p0, p1):
    """(d^2, tr U0 tr V0 + tr U1 tr V1) between the embeddings V0 (x) U0 and
    V1 (x) U1, with the cross term tr (A^1/2 B A^1/2)^1/2 of each factor."""
    u0, v0, u1, v1 = (
        _mp(m.mat) for m in (p0.u_factor, p0.v_factor, p1.u_factor, p1.v_factor)
    )
    tr_sum = _trace(u0) * _trace(v0) + _trace(u1) * _trace(v1)
    return tr_sum - 2 * _ref_cross(v0, v1) * _ref_cross(u0, u1), tr_sum


def _fro(m):
    return mpmath.sqrt(sum(m[i, j] ** 2 for i in range(m.rows) for j in range(m.cols)))


def _transport_error(a: SpdMatrix, b: SpdMatrix) -> float:
    """Relative Frobenius error of transport_map(a, b) against the reference."""
    ref = _ref_transport(_mp(a.mat), _mp(b.mat))
    return float(_fro(_mp(transport_map(a, b).mat) - ref) / _fro(ref))


def _true_stationarity(v: SpdMatrix, mats, w) -> float:
    """||sum_i w_i T_{V -> M_i} - I||_F with every transport from the reference."""
    total = -mpmath.eye(v.dim)
    for wi, m in zip(w, mats):
        total += mpmath.mpf(float(wi)) * _ref_transport(_mp(v.mat), _mp(m.mat))
    return float(_fro(total))


def _rotated_pair(n, spread, rng):
    """Two matrices Q diag(e^x) Q^T with x ~ U(-spread, spread)^n and Q the
    Q factor of a standard normal matrix."""
    mats = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mats.append(SpdMatrix((q * np.exp(rng.uniform(-spread, spread, n))) @ q.T))
    return mats


def test_ill_conditioned_pair():
    # The pair of test_barycenter's ill-conditioned midpoint test
    # (condition numbers 1.4e8 and 30).
    mats = _rotated_pair(2, 12.0, np.random.default_rng(11))
    bar = bw_barycenter(mats, [0.5, 0.5])
    for m in mats:
        assert _transport_error(bar, m) <= 1e-12
    assert _true_stationarity(bar, mats, [0.5, 0.5]) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rotated_pairs(n):
    # Spectra e^{U(-6, 6)}: condition numbers up to 1.6e5. A backward-stable
    # eigendecomposition fixes a small eigenvalue of A or of the whitened
    # product only to EPS times the largest, so the error bound of the
    # transport between the data carries their condition numbers; the
    # barycenter is better conditioned than either datum.
    for seed in range(20):
        a, b = _rotated_pair(n, 6.0, np.random.default_rng(1000 * n + seed))
        kappa = max(np.linalg.cond(a.mat), np.linalg.cond(b.mat))
        assert _transport_error(a, b) <= 1e-14 + EPS * kappa, seed
        bar = bw_barycenter([a, b], [0.5, 0.5])
        for m in (a, b):
            assert _transport_error(bar, m) <= 1e-12, seed
        assert _true_stationarity(bar, [a, b], [0.5, 0.5]) <= 1e-10, seed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geodesic_midpoints(n):
    # The pairs of test_rotated_pairs. The midpoint inherits the transport's
    # error through (I + T) A (I + T) / 4, so it is held to the transport's
    # bound; the errors measured stay below 7.4e-15.
    for seed in range(20):
        a, b = _rotated_pair(n, 6.0, np.random.default_rng(1000 * n + seed))
        kappa = max(np.linalg.cond(a.mat), np.linalg.cond(b.mat))
        am = _mp(a.mat)
        c = (mpmath.eye(n) + _ref_transport(am, _mp(b.mat))) / 2
        ref = c * am * c
        got = geodesic_eval(geodesic(a, b), 0.5).mat
        assert float(_fro(_mp(got) - ref) / _fro(ref)) <= 1e-14 + EPS * kappa, seed


def _near(a, rng):
    """E A E^T with E = I + 1e-5 G, G standard normal: a relative distance
    of about 1e-5 from A."""
    e = np.eye(a.dim) + 1e-5 * rng.standard_normal((a.dim, a.dim))
    return SpdMatrix(e @ a.mat @ e.T)


def _point_pair(n, spread, rng, near):
    """Two model points from _rotated_pair factors; with near, the second
    point's factors are _near copies of the first's."""
    u0, u1 = _rotated_pair(n, spread, rng)
    v0, v1 = _rotated_pair(n, spread, rng)
    if near:
        u1, v1 = _near(u0, rng), _near(v0, rng)
    return KroneckerPoint.from_factors(u0, v0), KroneckerPoint.from_factors(u1, v1)


def _factor_kappa(p0, p1):
    return max(
        np.linalg.cond(m.mat) for m in (p0.u_factor, p0.v_factor, p1.u_factor, p1.v_factor)
    )


# Factor spectra e^{U(-6, 6)} as in test_rotated_pairs, and the same draws
# with the second point 1e-5 from the first, where the distance cancels.
@pytest.mark.parametrize("near", [False, True], ids=["spread", "near"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_distance(n, near):
    # The cross term takes each factor's whitened spectrum to EPS times
    # its top, so the error is bounded relative to the trace sum.
    for seed in range(20):
        p0, p1 = _point_pair(n, 6.0, np.random.default_rng(1000 * n + seed), near)
        ref, tr_sum = _ref_reduced(p0, p1)
        d2 = pairwise_bures_sq_reduced(p0, p1)[0]
        bound = (1e-14 + EPS * _factor_kappa(p0, p1)) * tr_sum
        assert abs(mpmath.mpf(d2) - ref) <= bound, seed


@pytest.mark.parametrize("near", [False, True], ids=["spread", "near"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_whitened_factor_transports(n, near):
    # P = V0^-1/2 S_V V0^1/2 and Q = U0^-1/2 S_U U0^1/2, relative
    # Frobenius error; the similarity by the factor's root carries its
    # condition number as the transport's error bound does.
    for seed in range(20):
        p0, p1 = _point_pair(n, 6.0, np.random.default_rng(1000 * n + seed), near)
        ft = factor_transports(p0, p1)
        bound = 1e-14 + 4 * EPS * _factor_kappa(p0, p1)
        for got, a, b in (
            (ft.p_mat, p0.v_factor, p1.v_factor),
            (ft.q_mat, p0.u_factor, p1.u_factor),
        ):
            ref = _ref_similar(_mp(a.mat), _mp(b.mat))
            assert float(_fro(_mp(got) - ref) / _fro(ref)) <= bound, seed

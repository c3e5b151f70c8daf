"""Ambient transports and BW barycenters against a 60-digit reference.

The reference takes the float64 inputs as exact and forms
T = A^-1/2 (A^1/2 B A^1/2)^1/2 A^-1/2 from mpmath's symmetric
eigendecompositions at 60 significant digits; it shares no code with the
library.
"""

import mpmath
import numpy as np
import pytest

from kronbures import SpdMatrix, bw_barycenter, transport_map

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

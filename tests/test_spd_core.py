import warnings

import numpy as np
import pytest

from kronbures import (
    DimensionMismatch,
    KroneckerPoint,
    NotPositiveDefinite,
    SpdMatrix,
    embed,
    gauge_normalize,
    kron,
    log_det,
    partial_trace_1,
    partial_trace_2,
    pi_residual,
    spd_sqrt,
    symmetrize,
)
from kronbures.bures_metric import _root_factors
from kronbures.spd_core import PD_TOLERANCE, EigenDecomposition, _Deferred

from conftest import ORTHO_TOL, RECON_TOL, frob, rand_spd


class TestSpdMatrix:
    def test_symmetrized_on_construction(self):
        a = SpdMatrix([[2.0, 0.3], [0.1, 1.0]])
        assert np.array_equal(a.mat, a.mat.T)
        assert a.mat[0, 1] == 0.2

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix([[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_tiny_spectral_margin(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(np.diag([1.0, 1e-14]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SpdMatrix(np.ones((2, 3)))

    def test_entries_immutable(self):
        a = SpdMatrix(np.eye(3))
        with pytest.raises(ValueError):
            a.mat[0, 0] = 2.0

    SPECTRA = {
        "eager": lambda x: SpdMatrix(x),
        "deferred": lambda x: SpdMatrix(x, _eig=_Deferred(float("nan"), float("nan"))),
        "scaled": lambda x: SpdMatrix(x).scaled(2.0),
        "embedded": lambda x: embed(
            KroneckerPoint.from_factors(SpdMatrix(x), SpdMatrix(x))
        ),
    }

    @pytest.mark.parametrize("route", sorted(SPECTRA))
    def test_spectrum_immutable(self, route):
        # An edited cached spectrum would feed every later distance silently.
        a = self.SPECTRA[route](rand_spd(3, np.random.default_rng(7)).mat)
        eig = a.eig  # a deferred spectrum is formed on this first read
        for arr in (eig.eigenvalues, eig.eigenvectors):
            with pytest.raises(ValueError):
                arr[0] *= 1.1

    @pytest.mark.parametrize("seed", range(5))
    def test_eigendecomposition_contract(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(6, rng)
        w, q = a.eig.eigenvalues, a.eig.eigenvectors
        assert np.all(np.diff(w) <= 0)
        assert frob((q * w) @ q.T - a.mat) <= RECON_TOL * frob(a.mat)
        assert frob(q.T @ q - np.eye(6)) <= ORTHO_TOL


class TestSqrt:
    def test_identity(self):
        assert np.allclose(spd_sqrt(SpdMatrix.identity(3)), np.eye(3))

    def test_diagonal(self):
        s = spd_sqrt(SpdMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(s, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_multiply_back(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(8, rng)
        s = spd_sqrt(a)
        assert frob(s @ s - a.mat) <= 1e-12 * frob(a.mat)

    def test_multiply_back_ill_conditioned(self):
        # Condition numbers up to 1e8 stay within the 1e-12 contract.
        rng = np.random.default_rng(99)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        a = SpdMatrix((q * np.logspace(0, 8, 6)) @ q.T)
        s = spd_sqrt(a)
        assert frob(s @ s - a.mat) <= 1e-12 * frob(a.mat)

    # No inverse root A^-1/2 is formed: roots enter as the root factor
    # Y = Q L^1/2 of bures_metric._root_factors, with Y Y^T = A, and the
    # inverse only as Z = Q L^-1/2 = Y^-T, which transport_map,
    # factor_transports and bw_barycenter form by the same column scaling.

    def test_root_factor_identity_and_diag(self):
        assert np.array_equal(_root_factors(SpdMatrix.identity(4)), np.eye(4))
        y = _root_factors(SpdMatrix([[4.0]]))
        assert abs(y[0, 0]) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_root_factor_multiply_back(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rand_spd(7, rng)
        y = _root_factors(a)
        assert frob(y @ y.T - a.mat) <= 1e-11 * frob(a.mat)
        z = a.eig.eigenvectors / np.sqrt(a.eig.eigenvalues)
        assert frob(z.T @ a.mat @ z - np.eye(7)) <= 1e-11

    @pytest.mark.parametrize("root", [spd_sqrt])
    def test_exactly_symmetric_array(self, root):
        r = root(rand_spd(7, np.random.default_rng(300)))
        assert type(r) is np.ndarray
        assert np.array_equal(r, r.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_routes_agree(self, seed):
        # Z by the column scaling, against the inverse of Y.
        rng = np.random.default_rng(200 + seed)
        a = rand_spd(6, rng)
        z = a.eig.eigenvectors / np.sqrt(a.eig.eigenvalues)
        via_inverse = np.linalg.inv(_root_factors(a)).T
        assert frob(z - via_inverse) <= 1e-10 * frob(z)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([3.0, 1.0]), np.diag([2.0, 0.5]))
        assert np.allclose(got, np.diag([6.0, 1.5, 2.0, 0.5]))

    def test_block_convention(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        k = kron(a, b)
        assert np.array_equal(k[:2, 2:4], a[0, 1] * b)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_is_products(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(2, rng), rand_spd(2, rng)
        got = np.sort(np.linalg.eigvalsh(kron(a.mat, b.mat)))
        expected = np.sort(np.outer(a.eig.eigenvalues, b.eig.eigenvalues).ravel())
        assert np.allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_product(self, n):
        rng = np.random.default_rng(n)
        a, b, c, d = (rng.standard_normal((n, n)) for _ in range(4))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            kron(np.ones((2, 3)), np.eye(2))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1), (2, 5), (8, 8), (5, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_numpy_kron(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * np.exp(4.0 * rng.standard_normal((n, n)))
        b = rng.standard_normal((m, m)) * np.exp(4.0 * rng.standard_normal((m, m)))
        got = kron(a, b)
        assert got.shape == (n * m, n * m)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.kron(a, b))

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.eye(2), np.ones((2, 3))),
            (np.ones((1, 2)), np.eye(1)),
            (np.ones(3), np.eye(3)),
            (np.eye(2), np.ones((2, 2, 2))),
            (np.zeros((0, 0)), np.eye(2)),
            (np.eye(2), np.zeros((0, 0))),
        ],
    )
    def test_rejects_non_square_either_side(self, a, b):
        with pytest.raises(DimensionMismatch):
            kron(a, b)


class TestPartialTraces:
    @pytest.mark.parametrize("seed", range(5))
    def test_kron_identities(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rand_spd(3, rng), rand_spd(3, rng)
        k = kron(v.mat, u.mat)
        assert frob(partial_trace_1(k) - v.trace() * u.mat) <= 1e-12 * frob(k)
        assert frob(partial_trace_2(k) - u.trace() * v.mat) <= 1e-12 * frob(k)

    def test_identity(self):
        assert np.array_equal(partial_trace_1(np.eye(4)), 2.0 * np.eye(2))
        assert np.array_equal(partial_trace_2(np.eye(4)), 2.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identity(self, seed):
        rng = np.random.default_rng(50 + seed)
        k = rng.standard_normal((9, 9))
        k = 0.5 * (k + k.T)
        assert np.trace(partial_trace_1(k)) == pytest.approx(np.trace(k), rel=1e-13)
        assert np.trace(partial_trace_2(k)) == pytest.approx(np.trace(k), rel=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 16, 16))
        for ptrace in (partial_trace_1, partial_trace_2):
            got = ptrace(2.0 * x + 3.0 * y)
            assert np.allclose(got, 2.0 * ptrace(x) + 3.0 * ptrace(y))

    def test_dimension_mismatch(self):
        # The matrix fixes n: only an n^2 x n^2 matrix, n >= 1, has blocks.
        cases = [
            (partial_trace_1, np.eye(6)),
            (partial_trace_2, np.ones((4, 9))),
            (pi_residual, np.eye(3)),
            (partial_trace_1, np.zeros((0, 0))),
            (partial_trace_2, np.ones((2, 4, 4))),
        ]
        for fn, k in cases:
            with pytest.raises(DimensionMismatch):
                fn(k)


class TestGaugeNormalize:
    def test_already_normalized(self):
        u, v = gauge_normalize(SpdMatrix.identity(3), SpdMatrix(np.diag([2.0, 3.0, 4.0])))
        assert np.allclose(u.mat, np.eye(3))
        assert np.allclose(v.mat, np.diag([2.0, 3.0, 4.0]))

    def test_scalar_factor(self):
        u, v = gauge_normalize(SpdMatrix(4.0 * np.eye(2)), SpdMatrix(np.diag([1.0, 2.0])))
        assert np.allclose(u.mat, np.eye(2))
        assert np.allclose(v.mat, 4.0 * np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_kron_reconstruction(self, seed):
        rng = np.random.default_rng(300 + seed)
        u0, v0 = rand_spd(4, rng), rand_spd(4, rng)
        u, v = gauge_normalize(u0, v0)
        assert abs(log_det(u)) <= 1e-12 * 4
        before = kron(v0.mat, u0.mat)
        after = kron(v.mat, u.mat)
        assert frob(after - before) <= 1e-12 * frob(before)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        u, v = gauge_normalize(rand_spd(5, rng), rand_spd(5, rng))
        u2, v2 = gauge_normalize(u, v)
        assert frob(u2.mat - u.mat) <= 1e-13 * frob(u.mat)
        assert frob(v2.mat - v.mat) <= 1e-13 * frob(v.mat)

    def test_log_space_determinant_large_n(self):
        # exp(sum of logs) must not overflow at n = 128.
        big = SpdMatrix(100.0 * np.eye(128))
        u, _ = gauge_normalize(big, SpdMatrix.identity(128))
        assert np.allclose(u.mat, np.eye(128))


def test_symmetrize_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((4, 2, 3)))
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((2, 2, 3, 3)))


def test_symmetrize_stack_matches_each_matrix():
    stack = np.random.default_rng(3).standard_normal((4, 3, 3))
    sym = symmetrize(stack)
    for i in range(4):
        assert np.array_equal(sym[i], symmetrize(stack[i]))


@pytest.mark.parametrize("n", [2, 200])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_symmetrize_does_not_overflow_on_finite_entries(action, n):
    # 0.5 * (A + A^T) overflowed here: RuntimeWarning under the "error"
    # filter, and NotPositiveDefinite("non-finite entries") for the finite
    # 1e308 I under the default one. n = 200 takes the halved-sum route.
    near_max = np.full((n, n), 1e308)
    near_max[0, 1], near_max[1, 0] = 1.7e308, 1.6e308
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        sym = symmetrize(near_max)
        big = SpdMatrix(1e308 * np.eye(n))
    assert sym[0, 1] == sym[1, 0] and abs(sym[0, 1] - 1.65e308) <= 1e-15 * 1.65e308
    sym[0, 1] = sym[1, 0] = 1e308
    assert np.all(sym == 1e308)
    assert np.array_equal(big.mat, 1e308 * np.eye(n))
    assert np.all(big.eig.eigenvalues == 1e308)


@pytest.mark.parametrize("n", [6, 200])
def test_symmetrize_routes_agree_outside_the_subnormal_range(n):
    # The summed halves and the halved sum give the same bits wherever no
    # entry is subnormal, on either side of the elision size.
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e300):
        a = scale * rng.standard_normal((n, n))
        assert np.array_equal(symmetrize(a), 0.5 * (a + a.T))
        assert np.array_equal(symmetrize(a), 0.5 * a + 0.5 * a.T)


def test_supplied_spectrum_keeps_every_check():
    # Entries passed with their spectrum are taken as given, but the shape,
    # finiteness and margin checks still run.
    a = rand_spd(4, np.random.default_rng(4))
    assert np.array_equal(a.scaled(3.0).mat, 3.0 * a.mat)
    for c in (0.0, -2.0):
        with pytest.raises(NotPositiveDefinite, match="scale factor"):
            a.scaled(c)
    with pytest.raises(DimensionMismatch):
        SpdMatrix(np.ones((2, 3)), _eig=a.eig)
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(np.full((4, 4), np.nan), _eig=a.eig)
    thin = EigenDecomposition(np.array([1.0, 1e-14]), np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(np.diag([1.0, 1e-14]), _eig=thin)


NAN = float("nan")


class TestEigenvalueValidatedRoute:
    """SpdMatrix(x, _eig=_Deferred(NAN, NAN)) validates x by eigvalsh and
    computes eig on its first read."""

    @pytest.mark.parametrize("seed", range(5))
    def test_eig_bitwise_equal_to_eager(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 6))
        x = m @ m.T + 0.1 * np.eye(6)
        lazy = SpdMatrix(x, _eig=_Deferred(NAN, NAN))
        eager = SpdMatrix(lazy.mat)
        assert np.array_equal(lazy.mat, eager.mat)
        assert np.array_equal(lazy.eig.eigenvalues, eager.eig.eigenvalues)
        assert np.array_equal(lazy.eig.eigenvectors, eager.eig.eigenvectors)
        assert lazy.eig is lazy.eig

    def test_symmetrized_and_immutable(self):
        a = SpdMatrix([[2.0, 0.3], [0.1, 1.0]], _eig=_Deferred(NAN, NAN))
        assert a.mat[0, 1] == a.mat[1, 0] == 0.2
        with pytest.raises(ValueError):
            a.mat[0, 0] = 2.0

    @pytest.mark.parametrize(
        "entries",
        [
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            np.diag([1.0, 1e-14]),
            np.diag([1.0, -1.0]),
            -np.eye(2),
        ],
    )
    def test_rejects_what_the_eager_route_rejects(self, entries):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(entries)
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(entries, _eig=_Deferred(NAN, NAN))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SpdMatrix(np.ones((2, 3)), _eig=_Deferred(NAN, NAN))


def eigvalsh_calls(monkeypatch, fn) -> int:
    """Number of eigvalsh calls made by fn()."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *rest, **kw):
        calls.append(None)
        return eigvalsh(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return len(calls)


class TestBoundedDeferredRoute:
    """SpdMatrix(x, _eig=_Deferred(lower, upper)) skips the eigvalsh when the
    bounds prove the margin, and is the eigvalsh route otherwise."""

    def _spd(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5))
        x = m @ m.T + 0.1 * np.eye(5)
        w = np.linalg.eigvalsh(x)
        return x, float(w[0]), float(w[-1])

    def test_proved_margin_runs_no_eigvalsh(self, monkeypatch):
        x, lo, hi = self._spd()
        bounds = _Deferred(lo, hi)
        assert bounds.proves_margin(5)
        assert eigvalsh_calls(monkeypatch, lambda: SpdMatrix(x, _eig=bounds)) == 0
        a, eager = SpdMatrix(x, _eig=bounds), SpdMatrix(x)
        assert np.array_equal(a.mat, eager.mat)
        assert np.array_equal(a.eig.eigenvalues, eager.eig.eigenvalues)
        assert np.array_equal(a.eig.eigenvectors, eager.eig.eigenvectors)

    @pytest.mark.parametrize(
        "bounds",
        [_Deferred(NAN, NAN), _Deferred(NAN, 2.0), _Deferred(1.0, NAN),
         _Deferred(1e-15, 1.0), _Deferred(-1.0, -2.0), _Deferred(np.inf, np.inf),
         _Deferred(0.5, 1e-310)],
    )
    def test_undecided_bounds_run_one_eigvalsh(self, monkeypatch, bounds):
        x, _, _ = self._spd()
        assert not bounds.proves_margin(5)
        assert eigvalsh_calls(monkeypatch, lambda: SpdMatrix(x, _eig=bounds)) == 1
        want = SpdMatrix(x, _eig=_Deferred(NAN, NAN)).mat
        assert np.array_equal(SpdMatrix(x, _eig=bounds).mat, want)

    @pytest.mark.parametrize(
        "entries", [np.diag([1.0, 1e-14]), np.diag([1.0, -1.0]), -np.eye(2)]
    )
    @pytest.mark.parametrize("bounds", [_Deferred(NAN, 1.0), _Deferred(0.0, 1.0)])
    def test_undecided_bounds_raise_what_eigvalsh_raises(self, entries, bounds):
        with pytest.raises(NotPositiveDefinite) as want:
            SpdMatrix(entries, _eig=_Deferred(NAN, NAN))
        with pytest.raises(NotPositiveDefinite) as got:
            SpdMatrix(entries, _eig=bounds)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("k, proved", [(2.0, True), (0.5, False)])
    def test_slack_gate_boundary(self, monkeypatch, n, k, proved):
        # The margin is proved only above (PD_TOLERANCE + 64 N eps) * upper:
        # a lower bound half the 64 N eps slack above PD_TOLERANCE decides
        # nothing, one twice the slack above it proves the margin.
        r = PD_TOLERANCE + k * 64 * n * np.finfo(float).eps
        bounds = _Deferred(r, 1.0)
        assert bounds.proves_margin(n) == proved
        x = self._spd()[0] if n == 5 else np.diag(np.linspace(1.0, 2.0, n))
        calls = eigvalsh_calls(monkeypatch, lambda: SpdMatrix(x, _eig=bounds))
        assert calls == (0 if proved else 1)

    def test_non_finite_raises_before_the_bounds_are_read(self, monkeypatch):
        def unread(self, n):
            raise AssertionError("bounds read before the finiteness test")

        monkeypatch.setattr(_Deferred, "proves_margin", unread)
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            SpdMatrix([[1.0, np.nan], [np.nan, 1.0]], _eig=_Deferred(1.0, 1.0))

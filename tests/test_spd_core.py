import numpy as np
import pytest

from kronbures import (
    DimensionMismatch,
    NotPositiveDefinite,
    SpdMatrix,
    gauge_normalize,
    kron,
    log_det,
    partial_trace_1,
    partial_trace_2,
    spd_inv_sqrt,
    spd_sqrt,
    symmetrize,
)
from kronbures.spd_core import ORTHO_TOL, RECON_TOL

from conftest import frob, rand_spd


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

    def test_inv_sqrt_identity_and_diag(self):
        assert np.allclose(spd_inv_sqrt(SpdMatrix.identity(4)), np.eye(4))
        r = spd_inv_sqrt(SpdMatrix([[4.0]]))
        assert r[0, 0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_inv_sqrt_multiply_back(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rand_spd(7, rng)
        r = spd_inv_sqrt(a)
        assert frob(r @ a.mat @ r - np.eye(7)) <= 1e-11

    @pytest.mark.parametrize("root", [spd_sqrt, spd_inv_sqrt])
    def test_exactly_symmetric_array(self, root):
        r = root(rand_spd(7, np.random.default_rng(300)))
        assert type(r) is np.ndarray
        assert np.array_equal(r, r.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_routes_agree(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = rand_spd(6, rng)
        via_inverse = np.linalg.inv(spd_sqrt(a))
        direct = spd_inv_sqrt(a)
        assert frob(direct - via_inverse) <= 1e-10 * frob(direct)


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


class TestPartialTraces:
    @pytest.mark.parametrize("seed", range(5))
    def test_kron_identities(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rand_spd(3, rng), rand_spd(3, rng)
        k = kron(v.mat, u.mat)
        assert frob(partial_trace_1(k, 3) - v.trace() * u.mat) <= 1e-12 * frob(k)
        assert frob(partial_trace_2(k, 3) - u.trace() * v.mat) <= 1e-12 * frob(k)

    def test_identity(self):
        assert np.array_equal(partial_trace_1(np.eye(4), 2), 2.0 * np.eye(2))
        assert np.array_equal(partial_trace_2(np.eye(4), 2), 2.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identity(self, seed):
        rng = np.random.default_rng(50 + seed)
        k = rng.standard_normal((9, 9))
        k = 0.5 * (k + k.T)
        assert np.trace(partial_trace_1(k, 3)) == pytest.approx(np.trace(k), rel=1e-13)
        assert np.trace(partial_trace_2(k, 3)) == pytest.approx(np.trace(k), rel=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 16, 16))
        for ptrace in (partial_trace_1, partial_trace_2):
            got = ptrace(2.0 * x + 3.0 * y, 4)
            assert np.allclose(got, 2.0 * ptrace(x, 4) + 3.0 * ptrace(y, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_1(np.eye(6), 2)


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

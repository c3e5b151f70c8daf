import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from kronbures import (
    DimensionMismatch,
    KroneckerPoint,
    NotCommuting,
    ParameterOutOfRange,
    SpdMatrix,
    bures_distance_sq,
    commuting_geodesic_eval,
    embed,
    gaussian_w2_sq,
    geodesic,
    geodesic_eval,
    pairwise_bures_sq_reduced,
    recover_factors,
    spd_sqrt,
    transport_map,
)
from kronbures.bench_cli import gen_spd

from conftest import PROPERTY_SETTINGS, frob, rand_orthogonal, rand_spd


def commuting_pair(n, rng):
    q = rand_orthogonal(n, rng)
    wa = np.exp(rng.standard_normal(n))
    wb = np.exp(rng.standard_normal(n))
    return SpdMatrix((q * wa) @ q.T), SpdMatrix((q * wb) @ q.T), wa, wb


class TestDistance:
    def test_coincident(self):
        a = rand_spd(4, np.random.default_rng(0))
        assert bures_distance_sq(a, a) <= 1e-12 * a.trace()

    def test_scalar_case(self):
        d2 = bures_distance_sq(SpdMatrix([[1.0]]), SpdMatrix([[4.0]]))
        assert d2 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_commuting_oracle(self, seed):
        # Jointly diagonal endpoints: d^2 = sum (sqrt(wa) - sqrt(wb))^2.
        rng = np.random.default_rng(seed)
        a, b, wa, wb = commuting_pair(4, rng)
        expected = float(np.sum((np.sqrt(wa) - np.sqrt(wb)) ** 2))
        assert bures_distance_sq(a, b) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(10 + seed)
        a, b = rand_spd(5, rng), rand_spd(5, rng)
        d_ab = bures_distance_sq(a, b)
        d_ba = bures_distance_sq(b, a)
        assert abs(d_ab - d_ba) <= 1e-10 * max(d_ab, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(20 + seed)
        a, b, c = (rand_spd(4, rng) for _ in range(3))
        d = lambda x, y: np.sqrt(bures_distance_sq(x, y))
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-9

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 6),
        log_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sqrtm_reference(self, n, log_scale, seed):
        # An independent route through scipy's Schur-based sqrtm, sharing
        # none of the whitened-product code.
        rng = np.random.default_rng(seed)
        a, b = rand_spd(n, rng, log_scale), rand_spd(n, rng, log_scale)
        s = scipy.linalg.sqrtm(a.mat).real
        cross = np.trace(scipy.linalg.sqrtm(s @ b.mat @ s)).real
        tr_sum = a.trace() + b.trace()
        assert abs(bures_distance_sq(a, b) - (tr_sum - 2.0 * cross)) <= 1e-10 * tr_sum

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bures_distance_sq(SpdMatrix.identity(2), SpdMatrix.identity(3))


class TestTransport:
    def test_identity_endpoints(self):
        a = rand_spd(4, np.random.default_rng(1))
        t = transport_map(a, a)
        assert frob(t.mat - np.eye(4)) <= 1e-12

    def test_from_identity(self):
        b = rand_spd(4, np.random.default_rng(2))
        t = transport_map(SpdMatrix.identity(4), b)
        assert frob(t.mat - spd_sqrt(b)) <= 1e-12 * frob(b.mat)

    @pytest.mark.parametrize("seed", range(6))
    def test_defining_property(self, seed):
        rng = np.random.default_rng(30 + seed)
        a, b = rand_spd(5, rng), rand_spd(5, rng)
        t = transport_map(a, b).mat
        assert frob(t @ a.mat @ t - b.mat) <= 1e-10 * frob(b.mat)

    @pytest.mark.parametrize("seed", range(4))
    def test_both_directions(self, seed):
        rng = np.random.default_rng(40 + seed)
        a, b = rand_spd(4, rng), rand_spd(4, rng)
        t_ab = transport_map(a, b).mat
        t_ba = transport_map(b, a).mat
        assert frob(t_ab @ a.mat @ t_ab - b.mat) <= 1e-10 * frob(b.mat)
        assert frob(t_ba @ b.mat @ t_ba - a.mat) <= 1e-10 * frob(a.mat)

    def test_ill_conditioned_whitened_product(self):
        # On a row leaf, A^1/2 B A^1/2 = (V0^1/2 V1 V0^1/2) (x) U^2 squares the
        # conditioning of U and falls below the SPD margin (about 8.9e-14
        # here), while T and the geodesic stay well conditioned.
        rng = np.random.default_rng(1)
        p0 = KroneckerPoint.from_factors(gen_spd(16, rng), gen_spd(16, rng))
        p1 = KroneckerPoint(p0.u_factor, gen_spd(16, rng))
        k0, k1 = embed(p0), embed(p1)
        t = transport_map(k0, k1).mat
        assert frob(t @ k0.mat @ t - k1.mat) <= 1e-10 * frob(k1.mat)
        mid = recover_factors(geodesic_eval(geodesic(k0, k1), 0.5))
        d2, _ = pairwise_bures_sq_reduced(p0, p1)
        for p in (p0, p1):
            half, _ = pairwise_bures_sq_reduced(p, mid)
            assert abs(half - d2 / 4.0) <= 1e-11 * d2


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(3)
        a, b = rand_spd(4, rng), rand_spd(4, rng)
        curve = geodesic(a, b)
        assert frob(geodesic_eval(curve, 0.0).mat - a.mat) <= 1e-10 * frob(a.mat)
        assert frob(geodesic_eval(curve, 1.0).mat - b.mat) <= 1e-10 * frob(b.mat)

    def test_constant_curve(self):
        a = rand_spd(3, np.random.default_rng(4))
        curve = geodesic(a, a)
        for t in (0.2, 0.7):
            assert frob(geodesic_eval(curve, t).mat - a.mat) <= 1e-11 * frob(a.mat)

    def test_scalar_midpoint(self):
        curve = geodesic(SpdMatrix([[1.0]]), SpdMatrix([[9.0]]))
        mid = geodesic_eval(curve, 0.5)
        assert mid.mat[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_spd_along_grid(self):
        rng = np.random.default_rng(5)
        curve = geodesic(rand_spd(4, rng), rand_spd(4, rng))
        for t in np.linspace(0.0, 1.0, 101):
            assert np.all(geodesic_eval(curve, t).eig.eigenvalues > 0)

    def test_parameter_range(self):
        a = SpdMatrix.identity(2)
        with pytest.raises(ParameterOutOfRange):
            geodesic_eval(geodesic(a, a), 1.5)


class TestCommutingGeodesic:
    def test_diagonal_entrywise(self):
        a = SpdMatrix(np.diag([1.0, 4.0]))
        b = SpdMatrix(np.diag([9.0, 16.0]))
        t = 0.3
        got = commuting_geodesic_eval(a, b, t)
        expected = ((1 - t) * np.sqrt([1.0, 4.0]) + t * np.sqrt([9.0, 16.0])) ** 2
        assert np.allclose(np.diag(got.mat), expected)

    def test_isotropic_midpoint(self):
        got = commuting_geodesic_eval(SpdMatrix.identity(2), SpdMatrix(9.0 * np.eye(2)), 0.5)
        assert np.allclose(got.mat, 4.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_general_formula(self, seed):
        rng = np.random.default_rng(60 + seed)
        a, b, _, _ = commuting_pair(4, rng)
        curve = geodesic(a, b)
        for t in (0.25, 0.5, 0.75):
            fast = commuting_geodesic_eval(a, b, t).mat
            general = geodesic_eval(curve, t).mat
            assert frob(fast - general) <= 1e-9 * frob(general)

    def test_rejects_noncommuting(self):
        a = SpdMatrix(np.diag([2.0, 0.5]))
        b = SpdMatrix(np.array([[1.25, 0.75], [0.75, 1.25]]))
        with pytest.raises(NotCommuting):
            commuting_geodesic_eval(a, b, 0.5)


class TestGaussianW2:
    def test_equal_laws(self):
        k = rand_spd(3, np.random.default_rng(6))
        assert gaussian_w2_sq(np.zeros(3), k, np.zeros(3), k) <= 1e-12 * k.trace()

    def test_mean_shift_only(self):
        k = rand_spd(3, np.random.default_rng(7))
        m1 = np.array([1.0, 0.0, 0.0])
        assert gaussian_w2_sq(np.zeros(3), k, m1, k) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_w2_sq(np.zeros(2), SpdMatrix.identity(3), np.zeros(2), SpdMatrix.identity(3))


def spd_builds(monkeypatch, fn, *args) -> int:
    """Number of SpdMatrix constructions made by fn(*args)."""
    calls = []
    init = SpdMatrix.__init__

    def counting(self, *a, **kw):
        calls.append(None)
        init(self, *a, **kw)

    monkeypatch.setattr(SpdMatrix, "__init__", counting)
    try:
        fn(*args)
    finally:
        monkeypatch.undo()
    return len(calls)


class TestSpdConstructions:
    """SpdMatrix wraps only matrices the library asserts are SPD: roots and
    whitened products stay arrays, and a transport builds only T."""

    def test_reduced_distance_builds_none(self, monkeypatch):
        rng = np.random.default_rng(70)
        p0 = KroneckerPoint.from_factors(rand_spd(4, rng), rand_spd(4, rng))
        p1 = KroneckerPoint.from_factors(rand_spd(4, rng), rand_spd(4, rng))
        assert spd_builds(monkeypatch, pairwise_bures_sq_reduced, p0, p1) == 0

    def test_ambient_distance_builds_none(self, monkeypatch):
        rng = np.random.default_rng(71)
        a, b = rand_spd(5, rng), rand_spd(5, rng)
        assert spd_builds(monkeypatch, bures_distance_sq, a, b) == 0

    def test_transport_builds_only_t(self, monkeypatch):
        rng = np.random.default_rng(72)
        a, b = rand_spd(5, rng), rand_spd(5, rng)
        assert spd_builds(monkeypatch, transport_map, a, b) == 1
        assert isinstance(transport_map(a, b), SpdMatrix)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronbures import (
    DimensionMismatch,
    GaugeViolation,
    KroneckerPoint,
    LeafKind,
    MatrixNormalLaw,
    NotInModel,
    NotOnLeaf,
    NumericalConsistencyError,
    SpdMatrix,
    bures_distance_sq,
    col_leaf,
    commuting_geodesic_eval,
    embed,
    gauge_normalize,
    gaussian_w2_sq,
    geodesic,
    geodesic_eval,
    homothety_distance,
    leaf_geodesic,
    leaf_membership,
    matrix_normal_w2_sq,
    pairwise_bures_sq_reduced,
    point_from_json,
    point_to_json,
    recover_factors,
    row_leaf,
)
from kronbures import kron_model
from kronbures.kron_model import leaf_factor, leaf_point

from conftest import PROPERTY_SETTINGS, frob, leaf_pair, leaf_pairs, rand_point, rand_spd


class TestPoint:
    def test_gauge_enforced(self):
        with pytest.raises(GaugeViolation):
            KroneckerPoint(SpdMatrix(2.0 * np.eye(2)), SpdMatrix.identity(2))

    def test_from_factors_normalizes(self):
        p = KroneckerPoint.from_factors(SpdMatrix(3.0 * np.eye(2)), SpdMatrix.identity(2))
        assert np.allclose(p.u_factor.mat, np.eye(2))
        assert np.allclose(p.v_factor.mat, 3.0 * np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(3))


class TestEmbedRecover:
    def test_embed_identity(self):
        p = KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(2))
        assert np.array_equal(embed(p).mat, np.eye(4))

    def test_embed_diagonal(self):
        p = KroneckerPoint(
            SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([3.0, 1.0]))
        )
        assert np.allclose(embed(p).mat, np.diag([6.0, 1.5, 2.0, 0.5]))

    def test_recover_identity(self):
        p = recover_factors(SpdMatrix.identity(4))
        assert np.allclose(p.u_factor.mat, np.eye(2))
        assert np.allclose(p.v_factor.mat, np.eye(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        p = rand_point(3, rng)
        q = recover_factors(embed(p))
        assert frob(q.u_factor.mat - p.u_factor.mat) <= 1e-11 * frob(p.u_factor.mat)
        assert frob(q.v_factor.mat - p.v_factor.mat) <= 1e-11 * frob(p.v_factor.mat)

    def test_off_model_rejected(self):
        rng = np.random.default_rng(42)
        k = embed(rand_point(2, rng)).mat.copy()
        w = rng.standard_normal(4)
        k += 0.1 * np.outer(w, w) / np.dot(w, w)
        with pytest.raises(NotInModel):
            recover_factors(SpdMatrix(k))

    def test_non_square_dimension(self):
        with pytest.raises(DimensionMismatch):
            recover_factors(SpdMatrix.identity(6))


class TestPairwiseReduction:
    def test_coincident(self):
        p = rand_point(3, np.random.default_rng(1))
        d2, _ = pairwise_bures_sq_reduced(p, p)
        assert d2 <= 1e-12 * p.u_factor.trace() * p.v_factor.trace()

    def test_example_pair(self):
        p0 = KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(2))
        p1 = KroneckerPoint(
            SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([3.0, 1.0]))
        )
        reduced, spectrum = pairwise_bures_sq_reduced(p0, p1)
        ambient = bures_distance_sq(embed(p0), embed(p1))
        assert abs(reduced - ambient) <= 1e-12 * ambient
        assert np.allclose(np.sort(spectrum.alpha), [1.0, 3.0])
        assert np.allclose(np.sort(spectrum.beta), [0.5, 2.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_matches_ambient(self, n):
        # Reduced and ambient routes agree to 1e-12 relative over 20 pairs.
        for seed in range(20):
            rng = np.random.default_rng(1000 * n + seed)
            p0, p1 = rand_point(n, rng), rand_point(n, rng)
            reduced, _ = pairwise_bures_sq_reduced(p0, p1)
            ambient = bures_distance_sq(embed(p0), embed(p1))
            assert abs(reduced - ambient) <= 1e-12 * ambient

    def test_scaling_consistency(self):
        rng = np.random.default_rng(5)
        u, v = rand_spd(3, rng), rand_spd(3, rng)
        c = 2.7
        left = embed(KroneckerPoint(*gauge_normalize(u.scaled(c), v)))
        right = embed(KroneckerPoint(*gauge_normalize(u, v.scaled(c))))
        assert frob(left.mat - right.mat) <= 1e-12 * frob(left.mat)

    def test_deficit_beyond_round_off_raises(self, monkeypatch):
        # Inflated whitened spectra push the cross term past the trace sum,
        # the failure bures_distance_sq reports for the ambient formula.
        spectrum = kron_model._whitened_spectrum
        monkeypatch.setattr(
            kron_model, "_whitened_spectrum", lambda a0, a1: 4.0 * spectrum(a0, a1)
        )
        p = rand_point(3, np.random.default_rng(23))
        with pytest.raises(NumericalConsistencyError):
            pairwise_bures_sq_reduced(p, p)


class TestMatrixNormal:
    def test_equal_laws(self):
        p = rand_point(3, np.random.default_rng(2))
        law = MatrixNormalLaw(mean=np.zeros((3, 3)), point=p)
        assert matrix_normal_w2_sq(law, law) <= 1e-12 * p.u_factor.trace() * p.v_factor.trace()

    def test_mean_shift(self):
        p = rand_point(2, np.random.default_rng(3))
        m1 = np.zeros((2, 2))
        m1[0, 0] = 1.0
        l0 = MatrixNormalLaw(mean=np.zeros((2, 2)), point=p)
        l1 = MatrixNormalLaw(mean=m1, point=p)
        assert matrix_normal_w2_sq(l0, l1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_vectorized_gaussian(self, seed):
        rng = np.random.default_rng(30 + seed)
        p0, p1 = rand_point(2, rng), rand_point(2, rng)
        m0, m1 = rng.standard_normal((2, 2, 2))
        got = matrix_normal_w2_sq(
            MatrixNormalLaw(mean=m0, point=p0), MatrixNormalLaw(mean=m1, point=p1)
        )
        # vec stacks columns; the Frobenius distance is unchanged either way.
        expected = gaussian_w2_sq(m0.ravel(), embed(p0), m1.ravel(), embed(p1))
        assert got == pytest.approx(expected, rel=1e-11)


class TestLeafMembership:
    def test_anchor_point(self):
        rng = np.random.default_rng(4)
        u = rand_spd(3, rng, normalized=True)
        v = rand_spd(3, rng)
        p = KroneckerPoint(u, v)
        assert leaf_membership(row_leaf(u), p)
        assert leaf_membership(col_leaf(v), p)

    def test_col_scalar_multiple(self):
        rng = np.random.default_rng(5)
        u = rand_spd(3, rng, normalized=True)
        v = rand_spd(3, rng)
        p = KroneckerPoint(u, v.scaled(3.0))
        assert leaf_membership(col_leaf(v), p)

    def test_nonclosure_example_shares_no_leaf(self):
        p0 = KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(2))
        p1 = KroneckerPoint(
            SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([3.0, 1.0]))
        )
        for leaf in (
            row_leaf(p0.u_factor),
            row_leaf(p1.u_factor),
            col_leaf(p0.v_factor),
            col_leaf(p1.v_factor),
        ):
            assert not (leaf_membership(leaf, p0) and leaf_membership(leaf, p1))


def _row_leaf_pair(n, rng):
    return leaf_pair(LeafKind.ROW, n, rng)


def _col_leaf_pair(n, rng):
    return leaf_pair(LeafKind.COL, n, rng)


class TestLeafChart:
    def test_row_factor_is_v(self):
        leaf, p0, _ = _row_leaf_pair(3, np.random.default_rng(20))
        assert leaf_factor(leaf, p0) is p0.v_factor

    def test_col_factor_absorbs_scale(self):
        rng = np.random.default_rng(21)
        u = rand_spd(3, rng, normalized=True)
        v_star = rand_spd(3, rng)
        m = leaf_factor(col_leaf(v_star), KroneckerPoint(u, v_star.scaled(2.5)))
        assert frob(m.mat - 2.5 * u.mat) <= 1e-14 * frob(u.mat)

    def test_off_leaf(self):
        rng = np.random.default_rng(22)
        leaf, _, _ = _col_leaf_pair(2, rng)
        with pytest.raises(NotOnLeaf):
            leaf_factor(leaf, rand_point(2, rng))

    @PROPERTY_SETTINGS
    @given(leaf_pairs())
    def test_round_trip(self, pair):
        leaf, p0, p1 = pair
        for p in (p0, p1):
            q = leaf_point(leaf, leaf_factor(leaf, p))
            assert frob(embed(q).mat - embed(p).mat) <= 1e-12 * frob(embed(p).mat)

    @PROPERTY_SETTINGS
    @given(leaf_pairs())
    def test_homothety_matches_reduced(self, pair):
        leaf, p0, p1 = pair
        d2, _ = pairwise_bures_sq_reduced(p0, p1)
        scale = embed(p0).trace() + embed(p1).trace()
        assert abs(homothety_distance(leaf, p0, p1) - d2) <= 1e-12 * scale

    @PROPERTY_SETTINGS
    @given(leaf_pairs(), st.floats(0.0, 1.0))
    def test_geodesic_matches_ambient(self, pair, t):
        leaf, p0, p1 = pair
        got = embed(leaf_geodesic(leaf, p0, p1, t)).mat
        ambient = geodesic_eval(geodesic(embed(p0), embed(p1)), t).mat
        assert frob(got - ambient) <= 1e-11 * frob(ambient)


class TestLeafGeodesic:
    @pytest.mark.parametrize("make", [_row_leaf_pair, _col_leaf_pair])
    def test_endpoints(self, make):
        leaf, p0, p1 = make(3, np.random.default_rng(6))
        for t, p in ((0.0, p0), (1.0, p1)):
            q = leaf_geodesic(leaf, p0, p1, t)
            assert frob(embed(q).mat - embed(p).mat) <= 1e-9 * frob(embed(p).mat)

    def test_row_leaf_commuting_factor_curve(self):
        rng = np.random.default_rng(7)
        u_star = rand_spd(2, rng, normalized=True)
        v0 = SpdMatrix(np.diag([1.0, 4.0]))
        v1 = SpdMatrix(np.diag([9.0, 1.0]))
        leaf = row_leaf(u_star)
        p0, p1 = KroneckerPoint(u_star, v0), KroneckerPoint(u_star, v1)
        for t in (0.25, 0.5, 0.75):
            got = leaf_geodesic(leaf, p0, p1, t).v_factor.mat
            expected = commuting_geodesic_eval(v0, v1, t).mat
            assert frob(got - expected) <= 1e-10 * frob(expected)

    def test_col_leaf_isotropic_scalar_law(self):
        n = 2
        a0, a1 = 1.0, 9.0
        leaf = col_leaf(SpdMatrix.identity(n))
        p0 = KroneckerPoint(SpdMatrix.identity(n), SpdMatrix.identity(n).scaled(a0))
        p1 = KroneckerPoint(SpdMatrix.identity(n), SpdMatrix.identity(n).scaled(a1))
        t = 0.5
        q = leaf_geodesic(leaf, p0, p1, t)
        alpha_t = ((1 - t) * np.sqrt(a0) + t * np.sqrt(a1)) ** 2
        assert np.allclose(q.v_factor.mat, alpha_t * np.eye(n))

    @pytest.mark.parametrize("make", [_row_leaf_pair, _col_leaf_pair])
    def test_stays_on_leaf_and_matches_ambient(self, make):
        leaf, p0, p1 = make(2, np.random.default_rng(8))
        curve = geodesic(embed(p0), embed(p1))
        for t in np.linspace(0.0, 1.0, 101):
            q = leaf_geodesic(leaf, p0, p1, float(t))
            assert leaf_membership(leaf, q)
            ambient = geodesic_eval(curve, float(t)).mat
            assert frob(embed(q).mat - ambient) <= 1e-9 * frob(ambient)

    def test_not_on_leaf(self):
        rng = np.random.default_rng(9)
        leaf, p0, _ = _row_leaf_pair(2, rng)
        stranger = rand_point(2, rng)
        with pytest.raises(NotOnLeaf):
            leaf_geodesic(leaf, p0, stranger, 0.5)


class TestHomothety:
    def test_coincident(self):
        leaf, p0, _ = _row_leaf_pair(3, np.random.default_rng(10))
        scale = leaf.anchor.trace() * p0.v_factor.trace()
        assert homothety_distance(leaf, p0, p0) <= 1e-12 * scale

    def test_row_identity_anchor(self):
        v0, v1 = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([4.0, 3.0]))
        leaf = row_leaf(SpdMatrix.identity(2))
        p0 = KroneckerPoint(SpdMatrix.identity(2), v0)
        p1 = KroneckerPoint(SpdMatrix.identity(2), v1)
        expected = 2.0 * bures_distance_sq(v0, v1)
        assert homothety_distance(leaf, p0, p1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("make", [_row_leaf_pair, _col_leaf_pair])
    def test_matches_reduced_formula(self, make):
        leaf, p0, p1 = make(3, np.random.default_rng(11))
        via_leaf = homothety_distance(leaf, p0, p1)
        via_reduced, _ = pairwise_bures_sq_reduced(p0, p1)
        assert abs(via_leaf - via_reduced) <= 1e-10 * max(via_reduced, 1.0)


class TestJson:
    def test_round_trip(self):
        p = rand_point(3, np.random.default_rng(12))
        q = point_from_json(point_to_json(p))
        assert np.array_equal(q.u_factor.mat, p.u_factor.mat)
        assert np.array_equal(q.v_factor.mat, p.v_factor.mat)

    def test_schema_keys(self):
        obj = point_to_json(rand_point(2, np.random.default_rng(13)))
        assert set(obj) == {"n", "u", "v"}
        assert obj["n"] == 2

    def test_dimension_validated(self):
        obj = point_to_json(rand_point(2, np.random.default_rng(14)))
        obj["n"] = 3
        with pytest.raises(DimensionMismatch):
            point_from_json(obj)

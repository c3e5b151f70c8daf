import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronbures import (
    DimensionMismatch,
    GaugeViolation,
    NoConvergence,
    KroneckerPoint,
    NonPositiveCoordinate,
    NotOnLeaf,
    NumericalConsistencyError,
    ParameterOutOfRange,
    SliceData,
    SpdMatrix,
    bures_distance_sq,
    bw_barycenter,
    bw_stationarity_residual,
    coefficient_matrix,
    col_leaf,
    embed,
    geodesic,
    geodesic_eval,
    leaf_barycenter,
    log_coordinate_oracle,
    objective_J,
    perron_singular_pair,
    row_leaf,
    slice_barycenter,
    slice_objective,
)
from kronbures import barycenter
from kronbures.bures_metric import _whitened_product, _whitened_root_eig
from kronbures.bench_cli import barycenter_dataset, gen_log_diag, gen_spd
from kronbures.kron_model import leaf_factor

from conftest import (
    PROPERTY_SETTINGS,
    assert_stored_copies,
    frob,
    linalg_calls,
    rand_orthogonal,
    rand_point,
    rand_spd,
)


def rand_slice_data(n, count, rng, scale=1.0):
    u = np.vstack([gen_log_diag(scale * rng.standard_normal(n), True) for _ in range(count)])
    v = np.vstack([gen_log_diag(scale * rng.standard_normal(n), False) for _ in range(count)])
    return SliceData(u_eigs=u, v_eigs=v, weights=np.full(count, 1.0 / count))


class TestObjective:
    def test_single_datum(self):
        p = rand_point(3, np.random.default_rng(0))
        scale = p.u_factor.trace() * p.v_factor.trace()
        assert objective_J(p, [p], [1.0]) <= 1e-12 * scale

    def test_two_data_at_first(self):
        rng = np.random.default_rng(1)
        p1, p2 = rand_point(3, rng), rand_point(3, rng)
        from kronbures import pairwise_bures_sq_reduced

        expected = 0.5 * pairwise_bures_sq_reduced(p1, p2)[0]
        assert objective_J(p1, [p1, p2], [0.5, 0.5]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ambient(self, seed):
        rng = np.random.default_rng(10 + seed)
        k = rand_point(2, rng)
        data = [rand_point(2, rng) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        reduced = objective_J(k, data, w)
        ambient = sum(
            wi * bures_distance_sq(embed(k), embed(d)) for wi, d in zip(w, data)
        )
        assert abs(reduced - ambient) <= 1e-11 * max(ambient, 1.0)

    def test_weight_count_must_match_data(self):
        rng = np.random.default_rng(14)
        k, p = rand_point(2, rng), rand_point(2, rng)
        with pytest.raises(DimensionMismatch, match="expected 2 weights"):
            objective_J(k, [k, p], [1.0])


class TestSliceObjective:
    def test_vanishes_at_single_datum(self):
        data = rand_slice_data(4, 1, np.random.default_rng(2))
        val = slice_objective(data.u_eigs[0], data.v_eigs[0], data)
        assert abs(val) <= 1e-12 * max(data.kappa, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_objective_on_embedded_candidates(self, seed):
        rng = np.random.default_rng(20 + seed)
        n, count = 3, 4
        data = rand_slice_data(n, count, rng)
        x = gen_log_diag(rng.standard_normal(n), True)
        y = gen_log_diag(rng.standard_normal(n), False)
        k = KroneckerPoint(SpdMatrix(np.diag(x)), SpdMatrix(np.diag(y)))
        points = [
            KroneckerPoint(SpdMatrix(np.diag(u)), SpdMatrix(np.diag(v)))
            for u, v in zip(data.u_eigs, data.v_eigs)
        ]
        via_slice = slice_objective(x, y, data)
        via_points = objective_J(k, points, data.weights)
        assert abs(via_slice - via_points) <= 1e-10 * max(abs(via_points), 1.0)

    def test_rejects_nonpositive(self):
        data = rand_slice_data(3, 2, np.random.default_rng(3))
        with pytest.raises(NonPositiveCoordinate):
            slice_objective(np.array([1.0, -1.0, 1.0]), np.ones(3), data)

    def test_coordinates_must_have_length_n(self):
        data = rand_slice_data(3, 2, np.random.default_rng(3))
        for x, y in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(4))):
            with pytest.raises(DimensionMismatch, match="n = 3"):
                slice_objective(x, y, data)

    @pytest.mark.parametrize("seed", range(3))
    def test_rayleigh_route_identity(self, seed):
        # Minimizing over y at fixed x leaves kappa - Rayleigh quotient of CC^T.
        rng = np.random.default_rng(30 + seed)
        data = rand_slice_data(4, 3, rng)
        c = coefficient_matrix(data)
        x = gen_log_diag(rng.standard_normal(4), True)
        z = np.sqrt(x)
        r_star = c.T @ z / np.dot(z, z)
        val = slice_objective(x, r_star**2, data)
        rayleigh = float(z @ (c @ c.T) @ z / np.dot(z, z))
        assert val == pytest.approx(data.kappa - rayleigh, rel=1e-12)


class TestCoefficientMatrix:
    def test_single_datum_rank_one(self):
        data = rand_slice_data(4, 1, np.random.default_rng(4))
        c = coefficient_matrix(data)
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1
        assert np.allclose(c, np.outer(np.sqrt(data.u_eigs[0]), np.sqrt(data.v_eigs[0])))

    def test_isotropic_data_constant(self):
        alphas = np.array([1.0, 4.0])
        data = SliceData(
            u_eigs=np.ones((2, 3)),
            v_eigs=alphas[:, None] * np.ones((2, 3)),
            weights=np.array([0.5, 0.5]),
        )
        c = coefficient_matrix(data)
        expected = float(0.5 * np.sum(np.sqrt(alphas)))
        assert np.allclose(c, expected * np.ones((3, 3)))

    def test_positive(self):
        data = rand_slice_data(5, 4, np.random.default_rng(5))
        assert np.all(coefficient_matrix(data) > 0.0)


class TestPerron:
    def test_rank_one_exact(self):
        x = np.array([0.6, 0.8])
        y = np.array([0.8, 0.6])
        sol = perron_singular_pair(np.outer(x, y))
        assert sol.sigma1 == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(sol.u1, x, atol=1e-13)
        assert np.allclose(sol.v1, y, atol=1e-13)

    def test_constant_matrix(self):
        sol = perron_singular_pair(np.ones((2, 2)))
        assert sol.sigma1 == pytest.approx(2.0, abs=1e-13)
        assert np.allclose(sol.u1, np.full(2, 1.0 / np.sqrt(2.0)))
        assert np.allclose(sol.v1, np.full(2, 1.0 / np.sqrt(2.0)))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_full_svd(self, seed):
        rng = np.random.default_rng(40 + seed)
        c = np.exp(rng.standard_normal((8, 8)))
        sol = perron_singular_pair(c)
        assert frob(c @ sol.v1 - sol.sigma1 * sol.u1) <= 1e-12 * sol.sigma1
        sigma_svd = np.linalg.svd(c, compute_uv=False)[0]
        assert sol.sigma1 == pytest.approx(sigma_svd, rel=1e-13)
        assert np.all(sol.u1 > 0) and np.all(sol.v1 > 0)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(NonPositiveCoordinate):
            perron_singular_pair(np.array([[1.0, 0.0], [1.0, 1.0]]))

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 12),
        spread=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_svd(self, n, spread, seed):
        c = np.exp(spread * np.random.default_rng(seed).standard_normal((n, n)))
        sol = perron_singular_pair(c)
        sigma_svd = np.linalg.svd(c, compute_uv=False)[0]
        assert abs(sol.sigma1 - sigma_svd) <= 1e-13 * sigma_svd
        assert np.all(sol.u1 > 0.0) and np.all(sol.v1 > 0.0)
        assert frob(c @ sol.v1 - sol.sigma1 * sol.u1) <= 1e-12 * sol.sigma1
        assert frob(c.T @ sol.u1 - sol.sigma1 * sol.v1) <= 1e-12 * sol.sigma1

    def test_residual_failure_is_a_consistency_error(self, monkeypatch):
        # An eigh patched to sort descending hands over the bottom
        # eigenvector; the singular residual check rejects it the way
        # transport_map's defect check rejects a wrong T.
        eigh = np.linalg.eigh

        def descending(m):
            w, q = eigh(m)
            return w[::-1], q[:, ::-1]

        monkeypatch.setattr(np.linalg, "eigh", descending)
        c = np.exp(np.random.default_rng(3).standard_normal((4, 4)))
        with pytest.raises(NumericalConsistencyError):
            perron_singular_pair(c)

    @pytest.mark.parametrize("factor, rejected", [(10.0, True), (0.1, False)])
    def test_residual_gate_boundary(self, monkeypatch, factor, rejected):
        # A Perron vector tilted by theta toward the second eigenvector of
        # CC^T leaves |C v1 - sigma1 u1| = theta (sigma1^2 - lambda2) / sigma1
        # to first order; theta sets it to factor times the 1e-10 sigma1 gate.
        c = np.exp(np.random.default_rng(6).standard_normal((4, 4)))
        lam = np.linalg.eigvalsh(c @ c.T)
        theta = factor * 1e-10 * lam[-1] / (lam[-1] - lam[-2])
        eigh = np.linalg.eigh

        def tilted(m):
            w, q = eigh(m)
            q = q.copy()
            q[:, -1] = math.cos(theta) * np.abs(q[:, -1]) + math.sin(theta) * q[:, -2]
            return w, q

        monkeypatch.setattr(np.linalg, "eigh", tilted)
        if rejected:
            with pytest.raises(NumericalConsistencyError):
                perron_singular_pair(c)
        else:
            sol = perron_singular_pair(c)
            res = frob(c @ sol.v1 - sol.sigma1 * sol.u1)
            assert 0.05 * 1e-10 * sol.sigma1 < res <= 1e-10 * sol.sigma1


class TestSliceBarycenter:
    def test_single_datum_is_the_datum(self):
        data = rand_slice_data(4, 1, np.random.default_rng(6))
        sol = slice_barycenter(data)
        assert np.allclose(sol.x_star, data.u_eigs[0], rtol=1e-10)
        assert np.allclose(sol.y_star, data.v_eigs[0], rtol=1e-10)
        assert abs(sol.min_value) <= 1e-10 * max(data.kappa, 1.0)

    def test_isotropic_leaf_law(self):
        rng = np.random.default_rng(7)
        alphas = np.exp(rng.standard_normal(8))
        n = 8
        data = SliceData(
            u_eigs=np.ones((8, n)),
            v_eigs=alphas[:, None] * np.ones((8, n)),
            weights=np.full(8, 0.125),
        )
        sol = slice_barycenter(data)
        expected_y = float(np.dot(np.full(8, 0.125), np.sqrt(alphas))) ** 2
        assert np.allclose(sol.x_star, np.ones(n), rtol=1e-12)
        assert np.allclose(sol.y_star, expected_y * np.ones(n), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_matches_min_value(self, seed):
        data = rand_slice_data(5, 4, np.random.default_rng(50 + seed))
        sol = slice_barycenter(data)
        val = slice_objective(sol.x_star, sol.y_star, data)
        assert abs(val - sol.min_value) <= 1e-10 * max(abs(sol.min_value), 1.0)
        assert abs(float(np.log(sol.x_star).sum())) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_optimality_against_random_feasible(self, seed):
        rng = np.random.default_rng(60 + seed)
        data = rand_slice_data(4, 3, rng)
        sol = slice_barycenter(data)
        for _ in range(100):
            x = gen_log_diag(rng.standard_normal(4), True)
            y = gen_log_diag(rng.standard_normal(4), False)
            assert slice_objective(x, y, data) >= sol.min_value - 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_log_coordinate_oracle(self, seed):
        data = rand_slice_data(4, 4, np.random.default_rng(70 + seed))
        sol = slice_barycenter(data)
        x_hat, y_hat, _ = log_coordinate_oracle(data)
        assert frob(x_hat - sol.x_star) <= 1e-7 * frob(sol.x_star)
        assert frob(y_hat - sol.y_star) <= 1e-7 * frob(sol.y_star)


def _root_mean(mats, w):
    """The start S S^T of bw_barycenter, S = sum_i w_i M_i^1/2, with each
    weighted root Q diag(w_i l^1/2) Q^T formed alone from M_i's cached
    eigendecomposition Q diag(l) Q^T."""
    s = sum(
        (m.eig.eigenvectors * (wi * np.sqrt(m.eig.eigenvalues))) @ m.eig.eigenvectors.T
        for wi, m in zip(w, mats)
    )
    return SpdMatrix(s @ s.T)


def _bw_per_matrix(mats, w):
    """bw_barycenter's fixed point with each weighted root w_i (Y^T M_i Y)^1/2
    = W diag(w_i r) W^T taken alone, in V = Q L Q^T's eigenbasis
    (Y = Q L^1/2, h = sqrt(diag L)), from the root-mean start; None where it
    exhausts the iteration budget."""
    v = _root_mean(mats, w)
    for _ in range(barycenter.BW_MAX_ITER):
        q, h = v.eig.eigenvectors, np.sqrt(v.eig.eigenvalues)
        roots = (_whitened_root_eig(_whitened_product(q * h, m.mat)) for m in mats)
        g = sum((wq * (wi * r)) @ wq.T for wi, (wq, r) in zip(w, roots))
        if float(np.linalg.norm(g / np.outer(h, h) - np.eye(v.dim))) <= barycenter.BW_TOL:
            return v
        half = (q / h) @ g
        v = SpdMatrix(half @ half.T)
    return None


class TestBwBarycenter:
    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 6),
        count=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_iteration_bitwise_equal_to_per_matrix_loop(self, n, count, seed):
        rng = np.random.default_rng(seed)
        mats = [rand_spd(n, rng) for _ in range(count)]
        w = rng.random(count) + 0.5
        w = w / w.sum()
        expected = _bw_per_matrix(mats, w)
        if expected is None:
            with pytest.raises(NoConvergence):
                bw_barycenter(mats, w)
        else:
            assert np.array_equal(bw_barycenter(mats, w).mat, expected.mat)

    @pytest.mark.parametrize("count", [8, 20])
    def test_scalar_start_adds_roots_in_data_order(self, count):
        # 1 x 1 data commute, so the start is returned; it must sum the roots
        # one after another, as the per-matrix loop does, where ndarray.sum
        # would add eight or more of them pairwise.
        rng = np.random.default_rng(14)
        mats = [SpdMatrix(np.exp(3.0 * rng.standard_normal((1, 1)))) for _ in range(count)]
        w = rng.random(count) + 0.5
        w = w / w.sum()
        assert np.array_equal(bw_barycenter(mats, w).mat, _root_mean(mats, w).mat)

    def test_budget_exit_reports_the_best_iterate(self, monkeypatch):
        # On a budget of one step the only iterate scored is the start, the
        # square of the weighted root mean, so NoConvergence carries it and
        # its stationarity residual.
        monkeypatch.setattr(barycenter, "BW_MAX_ITER", 1)
        rng = np.random.default_rng(12)
        mats = [rand_spd(4, rng) for _ in range(3)]
        w = np.array([0.2, 0.3, 0.5])
        with pytest.raises(NoConvergence) as info:
            bw_barycenter(mats, w)
        assert np.array_equal(info.value.best.mat, _root_mean(mats, w).mat)
        want = bw_stationarity_residual(info.value.best, mats, w)
        assert abs(info.value.residual - want) <= 1e-12 * want

    def test_single_datum(self):
        v = rand_spd(4, np.random.default_rng(8))
        bar = bw_barycenter([v], [1.0])
        assert frob(bar.mat - v.mat) <= 1e-12 * frob(v.mat)

    def test_all_equal(self):
        v = rand_spd(3, np.random.default_rng(9))
        bar = bw_barycenter([v, v, v], np.full(3, 1.0 / 3.0))
        assert frob(bar.mat - v.mat) <= 1e-10 * frob(v.mat)

    def test_commuting_diagonal_closed_form(self):
        rng = np.random.default_rng(10)
        diags = [np.exp(rng.standard_normal(5)) for _ in range(6)]
        w = np.full(6, 1.0 / 6.0)
        bar = bw_barycenter([SpdMatrix(np.diag(d)) for d in diags], w)
        expected = np.array(
            [float(np.dot(w, [np.sqrt(d[i]) for d in diags])) ** 2 for i in range(5)]
        )
        assert np.allclose(np.diag(bar.mat), expected, atol=1e-10)
        assert frob(bar.mat - np.diag(np.diag(bar.mat))) <= 1e-12

    @pytest.mark.parametrize("rotated", [False, True])
    def test_commuting_data_stop_at_the_start(self, monkeypatch, rotated):
        # The start (sum_i w_i V_i^1/2)^2 is the barycenter of commuting
        # data, so the first residual check passes: one eigh validates the
        # start and one stacked eigh whitens the data, where the
        # arithmetic-mean start took a second step and four eigh calls.
        rng = np.random.default_rng(13)
        n = 5
        basis = rand_orthogonal(n, rng) if rotated else np.eye(n)
        diags = [np.exp(2.0 * rng.standard_normal(n)) for _ in range(4)]
        mats = [SpdMatrix((basis * d) @ basis.T) for d in diags]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        assert linalg_calls(monkeypatch, bw_barycenter, mats, w) == [("eigh", n)] * 2
        root_mean = sum(wi * np.sqrt(d) for wi, d in zip(w, diags))
        expected = (basis * root_mean**2) @ basis.T
        assert frob(bw_barycenter(mats, w).mat - expected) <= 1e-13 * frob(expected)

    def test_stationarity(self):
        rng = np.random.default_rng(11)
        mats = [rand_spd(5, rng) for _ in range(5)]
        w = np.full(5, 0.2)
        bar = bw_barycenter(mats, w)
        assert bw_stationarity_residual(bar, mats, w) <= 1e-10

    def test_ill_conditioned_pair_is_the_geodesic_midpoint(self):
        # Valid data (condition numbers 1.4e8 and 30) whose whitened
        # products fall below the SPD margin; they must not be validated.
        rng = np.random.default_rng(11)
        mats = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            mats.append(SpdMatrix((q * np.exp(rng.uniform(-12, 12, 2))) @ q.T))
        bar = bw_barycenter(mats, [0.5, 0.5])
        mid = geodesic_eval(geodesic(*mats), 0.5)
        assert frob(bar.mat - mid.mat) <= 1e-11 * frob(mid.mat)
        assert bw_stationarity_residual(bar, mats, [0.5, 0.5]) <= 1e-10

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("kind", ["row", "col"])
    def test_embedded_leaf_data_converge_to_the_leaf_barycenter(self, kind, n):
        # Three exact leaf points whose embeddings have condition numbers up
        # to ~1e9; the ambient fixed point must reach BW_TOL and land on the
        # factor-size leaf barycenter.
        w = np.array([0.5, 0.3, 0.2])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if kind == "row":
                p0 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
                points = [p0] + [
                    KroneckerPoint(p0.u_factor, gen_spd(n, rng)) for _ in range(2)
                ]
                leaf = row_leaf(p0.u_factor)
            else:
                v = gen_spd(n, rng)
                points = [
                    KroneckerPoint.from_factors(gen_spd(n, rng), v) for _ in range(3)
                ]
                leaf = col_leaf(v)
            bar = bw_barycenter([embed(p) for p in points], w)
            expected = embed(leaf_barycenter(leaf, points, w).point).mat
            assert frob(bar.mat - expected) <= 1e-10 * frob(expected), seed

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 4),
        t=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_data_lie_on_the_geodesic(self, n, t, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(n, rng), rand_spd(n, rng)
        bar = bw_barycenter([a, b], [1.0 - t, t])
        point = geodesic_eval(geodesic(a, b), t)
        assert frob(bar.mat - point.mat) <= 1e-8 * frob(point.mat)


class TestLeafBarycenter:
    def test_all_points_equal(self):
        rng = np.random.default_rng(12)
        u = rand_spd(3, rng, normalized=True)
        p = KroneckerPoint(u, rand_spd(3, rng))
        lb = leaf_barycenter(row_leaf(u), [p, p], [0.5, 0.5])
        assert frob(embed(lb.point).mat - embed(p).mat) <= 1e-10 * frob(embed(p).mat)

    def test_isotropic_scalar_law(self):
        rng = np.random.default_rng(13)
        alphas = np.exp(rng.standard_normal(8))
        w = np.full(8, 0.125)
        eye = SpdMatrix.identity(3)
        points = [KroneckerPoint(eye, eye.scaled(float(a))) for a in alphas]
        lb = leaf_barycenter(row_leaf(eye), points, w)
        expected = float(np.dot(w, np.sqrt(alphas))) ** 2
        assert np.allclose(lb.factor_solution.mat, expected * np.eye(3), atol=1e-12)

    def test_local_minimality_probe(self):
        rng = np.random.default_rng(14)
        u = rand_spd(2, rng, normalized=True)
        points = [KroneckerPoint(u, rand_spd(2, rng)) for _ in range(4)]
        w = np.full(4, 0.25)
        lb = leaf_barycenter(row_leaf(u), points, w)
        best = objective_J(lb.point, points, w)
        for _ in range(20):
            bump = 0.05 * rng.standard_normal((2, 2))
            v_pert = SpdMatrix(lb.point.v_factor.mat + 0.5 * (bump + bump.T) + 0.2 * np.eye(2))
            candidate = KroneckerPoint(u, v_pert)
            assert objective_J(candidate, points, w) >= best - 1e-12

    def test_col_leaf_reduction(self):
        rng = np.random.default_rng(15)
        v_star = rand_spd(3, rng)
        points = [
            KroneckerPoint(
                rand_spd(3, rng, normalized=True),
                v_star.scaled(float(np.exp(rng.standard_normal()))),
            )
            for _ in range(4)
        ]
        w = np.full(4, 0.25)
        lb = leaf_barycenter(col_leaf(v_star), points, w)
        leaf = col_leaf(v_star)
        factor_obj = sum(
            wi * bures_distance_sq(lb.factor_solution, leaf_factor(leaf, p))
            for wi, p in zip(w, points)
        )
        total = objective_J(lb.point, points, w)
        assert abs(total - v_star.trace() * factor_obj) <= 1e-9 * max(abs(total), 1.0)

    def test_rejects_off_leaf_data(self):
        rng = np.random.default_rng(16)
        u = rand_spd(2, rng, normalized=True)
        with pytest.raises(NotOnLeaf):
            leaf_barycenter(row_leaf(u), [rand_point(2, rng)], [1.0])


class TestLogCoordinateOracle:
    def test_single_datum(self):
        data = rand_slice_data(4, 1, np.random.default_rng(17))
        x, y, residual = log_coordinate_oracle(data)
        assert residual <= 1e-6
        assert np.allclose(x, data.u_eigs[0], rtol=1e-7)
        assert np.allclose(y, data.v_eigs[0], rtol=1e-7)

    def test_near_isotropic_objective_agreement(self):
        rng = np.random.default_rng(18)
        data = rand_slice_data(8, 8, rng, scale=0.1)
        sol = slice_barycenter(data)
        x, y, _ = log_coordinate_oracle(data)
        val = slice_objective(x, y, data)
        assert abs(val - sol.min_value) <= 1e-9 * max(abs(sol.min_value), 1.0)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_harness_datasets_match_perron(self, name):
        for seed in range(1000, 1040):
            _assert_matches_perron(barycenter_dataset(name, 8, np.random.default_rng(seed)))

    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_random_slice_data_match_perron(self, n, scale):
        rng = np.random.default_rng(100 * n + int(10 * scale))
        for _ in range(4):
            _assert_matches_perron(rand_slice_data(n, 4, rng, scale=scale))

    def test_solution_beyond_log_coordinate_eight(self):
        # Log-scale 3 data whose minimizer has a log coordinate beyond 8 in
        # absolute value; nothing bounds the iterates.
        data = rand_slice_data(16, 8, np.random.default_rng(3), scale=3.0)
        sol = slice_barycenter(data)
        assert np.abs(np.log(np.concatenate([sol.x_star, sol.y_star]))).max() > 8.0
        _assert_matches_perron(data)

    def test_objective_never_increases(self, monkeypatch):
        # Log-scale 3 data take more than five sweeps, so each budget below
        # ends in NoConvergence carrying that sweep's iterate.
        data = rand_slice_data(8, 8, np.random.default_rng(21), scale=3.0)
        values = []
        for budget in range(1, 6):
            monkeypatch.setattr(barycenter, "ORACLE_MAX_ITER", budget)
            with pytest.raises(NoConvergence) as info:
                log_coordinate_oracle(data)
            s, r = np.split(info.value.best, 2)
            assert abs(s.sum()) <= 1e-12 * s.size
            values.append(slice_objective(np.exp(s), np.exp(r), data))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(barycenter, "ORACLE_MAX_ITER", 1)
        data = barycenter_dataset("C", 8, np.random.default_rng(1003))
        with pytest.raises(NoConvergence) as info:
            log_coordinate_oracle(data)
        assert info.value.residual > barycenter.ORACLE_GRAD_TOL
        assert info.value.best.shape == (16,)

    def test_round_off_floor_raises_within_budget(self):
        # Log-scale 5 data at n = 16 whose residual floor, about eps*sum x*sum y,
        # sits above ORACLE_GRAD_TOL: the solve raises after ORACLE_MAX_ITER
        # sweeps with an iterate on the Perron solution.
        data = rand_slice_data(16, 8, np.random.default_rng(0), scale=5.0)
        with pytest.raises(NoConvergence) as info:
            log_coordinate_oracle(data)
        assert info.value.residual > barycenter.ORACLE_GRAD_TOL
        sol = slice_barycenter(data)
        s, r = np.split(info.value.best, 2)
        assert frob(np.exp(s) - sol.x_star) <= 1e-12 * frob(sol.x_star)
        assert frob(np.exp(r) - sol.y_star) <= 1e-12 * frob(sol.y_star)

    def test_rank_one_coefficients_converge_in_one_sweep(self, monkeypatch):
        # Dataset A has isotropic data, so C is a multiple of the all-ones
        # matrix and one sweep lands on its Perron pair.
        monkeypatch.setattr(barycenter, "ORACLE_MAX_ITER", 1)
        _assert_matches_perron(barycenter_dataset("A", 8, np.random.default_rng(5)))


def _assert_matches_perron(data):
    sol = slice_barycenter(data)
    x, y, residual = log_coordinate_oracle(data)
    assert residual <= barycenter.ORACLE_GRAD_TOL
    assert frob(x - sol.x_star) <= 1e-8 * frob(sol.x_star)
    assert frob(y - sol.y_star) <= 1e-8 * frob(sol.y_star)


def _reference_oracle(data):
    """log_coordinate_oracle in its alternating-step form, written one
    half-step at a time; a frozen copy whose bits the library must
    reproduce."""
    c_mat = coefficient_matrix(data)
    p = np.exp(0.5 * np.log(data.u_eigs).mean(axis=0))
    q = np.exp(0.5 * np.log(data.v_eigs).mean(axis=0))
    ctp = c_mat.T @ p
    for _ in range(barycenter.ORACLE_MAX_ITER):
        q = ctp / np.dot(p, p)
        cq = c_mat @ q
        p = cq / np.dot(q, q)
        g = math.exp(np.mean(np.log(p)))
        p, q, cq = p / g, q * g, cq * g
        ctp = c_mat.T @ p
        x, y = p * p, q * q
        g_s = x * np.sum(y) - p * cq
        g_s = g_s - np.mean(g_s)
        g_r = y * np.sum(x) - q * ctp
        residual = math.sqrt(np.dot(g_s, g_s) + np.dot(g_r, g_r))
        if residual <= barycenter.ORACLE_GRAD_TOL:
            return x, y, residual
    raise NoConvergence("reference oracle exhausted its budget", best=None, residual=residual)


def _assert_same_solve(data):
    x_ref, y_ref, res_ref = _reference_oracle(data)
    x, y, residual = log_coordinate_oracle(data)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(y, y_ref)
    assert residual == res_ref


class TestOracleBitwiseReference:
    """The oracle reproduces a frozen copy of its alternating-step form bit
    for bit."""

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_harness_datasets(self, name):
        for seed in range(1000, 1040):
            _assert_same_solve(barycenter_dataset(name, 8, np.random.default_rng(seed)))

    @pytest.mark.parametrize("weight_ratio", [8.0, 2.0])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_random_slice_data(self, n, scale, weight_ratio):
        # Weights run geometrically from 1 to weight_ratio before normalizing,
        # so the data are not equally weighted.
        rng = np.random.default_rng(100 * n + int(10 * scale))
        w = np.geomspace(1.0, weight_ratio, 4)
        for _ in range(4):
            data = rand_slice_data(n, 4, rng, scale=scale)
            _assert_same_solve(SliceData(data.u_eigs, data.v_eigs, w / w.sum()))


class TestSliceData:
    def test_weight_validation(self):
        with pytest.raises(ParameterOutOfRange):
            SliceData(
                u_eigs=np.ones((2, 2)),
                v_eigs=np.ones((2, 2)),
                weights=np.array([0.9, 0.3]),
            )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("ratio, rejected", [(10.0, True), (0.1, False)])
    def test_weight_sum_gate_boundary(self, sign, ratio, rejected):
        # Four weights may sum to 1 within WEIGHT_TOL * 4 = 4e-12.
        w = np.full(4, 0.25)
        w[0] += sign * ratio * 1e-12 * 4

        def build():
            return SliceData(np.ones((4, 2)), np.ones((4, 2)), w)

        if rejected:
            with pytest.raises(ParameterOutOfRange):
                build()
        else:
            build()

    def test_gauge_validation(self):
        with pytest.raises(GaugeViolation):
            SliceData(
                u_eigs=2.0 * np.ones((2, 2)),
                v_eigs=np.ones((2, 2)),
                weights=np.array([0.5, 0.5]),
            )

    EMPTY = {
        "no_rows": lambda: SliceData(np.ones((0, 3)), np.ones((0, 3)), np.ones(0)),
        "no_columns": lambda: SliceData(np.ones((2, 0)), np.ones((2, 0)), np.full(2, 0.5)),
        "no_rows_or_columns": lambda: SliceData(np.ones((0, 0)), np.ones((0, 0)), np.ones(0)),
        "perron": lambda: perron_singular_pair(np.ones((0, 0))),
    }

    @pytest.mark.parametrize("case", sorted(EMPTY))
    def test_empty_input_rejected(self, case):
        with pytest.raises(DimensionMismatch):
            self.EMPTY[case]()

    # Fresh writable inputs (u_eigs, v_eigs, weights) on each call.
    INPUTS = {
        "ones": lambda: (np.ones((2, 2)), np.ones((2, 2)), np.array([0.5, 0.5])),
        "random": lambda: (*_three_data(), np.array([0.2, 0.3, 0.5])),
    }

    @pytest.mark.parametrize("case", sorted(INPUTS))
    def test_stores_read_only_copies(self, case):
        u, v, w = self.INPUTS[case]()
        assert_stored_copies(SliceData(u, v, w), dict(u_eigs=u, v_eigs=v, weights=w))

    @pytest.mark.parametrize("name", ["u_eigs", "v_eigs", "weights", "kappa"])
    def test_fields_frozen(self, name):
        data = SliceData(*self.INPUTS["ones"]())
        with pytest.raises(FrozenInstanceError):
            setattr(data, name, getattr(data, name))

    def test_refused_edit_keeps_min_value(self):
        # An edit that reached the stored weights would leave kappa stale.
        data = SliceData(*self.INPUTS["random"]())
        with pytest.raises(ValueError):
            data.weights[:] = [0.5, 0.3, 0.2]
        fresh = SliceData(*self.INPUTS["random"]())
        assert slice_barycenter(data).min_value == slice_barycenter(fresh).min_value


def _three_data():
    """Writable eigenvalue rows of three random data at n = 3."""
    data = rand_slice_data(3, 3, np.random.default_rng(30))
    return data.u_eigs.copy(), data.v_eigs.copy()


def _unit_slice(u_eigs=None, v_eigs=None):
    return SliceData(
        u_eigs=np.ones((2, 2)) if u_eigs is None else u_eigs,
        v_eigs=np.ones((2, 2)) if v_eigs is None else v_eigs,
        weights=np.array([0.5, 0.5]),
    )


class TestNonFiniteRejected:
    # NaN <= 0 is False, so a plain sign test lets NaN (and inf) through.
    SITES = {
        "weights": lambda bad: bw_barycenter([SpdMatrix.identity(2)] * 2, [bad, 0.5]),
        "slice_u_eigs": lambda bad: _unit_slice(u_eigs=np.array([[bad, 1.0], [1.0, 1.0]])),
        "slice_v_eigs": lambda bad: _unit_slice(v_eigs=np.array([[1.0, bad], [1.0, 1.0]])),
        "slice_objective": lambda bad: slice_objective(
            np.array([1.0, bad]), np.ones(2), _unit_slice()
        ),
        "perron": lambda bad: perron_singular_pair(np.array([[1.0, bad], [1.0, 1.0]])),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_raises_non_positive_coordinate(self, site, bad):
        with pytest.raises(NonPositiveCoordinate):
            self.SITES[site](bad)

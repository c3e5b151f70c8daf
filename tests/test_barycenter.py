import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kronbures import (
    GaugeViolation,
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
    slice_data_from_json,
    slice_data_to_json,
    slice_objective,
)
from kronbures import barycenter
from kronbures.barycenter import _project_centered_box
from kronbures.bench_cli import gen_log_diag
from kronbures.kron_model import leaf_factor

from conftest import PROPERTY_SETTINGS, frob, rand_point, rand_spd


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


class TestBwBarycenter:
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

    def test_iterates_reach_the_box(self, monkeypatch):
        # Log-scale 3 data put the unconstrained minimizer outside [-2, 2]^n,
        # so the box is active at the solution.
        bound = 2.0
        monkeypatch.setattr(barycenter, "ORACLE_BOUND", bound)
        data = rand_slice_data(8, 8, np.random.default_rng(21), scale=3.0)
        s0 = _project_centered_box(np.log(data.u_eigs).mean(axis=0), bound)
        r0 = np.clip(np.log(data.v_eigs).mean(axis=0), -bound, bound)
        x, y, residual = log_coordinate_oracle(data)
        s, r = np.log(x), np.log(y)
        assert residual <= 1e-6
        assert abs(s.sum()) <= 1e-12 * s.size * bound
        assert np.abs(np.concatenate([s, r])).max() <= bound * (1.0 + 1e-12)
        assert np.abs(np.concatenate([s, r])).max() >= bound * (1.0 - 1e-12)
        start = slice_objective(np.exp(s0), np.exp(r0), data)
        assert slice_objective(x, y, data) <= start


def _bisection_projection(vec, bound):
    """Reference projection onto {sum = 0} and [-bound, bound]^n: the shift is
    found by 200 bisection steps, then the residual sum is redistributed over
    the unclipped coordinates."""
    lo = float(vec.min()) - bound
    hi = float(vec.max()) + bound
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(vec - mid, -bound, bound).sum() > 0.0:
            lo = mid
        else:
            hi = mid
    out = np.clip(vec - 0.5 * (lo + hi), -bound, bound)
    free = np.abs(out) < bound * (1.0 - 1e-12)
    if np.any(free):
        out[free] -= out.sum() / free.sum()
    return out


@st.composite
def box_problems(draw):
    """(v, b) with n in [1, 16], b in (0, 10] and entries of v within 4b of 0.

    Round-off in v - tau is of order eps |v|, so entries are drawn on the
    scale of b for the b-relative bounds to be attainable. Half the draws
    put v on a b/2 lattice with b a power of two, so breakpoints v_i +- b
    tie exactly and g can vanish on a whole segment.
    """
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        bound = 2.0 ** draw(st.integers(-20, 3))
        steps = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
        return 0.5 * bound * np.array(steps, dtype=float), bound
    bound = draw(st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False))
    unit = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    return bound * np.array(unit), bound


@st.composite
def feasible_points(draw):
    """(v, b) with v exactly in the set: |v_i| <= b and an exact zero sum.

    Entries are small multiples of a power of two below b, paired with their
    negatives, so every partial sum is exact in floating point.
    """
    n = draw(st.integers(1, 16))
    bound = draw(st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False))
    unit = np.ldexp(1.0, int(np.frexp(bound)[1]) - 5)
    half = draw(st.lists(st.integers(-16, 16), max_size=n // 2))
    steps = draw(st.permutations(half + [-k for k in half] + [0] * (n - 2 * len(half))))
    return unit * np.array(steps, dtype=float), bound


# A flat piece of g at zero, and tied breakpoints.
FLAT_AT_ZERO = (np.array([3.0, -3.0]), 1.0)
TIED = (np.array([2.0, 0.0, 0.0, -2.0, 4.0, -4.0]), 1.0)


class TestCenteredBoxProjection:
    @PROPERTY_SETTINGS
    @given(box_problems())
    @example(FLAT_AT_ZERO)
    @example(TIED)
    def test_feasible(self, problem):
        v, b = problem
        s = _project_centered_box(v, b)
        assert abs(s.sum()) <= 1e-12 * v.size * b
        assert np.all(np.abs(s) <= b)

    @PROPERTY_SETTINGS
    @given(box_problems())
    @example(FLAT_AT_ZERO)
    @example(TIED)
    def test_kkt_form(self, problem):
        # s = clip(v - tau, -b, b) for a single tau: v - s equals tau on free
        # coordinates, and clamped coordinates lie beyond the box at tau.
        v, b = problem
        s = _project_centered_box(v, b)
        tol = 1e-12 * b
        free = np.abs(s) < b
        upper, lower = s == b, s == -b
        if np.any(free):
            shifts = (v - s)[free]
            assert np.ptp(shifts) <= tol
            tau = shifts.mean()
            assert np.all(v[upper] - tau >= b - tol)
            assert np.all(v[lower] - tau <= -b + tol)
        else:
            assert np.max(v[lower] + b, initial=-np.inf) <= np.min(
                v[upper] - b, initial=np.inf
            ) + tol

    @PROPERTY_SETTINGS
    @given(feasible_points())
    def test_feasible_input_unchanged(self, problem):
        v, b = problem
        assert np.array_equal(_project_centered_box(v, b), v)

    @PROPERTY_SETTINGS
    @given(box_problems())
    @example(FLAT_AT_ZERO)
    @example(TIED)
    def test_matches_bisection(self, problem):
        v, b = problem
        s = _project_centered_box(v, b)
        assert np.max(np.abs(s - _bisection_projection(v, b))) <= 1e-12 * b

    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 16),
        st.floats(-40.0, 40.0),
        st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False),
    )
    @example(2, 1.0, 1e-30)
    def test_constant_input_is_zero(self, n, value, b):
        # Covers n = 1, and b below half an ulp of the entries, where all
        # breakpoints round to one value.
        s = _project_centered_box(np.full(n, value), b)
        assert np.array_equal(s, np.zeros(n))


class TestSliceDataJson:
    def test_round_trip(self):
        data = rand_slice_data(3, 4, np.random.default_rng(19))
        obj = slice_data_to_json(data)
        assert set(obj) == {"n", "N", "weights", "u_eigs", "v_eigs", "q_basis", "r_basis"}
        back = slice_data_from_json(obj)
        assert np.array_equal(back.u_eigs, data.u_eigs)
        assert np.array_equal(back.v_eigs, data.v_eigs)
        assert np.array_equal(back.weights, data.weights)

    def test_bases_default_to_identity(self):
        data = rand_slice_data(3, 2, np.random.default_rng(20))
        obj = slice_data_to_json(data)
        del obj["q_basis"], obj["r_basis"]
        back = slice_data_from_json(obj)
        assert np.array_equal(back.q_basis, np.eye(3))

    def test_weight_validation(self):
        with pytest.raises(ParameterOutOfRange):
            SliceData(
                u_eigs=np.ones((2, 2)),
                v_eigs=np.ones((2, 2)),
                weights=np.array([0.9, 0.3]),
            )

    def test_gauge_validation(self):
        with pytest.raises(GaugeViolation):
            SliceData(
                u_eigs=2.0 * np.ones((2, 2)),
                v_eigs=np.ones((2, 2)),
                weights=np.array([0.5, 0.5]),
            )


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

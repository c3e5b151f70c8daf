import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from kronbures import (
    ClosureVerdict,
    CommutingChart,
    DimensionMismatch,
    GaugeViolation,
    KroneckerPoint,
    LeafKind,
    NonPositiveCoordinate,
    NotSimultaneouslyDiagonalizable,
    NumericalConsistencyError,
    ParameterOutOfRange,
    RigidityVerdict,
    SpdMatrix,
    SqrtProfile,
    TraceNotZero,
    build_chart,
    classify_closure_commuting,
    delta_diag,
    delta_geo_asymptote,
    delta_geo_closed_form,
    embed,
    endpoint_rigidity_classify,
    factor_transports,
    geodesic,
    geodesic_eval,
    kron,
    leaf_geodesic,
    partial_trace_1,
    partial_trace_2,
    pattern_2x2_check,
    pi_residual,
    pullback_metric_isotropic,
    row_leaf,
    transport_map,
    whitened_initial_velocity,
)
from kronbures import bures_metric, closure_diagnostics
from kronbures.closure_diagnostics import profile_matrix

from conftest import (
    PROPERTY_SETTINGS,
    assert_stored_copies,
    frob,
    leaf_pair,
    leaf_pairs,
    point_pairs,
    rand_orthogonal,
    rand_point,
    rand_spd,
    rand_symmetric,
)


def delta_geo_svd(h):
    """Second singular value of the profile; oracle for the closed form."""
    h = np.asarray(h, dtype=float)
    if min(h.shape) < 2:
        return 0.0
    return float(np.linalg.svd(h, compute_uv=False)[1])


def example_noncommuting_pair():
    p0 = KroneckerPoint(SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([4.0, 1.0])))
    p1 = KroneckerPoint(
        SpdMatrix(np.array([[5.0, 3.0], [3.0, 5.0]]) / 4.0),
        SpdMatrix(np.diag([1.0, 4.0])),
    )
    return p0, p1


def example_commuting_nonclosure_pair():
    p0 = KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(2))
    p1 = KroneckerPoint(SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([3.0, 1.0])))
    return p0, p1


def commuting_point_pair(n, rng):
    qu, qv = rand_orthogonal(n, rng), rand_orthogonal(n, rng)
    def factor(basis, normalized):
        xi = rng.standard_normal(n)
        if normalized:
            xi = xi - xi.mean()
        return SpdMatrix((basis * np.exp(xi)) @ basis.T)
    p0 = KroneckerPoint(factor(qu, True), factor(qv, False))
    p1 = KroneckerPoint(factor(qu, True), factor(qv, False))
    return p0, p1


def rand_profile(n, rng):
    def centered(scale=1.0):
        xi = scale * rng.standard_normal(n)
        return np.exp((xi - xi.mean()) / 2.0)
    def free():
        return np.exp(rng.standard_normal(n) / 2.0)
    return SqrtProfile(a=centered(), b=free(), c=centered(), d=free())


class TestBuildChart:
    def test_diagonal_inputs(self):
        p0 = KroneckerPoint(SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([5.0, 1.0])))
        p1 = KroneckerPoint(SpdMatrix(np.diag([4.0, 0.25])), SpdMatrix(np.diag([3.0, 2.0])))
        chart = build_chart(p0, p1)
        assert np.allclose(chart.u0, [2.0, 0.5])
        assert np.allclose(chart.u1, [4.0, 0.25])
        assert np.allclose(chart.v0, [5.0, 1.0])
        assert np.allclose(chart.v1, [3.0, 2.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_inputs_recover_spectra(self, seed):
        rng = np.random.default_rng(seed)
        p0, p1 = commuting_point_pair(4, rng)
        chart = build_chart(p0, p1)
        for vals, factor in (
            (chart.u0, p0.u_factor),
            (chart.u1, p1.u_factor),
            (chart.v0, p0.v_factor),
            (chart.v1, p1.v_factor),
        ):
            assert np.allclose(np.sort(vals), np.sort(factor.eig.eigenvalues), rtol=1e-9)

    def test_ordering_descending_with_tie_break(self):
        # Repeated u0 eigenvalues: order falls back to descending u1.
        p0 = KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(2))
        p1 = KroneckerPoint(SpdMatrix(np.diag([0.5, 2.0])), SpdMatrix(np.diag([1.0, 3.0])))
        chart = build_chart(p0, p1)
        assert np.allclose(chart.u1, [2.0, 0.5])
        assert np.allclose(chart.v1, [3.0, 1.0])

    def test_noncommuting_rejected(self):
        p0, p1 = example_noncommuting_pair()
        with pytest.raises(NotSimultaneouslyDiagonalizable):
            build_chart(p0, p1)

    def test_noncommuting_u_pair_raises_not_commuting(self):
        # The relative-commutator test names the factor that fails.
        p0, p1 = example_noncommuting_pair()
        with pytest.raises(NotSimultaneouslyDiagonalizable, match="U factors"):
            build_chart(p0, p1)

    @pytest.mark.parametrize(
        "v0, v1, fails",
        [
            # A near-repeated eigenvalue keeps the commutator at 7e-12
            # relative, but leaves off-diagonal mass 1.4e-5 in V0's basis.
            ([1.0, 1.0 + 1e-6], [[1.0, 1e-5], [1e-5, 1.0]], "have off-diagonal mass"),
            # Eigenvalues within the grouping tolerance: the joint basis
            # diagonalizes both, while the commutator is 3.2e-10 relative.
            ([1.0, 1.0 + 1e-9], [[1.0, 0.5], [0.5, 1.0]], "do not commute"),
        ],
        ids=["basis_check", "commutator_check"],
    )
    def test_each_chart_check_rejects_what_the_other_passes(self, v0, v1, fails):
        eye = SpdMatrix.identity(2)
        p0 = KroneckerPoint(eye, SpdMatrix(np.diag(v0)))
        p1 = KroneckerPoint(eye, SpdMatrix(np.array(v1)))
        with pytest.raises(NotSimultaneouslyDiagonalizable, match=f"V factors {fails}"):
            build_chart(p0, p1)
        if fails == "do not commute":
            closure_diagnostics._diagonalize_pair(p0.v_factor, p1.v_factor, "V")
        else:
            closure_diagnostics._check_commuting(p0.v_factor.mat, p1.v_factor.mat, "V")


class TestSqrtProfile:
    def test_t0_rank_one(self):
        rng = np.random.default_rng(1)
        p0, p1 = commuting_point_pair(3, rng)
        h0 = profile_matrix(SqrtProfile.from_chart(build_chart(p0, p1)), 0.0)
        assert delta_geo_svd(h0) <= 1e-12 * frob(h0)

    def test_shared_u_leaf_rank_one_for_all_t(self):
        rng = np.random.default_rng(2)
        a = np.exp(rng.standard_normal(4))
        a /= np.prod(a) ** 0.25
        b, d = np.exp(rng.standard_normal((2, 4)))
        profile = SqrtProfile(a=a, b=b, c=a.copy(), d=d)
        for t in np.linspace(0.0, 1.0, 11):
            h = profile_matrix(profile, float(t))
            assert delta_geo_svd(h) <= 1e-12 * frob(h)

    def test_nonclosure_example_determinant(self):
        profile = SqrtProfile.from_chart(build_chart(*example_commuting_nonclosure_pair()))
        const = np.sqrt(6.0) + 1.0 / np.sqrt(2.0) - np.sqrt(2.0) - np.sqrt(1.5)
        for t in (0.25, 0.5, 0.75):
            h = profile_matrix(profile, t)
            assert np.linalg.det(h) == pytest.approx(t * (1 - t) * const, abs=1e-14)
            assert np.linalg.det(h) > 0.0


class TestClassify:
    def test_row_leaf(self):
        chart = CommutingChart(
            u0=np.array([2.0, 0.5]), u1=np.array([2.0, 0.5]),
            v0=np.array([1.0, 3.0]), v1=np.array([2.0, 5.0]),
        )
        assert classify_closure_commuting(chart) is ClosureVerdict.ALWAYS_IN_MODEL_ROW_LEAF

    def test_col_leaf_scalar_multiple(self):
        chart = CommutingChart(
            u0=np.array([2.0, 0.5]), u1=np.array([4.0, 0.25]),
            v0=np.array([1.0, 3.0]), v1=np.array([5.0, 15.0]),
        )
        assert classify_closure_commuting(chart) is ClosureVerdict.ALWAYS_IN_MODEL_COL_LEAF

    def test_nonclosure_example_departs(self):
        chart = build_chart(*example_commuting_nonclosure_pair())
        assert classify_closure_commuting(chart) is ClosureVerdict.DEPARTS_IMMEDIATELY

    @pytest.mark.parametrize("eps", [1e-9, 3e-9, 1e-5])
    @pytest.mark.parametrize("kind", ["row", "col"])
    def test_chart_verdict_matches_factor_verdict(self, kind, eps):
        # Commuting pairs a relative eps from a leaf. The chart and factor
        # classifiers once used different tolerances and norms, and split on
        # every pair at eps = 1e-9 and 3e-9.
        leaf_names = {
            ClosureVerdict.ALWAYS_IN_MODEL_ROW_LEAF: "row",
            ClosureVerdict.ALWAYS_IN_MODEL_COL_LEAF: "col",
            ClosureVerdict.DEPARTS_IMMEDIATELY: "departs",
            RigidityVerdict.COMMON_ROW_LEAF: "row",
            RigidityVerdict.COMMON_COL_LEAF: "col",
            RigidityVerdict.DEPARTS: "departs",
        }
        n = 4
        split = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            r = np.linalg.qr(rng.standard_normal((n, n)))[0]
            u0, u1, v0, v1 = np.exp(0.5 * rng.standard_normal((4, n)))
            xi = rng.standard_normal(n)
            if kind == "row":
                u1 = u0 * (1.0 + eps * xi)
            else:
                v1 = 2.0 * v0 * (1.0 + eps * xi)
            p0, p1 = (
                KroneckerPoint.from_factors(
                    SpdMatrix((q * u) @ q.T), SpdMatrix((r * v) @ r.T)
                )
                for u, v in ((u0, v0), (u1, v1))
            )
            chart = leaf_names[classify_closure_commuting(build_chart(p0, p1))]
            factor = leaf_names[endpoint_rigidity_classify(p0, p1).verdict]
            if chart != factor:
                split.append((seed, chart, factor))
        assert split == []


class TestDeltaGeo:
    def test_endpoints_vanish(self):
        prof = rand_profile(8, np.random.default_rng(3))
        assert delta_geo_closed_form(prof, 0.0) == 0.0
        assert delta_geo_closed_form(prof, 1.0) == 0.0

    def test_leaf_profile_vanishes_for_all_t(self):
        rng = np.random.default_rng(4)
        prof = rand_profile(6, rng)
        leaf = SqrtProfile(a=prof.a, b=prof.b, c=prof.a.copy(), d=prof.d)
        ts = np.linspace(0.0, 1.0, 21)
        for t in ts:
            assert delta_geo_closed_form(leaf, float(t)) == 0.0
        assert np.all(delta_geo_closed_form(leaf, ts) == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd(self, seed):
        prof = rand_profile(8, np.random.default_rng(10 + seed))
        for t in np.linspace(0.0, 1.0, 41):
            h = profile_matrix(prof, float(t))
            assert abs(delta_geo_closed_form(prof, float(t)) - delta_geo_svd(h)) <= 1e-10

    @PROPERTY_SETTINGS
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_matches_svd_property(self, n, seed, t):
        prof = rand_profile(n, np.random.default_rng(seed))
        h = profile_matrix(prof, t)
        scale = float(np.linalg.norm(h, 2))
        assert abs(delta_geo_closed_form(prof, t) - delta_geo_svd(h)) <= 1e-12 * scale

    def test_svd_rank_one_and_full_rank(self):
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        assert delta_geo_svd(np.outer(x, y)) <= 1e-15
        assert delta_geo_svd(np.array([[3.0, 0.1], [0.1, 1.0]])) > 0.1

    def test_asymptote_leaf_zero(self):
        prof = rand_profile(5, np.random.default_rng(20))
        leaf = SqrtProfile(a=prof.a, b=prof.b, c=prof.a.copy(), d=prof.d)
        assert delta_geo_asymptote(leaf) == 0.0

    @pytest.mark.parametrize("eta, raises", [(1e-11, True), (1e-13, False)])
    def test_discriminant_gate_boundary(self, monkeypatch, eta, raises):
        # A = B = C = D = 1, rho = sigma = 0, du = 1 + eta, dv = 1: at t = 0.5,
        # T = 1/2 and rad = T^2 - 4 Delta = -eta T^2, so eta is 10x and 0.1x
        # the gate 1e-12 T^2.
        monkeypatch.setattr(
            closure_diagnostics,
            "_coefficients",
            lambda profile: (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0 + eta, 1.0),
        )
        prof = rand_profile(2, np.random.default_rng(0))
        if raises:
            with pytest.raises(NumericalConsistencyError, match="discriminant"):
                delta_geo_closed_form(prof, 0.5)
        else:
            assert delta_geo_closed_form(prof, 0.5) > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_asymptote_small_t(self, seed):
        prof = rand_profile(8, np.random.default_rng(30 + seed))
        pred = delta_geo_asymptote(prof)
        t = 1e-4
        ratio = delta_geo_closed_form(prof, t) ** 2 / t**2
        assert abs(ratio - pred) <= 1e-3 * pred


class TestDeltaDiag:
    def test_leaf_profile_zero(self):
        rng = np.random.default_rng(5)
        prof = rand_profile(6, rng)
        ts = np.linspace(0.0, 1.0, 21)
        for leaf in (
            SqrtProfile(a=prof.a, b=prof.b, c=prof.a.copy(), d=prof.d),
            SqrtProfile(a=prof.a, b=prof.b, c=prof.c, d=prof.b.copy()),
        ):
            for t in ts:
                assert delta_diag(leaf, float(t)) == 0.0
            assert np.all(delta_diag(leaf, ts) == 0.0)

    def test_t0_rank_one(self):
        # Also at t = 1: a single column weight survives at either end.
        prof = rand_profile(6, np.random.default_rng(6))
        assert delta_diag(prof, 0.0) == 0.0
        assert delta_diag(prof, 1.0) == 0.0
        assert delta_diag(prof, np.array([0.0, 0.5, 1.0]))[[0, 2]].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd_tail(self, seed):
        prof = rand_profile(8, np.random.default_rng(40 + seed))
        for t in np.linspace(0.0, 1.0, 41):
            m = profile_matrix(prof, float(t)) ** 2
            tail = float(np.sqrt(np.sum(np.linalg.svd(m, compute_uv=False)[1:] ** 2)))
            assert abs(delta_diag(prof, float(t)) - tail) <= 1e-9


def svd_tails(profile, t):
    """sigma_2(H_t) and the singular-value tail of H_t o H_t, with their scales."""
    h = profile_matrix(profile, t)
    s_h = np.linalg.svd(h, compute_uv=False)
    s_m = np.linalg.svd(h * h, compute_uv=False)
    return s_h[1], s_h[0], float(np.sqrt(np.sum(s_m[1:] ** 2))), s_m[0]


def scalar_delta_geo(prof, t):
    """The closed form for delta_geo in scalar Python float arithmetic."""
    big_a, big_b = float(np.dot(prof.a, prof.a)), float(np.dot(prof.b, prof.b))
    big_c, big_d = float(np.dot(prof.c, prof.c)), float(np.dot(prof.d, prof.d))
    rho, sigma = float(np.dot(prof.a, prof.c)), float(np.dot(prof.b, prof.d))
    du = max(big_a * big_c - rho * rho, 0.0)
    dv = max(big_b * big_d - sigma * sigma, 0.0)
    big_t = (
        (1.0 - t) ** 2 * big_a * big_b
        + 2.0 * t * (1.0 - t) * rho * sigma
        + t * t * big_c * big_d
    )
    delta = t * t * (1.0 - t) ** 2 * du * dv
    denom = big_t + math.sqrt(max(big_t * big_t - 4.0 * delta, 0.0))
    return math.sqrt(2.0 * delta / denom) if denom > 0.0 else 0.0


grids = st.lists(st.floats(0.0, 1.0), max_size=8).map(
    lambda xs: np.array([0.0, *xs, 1.0])
)


class TestModulusGrid:
    """Both moduli over a 1-D t grid, against the SVD of each H_t."""

    @PROPERTY_SETTINGS
    @given(st.integers(2, 32), st.integers(0, 2**32 - 1), grids)
    def test_grid_matches_svd(self, n, seed, ts):
        prof = rand_profile(n, np.random.default_rng(seed))
        geo = delta_geo_closed_form(prof, ts)
        diag = delta_diag(prof, ts)
        assert geo.shape == diag.shape == ts.shape
        for t, got_geo, got_diag in zip(ts, geo, diag):
            sigma2, scale_h, tail, scale_m = svd_tails(prof, t)
            assert abs(got_geo - sigma2) <= 1e-12 * scale_h
            assert abs(got_diag - tail) <= 1e-10 * scale_m

    def test_grid_equals_scalar_calls(self):
        prof = rand_profile(8, np.random.default_rng(90))
        ts = np.linspace(0.0, 1.0, 41)
        geo = delta_geo_closed_form(prof, ts)
        assert geo.tolist() == [delta_geo_closed_form(prof, float(t)) for t in ts]
        diag = delta_diag(prof, ts)
        assert diag.tolist() == [delta_diag(prof, float(t)) for t in ts]

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_delta_geo_bitwise_equals_scalar_arithmetic(self, n):
        # The elementwise closed form does the scalar arithmetic in the same
        # order, so the benchmark's and the harness's grids agree bit for bit.
        for seed in range(5):
            prof = rand_profile(n, np.random.default_rng(100 + seed))
            for ts in (np.arange(1, 200) / 200.0, np.linspace(0.0, 1.0, 201)):
                expected = [scalar_delta_geo(prof, t) for t in ts.tolist()]
                assert delta_geo_closed_form(prof, ts).tolist() == expected

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 1.0 + 1e-9],
            [-1e-9, 0.5],
            [0.5, np.nan],
            [0.5, "0.5"],
            [None, 0.5],
            [0.5, 0.5 + 0j],
        ],
    )
    def test_one_bad_entry_raises(self, bad):
        prof = rand_profile(4, np.random.default_rng(93))
        with pytest.raises(ParameterOutOfRange):
            delta_geo_closed_form(prof, np.array(bad))
        with pytest.raises(ParameterOutOfRange):
            delta_diag(prof, np.array(bad))

    def test_scalar_returns_float_and_empty_grid_empty_array(self):
        prof = rand_profile(4, np.random.default_rng(94))
        for modulus in (
            lambda t: delta_geo_closed_form(prof, t),
            lambda t: delta_diag(prof, t),
        ):
            assert type(modulus(0.5)) is float
            assert type(modulus(np.float64(0.5))) is float
            empty = modulus(np.array([]))
            assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_two_dimensional_grid_rejected(self):
        prof = rand_profile(4, np.random.default_rng(95))
        with pytest.raises(DimensionMismatch):
            delta_diag(prof, np.full((2, 2), 0.5))

    def test_profile_rows_make_constant_lapack_calls(self, monkeypatch):
        # Two thin QRs and one stacked SVD per grid, however long; a per-t
        # loop made an eigh and an eigvalsh call for every t.
        names = ("eigh", "eigvalsh", "qr", "svd")
        counts = dict.fromkeys(names, 0)

        def counted(name):
            original = getattr(np.linalg, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return call

        for name in names:
            monkeypatch.setattr(np.linalg, name, counted(name))
        prof = rand_profile(32, np.random.default_rng(96))
        per_grid = []
        for grid in (np.array([0.5]), np.arange(1, 200) / 200.0):
            counts.update(dict.fromkeys(names, 0))
            rows = list(closure_diagnostics.departure_profile_rows(prof, grid))
            assert len(rows) == grid.size
            assert all(type(x) is float for row in rows for x in row)
            per_grid.append(dict(counts))
        assert per_grid[0] == per_grid[1]
        assert sum(per_grid[1].values()) <= 3


def _t_takers():
    """The six functions that take a curve parameter t, each as f(t)."""
    a, b = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([4.0, 3.0]))
    curve = geodesic(a, b)
    leaf = row_leaf(SpdMatrix.identity(2))
    p0, p1 = KroneckerPoint(leaf.anchor, a), KroneckerPoint(leaf.anchor, b)
    prof = rand_profile(4, np.random.default_rng(97))
    return {
        "geodesic_eval": lambda t: geodesic_eval(curve, t),
        "leaf_geodesic": lambda t: leaf_geodesic(leaf, p0, p1, t),
        "profile_matrix": lambda t: profile_matrix(prof, t),
        "delta_geo_closed_form": lambda t: delta_geo_closed_form(prof, t),
        "delta_diag": lambda t: delta_diag(prof, t),
        "departure_profile_rows": lambda t: list(
            closure_diagnostics.departure_profile_rows(prof, t)
        ),
    }


class TestCurveParameterRule:
    """Every function that takes t checks it by one rule, so a bad t raises
    the same package error from each, whatever the RuntimeWarning filter."""

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize(
        "t, error",
        [
            ("0.5", ParameterOutOfRange),
            (None, ParameterOutOfRange),
            (0.5 + 0j, ParameterOutOfRange),
            (0.5 + 1j, ParameterOutOfRange),
            (float("nan"), ParameterOutOfRange),
            (-0.1, ParameterOutOfRange),
            (1.5, ParameterOutOfRange),
            ([[0.5]], DimensionMismatch),
            ([0.5, "0.5"], ParameterOutOfRange),
            ([[0.5], 0.5], DimensionMismatch),
        ],
        ids=[
            "str", "none", "complex-real", "complex", "nan", "below", "above", "2d",
            "mixed", "ragged",
        ],
    )
    def test_same_error_from_every_function(self, action, t, error):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            for name, f in _t_takers().items():
                with pytest.raises(error):
                    f(t)
                    pytest.fail(f"{name} accepted t = {t!r}")

    def test_profile_rows_take_a_scalar(self):
        prof = rand_profile(4, np.random.default_rng(98))
        rows = list(closure_diagnostics.departure_profile_rows(prof, 0.5))
        assert rows == [(0.5, delta_geo_closed_form(prof, 0.5), delta_diag(prof, 0.5))]

    def test_float_grid_not_copied(self):
        grid = np.linspace(0.0, 1.0, 5)
        assert bures_metric._curve_parameter(grid) is grid


class TestPiResidual:
    def test_kernel_kronecker_sum(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            a = rand_symmetric(n, rng)
            a -= np.trace(a) / n * np.eye(n)
            b = rand_symmetric(n, rng)
            z = kron(np.eye(n), a) + kron(b, np.eye(n))
            assert frob(pi_residual(z, n)) <= 1e-12 * max(frob(z), 1.0)

    def test_identity_in_kernel(self):
        assert frob(pi_residual(np.eye(9), 3)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_projection_properties(self, n):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = rand_symmetric(n * n, rng)
            y = rand_symmetric(n * n, rng)
            pz, py = pi_residual(z, n), pi_residual(y, n)
            # idempotent, self-adjoint, traceless partial traces
            assert frob(pi_residual(pz, n) - pz) <= 1e-12 * frob(z)
            assert abs(np.sum(pz * y) - np.sum(z * py)) <= 1e-12 * frob(z) * frob(y)
            assert frob(partial_trace_1(pz, n)) <= 1e-12 * frob(z)
            assert frob(partial_trace_2(pz, n)) <= 1e-12 * frob(z)

    def test_orthogonal_to_kernel(self):
        rng = np.random.default_rng(9)
        n = 3
        z = rand_symmetric(n * n, rng)
        pz = pi_residual(z, n)
        a = rand_symmetric(n, rng)
        b = rand_symmetric(n, rng)
        member = kron(np.eye(n), a) + kron(b, np.eye(n))
        inner = abs(np.sum(pz * member))
        assert inner <= 1e-12 * frob(z) * frob(member)

    def test_equivariance(self):
        rng = np.random.default_rng(10)
        n = 3
        z = rand_symmetric(n * n, rng)
        q, r = rand_orthogonal(n, rng), rand_orthogonal(n, rng)
        rot = kron(r, q)
        left = pi_residual(rot.T @ z @ rot, n)
        right = rot.T @ pi_residual(z, n) @ rot
        assert frob(left - right) <= 1e-12 * frob(z)


class TestFactorTransports:
    def test_each_root_of_p0_taken_once(self, monkeypatch):
        # Each call takes the root factors of p0's two factors once, inside
        # the transports, and forms no principal root: neither module that
        # builds them imports spd_sqrt.
        assert not hasattr(bures_metric, "spd_sqrt")
        assert not hasattr(closure_diagnostics, "spd_sqrt")
        calls = []
        fn = bures_metric._root_factors

        def counted(a):
            calls.append(("_root_factors", a))
            return fn(a)

        monkeypatch.setattr(bures_metric, "_root_factors", counted)
        rng = np.random.default_rng(13)
        p0, p1, p2 = (rand_point(3, rng) for _ in range(3))
        ft = factor_transports(p0, p1)
        want = [("_root_factors", p0.v_factor), ("_root_factors", p0.u_factor)]
        assert calls == want
        factor_transports(p0, p2)
        assert calls == want * 2
        # Same bits as the transports computed by transport_map.
        assert np.array_equal(ft.s_v.mat, transport_map(p0.v_factor, p1.v_factor).mat)
        assert np.array_equal(ft.s_u.mat, transport_map(p0.u_factor, p1.u_factor).mat)

    def test_coincident_pair_identity(self):
        p = rand_point(3, np.random.default_rng(11))
        ft = factor_transports(p, p)
        for m in (ft.s_u.mat, ft.s_v.mat, ft.p_mat, ft.q_mat):
            assert frob(m - np.eye(3)) <= 1e-11

    def test_commuting_diagonal_closed_form(self):
        u0, u1 = np.array([2.0, 0.5]), np.array([8.0, 0.125])
        v0, v1 = np.array([1.0, 3.0]), np.array([4.0, 12.0])
        p0 = KroneckerPoint(SpdMatrix(np.diag(u0)), SpdMatrix(np.diag(v0)))
        p1 = KroneckerPoint(SpdMatrix(np.diag(u1)), SpdMatrix(np.diag(v1)))
        ft = factor_transports(p0, p1)
        assert np.allclose(ft.s_u.mat, np.diag(np.sqrt(u1 / u0)))
        assert np.allclose(ft.s_v.mat, np.diag(np.sqrt(v1 / v0)))

    @pytest.mark.parametrize("seed", range(5))
    def test_ambient_factorization(self, seed):
        rng = np.random.default_rng(50 + seed)
        p0, p1 = rand_point(2, rng), rand_point(2, rng)
        ft = factor_transports(p0, p1)
        ambient = transport_map(embed(p0), embed(p1)).mat
        assert frob(kron(ft.s_v.mat, ft.s_u.mat) - ambient) <= 1e-10 * frob(ambient)

    def test_similarity_spectra(self):
        rng = np.random.default_rng(12)
        p0, p1 = rand_point(3, rng), rand_point(3, rng)
        ft = factor_transports(p0, p1)
        for sim, base in ((ft.p_mat, ft.s_v), (ft.q_mat, ft.s_u)):
            got = np.sort(np.linalg.eigvals(sim).real)
            expected = np.sort(base.eig.eigenvalues)
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


def _inv_sqrt(a):
    """A^-1/2 from a fresh eigh of A, apart from the library's roots."""
    w, q = np.linalg.eigh(a)
    return (q / np.sqrt(w)) @ q.T


class TestWhitenedVelocity:
    def test_zero_for_coincident(self):
        p = rand_point(2, np.random.default_rng(13))
        z0 = whitened_initial_velocity(factor_transports(p, p))
        assert frob(z0) <= 1e-10

    def test_worked_example_entries(self):
        p0, p1 = example_noncommuting_pair()
        z0 = whitened_initial_velocity(factor_transports(p0, p1))
        assert z0[0, 1] == pytest.approx(15.0 / (4.0 * np.sqrt(82.0)), abs=1e-12)
        assert z0[2, 3] == pytest.approx(15.0 / np.sqrt(82.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_whitening(self, seed):
        rng = np.random.default_rng(60 + seed)
        p0, p1 = rand_point(2, rng), rand_point(2, rng)
        z0 = whitened_initial_velocity(factor_transports(p0, p1))
        k0 = embed(p0)
        t = transport_map(k0, embed(p1)).mat
        velocity = (t - np.eye(4)) @ k0.mat + k0.mat @ (t - np.eye(4))
        w = kron(_inv_sqrt(p0.v_factor.mat), _inv_sqrt(p0.u_factor.mat))
        direct = w @ velocity @ w
        assert frob(z0 - direct) <= 1e-9 * max(frob(direct), 1.0)


class TestRigidity:
    def test_row_leaf_pair(self):
        rng = np.random.default_rng(14)
        u = rand_spd(3, rng, normalized=True)
        p0 = KroneckerPoint(u, rand_spd(3, rng))
        p1 = KroneckerPoint(u, rand_spd(3, rng))
        report = endpoint_rigidity_classify(p0, p1)
        assert report.verdict is RigidityVerdict.COMMON_ROW_LEAF
        assert report.residual_norm <= 1e-10

    def test_noncommuting_example_departs(self):
        report = endpoint_rigidity_classify(*example_noncommuting_pair())
        assert report.verdict is RigidityVerdict.DEPARTS
        assert report.residual_norm > 1e-3

    def test_commuting_nonclosure_departs(self):
        report = endpoint_rigidity_classify(*example_commuting_nonclosure_pair())
        assert report.verdict is RigidityVerdict.DEPARTS
        assert report.residual_norm > 1e-3

    @PROPERTY_SETTINGS
    @given(point_pairs(2, 6))
    def test_residual_norm_matches_projection(self, pair):
        # The factor-size norm against ||Pi(Z0)||_F built at n^2 size.
        p0, p1 = pair
        z0 = whitened_initial_velocity(factor_transports(p0, p1))
        assert np.array_equal(z0, z0.T)
        expected = frob(pi_residual(z0, p0.n))
        report = endpoint_rigidity_classify(p0, p1)
        assert report.verdict is RigidityVerdict.DEPARTS
        assert abs(report.residual_norm - expected) <= 1e-12 * expected

    @PROPERTY_SETTINGS
    @given(leaf_pairs())
    def test_leaf_residual_matches_projection(self, pair):
        # On a row leaf Q = I, on a column leaf P is a multiple of I, so the
        # residual is round-off of the size of ||P|| ||Q||.
        leaf, p0, p1 = pair
        n = p0.n
        ft = factor_transports(p0, p1)
        scale = frob(ft.p_mat) * frob(ft.q_mat)
        expected = frob(pi_residual(whitened_initial_velocity(ft), n))
        got = endpoint_rigidity_classify(p0, p1).residual_norm
        assert abs(got - expected) <= 1e-12 * scale
        moving = ft.q_mat if leaf.kind is LeafKind.ROW else ft.p_mat
        trace_free = moving - np.trace(moving) / n * np.eye(n)
        assert frob(trace_free) <= 1e-8 * frob(moving)

    def test_no_n2_matrix_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("n^2 x n^2 matrix built")

        monkeypatch.setattr(closure_diagnostics, "pi_residual", refuse)
        monkeypatch.setattr(closure_diagnostics, "whitened_initial_velocity", refuse)
        rng = np.random.default_rng(24)
        _, row0, row1 = leaf_pair(LeafKind.ROW, 8, rng)
        _, col0, col1 = leaf_pair(LeafKind.COL, 8, rng)
        for p0, p1, verdict in (
            (row0, row1, RigidityVerdict.COMMON_ROW_LEAF),
            (col0, col1, RigidityVerdict.COMMON_COL_LEAF),
            (rand_point(8, rng), rand_point(8, rng), RigidityVerdict.DEPARTS),
        ):
            assert endpoint_rigidity_classify(p0, p1).verdict is verdict

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_gen_spd_pairs(self, n):
        # G G^T + 0.01 I factors put the absolute residual of exact leaf pairs
        # above 1e-10 by round-off alone; relative to ||P|| ||Q|| it stays
        # below the tolerance (over these seeds at most 4.4e-12, 6.5e-12 and
        # 2.0e-11 at n = 8, 16 and 64), and generic pairs far above it (at
        # least 0.966, 1.12 and 1.32).
        from kronbures.bench_cli import gen_spd

        for seed in range(40):
            rng = np.random.default_rng(seed)
            p0 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
            row = KroneckerPoint(p0.u_factor, gen_spd(n, rng))
            col = KroneckerPoint.from_factors(gen_spd(n, rng), p0.v_factor)
            generic = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
            for p1, verdict in (
                (row, RigidityVerdict.COMMON_ROW_LEAF),
                (col, RigidityVerdict.COMMON_COL_LEAF),
                (generic, RigidityVerdict.DEPARTS),
            ):
                assert endpoint_rigidity_classify(p0, p1).verdict is verdict

    def test_gen_spd_row_leaf_at_n_192(self):
        # This pair once read 1.30e-8 against RESIDUAL_TOL = 1e-8 and raised
        # InconsistentVerdict; its relative residual is now 1.9e-12.
        from kronbures.bench_cli import gen_spd

        rng = np.random.default_rng(12)
        p0 = KroneckerPoint.from_factors(gen_spd(192, rng), gen_spd(192, rng))
        p1 = KroneckerPoint(p0.u_factor, gen_spd(192, rng))
        report = endpoint_rigidity_classify(p0, p1)
        assert report.verdict is RigidityVerdict.COMMON_ROW_LEAF

    @PROPERTY_SETTINGS
    @given(leaf_pairs())
    def test_leaf_pairs_get_their_leaf(self, pair):
        # At n = 1 every U factor is 1, so each pair shares the row leaf.
        leaf, p0, p1 = pair
        if leaf.kind is LeafKind.ROW or p0.n == 1:
            expected = RigidityVerdict.COMMON_ROW_LEAF
        else:
            expected = RigidityVerdict.COMMON_COL_LEAF
        assert endpoint_rigidity_classify(p0, p1).verdict is expected

    def test_misconfigured_tolerance_raises(self, monkeypatch):
        # A coarse RESIDUAL_TOL accepts the residual of a mildly perturbed U
        # factor, which the factor comparison rejects; the conflict must surface.
        from kronbures import InconsistentVerdict, gauge_normalize

        rng = np.random.default_rng(0)
        u0 = rand_spd(3, rng, normalized=True)
        v0 = rand_spd(3, rng, log_scale=2.0)
        bump = 1e-4 * rng.standard_normal((3, 3))
        u1, _ = gauge_normalize(SpdMatrix(u0.mat + 0.5 * (bump + bump.T)), v0)
        p0 = KroneckerPoint(u0, v0)
        p1 = KroneckerPoint(u1, rand_spd(3, rng))
        monkeypatch.setattr(closure_diagnostics, "RESIDUAL_TOL", 1e-3)
        with pytest.raises(InconsistentVerdict):
            endpoint_rigidity_classify(p0, p1)


class TestRankOneEquivalence:
    """delta_geo = 0, delta_diag = 0, and a leaf verdict coincide at 1e-10."""

    def _moduli(self, p0, p1, t):
        chart = build_chart(p0, p1)
        profile = SqrtProfile.from_chart(chart)
        verdict = classify_closure_commuting(chart)
        return delta_geo_closed_form(profile, t), delta_diag(profile, t), verdict

    def test_leaf_pairs_vanish(self):
        rng = np.random.default_rng(80)
        u_diag = np.exp(rng.standard_normal(3))
        u_diag /= np.prod(u_diag) ** (1.0 / 3.0)
        u = SpdMatrix(np.diag(u_diag))
        p0 = KroneckerPoint(u, SpdMatrix(np.diag(np.exp(rng.standard_normal(3)))))
        p1 = KroneckerPoint(u, SpdMatrix(np.diag(np.exp(rng.standard_normal(3)))))
        for t in (0.25, 0.5, 0.75):
            dgeo, ddiag, verdict = self._moduli(p0, p1, t)
            assert dgeo <= 1e-10 and ddiag <= 1e-10
            assert verdict is ClosureVerdict.ALWAYS_IN_MODEL_ROW_LEAF

    def test_generic_pairs_positive(self):
        rng = np.random.default_rng(81)
        for _ in range(3):
            p0, p1 = commuting_point_pair(3, rng)
            for t in (0.25, 0.5, 0.75):
                dgeo, ddiag, verdict = self._moduli(p0, p1, t)
                assert dgeo > 1e-10 and ddiag > 1e-10
                assert verdict is ClosureVerdict.DEPARTS_IMMEDIATELY


class TestPattern2x2:
    def test_template_satisfies(self):
        alpha = beta = delta = gamma = eps = 1.0
        z = np.array(
            [
                [alpha + gamma, beta, delta, 0.0],
                [beta, -alpha + gamma, 0.0, delta],
                [delta, 0.0, alpha + eps, beta],
                [0.0, delta, beta, -alpha + eps],
            ]
        )
        ok, violated = pattern_2x2_check(z)
        assert ok and not violated

    def test_zero_matrix(self):
        ok, violated = pattern_2x2_check(np.zeros((4, 4)))
        assert ok and not violated

    def test_worked_example_violates(self):
        z0 = whitened_initial_velocity(factor_transports(*example_noncommuting_pair()))
        ok, violated = pattern_2x2_check(z0)
        assert not ok
        assert "z12=z34" in violated

    def test_agrees_with_residual(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            p0, p1 = rand_point(2, rng), rand_point(2, rng)
            z0 = whitened_initial_velocity(factor_transports(p0, p1))
            ok, _ = pattern_2x2_check(z0)
            assert ok == (frob(pi_residual(z0, 2)) <= 1e-10)

    def test_dimension(self):
        with pytest.raises(DimensionMismatch):
            pattern_2x2_check(np.zeros((3, 3)))

    @pytest.mark.parametrize("ratio, ok", [(10.0, False), (0.1, True)])
    def test_gate_boundary(self, ratio, ok):
        # A Kronecker sum B (x) I + I (x) A satisfies every relation; z14
        # then moves by ratio times PATTERN_TOL = 1e-10 of the scale.
        rng = np.random.default_rng(91)
        a, b = (3.0 * rand_symmetric(2, rng) for _ in range(2))
        z = kron(b, np.eye(2)) + kron(np.eye(2), a)
        scale = frob(z)
        assert scale > 1.0 and pattern_2x2_check(z) == (True, [])
        z[0, 3] = z[3, 0] = ratio * 1e-10 * scale
        assert pattern_2x2_check(z) == (ok, [] if ok else ["z14=0"])


class TestPullbackMetric:
    def test_zero_tangent(self):
        assert pullback_metric_isotropic(2, 1.0, np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_direct_substitution(self):
        got = pullback_metric_isotropic(2, 1.0, np.diag([1.0, -1.0]), np.zeros((2, 2)))
        assert got == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_lyapunov_oracle(self, seed):
        rng = np.random.default_rng(70 + seed)
        n = 3
        s = float(np.exp(rng.standard_normal()))
        h_u = rand_symmetric(n, rng)
        h_u -= np.trace(h_u) / n * np.eye(n)
        h_v = rand_symmetric(n, rng)
        got = pullback_metric_isotropic(n, s, h_u, h_v)
        # Ambient Bures metric at K = sI via an explicit Lyapunov solve.
        dphi = kron(s * np.eye(n), h_u) + kron(h_v, np.eye(n))
        k = s * np.eye(n * n)
        x = scipy.linalg.solve_continuous_lyapunov(k, dphi)
        expected = 0.5 * float(np.sum(x * dphi))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_trace_not_zero(self):
        with pytest.raises(TraceNotZero):
            pullback_metric_isotropic(2, 1.0, np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("factor, raises", [(10.0, True), (0.1, False)])
    def test_trace_gate_boundary(self, factor, raises):
        # H_U = diag(1 + delta, -1) has trace delta and norm sqrt(2) to first
        # order; delta is 10x and 0.1x the gate 1e-12 * |H_U|.
        h_u = np.diag([1.0 + factor * 1e-12 * np.sqrt(2.0), -1.0])
        if raises:
            with pytest.raises(TraceNotZero):
                pullback_metric_isotropic(2, 1.0, h_u, np.zeros((2, 2)))
        else:
            assert pullback_metric_isotropic(2, 1.0, h_u, np.zeros((2, 2))) > 0.0


class TestNonFiniteRejected:
    # NaN <= 0 is False, so a plain sign test lets NaN (and inf) through;
    # a NaN profile entry used to give delta_geo = 0.0, "stays in the model".
    SITES = {
        "chart": (
            lambda bad: CommutingChart(
                u0=np.ones(2),
                u1=np.ones(2),
                v0=np.array([1.0, bad]),
                v1=np.ones(2),
            ),
            NonPositiveCoordinate,
        ),
        "profile": (
            lambda bad: SqrtProfile(
                a=np.ones(2), b=np.array([1.0, bad]), c=np.ones(2), d=np.ones(2)
            ),
            NonPositiveCoordinate,
        ),
        "pullback_scale": (
            lambda bad: pullback_metric_isotropic(
                2, bad, np.diag([1.0, -1.0]), np.eye(2)
            ),
            ParameterOutOfRange,
        ),
        # A NaN passed the trace test and returned NaN.
        "pullback_h_u": (
            lambda bad: pullback_metric_isotropic(
                2, 1.0, np.array([[1.0, bad], [bad, -1.0]]), np.eye(2)
            ),
            ParameterOutOfRange,
        ),
        "pullback_h_v": (
            lambda bad: pullback_metric_isotropic(
                2, 1.0, np.diag([1.0, -1.0]), np.array([[1.0, bad], [bad, 1.0]])
            ),
            ParameterOutOfRange,
        ),
        # A NaN fails every gap test and an inf makes the scale inf: both
        # read as "tangent".
        "pattern_2x2": (
            lambda bad: pattern_2x2_check(np.full((4, 4), bad)),
            ParameterOutOfRange,
        ),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_raises(self, site, bad):
        build, error = self.SITES[site]
        with pytest.raises(error):
            build(bad)


def _chart(u0=np.ones(2)):
    return CommutingChart(u0=u0, u1=np.ones(2), v0=np.ones(2), v1=np.ones(2))


class TestInvariantRejected:
    # Each site is valid at bad = 0 and breaks one invariant at bad = 1e-9.
    # The unit-product gauge allows GAUGE_TOL = 1e-10 per dimension on
    # |sum log| of U eigenvalues; a profile's a o a and c o c are such
    # eigenvalues.
    SITES = {
        "chart_u0_gauge": (
            lambda bad: _chart(u0=np.array([2.0, 0.5 * (1.0 + bad)])),
            GaugeViolation,
        ),
        "profile_a_gauge": (
            lambda bad: SqrtProfile(
                a=np.array([1.0, 1.0 + bad]), b=np.ones(2), c=np.ones(2), d=np.ones(2)
            ),
            GaugeViolation,
        ),
        "row_leaf_anchor_gauge": (
            lambda bad: row_leaf(SpdMatrix(np.diag([2.0, 0.5 * (1.0 + bad)]))),
            GaugeViolation,
        ),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_raises(self, site):
        build, error = self.SITES[site]
        build(0.0)
        with pytest.raises(error):
            build(1e-9)


_BAD_VECTORS = pytest.mark.parametrize(
    "vec",
    [np.ones(1), np.ones(3), np.ones((2, 1)), np.ones((2, 2)), np.array(1.0), [1.0]],
    ids=["short", "long", "column", "square", "zero_d", "short_list"],
)


# Fresh inputs on each call: ndarrays only, and the array-likes of the
# float-storage tests below.
_CHART_INPUTS = {
    "arrays": lambda: dict(
        u0=np.array([2.0, 0.5]), u1=np.ones(2), v0=np.array([3.0, 1.0]), v1=np.ones(2)
    ),
    "array_likes": lambda: dict(u0=[2, 0.5], u1=(1, 1), v0=[3, 1], v1=np.ones(2)),
}
_PROFILE_INPUTS = {
    "arrays": lambda: dict(
        a=np.ones(2),
        b=np.array([2.0, 3.0]),
        c=np.array([2.0, 0.5]),
        d=np.array([1.0, 4.0]),
    ),
    "array_likes": lambda: dict(a=[1, 1], b=(2, 3), c=[2.0, 0.5], d=[1, 4]),
}


class TestChartVectorShape:
    # Every eigenvalue vector must have shape (n,), n >= 1 from u0, as the
    # profile vectors must.
    @pytest.mark.parametrize("name", ["u0", "u1", "v0", "v1"])
    @_BAD_VECTORS
    def test_raises(self, name, vec):
        vectors = {key: np.ones(2) for key in ("u0", "u1", "v0", "v1")}
        vectors[name] = vec
        with pytest.raises(DimensionMismatch):
            CommutingChart(**vectors)

    def test_empty_chart_raises(self):
        # An n = 0 chart once built and classified as a row leaf.
        with pytest.raises(DimensionMismatch):
            CommutingChart(**{key: np.ones(0) for key in ("u0", "u1", "v0", "v1")})

    def test_array_likes_stored_as_float_arrays(self):
        chart = CommutingChart(u0=[2, 0.5], u1=(1, 1), v0=[3, 1], v1=np.ones(2))
        for vec in (chart.u0, chart.u1, chart.v0, chart.v1):
            assert isinstance(vec, np.ndarray) and vec.dtype == float
        assert classify_closure_commuting(chart) is ClosureVerdict.DEPARTS_IMMEDIATELY

    @pytest.mark.parametrize("case", sorted(_CHART_INPUTS))
    def test_stores_read_only_copies(self, case):
        passed = _CHART_INPUTS[case]()
        assert_stored_copies(CommutingChart(**passed), passed)


class TestProfileVectorShape:
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    @_BAD_VECTORS
    def test_raises(self, name, vec):
        vectors = {key: np.ones(2) for key in "abcd"}
        vectors[name] = vec
        with pytest.raises(DimensionMismatch):
            SqrtProfile(**vectors)

    def test_empty_profile_raises(self):
        with pytest.raises(DimensionMismatch):
            SqrtProfile(**{key: np.ones(0) for key in "abcd"})

    def test_array_likes_stored_as_float_arrays(self):
        prof = SqrtProfile(a=[1, 1], b=(2, 3), c=[2.0, 0.5], d=[1, 4])
        for vec in (prof.a, prof.b, prof.c, prof.d):
            assert isinstance(vec, np.ndarray) and vec.dtype == float
        assert delta_diag(prof, 0.5) > 0.0

    @pytest.mark.parametrize("case", sorted(_PROFILE_INPUTS))
    def test_stores_read_only_copies(self, case):
        passed = _PROFILE_INPUTS[case]()
        assert_stored_copies(SqrtProfile(**passed), passed)


_MODULI = pytest.mark.parametrize(
    "modulus",
    [
        lambda prof: delta_geo_closed_form(prof, 0.5),
        delta_geo_asymptote,
        lambda prof: delta_diag(prof, 0.5),
    ],
    ids=["closed_form", "asymptote", "diag"],
)


def _overflow_profile(b0):
    # With d = (1e100, 3), b = (1e170, 1) overflows |b|^2, and b = (1e100, 1)
    # keeps A-D finite while B D and sigma^2 overflow.
    return SqrtProfile(
        a=np.ones(2),
        b=np.array([b0, 1.0]),
        c=np.array([2.0, 0.5]),
        d=np.array([1e100, 3.0]),
    )


class TestCoefficientRange:
    # Positive profile vectors whose squared norm underflows to 0: every
    # modulus rejects them rather than divide by zero.
    @_MODULI
    def test_underflowing_norm_raises(self, modulus):
        prof = SqrtProfile(
            a=np.array([2.0, 0.5]), b=np.full(2, 1e-170), c=np.ones(2), d=np.ones(2)
        )
        with pytest.raises(NonPositiveCoordinate):
            modulus(prof)

    # One error type whether or not RuntimeWarning is an error.
    @pytest.mark.parametrize("action", ["error", "ignore"])
    @_MODULI
    def test_overflowing_norm_raises(self, modulus, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(NonPositiveCoordinate):
                modulus(_overflow_profile(1e170))

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize(
        "modulus",
        [lambda prof: delta_geo_closed_form(prof, [0.0, 0.5, 1.0]), delta_geo_asymptote],
        ids=["closed_form", "asymptote"],
    )
    def test_overflowing_product_raises_in_closed_forms(self, modulus, action):
        # Without the check the closed form reads 0.0 here, a false rank-one
        # verdict (sigma_2(H_t) is 0.447 at t = 0.5), and the asymptote NaN.
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(NonPositiveCoordinate):
                modulus(_overflow_profile(1e100))

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_overflowing_product_keeps_delta_diag(self, action):
        # delta_diag multiplies no two norms, so it still answers: the tail
        # of M_t = H_t o H_t against a 50-digit SVD.
        import mpmath

        prof = _overflow_profile(1e100)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            got = delta_diag(prof, 0.5)
        with mpmath.workdps(50):
            h = [
                [(mpmath.mpf(a) * b + mpmath.mpf(c) * d) / 2 for b, d in zip(prof.b, prof.d)]
                for a, c in zip(prof.a, prof.c)
            ]
            m = mpmath.matrix([[x * x for x in row] for row in h])
            want = float(mpmath.svd_r(m, compute_uv=False)[1])
        assert abs(got - want) <= 1e-12 * want

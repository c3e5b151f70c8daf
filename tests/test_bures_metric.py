import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject
from hypothesis import strategies as st

from kronbures import (
    DimensionMismatch,
    GeodesicCurve,
    KroneckerPoint,
    NotPositiveDefinite,
    NumericalConsistencyError,
    ParameterOutOfRange,
    SpdMatrix,
    bures_distance_sq,
    embed,
    factor_transports,
    geodesic,
    geodesic_eval,
    leaf_geodesic,
    pairwise_bures_sq_reduced,
    recover_factors,
    reduced_distances_sq,
    row_leaf,
    spd_sqrt,
    transport_map,
)
from kronbures import bures_metric, closure_diagnostics, spd_core
from kronbures.bench_cli import gen_spd
from kronbures.bures_metric import (
    _clamp_distance_sq,
    _geodesic_bounds,
    _gram_eigvals,
    _root_factors,
    _whitened_product,
    _whitened_root_eig,
)
from kronbures.closure_diagnostics import SqrtProfile, build_chart, profile_matrix
from kronbures.kron_model import leaf_point
from kronbures.spd_core import PD_TOLERANCE, _Deferred

from conftest import (
    PROPERTY_SETTINGS,
    commuting_geodesic_eval,
    frob,
    linalg_calls,
    rand_orthogonal,
    rand_point,
    rand_spd,
)


def commuting_pair(n, rng):
    q = rand_orthogonal(n, rng)
    wa = np.exp(rng.standard_normal(n))
    wb = np.exp(rng.standard_normal(n))
    return SpdMatrix((q * wa) @ q.T), SpdMatrix((q * wb) @ q.T), wa, wb


LEAF = row_leaf(SpdMatrix.identity(2))


def diagonal_chart(a, b):
    """Commuting chart between the points a (x) a and b (x) b."""
    return build_chart(
        KroneckerPoint.from_factors(a, a), KroneckerPoint.from_factors(b, b)
    )


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

    @pytest.mark.parametrize("route", ["transport_map", "factor_transports"])
    @pytest.mark.parametrize("factor, rejected", [(10.0, True), (0.1, False)])
    def test_check_gate_boundary(self, monkeypatch, factor, rejected, route):
        # Scaling the whitened root r by 1 + eta scales T by 1 + eta, so
        # TAT - B = ((1 + eta)^2 - 1) B: a relative defect of about 2 eta,
        # here factor times the gate TRANSPORT_CHECK_TOL = 1e-10.
        # factor_transports runs the same check on both factor transports.
        eta = 0.5 * factor * 1e-10
        root_eig = bures_metric._whitened_root_eig

        def scaled_root(m):
            q, r = root_eig(m)
            return q, r * (1.0 + eta)

        for module in (bures_metric, closure_diagnostics):
            monkeypatch.setattr(module, "_whitened_root_eig", scaled_root)
        rng = np.random.default_rng(37)
        if route == "transport_map":
            a, b = rand_spd(4, rng), rand_spd(4, rng)
            pairs = [(a, b)]
        else:
            p0, p1 = rand_point(4, rng), rand_point(4, rng)
            pairs = [(p0.v_factor, p1.v_factor), (p0.u_factor, p1.u_factor)]

        def transports():
            if route == "transport_map":
                return [transport_map(a, b)]
            ft = factor_transports(p0, p1)
            return [ft.s_v, ft.s_u]

        if rejected:
            with pytest.raises(NumericalConsistencyError):
                transports()
        else:
            for t, (a, b) in zip(transports(), pairs):
                t = t.mat
                assert frob(t @ a.mat @ t - b.mat) > 0.5 * factor * 1e-10 * frob(b.mat)

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
        assert np.allclose(np.diag(got), expected)

    def test_isotropic_midpoint(self):
        got = commuting_geodesic_eval(SpdMatrix.identity(2), SpdMatrix(9.0 * np.eye(2)), 0.5)
        assert np.allclose(got, 4.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_general_formula(self, seed):
        rng = np.random.default_rng(60 + seed)
        a, b, _, _ = commuting_pair(4, rng)
        curve = geodesic(a, b)
        for t in (0.25, 0.5, 0.75):
            fast = commuting_geodesic_eval(a, b, t)
            general = geodesic_eval(curve, t).mat
            assert frob(fast - general) <= 1e-9 * frob(general)


class TestStackedWhitening:
    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 16),
        count=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_bitwise_equal_to_each_matrix(self, n, count, seed):
        rng = np.random.default_rng(seed)
        s = spd_sqrt(rand_spd(n, rng))
        stack = np.stack([rand_spd(n, rng).mat for _ in range(count)])
        eigvals = _gram_eigvals(s, stack)
        w, r = _whitened_root_eig(_whitened_product(s, stack))
        assert eigvals.shape == r.shape == (count, n) and w.shape == (count, n, n)
        for i in range(count):
            assert np.array_equal(eigvals[i], _gram_eigvals(s, stack[i]))
            wi, ri = _whitened_root_eig(_whitened_product(s, stack[i]))
            assert np.array_equal(w[i], wi) and np.array_equal(r[i], ri)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacked_root_factors(self, n):
        # Y = Q L^1/2 is not symmetric, so a stack of them must be
        # transposed matrix by matrix, not along every axis.
        rng = np.random.default_rng(75 + n)
        y = np.stack([_root_factors(rand_spd(n, rng)) for _ in range(2)])
        b = np.stack([rand_spd(n, rng).mat for _ in range(2)])
        assert not np.array_equal(y[0], y[0].T)
        eigvals = _gram_eigvals(y, b)
        w, r = _whitened_root_eig(_whitened_product(y, b))
        for i in range(2):
            assert np.array_equal(eigvals[i], _gram_eigvals(y[i], b[i]))
            wi, ri = _whitened_root_eig(_whitened_product(y[i], b[i]))
            assert np.array_equal(w[i], wi) and np.array_equal(r[i], ri)

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 16),
        count=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_stack_bitwise_equal_to_each_matrix(self, n, count, seed):
        # The reduced distance's route: both sides are stacks of root
        # factors Y = Q L^1/2, which are not symmetric, and one root
        # factor also broadcasts against a stack.
        rng = np.random.default_rng(seed)
        y0 = np.stack([_root_factors(rand_spd(n, rng)) for _ in range(count)])
        y1 = np.stack([_root_factors(rand_spd(n, rng)) for _ in range(count)])
        stacked, broadcast = _gram_eigvals(y0, y1), _gram_eigvals(y0[0], y1)
        assert stacked.shape == broadcast.shape == (count, n)
        for i in range(count):
            assert np.array_equal(stacked[i], _gram_eigvals(y0[i], y1[i]))
            assert np.array_equal(broadcast[i], _gram_eigvals(y0[0], y1[i]))


class TestClampDistances:
    @pytest.mark.parametrize("scale", [1.0, 300.0])
    def test_round_off_gate_boundary(self, scale):
        # A deficit within _NEGATIVE_CLAMP = 1e-10 of the scale is round-off.
        inside, beyond = -1e-11 * scale, -1e-9 * scale
        assert _clamp_distance_sq(inside, scale) == 0.0
        with pytest.raises(NumericalConsistencyError):
            _clamp_distance_sq(beyond, scale)


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


class TestAmbientFactorizations:
    """The ambient path whitens in the start point's cached eigenbasis: it
    forms no root and runs no eigh that only validates, and T and geodesic
    points whose margin the bounds prove run no eigvalsh either."""

    def _embeddings(self):
        rng = np.random.default_rng(73)
        p0 = KroneckerPoint.from_factors(rand_spd(3, rng), rand_spd(3, rng))
        p1 = KroneckerPoint.from_factors(rand_spd(3, rng), rand_spd(3, rng))
        return embed(p0), embed(p1)

    def test_geodesic_midpoint(self, monkeypatch):
        k0, k1 = self._embeddings()
        calls = linalg_calls(
            monkeypatch, lambda: geodesic_eval(geodesic(k0, k1), 0.5)
        )
        assert calls == [("eigh", 9)]

    def test_distance(self, monkeypatch):
        k0, k1 = self._embeddings()
        assert linalg_calls(monkeypatch, bures_distance_sq, k0, k1) == [("eigvalsh", 9)]


def spread_spd(n, spread, rng):
    """SPD matrix with log-eigenvalues uniform in [-spread, spread], in a
    random eigenbasis."""
    q = rand_orthogonal(n, rng)
    return SpdMatrix((q * np.exp(rng.uniform(-spread, spread, n))) @ q.T)


@st.composite
def spread_pairs(draw):
    """(A, B) with eigenvalues spread up to e^{+-12}: plain n x n matrices
    (n <= 6), or embeddings (N = n^2 <= 9) of points whose factors spread
    up to e^{+-6} each."""
    spread = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return spread_spd(n, spread, rng), spread_spd(n, spread, rng)
    n = draw(st.integers(1, 3))
    return tuple(
        embed(
            KroneckerPoint.from_factors(
                spread_spd(n, spread / 2, rng), spread_spd(n, spread / 2, rng)
            )
        )
        for _ in range(2)
    )


def deferred_builds(fn, *args) -> list:
    """(entries, bounds) of each SpdMatrix that fn(*args) builds on the
    deferred route, entries as stored. The builds run as usual; a transport
    defect or a margin failure ends fn, and what was built until then is
    returned."""
    builds = []
    init = SpdMatrix.__init__

    def recording(self, entries, *, _eig=None):
        if isinstance(_eig, _Deferred):
            builds.append((spd_core.symmetrize(entries), _eig))
        init(self, entries, _eig=_eig)

    with mock.patch.object(SpdMatrix, "__init__", recording):
        try:
            fn(*args)
        except (NumericalConsistencyError, NotPositiveDefinite):
            pass
    return builds


def check_bounds(builds) -> None:
    """Each build's bounds enclose its eigvalsh spectrum, and a margin they
    prove passes the eigvalsh margin test."""
    assert builds
    for x, bounds in builds:
        w = np.linalg.eigvalsh(x)
        n = x.shape[0]
        # The bounds hold for the exact matrix; the stored entries differ by
        # the round-off that the decision's 64 N eps allows for.
        roundoff = 64 * n * np.finfo(float).eps * w[-1]
        assert bounds.lower <= w[0] + roundoff
        assert bounds.upper >= w[-1] - roundoff
        if bounds.proves_margin(n):
            assert w[-1] > 0.0 and w[0] > PD_TOLERANCE * w[-1]


def undecided_midpoint_curve() -> GeodesicCurve:
    """A geodesic between gen_spd embeddings at n = 8 whose midpoint bounds
    do not prove the margin (bound ratio 8.9e-14)."""
    rng = np.random.default_rng(2)
    k0, k1 = (
        embed(KroneckerPoint.from_factors(gen_spd(8, rng), gen_spd(8, rng)))
        for _ in range(2)
    )
    curve = geodesic(k0, k1)
    assert not _geodesic_bounds(curve, 0.5).proves_margin(64)
    return curve


class TestGeodesicPoints:
    """A point is (1-t)^2 A + t(1-t)(TA + (TA)^T) + t^2 TAT, from the
    products the transport's check formed."""

    @pytest.mark.parametrize("embedded", [False, True], ids=["plain", "embedded"])
    def test_endpoints_bitwise(self, embedded):
        rng = np.random.default_rng(81)
        if embedded:
            a, b = (embed(KroneckerPoint.from_factors(rand_spd(3, rng), rand_spd(3, rng)))
                    for _ in range(2))
        else:
            a, b = rand_spd(5, rng), rand_spd(5, rng)
        curve = geodesic(a, b)
        t = curve.transport.mat
        assert np.array_equal(geodesic_eval(curve, 0.0).mat, a.mat)
        # As stored: SpdMatrix keeps the symmetric part of the entries.
        want = spd_core.symmetrize((t @ a.mat) @ t)
        assert np.array_equal(geodesic_eval(curve, 1.0).mat, want)

    def test_both_weyl_forms_decide(self):
        # On this pair only form (B) of _geodesic_bounds proves the margin
        # at t = 0 and only form (A) at t = 1, so dropping either form
        # fails one of the two asserts.
        rng = np.random.default_rng(3)
        k0, k1 = (
            embed(KroneckerPoint.from_factors(gen_spd(3, rng), gen_spd(3, rng)))
            for _ in range(2)
        )
        curve = geodesic(k0, k1)
        assert _geodesic_bounds(curve, 0.0).proves_margin(9)
        assert _geodesic_bounds(curve, 1.0).proves_margin(9)

    @PROPERTY_SETTINGS
    @given(pair=spread_pairs())
    def test_matches_congruence(self, pair):
        # Forming the entries rounds within c N eps |C||A||C|, C = (1-t)I + tT,
        # the slack the proved margin allows; the worst c seen is about 2.
        a, b = pair
        try:
            curve = geodesic(a, b)
        except NumericalConsistencyError:
            reject()  # the transport check's conditioning limit
        n = a.dim
        for t in np.linspace(0.0, 1.0, 9):
            c = (1.0 - t) * np.eye(n) + t * curve.transport.mat
            want = c @ a.mat @ c
            scale = frob(np.abs(c) @ np.abs(a.mat) @ np.abs(c))
            got = geodesic_eval(curve, t).mat
            assert frob(got - want) <= 4 * n * np.finfo(float).eps * scale, t

    def test_mismatched_curve(self):
        with pytest.raises(DimensionMismatch):
            geodesic(SpdMatrix(np.eye(3)), SpdMatrix(2 * np.eye(2)))

    @pytest.mark.parametrize("t", [1.5, -0.2, float("nan")])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda a, b, t: geodesic_eval(geodesic(a, b), t),
            lambda a, b, t: profile_matrix(
                SqrtProfile.from_chart(diagonal_chart(a, b)), t
            ),
        ],
        ids=["geodesic_eval", "profile_matrix"],
    )
    def test_parameter_outside_unit_interval(self, evaluate, t):
        a, b = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([4.0, 3.0]))
        with pytest.raises(ParameterOutOfRange):
            evaluate(a, b, t)

    @pytest.mark.parametrize(
        "t",
        [[0.5], np.array([0.2, 0.7]), [[0.5]]],
        ids=["list", "array", "nested"],
    )
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda a, b, t: geodesic_eval(geodesic(a, b), t),
            lambda a, b, t: leaf_geodesic(
                LEAF, leaf_point(LEAF, a), leaf_point(LEAF, b), t
            ),
            lambda a, b, t: profile_matrix(
                SqrtProfile.from_chart(diagonal_chart(a, b)), t
            ),
        ],
        ids=["geodesic_eval", "leaf_geodesic", "profile_matrix"],
    )
    def test_non_scalar_parameter(self, evaluate, t):
        # One error type, not Python's TypeError or numpy's ValueError.
        a, b = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([4.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            evaluate(a, b, t)

    def test_peak_memory(self):
        # A curve and one point at N = 256 hold at most six N x N arrays at
        # once: the transport frees Y before its eigh, the whitened product
        # after it, and Z and H before its check forms TA and TAT, and the
        # point is summed in one buffer. After a distance on the same pair,
        # that product is the one the distance left on k0.
        rng = np.random.default_rng(0)
        k0, k1 = (
            embed(KroneckerPoint.from_factors(gen_spd(16, rng), gen_spd(16, rng)))
            for _ in range(2)
        )
        slack = 64 * 1024
        for after_distance in (False, True):
            tracemalloc.start()
            try:
                if after_distance:
                    bures_distance_sq(k0, k1)
                    # A distance leaves only its product behind.
                    assert tracemalloc.get_traced_memory()[0] <= k0.mat.nbytes + slack
                geodesic_eval(geodesic(k0, k1), 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * k0.mat.nbytes + slack, after_distance
            assert k0._memo is None


class TestDistanceProductMemo:
    """bures_distance_sq(a, b) leaves its whitened product on a, keyed by
    b's identity, and a transport from a to that b takes it."""

    @staticmethod
    def curve_bits(curve):
        points = [geodesic_eval(curve, t).mat for t in (0.0, 0.5, 1.0)]
        return [curve.transport.mat, curve._ta, curve._tat,
                np.array(curve._transport_bounds), *points]

    @PROPERTY_SETTINGS
    @given(pair=spread_pairs())
    def test_transport_after_distance_is_bitwise_unchanged(self, pair):
        a, b = pair
        try:
            alone = self.curve_bits(geodesic(a, b))
        except NumericalConsistencyError:
            reject()  # the transport check's conditioning limit
        t_alone = transport_map(a, b).mat
        bures_distance_sq(a, b)
        assert a._memo[0]() is b
        got = self.curve_bits(geodesic(a, b))
        assert a._memo is None
        assert all(np.array_equal(x, y) for x, y in zip(got, alone))
        bures_distance_sq(a, b)
        assert np.array_equal(transport_map(a, b).mat, t_alone)
        assert a._memo is None

    @PROPERTY_SETTINGS
    @given(pair=spread_pairs())
    def test_equal_valued_copy_never_hits(self, pair):
        a, b = pair
        c = SpdMatrix(b.mat.copy())
        try:
            alone = self.curve_bits(geodesic(a, b))
        except NumericalConsistencyError:
            reject()  # the transport check's conditioning limit
        d_ab = bures_distance_sq(a, b)
        assert bures_distance_sq(a, c) == d_ab
        assert a._memo[0]() is c
        # The slot's partner is c, not b: the transport forms its own
        # product and leaves the slot as it was.
        got = self.curve_bits(geodesic(a, b))
        assert a._memo[0]() is c
        assert all(np.array_equal(x, y) for x, y in zip(got, alone))

    def test_self_pair_is_served_with_the_cold_bits(self):
        a = rand_spd(4, np.random.default_rng(83))
        cold = self.curve_bits(geodesic(a, a))
        bures_distance_sq(a, a)
        assert a._memo[0]() is a
        got = self.curve_bits(geodesic(a, a))
        assert a._memo is None
        assert all(np.array_equal(x, y) for x, y in zip(got, cold))

    def test_slot_does_not_keep_its_partner_alive(self):
        rng = np.random.default_rng(85)
        a, b, c = rand_spd(4, rng), rand_spd(4, rng), rand_spd(4, rng)
        t_cold = transport_map(a, c).mat
        bures_distance_sq(a, b)
        gone = weakref.ref(b)
        del b
        assert gone() is None
        # The dead key matches no later partner, and the slot stays.
        slot = a._memo
        assert slot[0]() is None
        assert np.array_equal(transport_map(a, c).mat, t_cold)
        assert a._memo is slot

    def test_distances_both_ways_form_no_cycle(self):
        # With the cyclic collector off, a slot that held its partner
        # strongly would keep a, b and both N x N products alive after
        # del.
        rng = np.random.default_rng(86)
        a, b = (
            embed(KroneckerPoint.from_factors(gen_spd(20, rng), gen_spd(20, rng)))
            for _ in range(2)
        )
        product_bytes = a.mat.nbytes
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            bures_distance_sq(a, b)
            bures_distance_sq(b, a)
            refs = weakref.ref(a._memo[1]), weakref.ref(b._memo[1])
            held = tracemalloc.get_traced_memory()[0]
            del a, b
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert all(r() is None for r in refs)
        assert held - left >= 2 * product_bytes

    def test_kept_product_is_read_only(self):
        rng = np.random.default_rng(84)
        a, b = rand_spd(4, rng), rand_spd(4, rng)
        bures_distance_sq(a, b)
        assert not a._memo[1].flags.writeable


class TestCertifiedMargin:
    """T and geodesic points are validated by Weyl bounds from spectra in
    hand when those prove the margin, and by one eigvalsh otherwise."""

    @PROPERTY_SETTINGS
    @given(pair=spread_pairs())
    def test_transport_and_geodesic_bounds_hold(self, pair):
        a, b = pair

        def curve_points():
            curve = geodesic(a, b)
            for t in (0.0, 0.25, 0.5, 1.0):
                geodesic_eval(curve, t)

        check_bounds(deferred_builds(curve_points))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_proved_margin_is_sound_at_the_gate(self, n):
        # Embeddings K0 = V0 (x) U0 whose spectral ratio rho sits near the
        # gate (PD_TOLERANCE + 64 N eps), at k = 1e-3 ... 2 times its slack
        # above PD_TOLERANCE, and K1 with the factor spectra reversed in the
        # same bases. Then K0^1/2 K1 K0^1/2 is a multiple of I, so T's Weyl
        # bounds are tight and T and the points near either end are as
        # close to the margin as K0: every matrix whose bounds prove the
        # margin must also pass the eigvalsh margin test.
        size = n * n
        slack = 64 * size * np.finfo(float).eps
        proved = []
        for k in (1e-3, 0.5, 1.001, 1.1, 2.0):
            ratio = PD_TOLERANCE + k * slack
            for seed in range(10):
                rng = np.random.default_rng(seed)
                bases = rand_orthogonal(n, rng), rand_orthogonal(n, rng)
                logs = np.linspace(0.0, 0.5 * np.log(ratio), n)

                def point(sign):
                    u, v = (SpdMatrix((q * np.exp(sign * logs)) @ q.T) for q in bases)
                    return embed(KroneckerPoint.from_factors(u, v))

                k0, k1 = point(1.0), point(-1.0)

                def run():
                    curve = geodesic(k0, k1)
                    for t in (0.0, 1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-6, 1.0):
                        geodesic_eval(curve, t)

                for x, bounds in deferred_builds(run):
                    if bounds.proves_margin(size):
                        w = np.linalg.eigvalsh(x)
                        assert w[-1] > 0.0 and w[0] > PD_TOLERANCE * w[-1], (k, seed)
                        proved.append(bounds.lower / bounds.upper)
        # Not vacuous: some proved bounds lie within 1e-3 of the gate.
        gate = PD_TOLERANCE + slack
        assert min(proved) <= 1.001 * gate

    def test_undecided_midpoint_runs_one_eigvalsh(self, monkeypatch):
        curve = undecided_midpoint_curve()
        calls = linalg_calls(monkeypatch, geodesic_eval, curve, 0.5)
        assert calls == [("eigvalsh", 64)]
        mid = geodesic_eval(curve, 0.5)
        # The same entries pass the eigvalsh route, as they did before.
        undecided = _Deferred(np.nan, np.nan)
        assert np.array_equal(SpdMatrix(mid.mat, _eig=undecided).mat, mid.mat)

    def test_geodesic_takes_bounds_from_transport_map(self, monkeypatch):
        # Per-layer traces attribute a geodesic's transport to transport_map.
        rng = np.random.default_rng(79)
        a, b = rand_spd(4, rng), rand_spd(4, rng)
        seen = []

        def spy(*args, **kwargs):
            seen.append(transport_map(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(bures_metric, "transport_map", spy)
        curve = geodesic(a, b)
        assert [curve.transport] == seen
        assert curve._transport_bounds.proves_margin(4)

    @pytest.mark.parametrize("n", [1, 3])
    def test_endpoints_and_scalars_are_certified(self, monkeypatch, n):
        rng = np.random.default_rng(78 + n)
        a, b = rand_spd(n, rng), rand_spd(n, rng)

        def run():
            curve = geodesic(a, b)
            for t in (0.0, 0.5, 1.0):
                geodesic_eval(curve, t)

        assert linalg_calls(monkeypatch, run) == [("eigh", n)]
        check_bounds(deferred_builds(run))


class TestReducedFactorizations:
    """A reduced distance whitens both factors in one stacked eigvalsh, and
    a cold cloud makes one such call per point; the query's root factors
    are cached."""

    def _points(self, count):
        rng = np.random.default_rng(76)
        p = KroneckerPoint.from_factors(rand_spd(4, rng), rand_spd(4, rng))
        cloud = [
            KroneckerPoint.from_factors(rand_spd(4, rng), rand_spd(4, rng))
            for _ in range(count)
        ]
        p._y_factors  # fills the root cache: only the whitening is counted
        return p, cloud

    def test_pair(self, monkeypatch):
        p, (q,) = self._points(1)
        calls = linalg_calls(monkeypatch, pairwise_bures_sq_reduced, p, q)
        assert calls == [("eigvalsh", 4)]

    @pytest.mark.parametrize("count", [1, 7])
    def test_cloud(self, monkeypatch, count):
        p, cloud = self._points(count)
        calls = linalg_calls(monkeypatch, reduced_distances_sq, p, cloud)
        assert calls == [("eigvalsh", 4)] * count

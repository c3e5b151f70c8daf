import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronbures import (
    DimensionMismatch,
    GaugeViolation,
    KroneckerPoint,
    LeafKind,
    NotInModel,
    NotOnLeaf,
    NotPositiveDefinite,
    NumericalConsistencyError,
    SpdMatrix,
    bures_distance_sq,
    col_leaf,
    embed,
    gauge_normalize,
    geodesic,
    geodesic_eval,
    homothety_distance,
    leaf_geodesic,
    leaf_membership,
    objective_J,
    pairwise_bures_sq_reduced,
    pi_residual,
    recover_factors,
    reduced_distances_sq,
    row_leaf,
)
from kronbures import kron_model
from kronbures.bench_cli import gen_spd
from kronbures.bures_metric import _clamp_distance_sq, _root_factors
from kronbures.kron_model import leaf_factor, leaf_point
from kronbures.spd_core import kron

from conftest import (
    ORTHO_TOL,
    PROPERTY_SETTINGS,
    RECON_TOL,
    cholesky_reduced_sq,
    clouds,
    commuting_geodesic_eval,
    frob,
    leaf_pair,
    leaf_pairs,
    point_pairs,
    rand_orthogonal,
    rand_point,
    rand_spd,
    rand_symmetric,
)


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

    @PROPERTY_SETTINGS
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_gauge_invariance(self, n, seed, log10_c):
        # (cU, V/c) and (U, V) are the same model point for every c > 0.
        rng = np.random.default_rng(seed)
        u, v = rand_spd(n, rng), rand_spd(n, rng)
        c = 10.0**log10_c
        k = embed(KroneckerPoint.from_factors(u, v)).mat
        got = embed(KroneckerPoint.from_factors(u.scaled(c), v.scaled(1.0 / c))).mat
        assert frob(got - k) <= 1e-12 * frob(k)


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

    @pytest.mark.parametrize("ratio, rejected", [(10.0, True), (0.1, False)])
    def test_membership_gate_boundary(self, ratio, rejected):
        # E = Pi(G) has both partial traces zero, so K + E recovers K's
        # factors and its reconstruction defect is ||E|| = eps ||K||, here
        # ratio times MEMBERSHIP_TOL = 1e-8.
        rng = np.random.default_rng(90)
        k = embed(rand_point(3, rng)).mat
        e = pi_residual(rand_symmetric(9, rng), 3)
        e *= ratio * 1e-8 * frob(k) / frob(e)
        if rejected:
            with pytest.raises(NotInModel):
                recover_factors(SpdMatrix(k + e))
        else:
            recover_factors(SpdMatrix(k + e))


def _commuting_point(basis, u_eigs, v_eigs):
    def factor(eigs):
        return SpdMatrix((basis * np.asarray(eigs)) @ basis.T)
    return KroneckerPoint.from_factors(factor(u_eigs), factor(v_eigs))


class TestEmbedSpectrum:
    """embed(p).eig is the factors' product spectrum, validated as usual."""

    def _check_contract(self, p):
        k = embed(p)
        w, q = k.eig.eigenvalues, k.eig.eigenvectors
        product = np.multiply.outer(
            p.v_factor.eig.eigenvalues, p.u_factor.eig.eigenvalues
        ).ravel()
        assert np.all(np.diff(w) <= 0)
        assert np.array_equal(w, np.sort(product)[::-1])
        assert frob((q * w) @ q.T - k.mat) <= RECON_TOL * frob(k.mat)
        assert frob(q.T @ q - np.eye(p.n * p.n)) <= ORTHO_TOL

    def _check_distance(self, p0, p1):
        k0, k1 = embed(p0), embed(p1)
        # Reference: the same matrices validated by SpdMatrix's own eigh.
        expected = bures_distance_sq(*(SpdMatrix(k.mat) for k in (k0, k1)))
        got = bures_distance_sq(k0, k1)
        assert abs(got - expected) <= 1e-12 * (k0.trace() + k1.trace())

    @PROPERTY_SETTINGS
    @given(point_pairs(1, 6))
    def test_point_pairs(self, pair):
        for p in pair:
            self._check_contract(p)
        self._check_distance(*pair)

    @PROPERTY_SETTINGS
    @given(leaf_pairs(max_n=6))
    def test_leaf_pairs(self, pair):
        _, p0, p1 = pair
        for p in (p0, p1):
            self._check_contract(p)
        self._check_distance(p0, p1)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_identity_times_scalar(self, n):
        # Every eigenvalue ties: the spectrum is n^2 copies of the scalar.
        p0 = KroneckerPoint(SpdMatrix.identity(n), SpdMatrix.identity(n).scaled(2.5))
        p1 = KroneckerPoint(SpdMatrix.identity(n), SpdMatrix.identity(n).scaled(0.4))
        for p in (p0, p1):
            self._check_contract(p)
        self._check_distance(p0, p1)

    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_repeated_eigenvalues(self, seed):
        # Repeated factor eigenvalues, and products that tie across factors
        # (4 * 0.5 = 1 * 2), in a shared random basis.
        rng = np.random.default_rng(seed)
        basis = rand_orthogonal(4, rng)
        p0 = _commuting_point(basis, [2.0, 2.0, 0.5, 0.5], [4.0, 1.0, 1.0, 3.0])
        p1 = _commuting_point(basis, [1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 0.5, 2.0])
        for p in (p0, p1):
            self._check_contract(p)
        self._check_distance(p0, p1)

    def test_product_margin_still_rejected(self):
        # Each factor passes the margin (ratios 1e-6 and 1e-7) but their
        # product spectrum spans 1e-13, below PD_TOLERANCE.
        p = KroneckerPoint(
            SpdMatrix(np.diag([1e3, 1.0, 1e-3])), SpdMatrix(np.diag([1e3, 1.0, 1e-4]))
        )
        with pytest.raises(NotPositiveDefinite):
            embed(p)

    def test_no_n2_sized_eigh(self, monkeypatch):
        n = 8
        p = rand_point(n, np.random.default_rng(31))
        eigh = np.linalg.eigh

        def factor_size_only(a, *args, **kwargs):
            if np.shape(a)[-1] > n:
                raise AssertionError(f"eigh of a {np.shape(a)[-1]}-dimensional matrix")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", factor_size_only)
        k = embed(p)
        assert k.dim == n * n
        assert np.array_equal(k.mat, kron(p.v_factor.mat, p.u_factor.mat))


class TestEmbedEntries:
    @PROPERTY_SETTINGS
    @given(point_pairs(1, 8))
    def test_exactly_the_symmetric_kronecker_product(self, pair):
        # embed's entries are taken as given, not re-symmetrized.
        p, _ = pair
        k = embed(p).mat
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, kron(p.v_factor.mat, p.u_factor.mat))


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

    @PROPERTY_SETTINGS
    @given(point_pairs(1, 4))
    def test_matches_ambient_property(self, pair):
        p0, p1 = pair
        k0, k1 = embed(p0), embed(p1)
        reduced, _ = pairwise_bures_sq_reduced(p0, p1)
        ambient = bures_distance_sq(k0, k1)
        assert abs(reduced - ambient) <= 1e-10 * (k0.trace() + k1.trace())

    # Few examples: one at n = 128 takes about 40 ms, most of it building
    # the four factors.
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(st.integers(1, 128), st.integers(0, 2**32 - 1))
    @example(1, 0)
    @example(128, 0)
    def test_matches_cholesky_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        p0, p1 = (
            KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
            for _ in range(2)
        )
        reduced, _ = pairwise_bures_sq_reduced(p0, p1)
        want, tr_sum = cholesky_reduced_sq(p0, p1)
        assert abs(reduced - want) <= 1e-12 * tr_sum

    @PROPERTY_SETTINGS
    @given(point_pairs(1, 8))
    def test_symmetric(self, pair):
        p0, p1 = pair
        forward, _ = pairwise_bures_sq_reduced(p0, p1)
        backward, _ = pairwise_bures_sq_reduced(p1, p0)
        tr_sum = embed(p0).trace() + embed(p1).trace()
        assert abs(forward - backward) <= 1e-12 * tr_sum

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


def _per_factor_reduced(p0, p1):
    """The reduced formula one factor at a time: one whitened spectrum per
    factor from the cached root factors, and the trace sum from four traces."""
    y_v, y_u = p0._y_factors
    alpha = kron_model._whitened_spectrum(y_v, p1.v_factor.mat)
    beta = kron_model._whitened_spectrum(y_u, p1.u_factor.mat)
    tr_sum = (
        p0.u_factor.trace() * p0.v_factor.trace()
        + p1.u_factor.trace() * p1.v_factor.trace()
    )
    d2 = tr_sum - 2.0 * float(np.sqrt(alpha).sum()) * float(np.sqrt(beta).sum())
    return _clamp_distance_sq(d2, tr_sum), alpha, beta


class TestStackedReductionOracle:
    """The stacked reduced distance has the bits of the per-factor formula."""

    @PROPERTY_SETTINGS
    @given(point_pairs(1, 8))
    def test_pairwise_bitwise(self, pair):
        d2, spectrum = pairwise_bures_sq_reduced(*pair)
        want_d2, want_alpha, want_beta = _per_factor_reduced(*pair)
        assert d2 == want_d2
        assert spectrum.alpha.tolist() == want_alpha.tolist()
        assert spectrum.beta.tolist() == want_beta.tolist()

    @pytest.mark.parametrize(
        "v0, v1", [(1.0, 4.0), (2.0, 9.0), (0.3, 7.5), (1e-3, 1e3), (5.0, 0.2)]
    )
    def test_scalar_points(self, v0, v1):
        # At n = 1 the gauge forces U = [1], so d^2 = (sqrt v0 - sqrt v1)^2.
        # The pairs are well separated: the product form cancels as v1 -> v0.
        p0 = KroneckerPoint(SpdMatrix.identity(1), SpdMatrix([[v0]]))
        p1 = KroneckerPoint(SpdMatrix.identity(1), SpdMatrix([[v1]]))
        want = (np.sqrt(v0) - np.sqrt(v1)) ** 2
        # reduced_distances_sq runs first, so it computes the entry by
        # _reduced_sq before the pairwise call leaves its distance on p1.
        batched = reduced_distances_sq(p0, [p1])
        d2, spectrum = pairwise_bures_sq_reduced(p0, p1)
        assert abs(d2 - want) <= 1e-15 * want
        assert spectrum.beta.tolist() == [1.0]
        assert batched.tolist() == [d2]


def _scalar_objective(p, cloud, weights):
    """objective_J as a Python-order sum of scalar reduced distances."""
    return float(
        sum(wi * pairwise_bures_sq_reduced(p, q)[0] for wi, q in zip(weights, cloud))
    )


class TestBatchedReduction:
    """reduced_distances_sq and objective_J against the scalar oracle."""

    @PROPERTY_SETTINGS
    @given(clouds())
    def test_bitwise_equal_to_scalar_loop(self, problem):
        p, cloud, weights = problem
        # reduced_distances_sq runs first, so it computes every entry by
        # _reduced_sq before the scalar loop leaves its distances on the cloud.
        batched = reduced_distances_sq(p, cloud)
        objective = objective_J(p, cloud, weights)
        scalar = [pairwise_bures_sq_reduced(p, q)[0] for q in cloud]
        assert batched.shape == (len(cloud),)
        assert batched.tolist() == scalar
        assert scalar == [_per_factor_reduced(p, q)[0] for q in cloud]
        assert objective == _scalar_objective(p, cloud, weights)

    def test_cold_point_bitwise_equal(self):
        # The cloud's slots hold distances to twin, a fresh copy of p, so
        # reduced_distances_sq(p, ...) computes every entry by _reduced_sq
        # and must give the bits pairwise_bures_sq_reduced gave from twin.
        rng = np.random.default_rng(40)
        p = rand_point(5, rng)
        cloud = [rand_point(5, rng) for _ in range(7)]
        twin = KroneckerPoint(p.u_factor, p.v_factor)
        scalar = [pairwise_bures_sq_reduced(twin, q)[0] for q in cloud]
        assert reduced_distances_sq(p, cloud).tolist() == scalar

    def test_empty_cloud(self):
        p = rand_point(3, np.random.default_rng(41))
        assert reduced_distances_sq(p, []).shape == (0,)

    def test_mixed_dimensions_raise(self):
        rng = np.random.default_rng(42)
        p = rand_point(3, rng)
        cloud = [rand_point(3, rng), rand_point(2, rng)]
        with pytest.raises(DimensionMismatch):
            reduced_distances_sq(p, cloud)
        with pytest.raises(DimensionMismatch):
            objective_J(p, cloud, [0.5, 0.5])

    def test_deficit_beyond_round_off_raises_through_objective(self, monkeypatch):
        spectrum = kron_model._whitened_spectrum
        monkeypatch.setattr(
            kron_model, "_whitened_spectrum", lambda s0, b: 4.0 * spectrum(s0, b)
        )
        p = rand_point(3, np.random.default_rng(43))
        with pytest.raises(NumericalConsistencyError):
            objective_J(p, [p, p], [0.5, 0.5])


def _count_spectra(monkeypatch):
    """Record the factor stack of each _whitened_spectrum call."""
    calls = []
    spectrum = kron_model._whitened_spectrum

    def counted(roots, factors):
        calls.append(factors)
        return spectrum(roots, factors)

    monkeypatch.setattr(kron_model, "_whitened_spectrum", counted)
    return calls


def _copy(q):
    return KroneckerPoint(q.u_factor, q.v_factor)


class TestSpectrumSlot:
    """pairwise_bures_sq_reduced(p, q) leaves its squared distance on q, and
    reduced_distances_sq(p, ...) takes it instead of decomposing again."""

    @staticmethod
    def _problem(seed, count=6, n=4):
        rng = np.random.default_rng(seed)
        return rand_point(n, rng), [rand_point(n, rng) for _ in range(count)]

    def test_warm_cloud_needs_no_decomposition(self, monkeypatch):
        p, cloud = self._problem(60)
        weights = np.full(len(cloud), 1.0 / len(cloud))
        copies = [_copy(q) for q in cloud]
        cold = reduced_distances_sq(p, copies)
        cold_objective = objective_J(p, copies, weights)
        for q in cloud:
            pairwise_bures_sq_reduced(p, q)
        warm_objective = objective_J(p, cloud, weights)
        for q in cloud:
            pairwise_bures_sq_reduced(p, q)
        calls = _count_spectra(monkeypatch)
        warm = reduced_distances_sq(p, cloud)
        assert calls == []
        assert warm.tolist() == cold.tolist()
        assert warm_objective == cold_objective

    def test_half_warm_decomposes_each_cold_point_once(self, monkeypatch):
        p, cloud = self._problem(61)
        cold = reduced_distances_sq(p, [_copy(q) for q in cloud])
        for q in cloud[::2]:
            pairwise_bures_sq_reduced(p, q)
        calls = _count_spectra(monkeypatch)
        got = reduced_distances_sq(p, cloud)
        assert len(calls) == len(cloud[1::2])
        assert all(f is q._factors for f, q in zip(calls, cloud[1::2]))
        assert got.tolist() == cold.tolist()

    def test_slot_is_taken(self, monkeypatch):
        p, cloud = self._problem(62)
        for q in cloud:
            pairwise_bures_sq_reduced(p, q)
        first = reduced_distances_sq(p, cloud)
        assert all(q._memo is None for q in cloud)
        calls = _count_spectra(monkeypatch)
        second = reduced_distances_sq(p, cloud)
        assert [f.shape for f in calls] == [(2, 4, 4)] * len(cloud)
        assert second.tolist() == first.tolist()

    def test_pairwise_never_reads_the_slot(self, monkeypatch):
        p, cloud = self._problem(63, count=1)
        calls = _count_spectra(monkeypatch)
        first = pairwise_bures_sq_reduced(p, cloud[0])[0]
        second = pairwise_bures_sq_reduced(p, cloud[0])[0]
        assert len(calls) == 2
        assert first == second

    def test_equal_copy_and_reversed_pair_miss(self, monkeypatch):
        p, (q,) = self._problem(64, count=1)
        calls = _count_spectra(monkeypatch)
        # The spectrum of (q, p) sits on p and is not the spectrum of (p, q).
        pairwise_bures_sq_reduced(q, p)
        reduced_distances_sq(p, [q])
        assert len(calls) == 2
        # An equal-valued copy of p is another key.
        pairwise_bures_sq_reduced(p, q)
        reduced_distances_sq(_copy(p), [q])
        assert len(calls) == 4
        assert p._memo[0]() is q and q._memo[0]() is p

    def test_slot_does_not_keep_its_query_alive(self, monkeypatch):
        p, (q,) = self._problem(70, count=1)
        pairwise_bures_sq_reduced(p, q)
        gone = weakref.ref(p)
        del p
        assert gone() is None
        calls = _count_spectra(monkeypatch)
        reduced_distances_sq(rand_point(4, np.random.default_rng(71)), [q])
        assert len(calls) == 1

    def test_self_pair_is_served_with_the_cold_bits(self, monkeypatch):
        p, _ = self._problem(65, count=0)
        cold = reduced_distances_sq(p, [p])
        pairwise_bures_sq_reduced(p, p)
        assert p._memo[0]() is p
        calls = _count_spectra(monkeypatch)
        warm = reduced_distances_sq(p, [p])
        assert calls == []
        assert warm.tolist() == cold.tolist()
        assert p._memo is None

    def test_mixed_dimensions_leave_every_slot(self):
        rng = np.random.default_rng(66)
        p = rand_point(3, rng)
        cloud = [rand_point(3, rng), rand_point(3, rng), rand_point(2, rng)]
        for q in cloud[:2]:
            pairwise_bures_sq_reduced(p, q)
        slots = [q._memo for q in cloud[:2]]
        with pytest.raises(DimensionMismatch):
            reduced_distances_sq(p, cloud)
        assert all(q._memo is slot for q, slot in zip(cloud, slots))

    def test_duplicate_point_computed_the_second_time(self, monkeypatch):
        p, (q,) = self._problem(67, count=1)
        pairwise_bures_sq_reduced(p, q)
        calls = _count_spectra(monkeypatch)
        got = reduced_distances_sq(p, [q, q])
        assert [f.shape for f in calls] == [(2, 4, 4)]
        assert got[0] == got[1]

    def test_threads_sharing_a_cloud_get_their_own_bits(self):
        # Each thread's query overwrites the others' slots on the shared
        # cloud; a lost race may only cost a decomposition, never a result.
        rng = np.random.default_rng(69)
        cloud = [rand_point(3, rng) for _ in range(8)]
        queries = [rand_point(3, rng) for _ in range(4)]
        want = [reduced_distances_sq(p, [_copy(q) for q in cloud]).tolist() for p in queries]
        errors = []

        def work(k):
            try:
                for _ in range(30):
                    for q in cloud:
                        pairwise_bures_sq_reduced(queries[k], q)
                    if reduced_distances_sq(queries[k], cloud).tolist() != want[k]:
                        errors.append(k)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_spectrum_is_read_only(self):
        p, (q,) = self._problem(68, count=1)
        _, spectrum = pairwise_bures_sq_reduced(p, q)
        with pytest.raises(ValueError):
            spectrum.alpha[0] = 1.0
        with pytest.raises(ValueError):
            spectrum.beta[0] = 1.0


class TestRootCache:
    def test_roots_match_and_are_read_only(self):
        # The stack (Y_V, Y_U) holds the root factors Y = Q L^1/2 of
        # _root_factors, bit for bit, with Y Y^T equal to the factor.
        p = rand_point(4, np.random.default_rng(44))
        roots = p._y_factors
        assert roots is p._y_factors
        assert roots.shape == (2, 4, 4)
        for y, factor in zip(roots, (p.v_factor, p.u_factor)):
            assert np.array_equal(y, _root_factors(factor)[0])
            assert frob(y @ y.T - factor.mat) <= RECON_TOL * frob(factor.mat)
        with pytest.raises(ValueError):
            roots[0, 0, 0] = 1.0

    def test_each_root_computed_once(self, monkeypatch):
        calls = []
        fn = kron_model._root_factors

        def counted(a):
            calls.append(a)
            return fn(a)

        monkeypatch.setattr(kron_model, "_root_factors", counted)
        rng = np.random.default_rng(45)
        p = rand_point(4, rng)
        cloud = [rand_point(4, rng) for _ in range(6)]
        for q in cloud:
            pairwise_bures_sq_reduced(p, q)
        reduced_distances_sq(p, cloud)
        objective_J(p, cloud, np.full(6, 1.0 / 6.0))
        # A distance query needs only the root factors of p's two factors.
        assert calls == [p.v_factor, p.u_factor]
        for _ in range(3):
            p._y_factors
        assert len(calls) == 2

    def test_trace_product_read_once(self, monkeypatch):
        calls = []
        trace = SpdMatrix.trace

        def counting(self):
            calls.append(None)
            return trace(self)

        monkeypatch.setattr(SpdMatrix, "trace", counting)
        rng = np.random.default_rng(48)
        p = rand_point(3, rng)
        cloud = [rand_point(3, rng) for _ in range(5)]
        weights = np.full(5, 0.2)
        for _ in range(3):
            for q in cloud:
                pairwise_bures_sq_reduced(p, q)
                pairwise_bures_sq_reduced(q, p)
            reduced_distances_sq(p, cloud)
            objective_J(p, cloud, weights)
        # tr U and tr V once per point, for every later distance.
        assert len(calls) <= 2 * (1 + len(cloud))


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
            expected = commuting_geodesic_eval(v0, v1, t)
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


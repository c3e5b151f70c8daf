"""Acceptance suite.

One test per criterion, each printing a pass/fail line at its stated
tolerance (run with ``pytest -s`` to see the lines on success). Timing
criteria assert ordering only; table statistics use tolerance bands.
"""

import time

import numpy as np

from kronbures import (
    KroneckerPoint,
    RigidityVerdict,
    SpdMatrix,
    bures_distance_sq,
    bw_barycenter,
    bw_stationarity_residual,
    col_leaf,
    delta_diag,
    delta_geo_asymptote,
    delta_geo_closed_form,
    embed,
    endpoint_rigidity_classify,
    factor_transports,
    geodesic,
    geodesic_eval,
    kron,
    leaf_barycenter,
    leaf_geodesic,
    pairwise_bures_sq_reduced,
    pi_residual,
    row_leaf,
    whitened_initial_velocity,
)
from kronbures.bench_cli import (
    barycenter_dataset,
    barycenter_trial,
    departure_draw,
    departure_draw_metrics,
    gen_log_diag,
    gen_spd,
    pairwise_trial,
)
from kronbures.closure_diagnostics import SqrtProfile, build_chart, profile_matrix

from conftest import frob, rand_orthogonal, rand_symmetric

SEED = 42


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _rotated_factor(n, rng, normalized, scale=1.0):
    q = rand_orthogonal(n, rng)
    d = gen_log_diag(scale * rng.standard_normal(n), normalized)
    return SpdMatrix((q * d) @ q.T)


def test_criterion_1_reduced_vs_ambient_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 4, 8, 16):
        for k in range(20):
            rng = np.random.default_rng(SEED + k)
            p0 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
            p1 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
            reduced, _ = pairwise_bures_sq_reduced(p0, p1)
            ambient = bures_distance_sq(embed(p0), embed(p1))
            worst = max(worst, abs(ambient - reduced) / abs(ambient))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 30.0,
        f"max relative error {worst:.3e} (tol 1e-12), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_complexity_ordering():
    sizes = (8, 16, 32)
    trials = 5
    every_faster = True
    ratios = {}
    for n in sizes:
        pairwise_trial(n, np.random.default_rng(SEED))  # warm-up
        speedups = []
        for k in range(trials):
            # Three calls on the same draw; their minimum times drop one-off
            # scheduling delays, as the benchmark's per-unit minima do.
            runs = [
                pairwise_trial(n, np.random.default_rng(SEED + k))
                for _ in range(3)
            ]
            reduced = min(r["reduced_time"] for r in runs)
            ambient = min(r["ambient_time"] for r in runs)
            every_faster &= reduced < ambient
            speedups.append(ambient / reduced)
        ratios[n] = float(np.mean(speedups))
    increasing = ratios[8] < ratios[16] < ratios[32]
    _report(
        2,
        every_faster and increasing,
        f"reduced < ambient on every trial: {every_faster}; mean speedups "
        f"{ratios[8]:.1f} < {ratios[16]:.1f} < {ratios[32]:.1f}: {increasing}",
    )


def _decompositions(monkeypatch, fn) -> list:
    """(name, input shape) of each numpy eigen or SVD call fn() makes."""
    calls = []

    def counted(name, f):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return f(a, *args, **kwargs)

        return call

    with monkeypatch.context() as m:
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            m.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        fn()
    return calls


def test_criterion_2_decomposition_count(monkeypatch):
    # The complexity claim as a count that timing noise cannot blur: on
    # freshly built points the reduced distance decomposes two n x n
    # whitened factors, 2 n^3 work, and the ambient one an n^2 x n^2
    # matrix, n^6.
    for n in (4, 8, 16):
        rng = np.random.default_rng(SEED + n)
        p0, p1 = (
            KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
            for _ in range(2)
        )
        reduced = _decompositions(
            monkeypatch, lambda: pairwise_bures_sq_reduced(p0, p1)
        )
        ambient = _decompositions(
            monkeypatch, lambda: bures_distance_sq(embed(p0), embed(p1))
        )
        work = [
            sum(int(np.prod(shape[:-2])) * shape[-1] ** 3 for _, shape in calls)
            for calls in (reduced, ambient)
        ]
        _report(
            2,
            reduced == [("eigvalsh", (2, n, n))]
            and ambient == [("eigvalsh", (n * n, n * n))]
            and work == [2 * n**3, n**6],
            f"n = {n}: reduced {reduced}, ambient {ambient}, work {work}",
        )


def test_criterion_3_leaf_closure():
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 21)
    for n in (2, 4):
        for k in range(10):
            rng = np.random.default_rng(SEED + k)
            u_star = _rotated_factor(n, rng, normalized=True)
            leaf = row_leaf(u_star)
            p0 = KroneckerPoint(u_star, _rotated_factor(n, rng, False))
            p1 = KroneckerPoint(u_star, _rotated_factor(n, rng, False))
            curve = geodesic(embed(p0), embed(p1))
            for t in grid:
                ambient = geodesic_eval(curve, float(t)).mat
                leafed = embed(leaf_geodesic(leaf, p0, p1, float(t))).mat
                worst = max(worst, frob(ambient - leafed) / frob(ambient))
        for k in range(10):
            rng = np.random.default_rng(SEED + 100 + k)
            v_star = _rotated_factor(n, rng, normalized=False)
            leaf = col_leaf(v_star)
            p0 = KroneckerPoint(
                _rotated_factor(n, rng, True),
                v_star.scaled(float(np.exp(rng.standard_normal()))),
            )
            p1 = KroneckerPoint(
                _rotated_factor(n, rng, True),
                v_star.scaled(float(np.exp(rng.standard_normal()))),
            )
            curve = geodesic(embed(p0), embed(p1))
            for t in grid:
                ambient = geodesic_eval(curve, float(t)).mat
                leafed = embed(leaf_geodesic(leaf, p0, p1, float(t))).mat
                worst = max(worst, frob(ambient - leafed) / frob(ambient))
    _report(3, worst <= 1e-9, f"max relative gap ambient vs leaf geodesic {worst:.3e} (tol 1e-9)")


def test_criterion_4_fixed_chart_rigidity():
    n, draws = 32, 20
    worst_leaf = 0.0
    generic_maxima = []
    for regime in ("shared_u_leaf", "shared_v_leaf", "generic"):
        for k in range(draws):
            profile = departure_draw(n, np.random.default_rng(SEED + k), regime)
            metrics = departure_draw_metrics(profile)
            if regime == "generic":
                generic_maxima.append(metrics["max_delta_geo"])
            else:
                worst_leaf = max(
                    worst_leaf, metrics["max_delta_geo"], metrics["max_delta_diag"]
                )
    min_generic = min(generic_maxima)
    _report(
        4,
        worst_leaf <= 1e-12 and min_generic > 0.1,
        f"leaf regimes max modulus {worst_leaf:.3e} (tol 1e-12); generic min of "
        f"max delta_geo {min_generic:.3f} (> 0.1)",
    )


def test_criterion_5_closed_form_modulus():
    n, draws = 32, 20
    grid = np.linspace(0.0, 1.0, 201)
    worst_geo = 0.0
    worst_diag = 0.0
    for k in range(draws):
        profile = departure_draw(n, np.random.default_rng(SEED + k), "generic")
        for t in grid:
            t = float(t)
            h = profile_matrix(profile, t)
            sigma2 = float(np.linalg.svd(h, compute_uv=False)[1])
            worst_geo = max(worst_geo, abs(delta_geo_closed_form(profile, t) - sigma2))
            m = h * h
            tail = float(np.sqrt(np.sum(np.linalg.svd(m, compute_uv=False)[1:] ** 2)))
            worst_diag = max(worst_diag, abs(delta_diag(profile, t) - tail))
    _report(
        5,
        worst_geo <= 1e-10 and worst_diag <= 1e-9,
        f"|closed form - svd| {worst_geo:.3e} (tol 1e-10); "
        f"|Gamma route - svd tail| {worst_diag:.3e} (tol 1e-9)",
    )


def test_criterion_6_asymptotic_coefficient():
    n, draws = 32, 20
    worst_dev = 0.0
    fit_errs = []
    for k in range(draws):
        profile = departure_draw(n, np.random.default_rng(SEED + k), "generic")
        predicted = delta_geo_asymptote(profile)
        t = 1e-4
        ratio = delta_geo_closed_form(profile, t) ** 2 / t**2
        worst_dev = max(worst_dev, abs(ratio - predicted) / predicted)
        fit_errs.append(departure_draw_metrics(profile)["fit_rel_err"])
    mean_fit = float(np.mean(fit_errs))
    _report(
        6,
        worst_dev <= 1e-3 and 0.05 <= mean_fit <= 0.4,
        f"small-t deviation {worst_dev:.3e} (tol 1e-3); finite-window fit mean "
        f"relative error {mean_fit:.3f} (band [0.05, 0.4])",
    )


def test_criterion_7_endpoint_rigidity():
    worst_leaf = 0.0
    best_generic = np.inf
    agree = True
    inconsistent = 0
    for n in (2, 3, 4):
        for k in range(50):
            rng = np.random.default_rng(SEED + 1000 * n + k)
            u0 = _rotated_factor(n, rng, True)
            v0 = _rotated_factor(n, rng, False)
            p0 = KroneckerPoint(u0, v0)
            cases = (
                ("row", KroneckerPoint(u0, _rotated_factor(n, rng, False))),
                (
                    "col",
                    KroneckerPoint(
                        _rotated_factor(n, rng, True),
                        v0.scaled(float(np.exp(rng.standard_normal()))),
                    ),
                ),
                (
                    "generic",
                    KroneckerPoint(
                        _rotated_factor(n, rng, True), _rotated_factor(n, rng, False)
                    ),
                ),
            )
            for label, p1 in cases:
                try:
                    report = endpoint_rigidity_classify(p0, p1)
                except Exception:
                    inconsistent += 1
                    continue
                if label == "row":
                    agree &= report.verdict is RigidityVerdict.COMMON_ROW_LEAF
                    worst_leaf = max(worst_leaf, report.residual_norm)
                elif label == "col":
                    agree &= report.verdict is RigidityVerdict.COMMON_COL_LEAF
                    worst_leaf = max(worst_leaf, report.residual_norm)
                else:
                    agree &= report.verdict is RigidityVerdict.DEPARTS
                    best_generic = min(best_generic, report.residual_norm)
    _report(
        7,
        worst_leaf <= 1e-10 and best_generic >= 1e-3 and agree and inconsistent == 0,
        f"leaf residual max {worst_leaf:.3e} (tol 1e-10); generic residual min "
        f"{best_generic:.3e} (>= 1e-3); verdict agreement {agree}; "
        f"{inconsistent} InconsistentVerdict events",
    )


def test_criterion_8_worked_examples():
    p0 = KroneckerPoint(SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([4.0, 1.0])))
    p1 = KroneckerPoint(
        SpdMatrix(np.array([[5.0, 3.0], [3.0, 5.0]]) / 4.0),
        SpdMatrix(np.diag([1.0, 4.0])),
    )
    z0 = whitened_initial_velocity(factor_transports(p0, p1))
    err_z12 = abs(z0[0, 1] - 15.0 / (4.0 * np.sqrt(82.0)))
    err_z34 = abs(z0[2, 3] - 15.0 / np.sqrt(82.0))

    q0 = KroneckerPoint(SpdMatrix.identity(2), SpdMatrix.identity(2))
    q1 = KroneckerPoint(SpdMatrix(np.diag([2.0, 0.5])), SpdMatrix(np.diag([3.0, 1.0])))
    profile = SqrtProfile.from_chart(build_chart(q0, q1))
    const = np.sqrt(6.0) + 1.0 / np.sqrt(2.0) - np.sqrt(2.0) - np.sqrt(1.5)
    err_det = max(
        abs(np.linalg.det(profile_matrix(profile, t)) - t * (1.0 - t) * const)
        for t in (0.25, 0.5, 0.75)
    )
    _report(
        8,
        err_z12 <= 1e-12 and err_z34 <= 1e-12 and err_det <= 1e-12,
        f"z12 error {err_z12:.3e}, z34 error {err_z34:.3e}, det H_t error "
        f"{err_det:.3e} (all tol 1e-12)",
    )


def test_criterion_9_slice_barycenter_exactness():
    worst_gap = 0.0
    worst_coord = 0.0
    a_objs = []
    for k in range(20):
        rng = np.random.default_rng(SEED + k)
        for name in ("A", "B", "C"):
            data = barycenter_dataset(name, 8, rng)
            result = barycenter_trial(data)
            gap = abs(result["formula_obj"] - result["numerical_obj"]) / max(
                abs(result["formula_obj"]), 1e-30
            )
            worst_gap = max(worst_gap, gap)
            worst_coord = max(worst_coord, result["coord_error"])
            if name == "A":
                a_objs.append(result["formula_obj"])
    a_mean = float(np.mean(a_objs))
    _report(
        9,
        worst_gap <= 1e-9 and worst_coord <= 1e-6 and 10.0 <= a_mean <= 30.0,
        f"formula vs oracle objective gap {worst_gap:.3e} (tol 1e-9); coordinate "
        f"error {worst_coord:.3e} (tol 1e-6); dataset A mean objective {a_mean:.1f} "
        f"(band [10, 30])",
    )


def test_criterion_10_leafwise_barycenter():
    n = 8
    rng = np.random.default_rng(SEED)
    weights = np.full(n, 1.0 / n)

    alphas = np.exp(rng.standard_normal(n))
    eye = SpdMatrix.identity(n)
    iso_points = [KroneckerPoint(eye, eye.scaled(float(a))) for a in alphas]
    iso = leaf_barycenter(row_leaf(eye), iso_points, weights)
    expected = float(np.dot(weights, np.sqrt(alphas))) ** 2
    err_iso = float(np.max(np.abs(iso.factor_solution.mat - expected * np.eye(n))))

    mats = [gen_spd(n, rng) for _ in range(n)]
    v_bar = bw_barycenter(mats, weights)
    stationarity = bw_stationarity_residual(v_bar, mats, weights)

    diags = [np.exp(rng.standard_normal(n)) for _ in range(n)]
    diag_bar = bw_barycenter([SpdMatrix(np.diag(d)) for d in diags], weights)
    closed = np.array(
        [float(np.dot(weights, [np.sqrt(d[i]) for d in diags])) ** 2 for i in range(n)]
    )
    err_diag = float(np.max(np.abs(np.diag(diag_bar.mat) - closed)))
    _report(
        10,
        err_iso <= 1e-12 and stationarity <= 1e-10 and err_diag <= 1e-10,
        f"isotropic mean error {err_iso:.3e} (tol 1e-12); stationarity "
        f"{stationarity:.3e} (tol 1e-10); commuting-diagonal error {err_diag:.3e} "
        f"(tol 1e-10)",
    )


def test_criterion_11_projection_properties():
    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(SEED + n)
        for _ in range(50):
            z = rand_symmetric(n * n, rng)
            scale = max(frob(z), 1.0)
            pz = pi_residual(z)
            worst = max(worst, frob(pi_residual(pz) - pz) / scale)
            y = rand_symmetric(n * n, rng)
            worst = max(
                worst,
                abs(float(np.sum(pz * y) - np.sum(z * pi_residual(y))))
                / (scale * max(frob(y), 1.0)),
            )
            a = rand_symmetric(n, rng)
            a -= np.trace(a) / n * np.eye(n)
            b = rand_symmetric(n, rng)
            member = kron(np.eye(n), a) + kron(b, np.eye(n))
            worst = max(worst, frob(pi_residual(member)) / max(frob(member), 1.0))
            q, r = rand_orthogonal(n, rng), rand_orthogonal(n, rng)
            rot = kron(r, q)
            worst = max(
                worst,
                frob(pi_residual(rot.T @ z @ rot) - rot.T @ pz @ rot) / scale,
            )
    _report(
        11,
        worst <= 1e-12,
        f"projection identities max relative defect {worst:.3e} (tol 1e-12)",
    )

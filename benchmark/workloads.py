"""The benchmark's four workloads.

A workload builds its inputs from a seed (``build``) and turns them into a
fixed list of units (``units``). A unit's ``run`` makes only the library
calls that are timed; its ``check`` compares their outputs with
``references`` and with properties the paper proves, and raises
``CheckFailed`` on a mismatch. A unit runs ``repeats`` times a pass, so
that a unit much cheaper than its pass gets more timed runs.

Library functions are looked up on the ``kronbures`` package at call time,
so that the traced run sees the wrapped names. The draws that mirror the
harness (``bench_cli.gen_spd`` and ``barycenter_dataset``) are copied here,
so that a change to the harness cannot change the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import kronbures as kb
import references as ref

# The gates of the kronbures harness, copied so that a change to the program
# cannot loosen the benchmark's checks.
PAIRWISE_REL_ERR_TOL = 1e-10
LEAF_MODULUS_TOL = 1e-12
ORACLE_GAP_TOL = 1e-6
ORACLE_COORD_TOL = 1e-4

# Tolerances of the benchmark's own checks. Cancellation in
# tr_sum - 2 * cross scales with tr_sum, so distances are compared on that
# scale.
DISTANCE_TOL = 1e-9
SYMMETRY_TOL = 1e-10
SVD_MODULUS_TOL = 1e-10
BARYCENTER_TOL = 1e-9
STATIONARITY_TOL = 1e-8
MEMBERSHIP_TOL = 1e-8

LOGNORMAL_SPREAD = 0.5
LEAF_REGIMES = ("row", "col")
REGIMES = LEAF_REGIMES + ("generic",)


class CheckFailed(Exception):
    """A unit's output disagrees with its reference."""


@dataclass(frozen=True)
class Unit:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    repeats: int = 1


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got: float, want: float, tol: float) -> None:
    _require(abs(got - want) <= tol, f"{name}: {got!r} vs {want!r} (tol {tol:.1e})")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _gen_spd(n: int, rng: np.random.Generator) -> kb.SpdMatrix:
    """G G^T + 0.01 I with standard normal G, as the harness draws endpoints."""
    g = rng.standard_normal((n, n))
    return kb.SpdMatrix(g @ g.T + 0.01 * np.eye(n))


def _log_diag(xi, unit_product: bool) -> np.ndarray:
    """exp of log-coordinates, centred first when the product must be one."""
    return np.exp(xi - xi.mean() if unit_product else xi)


def _lognormal_eigs(n: int, rng: np.random.Generator, unit_product: bool) -> np.ndarray:
    return _log_diag(LOGNORMAL_SPREAD * rng.standard_normal(n), unit_product)


def _from_eigs(basis: np.ndarray, eigs: np.ndarray) -> kb.SpdMatrix:
    return kb.SpdMatrix((basis * eigs) @ basis.T)


def _lognormal_spd(n: int, rng: np.random.Generator) -> kb.SpdMatrix:
    """Well-conditioned SPD factor Q diag(exp(0.5 xi)) Q^T."""
    return _from_eigs(_orthogonal(n, rng), _lognormal_eigs(n, rng, False))


def _lognormal_pair(n: int, regime: str, rng: np.random.Generator):
    """Endpoints on a common row leaf, a common column leaf, or neither."""
    p0 = kb.KroneckerPoint.from_factors(_lognormal_spd(n, rng), _lognormal_spd(n, rng))
    if regime == "row":
        p1 = kb.KroneckerPoint(p0.u_factor, _lognormal_spd(n, rng))
    elif regime == "col":
        tau = float(np.exp(rng.standard_normal()))
        p1 = kb.KroneckerPoint.from_factors(
            _lognormal_spd(n, rng), p0.v_factor.scaled(tau)
        )
    else:
        p1 = kb.KroneckerPoint.from_factors(
            _lognormal_spd(n, rng), _lognormal_spd(n, rng)
        )
    return p0, p1


def _tr_sum(p0, p1) -> float:
    return (
        p0.u_factor.trace() * p0.v_factor.trace()
        + p1.u_factor.trace() * p1.v_factor.trace()
    )


def _reduced(p0, p1) -> float:
    return kb.pairwise_bures_sq_reduced(p0, p1)[0]


def _check_on_leaf(regime: str, p0, p) -> None:
    """p shares p0's U factor (row) or has V proportional to p0's V (col)."""
    if regime == "row":
        a, b = p.u_factor.mat, p0.u_factor.mat
    else:
        a = p.v_factor.mat
        b = p0.v_factor.mat * (np.sum(a * p0.v_factor.mat) / np.sum(p0.v_factor.mat**2))
    gap = float(np.linalg.norm(a - b) / np.linalg.norm(b))
    _require(gap <= MEMBERSHIP_TOL, f"{regime}-leaf membership defect {gap:.3e}")


def _check_midpoint(p0, p1, mid, d2: float) -> None:
    """A geodesic midpoint is at a quarter of the squared distance from each end."""
    scale = _tr_sum(p0, p1)
    _close("d2(p0, mid)", _reduced(p0, mid), d2 / 4.0, DISTANCE_TOL * scale)
    _close("d2(mid, p1)", _reduced(mid, p1), d2 / 4.0, DISTANCE_TOL * scale)


# ---------------------------------------------------------------------------
# knn: one query scored against a cloud of small-factor points

KNN_SIZES = (4, 8, 16)
KNN_CLOUD = 32
KNN_QUERIES = 20
KNN_K = 5
KNN_REFERENCE_MAX_N = 4


def build_knn(seed: int) -> dict:
    inputs = {}
    for n in KNN_SIZES:
        rng = _rng(seed, n)
        cloud = [
            kb.KroneckerPoint.from_factors(_gen_spd(n, rng), _gen_spd(n, rng))
            for _ in range(KNN_CLOUD)
        ]
        queries = [
            kb.KroneckerPoint.from_factors(_gen_spd(n, rng), _gen_spd(n, rng))
            for _ in range(KNN_QUERIES)
        ]
        weights = rng.random(KNN_CLOUD) + 0.5
        inputs[n] = (cloud, queries, weights / weights.sum())
    return inputs


def _knn_run(query, cloud, weights):
    d2 = np.array([kb.pairwise_bures_sq_reduced(query, p)[0] for p in cloud])
    nearest = np.argsort(d2, kind="stable")[:KNN_K]
    return d2, nearest, kb.objective_J(query, cloud, weights)


def _knn_check(query, cloud, weights, out) -> None:
    d2, nearest, objective = out
    _close("objective_J", objective, float(weights @ d2), 1e-12 * objective)
    farthest = int(np.argmax(d2))
    for j in (*nearest.tolist(), farthest):
        p = cloud[j]
        scale = _tr_sum(query, p)
        _close(f"d2 symmetry [{j}]", _reduced(p, query), d2[j], SYMMETRY_TOL * scale)
        if query.n <= KNN_REFERENCE_MAX_N:
            want = ref.bures_sq_ambient(
                ref.kron_embedding(query.u_factor.mat, query.v_factor.mat),
                ref.kron_embedding(p.u_factor.mat, p.v_factor.mat),
            )
            _close(f"d2 vs sqrtm [{j}]", d2[j], want, DISTANCE_TOL * scale)


def knn_units(inputs: dict) -> list[Unit]:
    units = []
    for n, (cloud, queries, weights) in inputs.items():
        for i, q in enumerate(queries):
            units.append(
                Unit(
                    f"knn n={n} query={i}",
                    lambda q=q, c=cloud, w=weights: _knn_run(q, c, w),
                    lambda out, q=q, c=cloud, w=weights: _knn_check(q, c, w, out),
                )
            )
    return units


# ---------------------------------------------------------------------------
# ambient: n^2-sized embeddings, distances and geodesic midpoints

# (n, draws per regime)
AMBIENT_DRAWS = ((8, 7), (12, 4), (16, 2), (24, 1))
# A unit at n <= 12 costs 3-18 ms against ~0.45 s at n = 24, so it runs
# twice a pass.
AMBIENT_REPEAT_MAX_N = 12
AMBIENT_REPEATS = 2


def build_ambient(seed: int) -> list:
    pairs = []
    for n, draws in AMBIENT_DRAWS:
        rng = _rng(seed, n)
        for regime in REGIMES:
            for _ in range(draws):
                pairs.append((regime, *_lognormal_pair(n, regime, rng)))
    return pairs


def _ambient_run(p0, p1):
    k0 = kb.embed(p0)
    k1 = kb.embed(p1)
    d2_ambient = kb.bures_distance_sq(k0, k1)
    d2_reduced = kb.pairwise_bures_sq_reduced(p0, p1)[0]
    mid = kb.geodesic_eval(kb.geodesic(k0, k1), 0.5)
    try:
        recovered = kb.recover_factors(mid)
    except kb.NotInModel:
        recovered = None
    return d2_ambient, d2_reduced, recovered


def _ambient_check(regime, p0, p1, out) -> None:
    d2_ambient, d2_reduced, recovered = out
    _close(
        "reduced vs ambient", d2_reduced, d2_ambient,
        PAIRWISE_REL_ERR_TOL * abs(d2_ambient),
    )
    if regime == "generic":
        _require(recovered is None, "generic midpoint recovered into the model")
        return
    _require(recovered is not None, f"{regime}-leaf midpoint left the model")
    _check_on_leaf(regime, p0, recovered)
    _check_midpoint(p0, p1, recovered, d2_reduced)


def ambient_units(pairs: list) -> list[Unit]:
    return [
        Unit(
            f"ambient n={p0.n} {regime} #{i}",
            lambda p0=p0, p1=p1: _ambient_run(p0, p1),
            lambda out, r=regime, p0=p0, p1=p1: _ambient_check(r, p0, p1, out),
            AMBIENT_REPEATS if p0.n <= AMBIENT_REPEAT_MAX_N else 1,
        )
        for i, (regime, p0, p1) in enumerate(pairs)
    ]


# ---------------------------------------------------------------------------
# closure: the rigidity dichotomy at factor size

CLOSURE_SIZES = (8, 16)
CLOSURE_CHART_N = 32
CLOSURE_DRAWS = 8
PROFILE_GRID = np.arange(1, 200) / 200.0
SVD_SAMPLE = (0, 49, 99, 149, 198)
GENERIC_MIN_MODULUS = 1e-6

_RIGIDITY = {
    "row": kb.RigidityVerdict.COMMON_ROW_LEAF,
    "col": kb.RigidityVerdict.COMMON_COL_LEAF,
    "generic": kb.RigidityVerdict.DEPARTS,
}
_CLOSURE = {
    "row": kb.ClosureVerdict.ALWAYS_IN_MODEL_ROW_LEAF,
    "col": kb.ClosureVerdict.ALWAYS_IN_MODEL_COL_LEAF,
    "generic": kb.ClosureVerdict.DEPARTS_IMMEDIATELY,
}


def _commuting_pair(regime: str, rng: np.random.Generator):
    """Chart endpoints sharing the bases Q (U factors) and R (V factors).

    A leaf regime reuses the shared factor object itself, so the profile
    vectors are bitwise collinear and the moduli vanish exactly.
    """
    n = CLOSURE_CHART_N
    q, r = _orthogonal(n, rng), _orthogonal(n, rng)
    u0 = _from_eigs(q, _lognormal_eigs(n, rng, True))
    v0 = _from_eigs(r, _lognormal_eigs(n, rng, False))
    u1 = u0 if regime == "row" else _from_eigs(q, _lognormal_eigs(n, rng, True))
    v1 = v0 if regime == "col" else _from_eigs(r, _lognormal_eigs(n, rng, False))
    return kb.KroneckerPoint(u0, v0), kb.KroneckerPoint(u1, v1)


def build_closure(seed: int) -> list:
    draws = []
    for n in CLOSURE_SIZES:
        rng = _rng(seed, n)
        for regime in REGIMES:
            for _ in range(CLOSURE_DRAWS):
                draws.append(
                    (regime, _lognormal_pair(n, regime, rng), _commuting_pair(regime, rng))
                )
    return draws


def _leaf(regime, p0):
    return kb.row_leaf(p0.u_factor) if regime == "row" else kb.col_leaf(p0.v_factor)


def _closure_run(regime, pair, chart_pair):
    report = kb.endpoint_rigidity_classify(*pair)
    chart = kb.build_chart(*chart_pair)
    verdict = kb.classify_closure_commuting(chart)
    profile = kb.SqrtProfile.from_chart(chart)
    rows = list(kb.closure_diagnostics.departure_profile_rows(profile, PROFILE_GRID))
    mid = leaf_d2 = None
    if regime != "generic":
        leaf = _leaf(regime, pair[0])
        mid = kb.leaf_geodesic(leaf, *pair, 0.5)
        leaf_d2 = kb.homothety_distance(leaf, *pair)
    return report.verdict, verdict, profile, rows, mid, leaf_d2


def _closure_check(regime, pair, out) -> None:
    rigidity, closure, profile, rows, mid, leaf_d2 = out
    _require(rigidity is _RIGIDITY[regime], f"rigidity verdict {rigidity} for {regime}")
    _require(closure is _CLOSURE[regime], f"closure verdict {closure} for {regime}")
    moduli = np.array([(geo, diag) for _, geo, diag in rows])
    if regime == "generic":
        _require(
            moduli[:, 0].max() >= GENERIC_MIN_MODULUS,
            f"generic profile stays rank one: max modulus {moduli[:, 0].max():.3e}",
        )
        for j in SVD_SAMPLE:
            t = rows[j][0]
            want = ref.profile_sigma2(profile.a, profile.b, profile.c, profile.d, t)
            _close(f"delta_geo vs svd at t={t}", rows[j][1], want, SVD_MODULUS_TOL)
        return
    _require(
        moduli.max() <= LEAF_MODULUS_TOL,
        f"{regime}-leaf modulus {moduli.max():.3e} above {LEAF_MODULUS_TOL:.0e}",
    )
    p0, p1 = pair
    d2 = _reduced(p0, p1)
    _close("homothety vs reduced", leaf_d2, d2, DISTANCE_TOL * _tr_sum(p0, p1))
    _check_on_leaf(regime, p0, mid)
    _check_midpoint(p0, p1, mid, d2)


def closure_units(draws: list) -> list[Unit]:
    return [
        Unit(
            f"closure n={pair[0].n} {regime} #{i}",
            lambda r=regime, p=pair, c=chart: _closure_run(r, p, c),
            lambda out, r=regime, p=pair: _closure_check(r, p, out),
        )
        for i, (regime, pair, chart) in enumerate(draws)
    ]


# ---------------------------------------------------------------------------
# barycenter: exact slice and leaf barycenters, and the iterative oracle

BARY_N = 8
BARY_COUNT = 8
# Slice datasets are the harness's own draws at its default seed. The
# oracle's cost per dataset ranges from 26 to 613 ms with the draw, so a
# seeded slice panel of any size that fits a pass would let the seed, not
# the code, set the end-to-end rate. The seed draws the leaf datasets.
SLICE_PANEL_SEED = 42
SLICE_TRIALS = 4
LEAF_DRAWS = 7
# A leaf unit costs 1-4 ms against 40-360 ms for a slice unit, so in a pass
# of one run each the leaf units would get as few timed runs as the slices.
LEAF_REPEATS = 4


def slice_dataset(name: str, rng: np.random.Generator) -> kb.SliceData:
    """Dataset A (isotropic leaf), B (log scale 0.1) or C (log scale 1)."""
    n, count = BARY_N, BARY_COUNT
    alphas = np.exp(rng.standard_normal(count))
    if name == "A":
        u_eigs = np.ones((count, n))
        v_eigs = alphas[:, None] * np.ones((count, n))
    else:
        scale = 0.1 if name == "B" else 1.0
        xi = rng.standard_normal((count, n))
        eta = rng.standard_normal((count, n))
        u_eigs = np.vstack([_log_diag(scale * row, True) for row in xi])
        v_eigs = alphas[:, None] * np.vstack([_log_diag(scale * row, False) for row in eta])
    return kb.SliceData(u_eigs=u_eigs, v_eigs=v_eigs, weights=np.full(count, 1.0 / count))


def _leaf_dataset(regime: str, commuting: bool, rng: np.random.Generator):
    """Points on one factor leaf, with the factor matrices the leaf averages."""
    n = BARY_N
    basis = _orthogonal(n, rng) if commuting else None
    anchor = kb.KroneckerPoint.from_factors(_lognormal_spd(n, rng), _lognormal_spd(n, rng))
    points, factors = [], []
    for _ in range(BARY_COUNT):
        moving = (
            _from_eigs(basis, _lognormal_eigs(n, rng, False))
            if commuting
            else _lognormal_spd(n, rng)
        )
        if regime == "row":
            p = kb.KroneckerPoint(anchor.u_factor, moving)
            factors.append(p.v_factor)
        else:
            tau = float(np.exp(rng.standard_normal()))
            p = kb.KroneckerPoint.from_factors(moving, anchor.v_factor.scaled(tau))
            scale = p.v_factor.trace() / anchor.v_factor.trace()
            factors.append(p.u_factor.scaled(scale))
        points.append(p)
    weights = rng.random(BARY_COUNT) + 0.5
    return anchor, points, factors, weights / weights.sum(), basis


def build_barycenter(seed: int) -> list:
    items = []
    for k in range(SLICE_TRIALS):
        rng = np.random.default_rng(SLICE_PANEL_SEED + k)
        for name in ("A", "B", "C"):
            items.append(("slice", name, slice_dataset(name, rng)))
    rng = _rng(seed, BARY_N)
    for regime in LEAF_REGIMES:
        for commuting in (True, False):
            for _ in range(LEAF_DRAWS):
                items.append(("leaf", regime, _leaf_dataset(regime, commuting, rng)))
    return items


def _slice_run(data):
    return kb.slice_barycenter(data), kb.log_coordinate_oracle(data)


def _slice_check(data, out) -> None:
    exact, (x_hat, y_hat, _) = out
    args = (data.u_eigs, data.v_eigs, data.weights)
    sigma1 = ref.coefficient_sigma1(*args)
    _close("Perron sigma1 vs svd", exact.perron.sigma1, sigma1, 1e-10 * sigma1)
    f_exact = ref.slice_objective(exact.x_star, exact.y_star, *args)
    _close("exact minimum value", exact.min_value, f_exact, BARYCENTER_TOL * max(f_exact, 1.0))
    f_oracle = ref.slice_objective(x_hat, y_hat, *args)
    _close("oracle objective gap", f_oracle, f_exact, ORACLE_GAP_TOL * max(f_exact, 1.0))
    coord = max(
        np.linalg.norm(x_hat - exact.x_star) / np.linalg.norm(exact.x_star),
        np.linalg.norm(y_hat - exact.y_star) / np.linalg.norm(exact.y_star),
    )
    _require(coord <= ORACLE_COORD_TOL, f"oracle coordinate error {coord:.3e}")


def _leaf_run(regime, dataset):
    anchor, points, _, weights, _ = dataset
    return kb.leaf_barycenter(_leaf(regime, anchor), points, weights)


def _leaf_check(regime, dataset, out) -> None:
    anchor, _, factors, weights, basis = dataset
    _check_on_leaf(regime, anchor, out.point)
    got = out.factor_solution
    if basis is not None:
        eig_rows = [np.diag(basis.T @ f.mat @ basis) for f in factors]
        want = ref.commuting_bw_barycenter(basis, eig_rows, weights)
        err = float(np.linalg.norm(got.mat - want) / np.linalg.norm(want))
        _require(err <= BARYCENTER_TOL, f"commuting barycenter error {err:.3e}")
    else:
        res = kb.bw_stationarity_residual(got, factors, weights)
        _require(res <= STATIONARITY_TOL, f"BW stationarity residual {res:.3e}")


def barycenter_units(items: list) -> list[Unit]:
    units = []
    for i, (kind, name, payload) in enumerate(items):
        if kind == "slice":
            run = lambda d=payload: _slice_run(d)
            check = lambda out, d=payload: _slice_check(d, out)
            repeats = 1
        else:
            run = lambda r=name, d=payload: _leaf_run(r, d)
            check = lambda out, r=name, d=payload: _leaf_check(r, d, out)
            repeats = LEAF_REPEATS
        units.append(Unit(f"barycenter {kind} {name} #{i}", run, check, repeats))
    return units


WORKLOADS = {
    "knn": (build_knn, knn_units),
    "ambient": (build_ambient, ambient_units),
    "closure": (build_closure, closure_units),
    "barycenter": (build_barycenter, barycenter_units),
}

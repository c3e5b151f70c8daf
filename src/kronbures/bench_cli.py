"""Benchmark harness and CLI.

Three experiments at desk scale: the pairwise spectral reduction
(timing and accuracy), fixed-chart departure moduli, and the
commuting-slice barycenter benchmarks. Reports are emitted as CSV, JSON,
or aligned text. A single root seed plus the trial index determines every
random stream, so metric values are bit-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barycenter import (
    SliceData,
    log_coordinate_oracle,
    slice_barycenter,
    slice_objective,
)
from .bures_metric import bures_distance_sq
from .closure_diagnostics import (
    DepartureCoefficients,
    SqrtProfile,
    delta_geo_asymptote,
    departure_profile_rows,
    write_departure_profile,
)
from .errors import ConfigError, NumericalConsistencyError
from .kron_model import KroneckerPoint, embed, pairwise_bures_sq_reduced
from .spd_core import SpdMatrix

DEFAULT_SEED = 42
DEFAULT_TRIALS = 20
DEFAULT_AMBIENT_CUTOFF = 64
DEFAULT_PAIRWISE_SIZES = (8, 16, 32)
DEFAULT_DEPARTURE_SIZE = 32
DEFAULT_BARYCENTER_SIZE = 8
BARYCENTER_DATA_COUNT = 8

DEPARTURE_REGIMES = ("shared_u_leaf", "shared_v_leaf", "generic")
BARYCENTER_DATASETS = ("A", "B", "C")

LEAF_MODULUS_TOL = 1e-12
PAIRWISE_REL_ERR_TOL = 1e-10


class ExperimentKind(Enum):
    PAIRWISE = "pairwise"
    DEPARTURE = "departure"
    BARYCENTER = "barycenter"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: ExperimentKind
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    sizes: tuple = DEFAULT_PAIRWISE_SIZES
    ambient_cutoff: int = DEFAULT_AMBIENT_CUTOFF
    profile_out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not self.sizes:
            raise ConfigError("sizes must be nonempty")
        if any(n < 1 for n in self.sizes):
            raise ConfigError(f"sizes must be positive, got {self.sizes}")


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    regime: str
    n: int
    metric: str
    mean: float
    std: float


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Documented splitting rule: stream for trial k is default_rng(seed + k).
    return np.random.default_rng(seed + trial)


def gen_spd(n: int, rng: np.random.Generator) -> SpdMatrix:
    """Random SPD matrix G G^T + 0.01 I with standard normal G."""
    g = rng.standard_normal((n, n))
    return SpdMatrix(g @ g.T + 0.01 * np.eye(n))


def gen_log_diag(xi, normalized: bool) -> np.ndarray:
    """Positive diagonal from log-coordinates.

    normalized=True centers the coordinates, so the product of the entries
    is one; normalized=False exponentiates them as given.
    """
    xi = np.asarray(xi, dtype=float).ravel()
    if normalized:
        xi = xi - xi.mean()
    return np.exp(xi)


def _summarize(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def _rows_from_trials(experiment, regime, n, metrics) -> list[SummaryRow]:
    """One summary row per metric, in the order of the ``metrics`` dict.

    ``metrics`` maps each metric name to its per-trial values in trial order.
    """
    rows = []
    for metric, values in metrics.items():
        mean, std = _summarize(values)
        rows.append(
            SummaryRow(
                experiment=experiment, regime=regime, n=n, metric=metric,
                mean=mean, std=std,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Experiment 1: pairwise spectral reduction


def pairwise_trial(n: int, rng: np.random.Generator, with_ambient: bool) -> dict:
    """One pairwise draw; returns timings and the ambient/reduced error.

    Endpoints are drawn as gauge-normalized pairs of G G^T + 0.01 I
    factors; timings cover only the distance evaluation, with endpoints
    pre-built in each representation.
    """
    p0 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
    p1 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))

    t0 = time.perf_counter()
    reduced, _ = pairwise_bures_sq_reduced(p0, p1)
    reduced_time = time.perf_counter() - t0

    out = {"reduced_time": reduced_time, "reduced_value": reduced}
    if with_ambient:
        k0 = embed(p0)
        k1 = embed(p1)
        t0 = time.perf_counter()
        ambient = bures_distance_sq(k0, k1)
        ambient_time = time.perf_counter() - t0
        out.update(
            ambient_time=ambient_time,
            ambient_value=ambient,
            speedup=ambient_time / max(reduced_time, 1e-12),
            rel_err=abs(ambient - reduced) / abs(ambient),
        )
    return out


def run_pairwise_experiment(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Per-size timing, speedup, relative error, and storage ratio rows."""
    rows = []
    for n in cfg.sizes:
        with_ambient = n <= cfg.ambient_cutoff
        # One untimed warm-up evaluation per size.
        pairwise_trial(n, _trial_rng(cfg.seed, 0), with_ambient)
        trials = [
            pairwise_trial(n, _trial_rng(cfg.seed, k), with_ambient)
            for k in range(cfg.trials)
        ]
        metrics = {"reduced_time": [t["reduced_time"] for t in trials]}
        if with_ambient:
            for metric in ("ambient_time", "speedup", "rel_err"):
                metrics[metric] = [t[metric] for t in trials]
            worst = max(metrics["rel_err"])
            if worst > PAIRWISE_REL_ERR_TOL:
                raise NumericalConsistencyError(
                    f"pairwise relative error {worst:.3e} exceeds "
                    f"{PAIRWISE_REL_ERR_TOL:.1e} at n = {n}"
                )
        rows.extend(_rows_from_trials("pairwise", "", n, metrics))
        rows.append(
            SummaryRow(
                experiment="pairwise", regime="", n=n, metric="storage_ratio",
                mean=n * n / 2.0, std=0.0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Experiment 2: fixed-chart departure moduli


def departure_draw(n: int, rng: np.random.Generator, regime: str) -> SqrtProfile:
    """Profile draw: a, c centered to unit product, b, d uncentered.

    Leaf regimes copy a into c (or b into d) without re-rounding, so the
    exact-collinearity cancellation applies and the moduli vanish
    identically.
    """
    a = np.sqrt(gen_log_diag(rng.standard_normal(n), normalized=True))
    b = np.sqrt(gen_log_diag(rng.standard_normal(n), normalized=False))
    if regime == "shared_u_leaf":
        c = a.copy()
        d = np.sqrt(gen_log_diag(rng.standard_normal(n), normalized=False))
    elif regime == "shared_v_leaf":
        c = np.sqrt(gen_log_diag(rng.standard_normal(n), normalized=True))
        d = b.copy()
    elif regime == "generic":
        c = np.sqrt(gen_log_diag(rng.standard_normal(n), normalized=True))
        d = np.sqrt(gen_log_diag(rng.standard_normal(n), normalized=False))
    else:
        raise ConfigError(f"unknown departure regime {regime!r}")
    return SqrtProfile(a=a, b=b, c=c, d=d)


def departure_draw_metrics(profile: SqrtProfile) -> dict:
    """Max moduli over the interior grid and the small-t quadratic fit."""
    grid = np.arange(1, 200) / 200.0
    _, geo, diag = np.array(list(departure_profile_rows(profile, grid))).T
    fit_ts = grid[:10]
    fitted = float((fit_ts**2 @ geo[:10] ** 2) / (fit_ts**4).sum())
    predicted = delta_geo_asymptote(DepartureCoefficients.from_profile(profile))
    fit_rel_err = abs(fitted - predicted) / predicted if predicted > 0.0 else 0.0
    return {
        "max_delta_geo": float(geo.max()),
        "max_delta_diag": float(diag.max()),
        "fitted_coeff": fitted,
        "predicted_coeff": predicted,
        "fit_rel_err": fit_rel_err,
    }


def run_departure_experiment(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Three regimes of profile draws with moduli and fit statistics."""
    n = cfg.sizes[0]
    rows = []
    for regime in DEPARTURE_REGIMES:
        profiles = [
            departure_draw(n, _trial_rng(cfg.seed, k), regime)
            for k in range(cfg.trials)
        ]
        if regime == "generic" and cfg.profile_out:
            write_departure_profile(cfg.profile_out, profiles[0])
        trials = [departure_draw_metrics(p) for p in profiles]
        metrics = {metric: [t[metric] for t in trials] for metric in trials[0]}
        if regime != "generic":
            worst = max(max(metrics["max_delta_geo"]), max(metrics["max_delta_diag"]))
            if worst > LEAF_MODULUS_TOL:
                raise NumericalConsistencyError(
                    f"leaf regime {regime} has modulus {worst:.3e} above "
                    f"{LEAF_MODULUS_TOL:.1e}"
                )
        rows.extend(_rows_from_trials("departure", regime, n, metrics))
    return rows


# ---------------------------------------------------------------------------
# Experiment 3: slice barycenter benchmarks


def barycenter_dataset(
    name: str, n: int, count: int, rng: np.random.Generator
) -> SliceData:
    """Datasets A (isotropic leaf), B (scale 0.1), C (scale 1).

    Draw order per datum stream: alpha log-scales first, then the U and V
    log-coordinate blocks for B and C.
    """
    alphas = np.exp(rng.standard_normal(count))
    if name == "A":
        u_eigs = np.ones((count, n))
        v_eigs = alphas[:, None] * np.ones((count, n))
    elif name in ("B", "C"):
        scale = 0.1 if name == "B" else 1.0
        xi = rng.standard_normal((count, n))
        eta = rng.standard_normal((count, n))
        u_eigs = np.vstack([gen_log_diag(scale * row, normalized=True) for row in xi])
        v_eigs = alphas[:, None] * np.vstack(
            [gen_log_diag(scale * row, normalized=False) for row in eta]
        )
    else:
        raise ConfigError(f"unknown barycenter dataset {name!r}")
    weights = np.full(count, 1.0 / count)
    return SliceData(u_eigs=u_eigs, v_eigs=v_eigs, weights=weights)


def barycenter_trial(data: SliceData) -> dict:
    """Formula and oracle objectives, oracle residual, and coordinate error."""
    formula = slice_barycenter(data)
    x_hat, y_hat, residual = log_coordinate_oracle(data)
    numerical_obj = slice_objective(x_hat, y_hat, data)
    coord_error = max(
        float(np.linalg.norm(x_hat - formula.x_star) / np.linalg.norm(formula.x_star)),
        float(np.linalg.norm(y_hat - formula.y_star) / np.linalg.norm(formula.y_star)),
    )
    return {
        "formula_obj": formula.min_value,
        "numerical_obj": numerical_obj,
        "residual": residual,
        "coord_error": coord_error,
    }


def run_barycenter_experiment(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Dataset A/B/C rows with formula vs oracle agreement statistics."""
    n = cfg.sizes[0]
    rows = []
    datasets = {name: [] for name in BARYCENTER_DATASETS}
    for k in range(cfg.trials):
        rng = _trial_rng(cfg.seed, k)
        for name in BARYCENTER_DATASETS:
            datasets[name].append(
                barycenter_dataset(name, n, BARYCENTER_DATA_COUNT, rng)
            )
    for name in BARYCENTER_DATASETS:
        trials = [barycenter_trial(d) for d in datasets[name]]
        for tr in trials:
            gap = abs(tr["formula_obj"] - tr["numerical_obj"])
            if gap > 1e-6 * max(abs(tr["formula_obj"]), 1.0) or tr["coord_error"] > 1e-4:
                raise NumericalConsistencyError(
                    f"dataset {name}: oracle disagrees with the exact formula "
                    f"(objective gap {gap:.3e}, coordinate error "
                    f"{tr['coord_error']:.3e})"
                )
        metrics = {metric: [t[metric] for t in trials] for metric in trials[0]}
        rows.extend(_rows_from_trials("barycenter", name, n, metrics))
    return rows


# ---------------------------------------------------------------------------
# Reporting


def _rows_to_csv(rows, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["experiment", "regime", "n", "metric", "mean", "std"])
    for row in rows:
        writer.writerow(
            [row.experiment, row.regime, row.n, row.metric, repr(row.mean), repr(row.std)]
        )


def _rows_to_json(rows) -> str:
    return json.dumps(
        [
            {
                "experiment": r.experiment,
                "regime": r.regime,
                "n": r.n,
                "metric": r.metric,
                "mean": r.mean,
                "std": r.std,
            }
            for r in rows
        ],
        indent=2,
    )


def _rows_to_table(rows) -> str:
    header = ("experiment", "regime", "n", "metric", "mean", "std")
    cells = [header]
    for r in rows:
        cells.append(
            (r.experiment, r.regime, str(r.n), r.metric, f"{r.mean:.6g}", f"{r.std:.6g}")
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def parse_summary_json(text: str) -> list[SummaryRow]:
    """Parse a JSON report back into summary rows."""
    return [
        SummaryRow(
            experiment=obj["experiment"],
            regime=obj["regime"],
            n=int(obj["n"]),
            metric=obj["metric"],
            mean=float(obj["mean"]),
            std=float(obj["std"]),
        )
        for obj in json.loads(text)
    ]


def emit_report(rows, format: str, path: str | None) -> None:
    """Write summary rows as csv, json, or an aligned table."""
    rows = list(rows)
    if not rows:
        raise ConfigError("no summary rows to report")
    if format == "csv":
        buffer = io.StringIO()
        _rows_to_csv(rows, buffer)
        text = buffer.getvalue()
    elif format == "json":
        text = _rows_to_json(rows) + "\n"
    elif format == "table":
        text = _rows_to_table(rows)
    else:
        raise ConfigError(f"unknown format {format!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# CLI

RUNNERS = {
    ExperimentKind.PAIRWISE: run_pairwise_experiment,
    ExperimentKind.DEPARTURE: run_departure_experiment,
    ExperimentKind.BARYCENTER: run_barycenter_experiment,
}

_DEFAULT_SIZES = {
    ExperimentKind.PAIRWISE: DEFAULT_PAIRWISE_SIZES,
    ExperimentKind.DEPARTURE: (DEFAULT_DEPARTURE_SIZE,),
    ExperimentKind.BARYCENTER: (DEFAULT_BARYCENTER_SIZE,),
}


def _parse_sizes(raw: str) -> tuple:
    try:
        sizes = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse sizes {raw!r}") from exc
    if not sizes:
        raise ConfigError(f"cannot parse sizes {raw!r}")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronbures",
        description="Benchmark harness for the Kronecker Bures geometry library.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    common.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated factor dimensions (pairwise only for 'all')",
    )
    common.add_argument("--format", choices=("csv", "json", "table"), default="table")
    common.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    common.add_argument("--ambient-cutoff", type=int, default=DEFAULT_AMBIENT_CUTOFF)
    common.add_argument(
        "--profile-out",
        type=str,
        default=None,
        help="per-t departure profile CSV for the first generic draw",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pairwise", "departure", "barycenter", "all"):
        sub.add_parser(name, parents=[common])
    return parser


def _configs_from_args(args) -> list[ExperimentConfig]:
    if args.command == "all":
        kinds = [ExperimentKind.PAIRWISE, ExperimentKind.DEPARTURE, ExperimentKind.BARYCENTER]
    else:
        kinds = [ExperimentKind(args.command)]
    sizes_override = _parse_sizes(args.sizes) if args.sizes else None
    configs = []
    for kind in kinds:
        use_override = sizes_override is not None and (
            args.command != "all" or kind is ExperimentKind.PAIRWISE
        )
        configs.append(
            ExperimentConfig(
                experiment=kind,
                seed=args.seed,
                trials=args.trials,
                sizes=sizes_override if use_override else _DEFAULT_SIZES[kind],
                ambient_cutoff=args.ambient_cutoff,
                profile_out=args.profile_out,
            )
        )
    return configs


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rows = []
        for cfg in _configs_from_args(args):
            rows.extend(RUNNERS[cfg.experiment](cfg))
        emit_report(rows, args.format, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3
    return 0


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()

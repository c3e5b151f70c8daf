"""Benchmark harness and CLI.

Three experiments at desk scale, listed in ``EXPERIMENTS``: the pairwise
spectral reduction (timing and accuracy), fixed-chart departure moduli
(and the per-t profile CSV), and the commuting-slice barycenter benchmarks.
Reports are emitted as CSV, JSON, or aligned text. A single root seed plus
the trial index determines every random stream, so metric values are
bit-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .barycenter import (
    SliceData,
    log_coordinate_oracle,
    slice_barycenter,
    slice_objective,
)
from .bures_metric import bures_distance_sq
from .closure_diagnostics import (
    SqrtProfile,
    delta_diag,
    delta_geo_asymptote,
    delta_geo_closed_form,
    departure_profile_rows,
)
from .errors import (
    ConfigError,
    InconsistentVerdict,
    NoConvergence,
    NumericalConsistencyError,
)
from .kron_model import KroneckerPoint, embed, pairwise_bures_sq_reduced
from .spd_core import SpdMatrix

DEFAULT_SEED = 42
DEFAULT_TRIALS = 20
BARYCENTER_DATA_COUNT = 8

DEPARTURE_REGIMES = ("shared_u_leaf", "shared_v_leaf", "generic")
BARYCENTER_DATASETS = ("A", "B", "C")

LEAF_MODULUS_TOL = 1e-12
PAIRWISE_REL_ERR_TOL = 1e-10
# The oracle's objective gap is relative to max(|formula_obj|, 1).
ORACLE_GAP_TOL = 1e-6
ORACLE_COORD_TOL = 1e-4

# The t grid of the departure profile CSV.
PROFILE_GRID = np.linspace(0.0, 1.0, 201)

# Pairwise evaluates the ambient n^2 x n^2 distance only up to this n.
AMBIENT_CUTOFF = 64


def _integer(name: str, value) -> int:
    """value as an int: numpy integers pass; a bool, float or string raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; ``experiment`` is a name in ``EXPERIMENTS``."""

    experiment: str
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    sizes: tuple | None = None
    profile_out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        sizes = EXPERIMENTS[self.experiment].sizes if self.sizes is None else self.sizes
        try:
            sizes = tuple(_integer("sizes", n) for n in sizes)
        except TypeError:
            raise ConfigError(f"sizes must be a sequence, got {sizes!r}") from None
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not self.sizes:
            raise ConfigError("sizes must be nonempty")
        if any(n < 1 for n in self.sizes):
            raise ConfigError(f"sizes must be positive, got {self.sizes}")
        if self.experiment != "pairwise" and len(self.sizes) > 1:
            raise ConfigError(f"{self.experiment} takes one size, got {self.sizes}")
        if self.profile_out is not None and self.experiment != "departure":
            raise ConfigError(f"{self.experiment} writes no profile")


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


def _rows_from_trials(experiment, regime, n, metrics) -> list[SummaryRow]:
    """One summary row per metric, in the order of the ``metrics`` dict.

    ``metrics`` maps each metric name to its per-trial values in trial order.
    """
    rows = []
    for metric, values in metrics.items():
        arr = np.asarray(values, dtype=float)
        rows.append(
            SummaryRow(
                experiment=experiment, regime=regime, n=n, metric=metric,
                mean=float(arr.mean()), std=float(arr.std()),
            )
        )
    return rows


def _gate(context: str, metric: str, values, tol: float) -> None:
    """Raise NumericalConsistencyError naming the worst trial if it exceeds tol.

    argmax picks a NaN first, and a NaN fails the gate.
    """
    k = int(np.argmax(values))
    if not values[k] <= tol:
        raise NumericalConsistencyError(
            f"{context}, trial {k}: {metric} {values[k]:.3e} exceeds {tol:.1e}"
        )


# ---------------------------------------------------------------------------
# Experiment 1: pairwise spectral reduction


def pairwise_trial(n: int, rng: np.random.Generator) -> dict:
    """One pairwise draw; returns timings and, up to n = AMBIENT_CUTOFF,
    the ambient timing, speedup and ambient/reduced error.

    Endpoints are drawn as gauge-normalized pairs of G G^T + 0.01 I
    factors; timings cover only the distance evaluation, with endpoints
    pre-built in each representation.
    """
    p0 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))
    p1 = KroneckerPoint.from_factors(gen_spd(n, rng), gen_spd(n, rng))

    t0 = time.perf_counter()
    reduced, _ = pairwise_bures_sq_reduced(p0, p1)
    reduced_time = time.perf_counter() - t0

    out = {"reduced_time": reduced_time}
    if n <= AMBIENT_CUTOFF:
        k0 = embed(p0)
        k1 = embed(p1)
        t0 = time.perf_counter()
        ambient = bures_distance_sq(k0, k1)
        ambient_time = time.perf_counter() - t0
        out.update(
            ambient_time=ambient_time,
            speedup=ambient_time / max(reduced_time, 1e-12),
            rel_err=abs(ambient - reduced) / abs(ambient),
        )
    return out


def run_pairwise_experiment(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Per-size timing, speedup, relative error, and storage ratio rows."""
    rows = []
    for n in cfg.sizes:
        # One untimed warm-up evaluation per size.
        pairwise_trial(n, _trial_rng(cfg.seed, 0))
        trials = [pairwise_trial(n, _trial_rng(cfg.seed, k)) for k in range(cfg.trials)]
        metrics = {metric: [t[metric] for t in trials] for metric in trials[0]}
        if "rel_err" in metrics:
            _gate(f"n = {n}", "rel_err", metrics["rel_err"], PAIRWISE_REL_ERR_TOL)
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
    geo = delta_geo_closed_form(profile, grid)
    diag = delta_diag(profile, grid)
    fit_ts = grid[:10]
    fitted = float((fit_ts**2 @ geo[:10] ** 2) / (fit_ts**4).sum())
    predicted = delta_geo_asymptote(profile)
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
            with open(cfg.profile_out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("t", "delta_geo", "delta_diag"))
                writer.writerows(departure_profile_rows(profiles[0], PROFILE_GRID))
        trials = [departure_draw_metrics(p) for p in profiles]
        metrics = {metric: [t[metric] for t in trials] for metric in trials[0]}
        if regime != "generic":
            context = f"leaf regime {regime} at n = {n}"
            for metric in ("max_delta_geo", "max_delta_diag"):
                _gate(context, metric, metrics[metric], LEAF_MODULUS_TOL)
        rows.extend(_rows_from_trials("departure", regime, n, metrics))
    return rows


# ---------------------------------------------------------------------------
# Experiment 3: slice barycenter benchmarks


def barycenter_dataset(name: str, n: int, rng: np.random.Generator) -> SliceData:
    """Datasets A (isotropic leaf), B (scale 0.1), C (scale 1), each of
    BARYCENTER_DATA_COUNT data.

    Draw order per datum stream: alpha log-scales first, then the U and V
    log-coordinate blocks for B and C.
    """
    count = BARYCENTER_DATA_COUNT
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
            datasets[name].append(barycenter_dataset(name, n, rng))
    for name in BARYCENTER_DATASETS:
        trials = [barycenter_trial(d) for d in datasets[name]]
        metrics = {metric: [t[metric] for t in trials] for metric in trials[0]}
        # The oracle must agree with the exact formula.
        gaps = [
            abs(t["formula_obj"] - t["numerical_obj"]) / max(abs(t["formula_obj"]), 1.0)
            for t in trials
        ]
        context = f"dataset {name} at n = {n}"
        _gate(context, "relative objective gap", gaps, ORACLE_GAP_TOL)
        _gate(context, "coord_error", metrics["coord_error"], ORACLE_COORD_TOL)
        rows.extend(_rows_from_trials("barycenter", name, n, metrics))
    return rows


# ---------------------------------------------------------------------------
# Reporting


_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def _rows_to_csv(rows, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(_COLUMNS)
    writer.writerows(astuple(r) for r in rows)


def _rows_to_json(rows) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)


def _rows_to_table(rows) -> str:
    cells = [_COLUMNS]
    for r in rows:
        cells.append(
            (r.experiment, r.regime, str(r.n), r.metric, f"{r.mean:.6g}", f"{r.std:.6g}")
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(_COLUMNS))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


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

class Experiment(NamedTuple):
    run: Callable[[ExperimentConfig], list]
    sizes: tuple


# Runners and default sizes; 'all' runs them in this order.
EXPERIMENTS = {
    "pairwise": Experiment(run_pairwise_experiment, (8, 16, 32)),
    "departure": Experiment(run_departure_experiment, (32,)),
    "barycenter": Experiment(run_barycenter_experiment, (8,)),
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
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument(
        "--profile-out",
        type=str,
        default=None,
        help="per-t departure profile CSV for the first generic draw",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*EXPERIMENTS, "all"):
        writes_profile = name in ("departure", "all")
        sub.add_parser(name, parents=[common, profile] if writes_profile else [common])
    return parser


def _configs_from_args(args) -> list[ExperimentConfig]:
    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    sizes = _parse_sizes(args.sizes) if args.sizes else None
    profile_out = getattr(args, "profile_out", None)
    return [
        ExperimentConfig(
            experiment=name,
            seed=args.seed,
            trials=args.trials,
            # Under 'all', --sizes applies to pairwise only.
            sizes=sizes if args.command != "all" or name == "pairwise" else None,
            profile_out=profile_out if name == "departure" else None,
        )
        for name in names
    ]


def _check_writable(path: str | None) -> None:
    """Open path for append and close it again, so that an unwritable
    output path fails before any experiment runs. An existing file keeps
    its contents; a file the probe created is removed again."""
    if path is None:
        return
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        configs = _configs_from_args(args)
        _check_writable(args.out)
        for cfg in configs:
            _check_writable(cfg.profile_out)
        rows = []
        for cfg in configs:
            try:
                rows.extend(EXPERIMENTS[cfg.experiment].run(cfg))
            except (NumericalConsistencyError, NoConvergence, InconsistentVerdict) as exc:
                print(
                    f"{cfg.experiment} experiment failed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                return 3
        emit_report(rows, args.format, args.out)
    # An unwritable --out or --profile-out path is a configuration error.
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()

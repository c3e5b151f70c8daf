"""Run one kronbures benchmark workload and print its metrics.

    python3 benchmark/run.py --workload knn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src``. BLAS is pinned to one thread before numpy loads. Set-up is timed
as the import of ``kronbures`` (in fresh child processes) plus building
the workload's inputs from the seed, each sampled SETUP_REPEATS times
across the run and taken at its median. Timed passes repeat the unit list
for the given seconds (at least three); a unit's first run also checks its
output, outside the timed region. With ``--trace 1`` the library names
listed under ``per_layer`` in BENCHMARK.json are wrapped in spans, and the
per-layer metrics are printed instead of the end-to-end ones.

Times are per-unit minima over a unit's runs: on a shared host the same pass
runs 1.5x slower in some multi-second phases than in others, and a median
over passes lands on whichever phase held the majority of a run. The
phases of the host's CPUs are only loosely correlated, so passes take
turns on the CPUs the process may use.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
with its metadata is written under ``benchmark/runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 10
MIN_PASSES = 3
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import kronbures; "
    "print(time.perf_counter() - t0)"
)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least MIN_BEYOND_TAIL of count values above it."""
    for p in TAIL_PERCENTILES:
        if count - math.ceil(p * count / 100.0) >= MIN_BEYOND_TAIL:
            return p
    raise ValueError(f"{count} units leave fewer than {MIN_BEYOND_TAIL} beyond p75")


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered) / 100.0) - 1]


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in (*THREAD_VARS, "KRONBURES_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
    }


def import_seconds() -> float:
    """Time `import kronbures` in a fresh interpreter with this process's env."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def pass_order(units) -> list[int]:
    """Unit indices in the order of one pass.

    Unit i runs units[i].repeats times, its runs spread evenly through the
    pass; a unit that runs once keeps its place in the list.
    """
    n = len(units)
    slots = [
        ((k + (i + 0.5) / n) / unit.repeats, i)
        for i, unit in enumerate(units)
        for k in range(unit.repeats)
    ]
    return [i for _, i in sorted(slots)]


def timed_passes(units, seconds, tracer, set_up_again=None):
    """Repeat the unit list for `seconds` (at least MIN_PASSES passes).

    A pass runs the units in `pass_order`. A unit's first run also checks
    its output, outside the timed region. A unit fails when its check fails
    or it raises an error its check does not expect; a unit that fails on
    its first run counts as failed on every run. Passes take turns on the
    CPUs the process may run on, one CPU a pass. Between passes, untimed,
    calls `set_up_again` each time another 1/SETUP_REPEATS of `seconds` has
    gone, so that set-up is sampled across the run's phases rather than in
    one burst. Returns
    per-unit times, per-pass totals, span marks, attempted, failed and how
    many units returned a wrong result.
    """
    from workloads import CheckFailed

    cpus = sorted(os.sched_getaffinity(0))
    order = pass_order(units)
    times = [[] for _ in units]
    totals, marks = [], []
    checked, failed_units, wrong = set(), set(), 0
    attempted = failed = set_ups = 0
    start = time.perf_counter()
    try:
        while len(totals) < MIN_PASSES or time.perf_counter() - start < seconds:
            due = (set_ups + 1) * seconds / SETUP_REPEATS
            if set_up_again and set_ups < SETUP_REPEATS - 1 and time.perf_counter() - start >= due:
                set_up_again()
                set_ups += 1
            os.sched_setaffinity(0, {cpus[len(totals) % len(cpus)]})
            marks.append(tracer.mark() if tracer else 0)
            total = 0.0
            for i in order:
                unit = units[i]
                first = i not in checked
                checked.add(i)
                t0 = time.perf_counter()
                try:
                    out = unit.run()
                    ok = True
                except Exception:
                    ok = False
                    if first:
                        print(f"unit raised: {unit.label}", file=sys.stderr)
                        traceback.print_exc(file=sys.stderr)
                dt = time.perf_counter() - t0
                if first and ok:
                    verdict = check_unit(unit, out, tracer, CheckFailed)
                    ok = verdict == "ok"
                    wrong += verdict == "wrong"
                if first and not ok:
                    failed_units.add(i)
                times[i].append(dt)
                total += dt
                attempted += 1
                failed += (not ok) or (i in failed_units)
            totals.append(total)
    finally:
        os.sched_setaffinity(0, set(cpus))
    marks.append(tracer.mark() if tracer else 0)
    return times, totals, marks, attempted, failed, wrong


def check_unit(unit, out, tracer, check_failed) -> str:
    """Check one unit's output with the tracer paused: "ok", "wrong" or "raised"."""
    active = tracer.active if tracer else False
    if tracer:
        tracer.active = False
    try:
        unit.check(out)
        return "ok"
    except check_failed as exc:
        print(f"check failed: {unit.label}: {exc}", file=sys.stderr)
        return "wrong"
    except Exception:
        print(f"check raised: {unit.label}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return "raised"
    finally:
        if tracer:
            tracer.active = active


def end_to_end(times, setup_s) -> dict:
    best = [min(t) for t in times]
    return {
        "setup_s": setup_s,
        "units_per_s": len(best) / sum(best),
        "unit_p50_ms": 1e3 * statistics.median(best),
        "unit_tail_ms": 1e3 * nearest_rank(best, tail_percentile(len(best))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, names, setup_end, marks) -> dict:
    """Per-layer values for one input build plus the pass with the least of each."""
    setup = tracer.summarize(0, setup_end)
    passes = [tracer.summarize(lo, hi) for lo, hi in zip(marks, marks[1:])]
    out = {}
    for name in names:
        label, stat = name.rsplit(".", 1)
        value = setup[label][stat] + min(p[label][stat] for p in passes)
        out[name] = int(value) if stat != "self_ms" else value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kronbures" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"needs src/kronbures and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # Pin BLAS before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    imports = [import_seconds()]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    build, make_units = workloads.WORKLOADS[args.workload]
    meta = run_metadata(args, np)

    layer_names = [m["name"] for m in spec["per_layer"]]
    tracer = None
    if args.trace:
        tracer = Tracer(name.rsplit(".", 1)[0] for name in layer_names)
        tracer.install()
        tracer.active = True
    t0 = time.perf_counter()
    inputs = build(args.seed)
    builds = [time.perf_counter() - t0]
    if tracer:
        # Spans 0..setup_end-1 are the input build's.
        tracer.active = False
        setup_end = tracer.mark()

    def set_up_again():
        imports.append(import_seconds())
        t0 = time.perf_counter()
        build(args.seed)
        builds.append(time.perf_counter() - t0)

    units = make_units(inputs)
    if tracer:
        tracer.active = True
    times, totals, marks, attempted, failed, wrong = timed_passes(
        units, args.seconds, tracer, None if tracer else set_up_again
    )
    if tracer:
        tracer.active = False

    e2e = end_to_end(times, statistics.median(imports) + statistics.median(builds))
    record = {
        "meta": meta,
        "units": len(units),
        "passes": len(totals),
        "tail_percentile": tail_percentile(len(units)),
        "import_s": imports,
        "build_s": builds,
        "pass_s": totals,
        "end_to_end": e2e,
    }
    if tracer:
        metrics = per_layer(tracer, layer_names, setup_end, marks)
        record["traced_labels"] = tracer.installed
        record["per_layer"] = metrics
    else:
        metrics = e2e
    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        # The spans of the input build and the first timed pass.
        tracer.write_spans(RUNS_DIR / f"{stem}.spans.csv", 0, marks[1])
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own references, statistics and tracer.

    python3 -m pytest -q benchmark/check_references.py

The file name keeps these out of the library's test suite; pass the file
to pytest to run them.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references as ref  # noqa: E402
from run import nearest_rank, pass_order, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_bures_of_commuting_diagonals():
    a = np.array([1.0, 4.0, 9.0])
    b = np.array([4.0, 1.0, 2.25])
    want = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
    assert ref.bures_sq_ambient(np.diag(a), np.diag(b)) == pytest.approx(want, abs=1e-13)


def test_bures_is_rotation_invariant():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    a = np.array([2.0, 0.5, 1.0])
    b = np.array([1.0, 3.0, 0.25])
    want = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
    got = ref.bures_sq_ambient((q * a) @ q.T, (q * b) @ q.T)
    assert got == pytest.approx(want, abs=1e-12)


def test_kron_embedding_block_order():
    u = np.diag([1.0, 2.0])
    v = np.array([[3.0, 1.0], [1.0, 5.0]])
    k = ref.kron_embedding(u, v)
    assert np.array_equal(k[:2, 2:], v[0, 1] * u)


def test_coefficient_sigma1_of_rank_one_data():
    u = np.array([1.0, 4.0])
    v = np.array([9.0, 1.0])
    rows = 3
    sigma1 = ref.coefficient_sigma1(np.tile(u, (rows, 1)), np.tile(v, (rows, 1)), np.full(rows, 1 / 3))
    assert sigma1 == pytest.approx(np.linalg.norm(np.sqrt(u)) * np.linalg.norm(np.sqrt(v)))


def test_slice_objective_of_one_datum():
    u = np.array([[1.0, 4.0]])
    v = np.array([[2.0, 0.5]])
    w = np.array([1.0])
    assert ref.slice_objective(u[0], v[0], u, v, w) == pytest.approx(0.0, abs=1e-15)
    # Doubling both coordinates scales every sqrt entry by 2: objective = sum(u_p v_q).
    assert ref.slice_objective(2 * u[0], 2 * v[0], u, v, w) == pytest.approx(u.sum() * v.sum())


def test_commuting_barycenter_of_two_diagonals():
    got = ref.commuting_bw_barycenter(np.eye(2), [[1.0, 4.0], [9.0, 16.0]], [0.5, 0.5])
    assert np.allclose(got, np.diag([4.0, 9.0]), atol=1e-14)


def test_profile_sigma2_hand_cases():
    a, b = np.array([2.0, 1.0]), np.array([1.0, 1.0])
    c, d = np.array([1.0, 2.0]), np.array([1.0, 2.0])
    assert ref.profile_sigma2(a, b, a, b, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert ref.profile_sigma2(a, b, c, b, 0.5) == pytest.approx(0.0, abs=1e-15)
    # H_1/2 = [[1.5, 2], [1.5, 2.5]]: |H|_F^2 = 14.75 and det H = 0.75.
    fro2, det = 14.75, 0.75
    sigma2_sq = (fro2 - np.sqrt(fro2**2 - 4 * det**2)) / 2
    assert ref.profile_sigma2(a, b, c, d, 0.5) == pytest.approx(np.sqrt(sigma2_sq), rel=1e-12)


@pytest.mark.parametrize("count, p", [(40, 75.0), (48, 75.0), (99, 75.0), (100, 90.0), (200, 95.0)])
def test_tail_percentile_leaves_ten_beyond(count, p):
    assert tail_percentile(count) == p
    values = list(range(count))
    assert sum(v > nearest_rank(values, p) for v in values) >= 10


def test_tail_percentile_needs_forty_units():
    with pytest.raises(ValueError):
        tail_percentile(39)


def test_pass_order_spreads_repeated_units():
    units = [types.SimpleNamespace(repeats=r) for r in (1, 1, 1, 4, 4)]
    order = pass_order(units)
    assert sorted(order) == [0, 1, 2] + [3] * 4 + [4] * 4
    # Units run once keep their order; no unit runs twice in a row.
    assert [i for i in order if i < 3] == [0, 1, 2]
    assert all(a != b for a, b in zip(order, order[1:]))
    assert pass_order(units[:3]) == [0, 1, 2]


def test_tracer_self_time_and_counts(monkeypatch):
    mod = types.ModuleType("kronbures.fake")
    clock = iter(range(100))
    monkeypatch.setattr("tracing.perf_counter", lambda: float(next(clock)))

    def inner(x):
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def rows():
        yield mod.inner(1)

    mod.inner, mod.outer, mod.rows = inner, outer, rows
    monkeypatch.setitem(sys.modules, "kronbures.fake", mod)
    tracer = Tracer(["fake.outer", "fake.inner", "fake.rows", "fake.gone"])
    tracer.install()
    assert tracer.installed == ["fake.outer", "fake.inner", "fake.rows"]
    tracer.active = True
    assert mod.outer(2) == 4
    assert list(mod.rows()) == [1]
    tracer.active = False
    stats = tracer.summarize(0, tracer.mark())
    # outer: 0..5, inner: 1..2 and 3..4; rows: 6..9 with inner 7..8.
    assert stats["fake.outer"] == {"calls": 1, "self_ms": 3e3, "dim3": 0.0}
    assert stats["fake.inner"]["calls"] == 3
    assert stats["fake.inner"]["self_ms"] == 3e3
    assert stats["fake.rows"] == {"calls": 1, "self_ms": 2e3, "dim3": 0.0}
    assert stats["fake.gone"]["calls"] == 0

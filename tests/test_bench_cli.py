import csv
import json

import numpy as np
import pytest

from kronbures import ConfigError, NumericalConsistencyError
from kronbures.bench_cli import (
    ExperimentConfig,
    ExperimentKind,
    SummaryRow,
    barycenter_dataset,
    departure_draw,
    emit_report,
    gen_log_diag,
    gen_spd,
    main,
    parse_summary_json,
    run_barycenter_experiment,
    run_departure_experiment,
    run_pairwise_experiment,
)


class TestGenerators:
    def test_gen_spd_shift_bound(self):
        a = gen_spd(6, np.random.default_rng(0))
        assert a.eig.eigenvalues[-1] >= 0.01 - 1e-12

    def test_gen_spd_deterministic(self):
        a = gen_spd(5, np.random.default_rng(42))
        b = gen_spd(5, np.random.default_rng(42))
        assert np.array_equal(a.mat, b.mat)

    def test_gen_spd_distinct_seeds(self):
        a = gen_spd(5, np.random.default_rng(1))
        b = gen_spd(5, np.random.default_rng(2))
        assert not np.array_equal(a.mat, b.mat)

    def test_gen_log_diag_zero(self):
        assert np.array_equal(gen_log_diag(np.zeros(4), True), np.ones(4))
        assert np.array_equal(gen_log_diag(np.zeros(4), False), np.ones(4))

    def test_gen_log_diag_normalized_product(self):
        xi = np.random.default_rng(3).standard_normal(16)
        d = gen_log_diag(xi, True)
        assert abs(np.log(d).sum()) <= 1e-12

    def test_gen_log_diag_example(self):
        d = gen_log_diag(np.array([1.0, -1.0]), True)
        assert np.allclose(d, [np.e, 1.0 / np.e])


class TestPairwiseExperiment:
    def test_rows_and_accuracy(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.PAIRWISE, trials=3, sizes=(8,), ambient_cutoff=64
        )
        rows = run_pairwise_experiment(cfg)
        metrics = {r.metric: r for r in rows}
        assert metrics["rel_err"].mean <= 1e-12
        assert metrics["storage_ratio"].mean == 32.0
        assert metrics["reduced_time"].mean > 0.0

    def test_ambient_skipped_above_cutoff(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.PAIRWISE, trials=2, sizes=(8,), ambient_cutoff=4
        )
        rows = run_pairwise_experiment(cfg)
        metrics = {r.metric for r in rows}
        assert "reduced_time" in metrics and "storage_ratio" in metrics
        assert "ambient_time" not in metrics and "rel_err" not in metrics

    def test_storage_ratio_table_values(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.PAIRWISE, trials=1, sizes=(8, 16), ambient_cutoff=4
        )
        rows = run_pairwise_experiment(cfg)
        got = {r.n: r.mean for r in rows if r.metric == "storage_ratio"}
        assert got == {8: 32.0, 16: 128.0}


class TestDepartureExperiment:
    def test_leaf_regimes_vanish_generic_positive(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.DEPARTURE, trials=3, sizes=(12,)
        )
        rows = run_departure_experiment(cfg)
        by_regime = {}
        for r in rows:
            by_regime.setdefault(r.regime, {})[r.metric] = r.mean
        for regime in ("shared_u_leaf", "shared_v_leaf"):
            assert by_regime[regime]["max_delta_geo"] == 0.0
            assert by_regime[regime]["max_delta_diag"] == 0.0
            assert by_regime[regime]["fit_rel_err"] == 0.0
        assert by_regime["generic"]["max_delta_geo"] > 0.1
        assert by_regime["generic"]["predicted_coeff"] > 0.0

    def test_profile_out(self, tmp_path):
        path = tmp_path / "profile.csv"
        cfg = ExperimentConfig(
            experiment=ExperimentKind.DEPARTURE,
            trials=2,
            sizes=(8,),
            profile_out=str(path),
        )
        run_departure_experiment(cfg)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "delta_geo", "delta_diag"]
        assert len(rows) == 202
        assert all(len(r) == 3 for r in rows)


class TestBarycenterExperiment:
    def test_rows_and_agreement(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.BARYCENTER, trials=2, sizes=(8,)
        )
        rows = run_barycenter_experiment(cfg)
        regimes = {r.regime for r in rows}
        assert regimes == {"A", "B", "C"}
        by_key = {(r.regime, r.metric): r.mean for r in rows}
        for name in "ABC":
            gap = abs(by_key[(name, "formula_obj")] - by_key[(name, "numerical_obj")])
            assert gap <= 1e-9 * max(abs(by_key[(name, "formula_obj")]), 1.0)
            assert by_key[(name, "coord_error")] <= 1e-6

    def test_dataset_a_protocol(self):
        data = barycenter_dataset("A", 8, 8, np.random.default_rng(42))
        assert np.array_equal(data.u_eigs, np.ones((8, 8)))
        # each datum is an isotropic V factor
        assert np.allclose(data.v_eigs, data.v_eigs[:, :1])


class TestEmitReport:
    ROWS = [
        SummaryRow("pairwise", "", 8, "rel_err", 1.5e-14, 2.0e-15),
        SummaryRow("departure", "generic", 32, "max_delta_geo", 5.1, 1.4),
    ]

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            emit_report([], "csv", None)

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(self.ROWS, "csv", str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "regime", "n", "metric", "mean", "std"]
        assert all(len(r) == 6 for r in rows)
        assert float(rows[1][4]) == 1.5e-14

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report(self.ROWS, "json", str(path))
        back = parse_summary_json(path.read_text())
        assert back == self.ROWS

    def test_table_is_aligned(self, capsys):
        emit_report(self.ROWS, "table", None)
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("experiment")
        assert len(out) == len(self.ROWS) + 2


class TestCli:
    def test_pairwise_exit_zero(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(
            ["pairwise", "--trials", "2", "--sizes", "4,8", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert {r["n"] for r in rows} == {4, 8}

        # 'all' drives every runner end to end in one report.
        out = tmp_path / "all.json"
        code = main(
            ["all", "--trials", "1", "--sizes", "4", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert {r["experiment"] for r in rows} == {"pairwise", "departure", "barycenter"}

    def test_config_error_exit_two(self):
        assert main(["pairwise", "--trials", "0", "--sizes", "4"]) == 2

    def test_bad_sizes_exit_two(self):
        assert main(["pairwise", "--sizes", "4,x"]) == 2

    def test_numerical_failure_exit_three(self, monkeypatch):
        def boom(cfg):
            raise NumericalConsistencyError("leaf modulus above tolerance")

        monkeypatch.setitem(
            __import__("kronbures.bench_cli", fromlist=["RUNNERS"]).RUNNERS,
            ExperimentKind.DEPARTURE,
            boom,
        )
        assert main(["departure", "--trials", "1"]) == 3

    def test_metric_determinism(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert (
                main(
                    ["departure", "--trials", "2", "--sizes", "6", "--format", "json",
                     "--out", str(p)]
                )
                == 0
            )
        first, second = (json.loads(p.read_text()) for p in paths)
        assert first == second


class TestRngSplitting:
    def test_stream_is_seed_plus_trial(self):
        # The documented rule: trial k draws from default_rng(seed + k).
        profile = departure_draw(8, np.random.default_rng(42 + 3), "generic")
        cfg_rng = np.random.default_rng(45)
        again = departure_draw(8, cfg_rng, "generic")
        assert np.array_equal(profile.a, again.a)
        assert np.array_equal(profile.d, again.d)

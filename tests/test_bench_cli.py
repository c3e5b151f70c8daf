import csv
import json

import numpy as np
import pytest

from kronbures import (
    ConfigError,
    InconsistentVerdict,
    NoConvergence,
    NumericalConsistencyError,
)
from kronbures import bench_cli
from kronbures.barycenter import ORACLE_GRAD_TOL
from kronbures.bench_cli import (
    AMBIENT_CUTOFF,
    EXPERIMENTS,
    ExperimentConfig,
    SummaryRow,
    barycenter_dataset,
    departure_draw,
    emit_report,
    gen_log_diag,
    gen_spd,
    main,
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


class TestExperimentConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment 'closure'"):
            ExperimentConfig(experiment="closure")

    @pytest.mark.parametrize("experiment", ["pairwise", "barycenter"])
    def test_profile_out_only_on_departure(self, experiment):
        with pytest.raises(ConfigError, match="writes no profile"):
            ExperimentConfig(experiment=experiment, profile_out="profile.csv")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"experiment": "pairwise", "sizes": (2.5,), "trials": 1}, "sizes"),
            ({"experiment": "departure", "trials": 2.0, "sizes": (4,)}, "trials"),
            ({"experiment": "pairwise", "trials": True}, "trials"),
            ({"experiment": "pairwise", "seed": 1.5}, "seed"),
            ({"experiment": "pairwise", "seed": "7"}, "seed"),
            ({"experiment": "pairwise", "sizes": 4}, "sizes"),
            ({"experiment": "pairwise", "sizes": "48"}, "sizes"),
            ({"experiment": "pairwise", "sizes": (8, False)}, "sizes"),
        ],
    )
    def test_non_integers_rejected(self, kwargs, match):
        # Each failed later with a bare TypeError from the trial loop, numpy's
        # SeedSequence or the sizes check itself.
        with pytest.raises(ConfigError, match=f"{match} must be"):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_stored_as_ints(self):
        cfg = ExperimentConfig(
            experiment="pairwise",
            seed=np.int64(3),
            trials=np.int32(2),
            sizes=[np.int64(4), 8],
        )
        assert (cfg.seed, cfg.trials, cfg.sizes) == (3, 2, (4, 8))
        assert all(type(v) is int for v in (cfg.seed, cfg.trials, *cfg.sizes))


class TestPairwiseExperiment:
    def test_rows_and_accuracy(self):
        cfg = ExperimentConfig(experiment="pairwise", trials=3, sizes=(8,))
        rows = run_pairwise_experiment(cfg)
        metrics = {r.metric: r for r in rows}
        assert metrics["rel_err"].mean <= 1e-12
        assert metrics["storage_ratio"].mean == 32.0
        assert metrics["reduced_time"].mean > 0.0

    def test_ambient_skipped_above_cutoff(self):
        cfg = ExperimentConfig(
            experiment="pairwise", trials=2, sizes=(AMBIENT_CUTOFF + 1,)
        )
        rows = run_pairwise_experiment(cfg)
        metrics = {r.metric for r in rows}
        assert "reduced_time" in metrics and "storage_ratio" in metrics
        assert "ambient_time" not in metrics and "rel_err" not in metrics

    def test_storage_ratio_table_values(self):
        cfg = ExperimentConfig(experiment="pairwise", trials=1, sizes=(8, 16))
        rows = run_pairwise_experiment(cfg)
        got = {r.n: r.mean for r in rows if r.metric == "storage_ratio"}
        assert got == {8: 32.0, 16: 128.0}


class TestDepartureExperiment:
    def test_leaf_regimes_vanish_generic_positive(self):
        cfg = ExperimentConfig(
            experiment="departure", trials=3, sizes=(12,)
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
            experiment="departure",
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
        assert rows[1] == ["0.0", "0.0", "0.0"]


class TestBarycenterExperiment:
    def test_rows_and_agreement(self):
        cfg = ExperimentConfig(
            experiment="barycenter", trials=2, sizes=(8,)
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
        data = barycenter_dataset("A", 8, np.random.default_rng(42))
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
        back = json.loads(path.read_text())
        assert back == [
            {"experiment": "pairwise", "regime": "", "n": 8, "metric": "rel_err",
             "mean": 1.5e-14, "std": 2.0e-15},
            {"experiment": "departure", "regime": "generic", "n": 32,
             "metric": "max_delta_geo", "mean": 5.1, "std": 1.4},
        ]

    def test_table_is_aligned(self, capsys):
        emit_report(self.ROWS, "table", None)
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("experiment")
        assert len(out) == len(self.ROWS) + 2

    @pytest.mark.parametrize(
        "format, text",
        [
            ("csv",
             "experiment,regime,n,metric,mean,std\r\n"
             "pairwise,,8,rel_err,1.5e-14,2e-15\r\n"
             "departure,generic,32,max_delta_geo,5.1,1.4\r\n"),
            ("json",
             '[\n  {\n    "experiment": "pairwise",\n    "regime": "",\n'
             '    "n": 8,\n    "metric": "rel_err",\n    "mean": 1.5e-14,\n'
             '    "std": 2e-15\n  },\n  {\n    "experiment": "departure",\n'
             '    "regime": "generic",\n    "n": 32,\n'
             '    "metric": "max_delta_geo",\n    "mean": 5.1,\n'
             '    "std": 1.4\n  }\n]\n'),
            ("table",
             "experiment  regime   n   metric         mean     std\n"
             "----------  -------  --  -------------  -------  -----\n"
             "pairwise             8   rel_err        1.5e-14  2e-15\n"
             "departure   generic  32  max_delta_geo  5.1      1.4\n"),
        ],
    )
    def test_exact_text(self, tmp_path, format, text):
        path = tmp_path / "report"
        emit_report(self.ROWS, format, str(path))
        assert path.read_bytes() == text.encode()


def _gap(gap):
    """A numerical_obj at the given objective gap from the trial's formula_obj."""
    return lambda t: t["formula_obj"] + gap * max(abs(t["formula_obj"]), 1.0)


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

    @pytest.mark.parametrize(
        "command, flag",
        [("departure", "--profile-out"), ("pairwise", "--out")],
    )
    def test_unwritable_output_exit_two(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        # The path is checked before the first experiment starts.
        def must_not_run(cfg):
            raise AssertionError(f"{cfg.experiment} ran")

        for name, experiment in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, name, experiment._replace(run=must_not_run))
        path = tmp_path / "missing" / "out.csv"
        assert main([command, "--trials", "1", "--sizes", "4", flag, str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_ambient_cutoff_is_not_an_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["pairwise", "--ambient-cutoff", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["pairwise", "barycenter"])
    def test_profile_out_only_where_written(self, tmp_path, command):
        # Only departure (and 'all', for departure) writes a profile.
        path = tmp_path / "profile.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--trials", "1", "--sizes", "4", "--profile-out", str(path)])
        assert exc.value.code == 2
        assert not path.exists()

    def test_numerical_failure_exit_three(self, monkeypatch):
        def boom(cfg):
            raise NumericalConsistencyError("leaf modulus above tolerance")

        monkeypatch.setitem(
            EXPERIMENTS, "departure", EXPERIMENTS["departure"]._replace(run=boom)
        )
        assert main(["departure", "--trials", "1"]) == 3

    def test_failed_run_leaves_outputs_as_they_were(self, tmp_path, monkeypatch):
        # The writability probe neither truncates an existing report nor
        # leaves a new, empty one behind.
        def boom(cfg):
            raise NumericalConsistencyError("leaf modulus above tolerance")

        monkeypatch.setitem(
            EXPERIMENTS, "departure", EXPERIMENTS["departure"]._replace(run=boom)
        )
        report, profile = tmp_path / "report.csv", tmp_path / "profile.csv"
        report.write_text("previous report\n")
        argv = ["departure", "--trials", "1", "--out", str(report),
                "--profile-out", str(profile)]
        assert main(argv) == 3
        assert report.read_text() == "previous report\n"
        assert not profile.exists()

    def test_solver_failure_exit_three(self, monkeypatch, capsys):
        def exhausted(data):
            raise NoConvergence("sweep budget exhausted")

        monkeypatch.setattr(bench_cli, "log_coordinate_oracle", exhausted)
        assert main(["barycenter", "--trials", "1"]) == 3
        err = capsys.readouterr().err
        assert "barycenter experiment" in err
        assert "NoConvergence: sweep budget exhausted" in err

    def test_inconsistent_verdict_exit_three(self, monkeypatch, capsys):
        def conflict(cfg):
            raise InconsistentVerdict("factor verdict conflicts with residual")

        monkeypatch.setitem(
            EXPERIMENTS, "departure", EXPERIMENTS["departure"]._replace(run=conflict)
        )
        assert main(["departure", "--trials", "1"]) == 3
        assert "departure experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, trial_fn, warmups, metric, value, expected",
        [
            (
                "pairwise", "pairwise_trial", 1, "rel_err", 1e3,
                "n = 4, trial 2: rel_err 1.000e+03",
            ),
            # 10x and 0.1x the gates PAIRWISE_REL_ERR_TOL = 1e-10 and
            # LEAF_MODULUS_TOL = 1e-12: a loosened gate passes the first.
            (
                "pairwise", "pairwise_trial", 1, "rel_err", 1e-9,
                "n = 4, trial 2: rel_err 1.000e-09",
            ),
            ("pairwise", "pairwise_trial", 1, "rel_err", 1e-11, None),
            (
                "departure", "departure_draw_metrics", 0, "max_delta_diag", np.nan,
                "leaf regime shared_u_leaf at n = 4, trial 2: max_delta_diag nan",
            ),
            (
                "departure", "departure_draw_metrics", 0, "max_delta_geo", 1e-11,
                "leaf regime shared_u_leaf at n = 4, trial 2: max_delta_geo 1.000e-11",
            ),
            ("departure", "departure_draw_metrics", 0, "max_delta_geo", 1e-13, None),
            (
                "barycenter", "barycenter_trial", 0, "numerical_obj", 1e3,
                "dataset A at n = 4, trial 2: relative objective gap",
            ),
            (
                "barycenter", "barycenter_trial", 0, "coord_error", 1e3,
                "dataset A at n = 4, trial 2: coord_error 1.000e+03",
            ),
            # 10x and 0.1x the gates ORACLE_GAP_TOL = 1e-6, on the gap
            # relative to max(|formula_obj|, 1), and ORACLE_COORD_TOL = 1e-4.
            (
                "barycenter", "barycenter_trial", 0, "numerical_obj", _gap(1e-5),
                "dataset A at n = 4, trial 2: relative objective gap 1.000e-05",
            ),
            ("barycenter", "barycenter_trial", 0, "numerical_obj", _gap(1e-7), None),
            (
                "barycenter", "barycenter_trial", 0, "coord_error", 1e-3,
                "dataset A at n = 4, trial 2: coord_error 1.000e-03",
            ),
            ("barycenter", "barycenter_trial", 0, "coord_error", 1e-5, None),
        ],
        ids=[
            "pairwise", "pairwise_10x_gate", "pairwise_tenth_gate", "departure",
            "departure_10x_gate", "departure_tenth_gate", "barycenter_gap",
            "barycenter_coord", "barycenter_gap_10x_gate", "barycenter_gap_tenth_gate",
            "barycenter_coord_10x_gate", "barycenter_coord_tenth_gate",
        ],
    )
    def test_gate_names_size_trial_and_metric(
        self, monkeypatch, capsys, command, trial_fn, warmups, metric, value, expected
    ):
        # Push one trial's metric over its gate, or make it NaN, or set it
        # just inside (expected None: the run passes); calls before the
        # first trial are untimed warm-ups. A callable value is computed
        # from the trial's own results.
        original = getattr(bench_cli, trial_fn)
        calls = []

        def patched(*args):
            out = original(*args)
            calls.append(None)
            if len(calls) == warmups + 3:
                out[metric] = value(out) if callable(value) else value
            return out

        monkeypatch.setattr(bench_cli, trial_fn, patched)
        code = main([command, "--trials", "4", "--sizes", "4"])
        if expected is None:
            assert code == 0
            return
        assert code == 3
        err = capsys.readouterr().err
        assert f"{command} experiment failed: NumericalConsistencyError: {expected}" in err

    def test_negative_seed_exit_two(self, capsys):
        assert main(["pairwise", "--seed", "-1", "--trials", "1", "--sizes", "4"]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["departure", "barycenter"])
    def test_one_size_experiments_reject_several_sizes(self, command, capsys):
        # These runners report a single n; a second size used to be dropped.
        assert main([command, "--trials", "1", "--sizes", "4,8"]) == 2
        assert "configuration error:" in capsys.readouterr().err

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


class TestSeed42Reports:
    """The default seed-42 reports, pinned to their recorded values.

    The barycenter oracle's residual and coord_error rows sit at round-off
    level, where the bits vary across BLAS builds, so they are bounded
    rather than pinned: each residual mean by ORACLE_GRAD_TOL, where the
    oracle stops, and each coord_error mean by 1e-8.
    """

    DEPARTURE = {
        ("shared_u_leaf", "max_delta_geo"): (0.0, 0.0),
        ("shared_u_leaf", "max_delta_diag"): (0.0, 0.0),
        ("shared_u_leaf", "fitted_coeff"): (0.0, 0.0),
        ("shared_u_leaf", "predicted_coeff"): (0.0, 0.0),
        ("shared_u_leaf", "fit_rel_err"): (0.0, 0.0),
        ("shared_v_leaf", "max_delta_geo"): (0.0, 0.0),
        ("shared_v_leaf", "max_delta_diag"): (0.0, 0.0),
        ("shared_v_leaf", "fitted_coeff"): (0.0, 0.0),
        ("shared_v_leaf", "predicted_coeff"): (0.0, 0.0),
        ("shared_v_leaf", "fit_rel_err"): (0.0, 0.0),
        ("generic", "max_delta_geo"): (5.145460641366223, 1.3663281360013393),
        ("generic", "max_delta_diag"): (25.357404244054337, 12.42222478037985),
        ("generic", "fitted_coeff"): (349.808514688773, 196.56165001606283),
        ("generic", "predicted_coeff"): (370.7750889412317, 207.785740512127),
        ("generic", "fit_rel_err"): (0.057601367263412806, 0.007816199592006062),
    }
    BARYCENTER = {
        ("A", "formula_obj"): (16.502915800140023, 9.249276180689025),
        ("A", "numerical_obj"): (16.50291580014002, 9.249276180689034),
        ("B", "formula_obj"): (20.009991390470667, 17.33963557378063),
        ("B", "numerical_obj"): (20.00999139047064, 17.339635573780612),
        ("C", "formula_obj"): (128.7789870972517, 82.22622755601763),
        ("C", "numerical_obj"): (128.77898709725164, 82.22622755601766),
    }

    @staticmethod
    def _by_key(rows):
        return {(r.regime, r.metric): (r.mean, r.std) for r in rows}

    def test_departure(self):
        rows = run_departure_experiment(
            ExperimentConfig(experiment="departure", seed=42, sizes=(32,))
        )
        got = self._by_key(rows)
        assert got.keys() == self.DEPARTURE.keys()
        for key, expected in self.DEPARTURE.items():
            assert got[key] == pytest.approx(expected, rel=1e-10, abs=1e-15), key

    def test_barycenter_objectives(self):
        rows = run_barycenter_experiment(
            ExperimentConfig(experiment="barycenter", seed=42, sizes=(8,))
        )
        got = self._by_key(rows)
        for key, expected in self.BARYCENTER.items():
            assert got[key] == pytest.approx(expected, rel=1e-10, abs=1e-15), key
        for name in ("A", "B", "C"):
            assert got[name, "residual"][0] <= ORACLE_GRAD_TOL, name
            assert got[name, "coord_error"][0] <= 1e-8, name


class TestRngSplitting:
    def test_stream_is_seed_plus_trial(self):
        # The documented rule: trial k draws from default_rng(seed + k).
        profile = departure_draw(8, np.random.default_rng(42 + 3), "generic")
        cfg_rng = np.random.default_rng(45)
        again = departure_draw(8, cfg_rng, "generic")
        assert np.array_equal(profile.a, again.a)
        assert np.array_equal(profile.d, again.d)

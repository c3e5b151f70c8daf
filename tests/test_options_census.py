"""A census of the settable values: the parameter names of every function
the package exports, of the harness's public functions, and the fields of
``ExperimentConfig``.

A change that adds, removes or renames a parameter edits ``CENSUS`` here,
so each such change is counted in one place. A parameter with exactly one
valid value does not belong in it: read that value from the other inputs
or from a module constant.
"""

import dataclasses
import inspect

import kronbures
from kronbures import bench_cli

CENSUS = {
    "build_chart": ("p0", "p1"),
    "bures_distance_sq": ("a", "b"),
    "bw_barycenter": ("mats", "weights"),
    "bw_stationarity_residual": ("v", "mats", "weights"),
    "classify_closure_commuting": ("chart",),
    "coefficient_matrix": ("data",),
    "col_leaf": ("v_star",),
    "delta_diag": ("profile", "t"),
    "delta_geo_asymptote": ("profile",),
    "delta_geo_closed_form": ("profile", "t"),
    "embed": ("p",),
    "endpoint_rigidity_classify": ("p0", "p1"),
    "factor_transports": ("p0", "p1"),
    "gauge_normalize": ("u", "v"),
    "geodesic": ("a", "b"),
    "geodesic_eval": ("curve", "t"),
    "homothety_distance": ("leaf", "p0", "p1"),
    "kron": ("a", "b"),
    "leaf_barycenter": ("leaf", "points", "weights"),
    "leaf_geodesic": ("leaf", "p0", "p1", "t"),
    "leaf_membership": ("leaf", "p"),
    "log_coordinate_oracle": ("data",),
    "log_det": ("a",),
    "objective_J": ("k", "data", "weights"),
    "pairwise_bures_sq_reduced": ("p0", "p1"),
    "partial_trace_1": ("k",),
    "partial_trace_2": ("k",),
    "pattern_2x2_check": ("z0",),
    "perron_singular_pair": ("c_mat",),
    "pi_residual": ("z",),
    "profile_matrix": ("profile", "t"),
    "pullback_metric_isotropic": ("s", "h_u", "h_v"),
    "recover_factors": ("k",),
    "reduced_distances_sq": ("p", "points"),
    "row_leaf": ("u_star",),
    "slice_barycenter": ("data",),
    "slice_objective": ("x", "y", "data"),
    "spd_sqrt": ("a",),
    "symmetrize": ("a",),
    "transport_map": ("a", "b", "_parts"),
    "whitened_initial_velocity": ("ft",),
    "bench_cli.barycenter_dataset": ("name", "n", "rng"),
    "bench_cli.barycenter_trial": ("data",),
    "bench_cli.cli": (),
    "bench_cli.departure_draw": ("n", "rng", "regime"),
    "bench_cli.departure_draw_metrics": ("profile",),
    "bench_cli.emit_report": ("rows", "format", "path"),
    "bench_cli.gen_log_diag": ("xi", "normalized"),
    "bench_cli.gen_spd": ("n", "rng"),
    "bench_cli.main": ("argv",),
    "bench_cli.pairwise_trial": ("n", "rng"),
    "bench_cli.run_barycenter_experiment": ("cfg",),
    "bench_cli.run_departure_experiment": ("cfg",),
    "bench_cli.run_pairwise_experiment": ("cfg",),
    "ExperimentConfig": ("experiment", "seed", "trials", "sizes", "profile_out"),
}


def _census() -> dict:
    found = {}
    for module, prefix in ((kronbures, ""), (bench_cli, "bench_cli.")):
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if module is bench_cli and obj.__module__ != bench_cli.__name__:
                continue
            found[prefix + name] = tuple(inspect.signature(obj).parameters)
    found["ExperimentConfig"] = tuple(
        f.name for f in dataclasses.fields(bench_cli.ExperimentConfig)
    )
    return found


def test_settable_values_are_the_census():
    assert _census() == CENSUS

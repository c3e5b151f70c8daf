"""Bures-Wasserstein geometry of determinant-normalized Kronecker SPD matrices.

Pairwise distance reduction, leaf geodesics, geodesic-closure diagnostics,
exact restricted barycenters, and a benchmark harness.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    GaugeViolation,
    InconsistentVerdict,
    KronburesError,
    NoConvergence,
    NonPositiveCoordinate,
    NotInModel,
    NotOnLeaf,
    NotPositiveDefinite,
    NotSimultaneouslyDiagonalizable,
    NumericalConsistencyError,
    ParameterOutOfRange,
    TraceNotZero,
)
from .spd_core import (
    EigenDecomposition,
    SpdMatrix,
    gauge_normalize,
    kron,
    log_det,
    partial_trace_1,
    partial_trace_2,
    spd_sqrt,
    symmetrize,
)
from .bures_metric import (
    GeodesicCurve,
    bures_distance_sq,
    geodesic,
    geodesic_eval,
    transport_map,
)
from .kron_model import (
    FactorLeaf,
    KroneckerPoint,
    LeafKind,
    PairwiseSpectrum,
    col_leaf,
    embed,
    homothety_distance,
    leaf_geodesic,
    leaf_membership,
    pairwise_bures_sq_reduced,
    recover_factors,
    reduced_distances_sq,
    row_leaf,
)
from .closure_diagnostics import (
    ClosureVerdict,
    CommutingChart,
    FactorTransports,
    RigidityVerdict,
    SqrtProfile,
    TangencyReport,
    build_chart,
    classify_closure_commuting,
    delta_diag,
    delta_geo_asymptote,
    delta_geo_closed_form,
    endpoint_rigidity_classify,
    factor_transports,
    pattern_2x2_check,
    pi_residual,
    profile_matrix,
    pullback_metric_isotropic,
    whitened_initial_velocity,
)
from .barycenter import (
    LeafBarycenter,
    PerronSolution,
    SliceBarycenter,
    SliceData,
    bw_barycenter,
    bw_stationarity_residual,
    coefficient_matrix,
    leaf_barycenter,
    log_coordinate_oracle,
    objective_J,
    perron_singular_pair,
    slice_barycenter,
    slice_objective,
)

__version__ = "0.1.0"

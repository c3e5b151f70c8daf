"""The input contract at the public boundary.

Every array-like argument of the public API reaches numpy through one
converter, ``spd_core._float_array``. So each odd input raises one
documented ``KronburesError`` subclass, the same one whether or not numpy's
``RuntimeWarning`` is turned into an error, and none comes back as NaN or
inf:

- A dtype that is not bool, integer or float (complex, even with a zero
  imaginary part, strings, even numeric ones, ``None``, any other object)
  raises ``ParameterOutOfRange``. Nothing is cast to its real part.
- A ragged nesting or a wrong shape, the empty array among them, raises
  ``DimensionMismatch``.
- A non-finite entry raises the error of the slot's own rule:
  ``NotPositiveDefinite`` for ``SpdMatrix``, ``NonPositiveCoordinate`` for
  positive coordinates (weights, eigenvalue rows, profile vectors, slice
  coordinates, the Perron coefficient matrix), and ``ParameterOutOfRange``
  for every other matrix and for a curve parameter.

- A scalar (a scale factor ``c``, the isotropic scale ``s``, a curve
  parameter ``t``) follows its own value rule first; a valid value with an
  axis then raises ``DimensionMismatch``.
- Finite entries whose arithmetic overflows give a finite result or one
  error, the slot's ``overflow`` error.

The one exception to "raises": an empty grid of curve parameters is a
valid grid, and the grid moduli return an empty result for it.

A wrong object type where an ``SpdMatrix`` or ``KroneckerPoint`` is
expected is not an array-like. It keeps Python's ``AttributeError``: an
``isinstance`` check per call would sit on the reduced-distance hot path,
which takes these types only from the library's own constructors.
"""

import dataclasses
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from conftest import PROPERTY_SETTINGS
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kronbures as kb
from kronbures import (
    DimensionMismatch,
    GaugeViolation,
    KronburesError,
    NonPositiveCoordinate,
    NotPositiveDefinite,
    ParameterOutOfRange,
)
from kronbures.closure_diagnostics import departure_profile_rows
from kronbures.spd_core import _float_array

A = kb.SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
B = kb.SpdMatrix([[1.0, 0.2], [0.2, 3.0]])
P0 = kb.KroneckerPoint.from_factors(A, B)
P1 = kb.KroneckerPoint.from_factors(B, A)
LEAF = kb.row_leaf(P0.u_factor)
ON_LEAF = kb.KroneckerPoint(P0.u_factor, B)
CURVE = kb.geodesic(A, B)
PROFILE = kb.SqrtProfile(a=[2.0, 0.5], b=[1.0, 1.0], c=[0.5, 2.0], d=[1.0, 3.0])
U_ROWS = [[2.0, 0.5], [0.5, 2.0]]
V_ROWS = [[1.0, 2.0], [3.0, 1.0]]
SLICE = kb.SliceData(u_eigs=U_ROWS, v_eigs=V_ROWS, weights=[0.5, 0.5])
WEIGHTS = [0.25, 0.75]
M2 = [[2.0, 0.5], [0.5, 1.0]]
M4 = np.kron(M2, [[1.0, 0.2], [0.2, 3.0]])
TRACE_FREE = [[1.0, 0.5], [0.5, -1.0]]


class Slot(NamedTuple):
    """One array-like or scalar argument: the call with every other argument
    valid, a valid value, the error of a non-finite entry, the error of the
    valid shape filled with 1e308 (None: a finite result), and whether an
    empty value is a valid (grid) value."""

    call: Callable
    valid: object
    non_finite: type
    overflow: type | None
    empty_is_valid: bool = False


SLOTS = {
    "symmetrize": Slot(kb.symmetrize, M2, ParameterOutOfRange, None),
    "kron.a": Slot(
        lambda x: kb.kron(x, M2), M2, ParameterOutOfRange, ParameterOutOfRange
    ),
    "kron.b": Slot(
        lambda x: kb.kron(M2, x), M2, ParameterOutOfRange, ParameterOutOfRange
    ),
    "partial_trace_1": Slot(
        kb.partial_trace_1, M4, ParameterOutOfRange, ParameterOutOfRange
    ),
    "partial_trace_2": Slot(
        kb.partial_trace_2, M4, ParameterOutOfRange, ParameterOutOfRange
    ),
    "SpdMatrix": Slot(kb.SpdMatrix, M2, NotPositiveDefinite, NotPositiveDefinite),
    "SpdMatrix.scaled.c": Slot(
        lambda x: A.scaled(x), 2.0, NotPositiveDefinite, NotPositiveDefinite
    ),
    "pi_residual": Slot(kb.pi_residual, M4, ParameterOutOfRange, ParameterOutOfRange),
    "pattern_2x2_check": Slot(kb.pattern_2x2_check, M4, ParameterOutOfRange, None),
    "pullback.s": Slot(
        lambda x: kb.pullback_metric_isotropic(x, TRACE_FREE, M2),
        1.5,
        ParameterOutOfRange,
        ParameterOutOfRange,
    ),
    "pullback.h_u": Slot(
        lambda x: kb.pullback_metric_isotropic(1.5, x, M2),
        TRACE_FREE,
        ParameterOutOfRange,
        ParameterOutOfRange,
    ),
    "pullback.h_v": Slot(
        lambda x: kb.pullback_metric_isotropic(1.5, TRACE_FREE, x),
        M2,
        ParameterOutOfRange,
        ParameterOutOfRange,
    ),
    "slice_objective.x": Slot(
        lambda x: kb.slice_objective(x, [1.0, 2.0], SLICE),
        [1.0, 2.0],
        NonPositiveCoordinate,
        NonPositiveCoordinate,
    ),
    "slice_objective.y": Slot(
        lambda x: kb.slice_objective([1.0, 2.0], x, SLICE),
        [1.0, 2.0],
        NonPositiveCoordinate,
        NonPositiveCoordinate,
    ),
    "perron_singular_pair": Slot(
        kb.perron_singular_pair,
        [[1.0, 2.0], [3.0, 4.0]],
        NonPositiveCoordinate,
        NonPositiveCoordinate,
    ),
    "SliceData.u_eigs": Slot(
        lambda x: kb.SliceData(u_eigs=x, v_eigs=V_ROWS, weights=WEIGHTS),
        U_ROWS,
        NonPositiveCoordinate,
        GaugeViolation,
    ),
    "SliceData.v_eigs": Slot(
        lambda x: kb.SliceData(u_eigs=U_ROWS, v_eigs=x, weights=WEIGHTS),
        V_ROWS,
        NonPositiveCoordinate,
        NonPositiveCoordinate,
    ),
    # Weights of 1e308 are positive and finite; their sum fails the sum rule.
    "SliceData.weights": Slot(
        lambda x: kb.SliceData(u_eigs=U_ROWS, v_eigs=V_ROWS, weights=x),
        WEIGHTS,
        NonPositiveCoordinate,
        ParameterOutOfRange,
    ),
    "objective_J.weights": Slot(
        lambda x: kb.objective_J(P0, [P0, P1], x),
        WEIGHTS,
        NonPositiveCoordinate,
        ParameterOutOfRange,
    ),
    "bw_barycenter.weights": Slot(
        lambda x: kb.bw_barycenter([A, B], x),
        WEIGHTS,
        NonPositiveCoordinate,
        ParameterOutOfRange,
    ),
    "bw_stationarity_residual.weights": Slot(
        lambda x: kb.bw_stationarity_residual(A, [A, B], x),
        WEIGHTS,
        NonPositiveCoordinate,
        ParameterOutOfRange,
    ),
    "leaf_barycenter.weights": Slot(
        lambda x: kb.leaf_barycenter(LEAF, [P0, ON_LEAF], x),
        WEIGHTS,
        NonPositiveCoordinate,
        ParameterOutOfRange,
    ),
    "CommutingChart.u0": Slot(
        lambda x: kb.CommutingChart(u0=x, u1=[0.5, 2.0], v0=[1.0, 2.0], v1=[3.0, 1.0]),
        [2.0, 0.5],
        NonPositiveCoordinate,
        GaugeViolation,
    ),
    "CommutingChart.v1": Slot(
        lambda x: kb.CommutingChart(u0=[2.0, 0.5], u1=[0.5, 2.0], v0=[1.0, 2.0], v1=x),
        [3.0, 1.0],
        NonPositiveCoordinate,
        None,
    ),
    "SqrtProfile.a": Slot(
        lambda x: kb.SqrtProfile(a=x, b=[1.0, 1.0], c=[0.5, 2.0], d=[1.0, 3.0]),
        [2.0, 0.5],
        NonPositiveCoordinate,
        GaugeViolation,
    ),
    "SqrtProfile.d": Slot(
        lambda x: kb.SqrtProfile(a=[2.0, 0.5], b=[1.0, 1.0], c=[0.5, 2.0], d=x),
        [1.0, 3.0],
        NonPositiveCoordinate,
        None,
    ),
    "geodesic_eval.t": Slot(
        lambda x: kb.geodesic_eval(CURVE, x),
        0.5,
        ParameterOutOfRange,
        ParameterOutOfRange,
    ),
    "leaf_geodesic.t": Slot(
        lambda x: kb.leaf_geodesic(LEAF, P0, ON_LEAF, x),
        0.5,
        ParameterOutOfRange,
        ParameterOutOfRange,
    ),
    "profile_matrix.t": Slot(
        lambda x: kb.profile_matrix(PROFILE, x),
        0.5,
        ParameterOutOfRange,
        ParameterOutOfRange,
    ),
    "delta_geo_closed_form.t": Slot(
        lambda x: kb.delta_geo_closed_form(PROFILE, x),
        [0.25, 0.5],
        ParameterOutOfRange,
        ParameterOutOfRange,
        empty_is_valid=True,
    ),
    "delta_diag.t": Slot(
        lambda x: kb.delta_diag(PROFILE, x),
        [0.25, 0.5],
        ParameterOutOfRange,
        ParameterOutOfRange,
        empty_is_valid=True,
    ),
    "departure_profile_rows.ts": Slot(
        lambda x: list(departure_profile_rows(PROFILE, x)),
        [0.25, 0.5],
        ParameterOutOfRange,
        ParameterOutOfRange,
        empty_is_valid=True,
    ),
}


def _with_entry(valid, first, last=None):
    """valid as a float array with its first entry set to first and, if
    given, its last to last; a square matrix gets them at (0, 1) and
    (1, 0), where symmetrizing adds them."""
    x = np.array(valid, dtype=float, ndmin=1)
    if last is not None and x.size == 1:
        x = np.zeros(2)
    if x.ndim == 2 and x.shape[0] == x.shape[1]:
        x[0, 1] = first
        if last is not None:
            x[1, 0] = last
        return x
    flat = x.reshape(-1)
    flat[0] = first
    if last is not None:
        flat[-1] = last
    return x


def _complex(valid, imag):
    x = np.array(valid, dtype=complex)
    x.reshape(-1)[0] += imag
    return x


def _not_real(slot):
    return ParameterOutOfRange


def _non_finite(slot):
    return slot.non_finite


def _bad_shape(slot):
    return DimensionMismatch


def _empty(slot):
    """None: the empty value is valid and gives an empty result."""
    return None if slot.empty_is_valid else DimensionMismatch


# The outcome of a call that returns where the finite result is the rule.
FINITE = "a finite result"


def _overflow(slot):
    return slot.overflow or FINITE


def _finite(result) -> bool:
    """Whether every number in what a call returned is finite."""
    if isinstance(result, kb.SpdMatrix):
        return _finite(result.mat)
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (list, tuple)):
        return all(_finite(item) for item in result)
    if isinstance(result, str):  # a relation name of pattern_2x2_check
        return True
    return bool(np.isfinite(result).all())


# Case name -> (odd value built from a slot's valid value, the case's error
# for that slot).
CATALOGUE = {
    "nan": (lambda v: _with_entry(v, np.nan), _non_finite),
    "inf": (lambda v: _with_entry(v, np.inf), _non_finite),
    "opposite_inf": (lambda v: _with_entry(v, np.inf, -np.inf), _non_finite),
    "complex_zero_imag": (lambda v: _complex(v, 0j), _not_real),
    "complex": (lambda v: _complex(v, 1j), _not_real),
    "numeric_str": (lambda v: np.array(v, dtype=float).astype(str), _not_real),
    "abc": (lambda v: "abc", _not_real),
    "none": (lambda v: None, _not_real),
    "object": (lambda v: object(), _not_real),
    "empty": (lambda v: np.array([]), _empty),
    "ragged": (lambda v: [[1.0, 2.0], [3.0]], _bad_shape),
    "huge": (lambda v: np.full(np.shape(v), 1e308), _overflow),
}

FILTERS = {"default": "default", "error_runtime_warning": "error"}


def _outcome(call, value, action):
    """The type of what the call raised, or its result."""
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        try:
            return call(value)
        except Exception as exc:
            return type(exc)


@pytest.mark.parametrize("slot_name", SLOTS)
def test_valid_value_is_accepted(slot_name):
    # The odd inputs below are derived from this value, so each case tests
    # its one oddity.
    slot = SLOTS[slot_name]
    assert not isinstance(_outcome(slot.call, slot.valid, "error"), type)


@pytest.mark.parametrize("action", FILTERS.values(), ids=list(FILTERS))
@pytest.mark.parametrize("case", CATALOGUE)
@pytest.mark.parametrize("slot_name", SLOTS)
def test_odd_input_raises_its_documented_error(slot_name, case, action):
    slot = SLOTS[slot_name]
    build, error_of = CATALOGUE[case]
    got = _outcome(slot.call, build(slot.valid), action)
    want = error_of(slot)
    if want is None:
        assert len(got) == 0
    elif want is FINITE:
        assert not isinstance(got, type) and _finite(got)
    else:
        assert got is want


# Finite entries, with the extremes of the float range drawn often.
_EXTREMES = (np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324)
_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES)


def _matrices(n):
    return arrays(np.float64, (n, n), elements=_ENTRIES)


# Trace-free by construction, so the pullback gets past its trace test.
_TRACE_FREE = st.tuples(_ENTRIES, _ENTRIES, _ENTRIES).map(
    lambda e: np.array([[e[0], e[1]], [e[2], -e[0]]])
)

PROPERTIES = {
    "symmetrize": (kb.symmetrize, _matrices(3)),
    "kron": (lambda ab: kb.kron(*ab), st.tuples(_matrices(2), _matrices(2))),
    "partial_trace_1": (kb.partial_trace_1, _matrices(4)),
    "partial_trace_2": (kb.partial_trace_2, _matrices(4)),
    "pi_residual": (kb.pi_residual, _matrices(4)),
    "pattern_2x2_check": (kb.pattern_2x2_check, _matrices(4)),
    "pullback.h_u": (lambda h: kb.pullback_metric_isotropic(1.5, h, M2), _TRACE_FREE),
    "pullback.h_v": (
        lambda h: kb.pullback_metric_isotropic(1.5, TRACE_FREE, h),
        _matrices(2),
    ),
}


@pytest.mark.parametrize("name", PROPERTIES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_finite_entries_give_one_outcome(name, data):
    # Under both filters: the same KronburesError, or the same result with
    # no NaN or inf in it.
    call, values = PROPERTIES[name]
    value = data.draw(values)
    default, strict = (_outcome(call, value, action) for action in FILTERS.values())
    if isinstance(default, type):
        assert default is strict and issubclass(default, KronburesError)
    else:
        assert not isinstance(strict, type) and _finite(default)
        if isinstance(default, tuple):
            assert default == strict
        else:
            assert np.array_equal(default, strict)


WRONG_TYPE = {
    "bures_distance_sq": lambda: kb.bures_distance_sq(np.array(M2), A),
    "embed": lambda: kb.embed(A),
    "pairwise_bures_sq_reduced": lambda: kb.pairwise_bures_sq_reduced(P0, A),
    "reduced_distances_sq": lambda: kb.reduced_distances_sq(P0, [A]),
    "gauge_normalize": lambda: kb.gauge_normalize(np.array(M2), A),
    "from_factors": lambda: kb.KroneckerPoint.from_factors(M2, A),
}


@pytest.mark.parametrize("name", WRONG_TYPE)
def test_wrong_object_type_keeps_attribute_error(name):
    with pytest.raises(AttributeError):
        WRONG_TYPE[name]()


def test_converter_keeps_a_float_array_and_its_bits():
    # A float array passes through uncopied; bool and integer entries
    # convert exactly.
    x = np.array([[0.1, math.pi], [1e-300, 1e300]])
    assert _float_array(x, "x") is x
    assert np.array_equal(
        _float_array([[True, 2], [3, 4]], "x"), [[1.0, 2.0], [3.0, 4.0]]
    )

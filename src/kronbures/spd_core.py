"""Symmetric positive definite primitives.

Eigendecompositions, matrix square roots, Kronecker products, partial
traces, and the unit-determinant gauge used by the Kronecker model.
Symmetric matrices are represented as plain numpy arrays; :class:`SpdMatrix`
is the validated wrapper used wherever positive definiteness is required.
"""

from __future__ import annotations

import operator
import sys
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonPositiveCoordinate, NotPositiveDefinite

# Relative spectral margin below which a matrix is rejected as not SPD.
PD_TOLERANCE = 1e-12


def symmetrize(a) -> np.ndarray:
    """Symmetric average 0.5 * (A + A^T) of a square matrix, or of each
    matrix in a stack of shape (m, n, n)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {arr.shape}"
        )
    return 0.5 * (arr + np.swapaxes(arr, -1, -2))


def _match_dims(n0: int, n1: int) -> None:
    """The one size check for two SPD matrices or two model points."""
    if n0 != n1:
        raise DimensionMismatch(f"dimensions differ: {n0} vs {n1}")


def _square(entries) -> np.ndarray:
    """entries as a 2-D square float array of size at least 1."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_positive(name: str, vals) -> np.ndarray:
    """vals as a flat float array; raises NonPositiveCoordinate unless every
    entry is finite and positive (NaN fails the sign test too)."""
    arr = np.asarray(vals, dtype=float).ravel()
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise NonPositiveCoordinate(f"{name} must be entrywise finite and positive")
    return arr


def _store_positive(obj, ndim: int, **arrays) -> None:
    """Store each named array on obj as a read-only float copy, after one
    shape rule (all share one shape with ndim axes, none of length 0) and
    ``_check_positive``. A later edit of a passed array cannot reach it."""
    owner = type(obj).__name__
    stored = {name: np.array(vals, dtype=float) for name, vals in arrays.items()}
    shape = next(iter(stored.values())).shape
    for name, arr in stored.items():
        if arr.ndim != ndim or 0 in shape or arr.shape != shape:
            raise DimensionMismatch(
                f"{owner}.{name} has shape {arr.shape}; {', '.join(stored)} need "
                f"one {ndim}-d shape with no axis of length 0"
            )
    for name, arr in stored.items():
        _check_positive(f"{owner}.{name}", arr)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = Q diag(w) Q^T, eigenvalues sorted descending.
    Both arrays are marked read-only; take ``.copy()`` for a writable one."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def _eigh_descending(a: np.ndarray) -> EigenDecomposition:
    w, q = np.linalg.eigh(a)
    return EigenDecomposition(
        eigenvalues=np.ascontiguousarray(w[::-1]),
        eigenvectors=np.ascontiguousarray(q[:, ::-1]),
    )


class _Deferred(NamedTuple):
    """Passed as ``_eig``: validate now, and run eigh on the first read of
    ``eig``. ``lower`` and ``upper`` bound the extreme eigenvalues of the
    exact matrix whose rounded entries are passed."""

    lower: float
    upper: float

    def proves_margin(self, n: int) -> bool:
        # 64 n eps relative to the top of the spectrum covers the round-off
        # of forming the entries and of the bounds. Only normal bounds
        # decide, so that round-off is relative; NaN or an infinite upper
        # bound compares False.
        slack = PD_TOLERANCE + 64 * n * sys.float_info.epsilon
        return sys.float_info.min < slack * self.upper < self.lower


class SpdMatrix:
    """Dense SPD matrix with a write-once eigendecomposition ``eig``.

    This is the type for matrices the library asserts are SPD, and only
    those; operators derived from them (roots, whitened products) are
    plain arrays. Validation policy: every construction checks the shape,
    rejects non-finite entries, and tests or proves the spectral margin
    ``PD_TOLERANCE``. Without ``_eig``, the entries are symmetrized,
    so downstream solvers never see asymmetric round-off, and the spectrum
    comes from one ``eigh``, which is kept as ``eig``. ``_eig`` is passed
    only where the spectrum is known by construction: ``scaled``,
    ``identity`` and ``kron_model.embed`` (the factors' product spectrum).
    Each passes a fresh, exactly symmetric array (c A, I, V (x) U of
    symmetric factors), which the instance owns as given, since
    symmetrizing it would return the same bits. The margin test reads the
    supplied spectrum; no check is skipped.

    Transport maps and geodesic points (``bures_metric``) are validated by
    a proved margin when one is in hand, and otherwise by one ``eigvalsh``.
    Their entries are symmetrized and tested for finiteness either way.
    They pass ``_Deferred(lower, upper)``, Weyl bounds on the extreme
    eigenvalues of the exact matrix, taken from spectra the construction
    already holds (see ``bures_metric._transport`` and
    ``_geodesic_bounds``). The margin is proved when
    lower > (``PD_TOLERANCE`` + 64 N eps) * upper, for N x N entries and
    normal bounds; the 64 N eps covers the round-off of forming the
    matrix, so a proved matrix also passes the ``eigvalsh`` test. Bounds
    that do not decide, NaN among them, run that ``eigvalsh``. Most of
    these matrices are read only as entries, so ``eig`` is computed once,
    by one ``eigh`` of the stored entries, on its first read, and is then
    the same as the ``eig`` of ``SpdMatrix(mat)``, bit for bit. Two
    threads racing on that first read both compute it from the same
    read-only entries, get the same bits, and either may store it.

    No library path forms a principal or an inverse root: where A^1/2 or
    A^-1/2 enters, it scales the columns of A's cached eigenvectors. The
    public ``spd_sqrt`` returns A^1/2 as an unvalidated array: its margin
    sqrt(w_min / w_max) > sqrt(PD_TOLERANCE) = 1e-6 could not fail. The
    whitened product Y^T B Y, Y Y^T = A, is never wrapped: it can fall
    below the margin while what is built from it is well conditioned (for
    V0 (x) U and V1 (x) U it carries U^2), so ``bures_metric`` clips its
    spectrum at 0 and validates the result instead.

    ``bures_metric.bures_distance_sq(self, b)`` leaves its symmetrized
    whitened product M on ``self`` for a transport from ``self`` to that
    ``b`` (``geodesic`` after the distance), by the one hand-off rule of
    ``_leave``. Instances are immutable apart from the ``eig`` write and
    that slot, and safe to share across threads.
    """

    __slots__ = ("mat", "_eig", "_memo", "__weakref__")

    def __init__(self, entries, *, _eig=None):
        arr = _square(entries)
        deferred = isinstance(_eig, _Deferred)
        if _eig is None or deferred:
            arr = symmetrize(arr)
        if not np.all(np.isfinite(arr)):
            raise NotPositiveDefinite("matrix has non-finite entries")
        if deferred:
            eig, w = _eig, None
            if not _eig.proves_margin(arr.shape[0]):
                w = np.linalg.eigvalsh(arr)[::-1]
        else:
            eig = _eig if _eig is not None else _eigh_descending(arr)
            w = eig.eigenvalues
        if w is not None and (w[0] <= 0.0 or w[-1] <= PD_TOLERANCE * w[0]):
            raise NotPositiveDefinite(
                f"spectral margin too small: min eigenvalue {w[-1]:.6e}, "
                f"max eigenvalue {w[0]:.6e}"
            )
        arr.setflags(write=False)
        self.mat = arr
        self._eig = eig
        self._memo = None

    @property
    def eig(self) -> EigenDecomposition:
        eig = self._eig
        if isinstance(eig, _Deferred):
            eig = self._eig = _eigh_descending(self.mat)
        return eig

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def scaled(self, c: float) -> "SpdMatrix":
        """Positive scalar multiple c * A, reusing the cached spectrum."""
        if c <= 0.0:
            raise NotPositiveDefinite(f"scale factor must be positive, got {c}")
        eig = EigenDecomposition(c * self.eig.eigenvalues, self.eig.eigenvectors)
        return SpdMatrix(c * self.mat, _eig=eig)

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        return cls(np.eye(n), _eig=EigenDecomposition(np.ones(n), np.eye(n)))

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


def _leave(holder, partner, value) -> None:
    """Leave value on holder for ``_take(holder, partner)``.

    The one hand-off rule of the pair caches: ``bures_distance_sq(a, b)``
    leaves its whitened product, which it marks read-only, on a for
    ``_transport(a, b)``, and ``pairwise_bures_sq_reduced(p0, p1)`` its
    squared distance on p1 for ``reduced_distances_sq(p0, ...)``; neither
    call both leaves and takes. The slot ``_memo`` holds
    ``(weakref.ref(partner), value)`` until the next ``_leave`` on holder
    or the matching ``_take``. The key is identity, never equal values or
    the reversed pair, and never keeps partner alive: no slot forms a
    reference cycle, a self pair included, and once partner is gone an
    object that reuses its id matches nothing.
    """
    object.__setattr__(holder, "_memo", (weakref.ref(partner), value))


def _take(holder, partner):
    """The value ``_leave(holder, partner, ...)`` left, clearing the slot,
    or None, leaving the slot as it was. The slot is read once, so a lost
    race only computes the value again, with the same bits. A
    KroneckerPoint has no slot until its first ``_leave``."""
    memo = getattr(holder, "_memo", None)
    if memo is None or memo[0]() is not partner:
        return None
    object.__setattr__(holder, "_memo", None)
    return memo[1]


def log_det(a: SpdMatrix) -> float:
    """Log-determinant as the sum of eigenvalue logs (overflow safe)."""
    return float(np.log(a.eig.eigenvalues).sum())


def spd_sqrt(a: SpdMatrix) -> np.ndarray:
    """Principal matrix square root S with S @ S = A, as a symmetric array.

    Computed from the cached eigendecomposition with eigenvalue square
    roots, so no extra factorization is performed.
    """
    q = a.eig.eigenvectors
    return symmetrize((q * np.sqrt(a.eig.eigenvalues)) @ q.T)


def kron(a, b) -> np.ndarray:
    """Kronecker product with block (q, r) equal to A[q, r] * B.

    One broadcast product of A[q, None, r, None] and B[None, i, None, j],
    the multiply np.kron makes, without its wrapper; the bits are the same.
    """
    a, b = _square(a), _square(b)
    size = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(size, size)


def _blocks(k, n: int) -> np.ndarray:
    """k (n^2 x n^2) as n x n blocks; n is an integer >= 1, not a bool."""
    k = np.asarray(k, dtype=float)
    try:
        n = operator.index(None if isinstance(n, bool) else n)
    except TypeError:
        raise DimensionMismatch(f"block dimension {n!r} is not an integer") from None
    if n < 1:
        raise DimensionMismatch(f"block dimension must be positive, got {n}")
    if k.shape != (n * n, n * n):
        raise DimensionMismatch(
            f"expected a {n * n} x {n * n} matrix, got shape {k.shape}"
        )
    return k.reshape(n, n, n, n)


def partial_trace_1(k, n: int) -> np.ndarray:
    """Sum of the n diagonal n x n blocks; satisfies tr1(V (x) U) = tr(V) U."""
    return np.einsum("qiqj->ij", _blocks(k, n))


def partial_trace_2(k, n: int) -> np.ndarray:
    """Blockwise trace [tr(K_qr)]; satisfies tr2(V (x) U) = tr(U) V."""
    return np.einsum("qiri->qr", _blocks(k, n))


def gauge_normalize(u: SpdMatrix, v: SpdMatrix) -> tuple[SpdMatrix, SpdMatrix]:
    """Rescale (U, V) to (cU, V/c) with det(cU) = 1.

    The Kronecker product (V/c) (x) (cU) is unchanged, so both pairs
    represent the same model point.
    """
    _match_dims(u.dim, v.dim)
    c = float(np.exp(-log_det(u) / u.dim))
    return u.scaled(c), v.scaled(1.0 / c)

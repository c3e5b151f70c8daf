"""Symmetric positive definite primitives.

Eigendecompositions, matrix square roots, Kronecker products, partial
traces, and the unit-determinant gauge used by the Kronecker model.
Symmetric matrices are represented as plain numpy arrays; :class:`SpdMatrix`
is the validated wrapper used wherever positive definiteness is required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Relative spectral margin below which a matrix is rejected as not SPD.
PD_TOLERANCE = 1e-12

# Contract tolerances for cached eigendecompositions.
RECON_TOL = 1e-12
ORTHO_TOL = 1e-12


def symmetrize(a) -> np.ndarray:
    """Return the symmetric average 0.5 * (A + A^T) of a square matrix."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return 0.5 * (arr + arr.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = Q diag(w) Q^T, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh_descending(a: np.ndarray) -> EigenDecomposition:
    w, q = np.linalg.eigh(a)
    return EigenDecomposition(
        eigenvalues=np.ascontiguousarray(w[::-1]),
        eigenvectors=np.ascontiguousarray(q[:, ::-1]),
    )


class SpdMatrix:
    """Dense SPD matrix with a write-once cached eigendecomposition.

    This is the type for matrices the library asserts are SPD, and only
    those; operators derived from them (roots, whitened products) are
    plain arrays. Validation policy: every construction symmetrizes the
    entries, so downstream solvers never see asymmetric round-off, rejects
    non-finite entries, and tests the spectrum against the relative margin
    ``PD_TOLERANCE``. The spectrum comes from one ``eigh`` unless ``_eig``
    supplies it. ``_eig`` is passed only where the spectrum is known by
    construction: ``scaled``, ``identity`` and ``kron_model.embed`` (the
    factors' product spectrum). The margin test then reads that spectrum;
    no check is skipped. ``spd_sqrt`` and ``spd_inv_sqrt`` return arrays
    unvalidated: A^{+-1/2} of a validated A has finite entries and margin
    sqrt(w_min / w_max) > sqrt(PD_TOLERANCE) = 1e-6, far above
    ``PD_TOLERANCE``, so the check could not fail. The whitened product
    A^1/2 B A^1/2 is never wrapped: it can fall below the margin while
    what is built from it is well conditioned (for V0 (x) U and V1 (x) U
    it carries U^2), so ``bures_metric`` clips its spectrum at 0 and
    validates the result instead. Instances are immutable and safe to
    share across threads.
    """

    __slots__ = ("mat", "eig")

    def __init__(self, entries, *, _eig: EigenDecomposition | None = None):
        arr = symmetrize(entries)
        if arr.shape[0] < 1:
            raise DimensionMismatch("matrix dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise NotPositiveDefinite("matrix has non-finite entries")
        eig = _eig if _eig is not None else _eigh_descending(arr)
        w = eig.eigenvalues
        if w[0] <= 0.0 or w[-1] <= PD_TOLERANCE * w[0]:
            raise NotPositiveDefinite(
                f"spectral margin too small: min eigenvalue {w[-1]:.6e}, "
                f"max eigenvalue {w[0]:.6e}"
            )
        arr.setflags(write=False)
        self.mat = arr
        self.eig = eig

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


def spd_inv_sqrt(a: SpdMatrix) -> np.ndarray:
    """Inverse square root R with R @ A @ R = I, as a symmetric array."""
    q = a.eig.eigenvectors
    return symmetrize((q * (1.0 / np.sqrt(a.eig.eigenvalues))) @ q.T)


def kron(a, b) -> np.ndarray:
    """Kronecker product with block (q, r) equal to A[q, r] * B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected square factors, got shape {m.shape}")
    return np.kron(a, b)


def _blocks(k, n: int) -> np.ndarray:
    k = np.asarray(k, dtype=float)
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
    if u.dim != v.dim:
        raise DimensionMismatch(
            f"factor dimensions differ: {u.dim} vs {v.dim}"
        )
    c = float(np.exp(-log_det(u) / u.dim))
    return u.scaled(c), v.scaled(1.0 / c)

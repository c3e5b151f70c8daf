"""Shared random generators and assertions for the test suite.

All randomness is seeded through numpy default_rng so every test is
deterministic run to run.
"""

import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from kronbures import KroneckerPoint, LeafKind, SpdMatrix, col_leaf, row_leaf, spd_sqrt
from kronbures import spd_core

# Hypothesis properties run a fixed example sequence with no example database.
PROPERTY_SETTINGS = settings(
    max_examples=200, derandomize=True, deadline=None, database=None
)

# Contract tolerances for cached eigendecompositions: reconstruction error
# relative to the matrix, and orthogonality defect of the eigenvectors.
RECON_TOL = 1e-12
ORTHO_TOL = 1e-12


def rand_orthogonal(n, rng):
    """Haar-ish orthogonal matrix from a QR factorization with sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rand_spd(n, rng, log_scale=1.0, normalized=False):
    """Well-conditioned SPD matrix with lognormal spectrum.

    normalized=True centers the log-eigenvalues, so the determinant is one.
    """
    xi = log_scale * rng.standard_normal(n)
    if normalized:
        xi = xi - xi.mean()
    d = np.exp(xi)
    q = rand_orthogonal(n, rng)
    return SpdMatrix((q * d) @ q.T)


def rand_point(n, rng, log_scale=1.0):
    """Random gauge-normalized Kronecker model point."""
    return KroneckerPoint(
        u_factor=rand_spd(n, rng, log_scale, normalized=True),
        v_factor=rand_spd(n, rng, log_scale),
    )


def rand_symmetric(n, rng):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def frob(x):
    return float(np.linalg.norm(x))


def assert_stored_copies(obj, passed):
    """obj stores each named input of passed as a read-only copy: editing
    every mutable input afterwards leaves the stored arrays as they were,
    and writing into a stored array raises ValueError."""
    want = {name: getattr(obj, name).copy() for name in passed}
    for vals in passed.values():
        if not isinstance(vals, tuple):
            vals[0] = 1e9
    for name, vals in want.items():
        stored = getattr(obj, name)
        assert np.array_equal(stored, vals), name
        with pytest.raises(ValueError):
            stored[...] = 1.0


def cholesky_reduced_sq(p0, p1):
    """(d^2, tr_sum): a reference squared Bures distance between the
    embeddings of two model points, and tr(V0) tr(U0) + tr(V1) tr(U1).

    It shares no route with the library, which whitens by eigenvectors:
    with Cholesky factors A = L_A L_A^T and B = L_B L_B^T, the cross term
    tr((A^1/2 B A^1/2)^1/2) of a factor pair is the nuclear norm of
    L_B^T L_A, and the embedding's cross term is the product of the two
    factors' terms.
    """
    cross = 1.0
    for a, b in ((p0.u_factor, p1.u_factor), (p0.v_factor, p1.v_factor)):
        l_a, l_b = np.linalg.cholesky(a.mat), np.linalg.cholesky(b.mat)
        cross *= float(np.linalg.svd(l_b.T @ l_a, compute_uv=False).sum())
    tr_sum = sum(p.u_factor.trace() * p.v_factor.trace() for p in (p0, p1))
    return tr_sum - 2.0 * cross, tr_sum


def commuting_geodesic_eval(a, b, t):
    """((1-t) A^1/2 + t B^1/2)^2, the Bures geodesic between commuting SPD
    matrices by its plain formula: an oracle for the general evaluator."""
    mix = (1.0 - t) * spd_sqrt(a) + t * spd_sqrt(b)
    return mix @ mix


def leaf_pair(kind, n, rng):
    """A factor leaf and two random points on it.

    Row-leaf points share a normalized U; column-leaf points share V up to
    a lognormal scale.
    """
    if kind is LeafKind.ROW:
        u_star = rand_spd(n, rng, normalized=True)
        return (
            row_leaf(u_star),
            KroneckerPoint(u_star, rand_spd(n, rng)),
            KroneckerPoint(u_star, rand_spd(n, rng)),
        )
    v_star = rand_spd(n, rng)
    p0, p1 = (
        KroneckerPoint(
            rand_spd(n, rng, normalized=True),
            v_star.scaled(float(np.exp(rng.standard_normal()))),
        )
        for _ in range(2)
    )
    return col_leaf(v_star), p0, p1


@st.composite
def leaf_pairs(draw, max_n=3):
    """(leaf, p0, p1) from leaf_pair with n in [1, max_n] and either leaf kind."""
    kind = draw(st.sampled_from(LeafKind))
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return leaf_pair(kind, n, np.random.default_rng(seed))


@st.composite
def point_pairs(draw, min_n=1, max_n=4):
    """(p0, p1) of independent rand_point draws with n in [min_n, max_n]."""
    n = draw(st.integers(min_n, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rand_point(n, rng), rand_point(n, rng)


@st.composite
def clouds(draw, max_n=16, max_count=40):
    """(p, cloud, weights): a query point, 1 to max_count points of the same
    n in [1, max_n], and positive weights summing to one."""
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(1, max_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rand_point(n, rng)
    cloud = [rand_point(n, rng) for _ in range(count)]
    weights = rng.random(count) + 0.5
    return p, cloud, weights / weights.sum()


def linalg_calls(monkeypatch, fn, *args) -> list:
    """(name, dimension) of each eigh, eigvalsh and spd_sqrt call made by
    fn(*args), in call order."""
    calls = []

    def counting(name, f):
        def wrapped(a, *rest, **kw):
            calls.append((name, (a.mat if isinstance(a, SpdMatrix) else a).shape[-1]))
            return f(a, *rest, **kw)

        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    orig = spd_core.spd_sqrt
    wrapped = counting("spd_sqrt", orig)
    for key, module in list(sys.modules.items()):
        if key == "kronbures" or key.startswith("kronbures."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, wrapped)
    try:
        fn(*args)
    finally:
        monkeypatch.undo()
    return calls

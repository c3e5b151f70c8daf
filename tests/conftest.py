"""Shared random generators for the test suite.

All randomness is seeded through numpy default_rng so every test is
deterministic run to run.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from kronbures import KroneckerPoint, LeafKind, SpdMatrix, col_leaf, row_leaf

# Hypothesis properties run a fixed example sequence with no example database.
PROPERTY_SETTINGS = settings(
    max_examples=200, derandomize=True, deadline=None, database=None
)


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
def leaf_pairs(draw):
    """(leaf, p0, p1) from leaf_pair with n in [1, 3] and either leaf kind."""
    kind = draw(st.sampled_from(LeafKind))
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return leaf_pair(kind, n, np.random.default_rng(seed))

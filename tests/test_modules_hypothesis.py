"""Randomized Hilbert-module identities, each draw also checked against the entry loop.

A draw is block dimensions, a module rank and a seed; the identities hold
to 1e-10 and every result is bit for bit the per-entry AlgElement
arithmetic kept in test_modules.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from crossfourier.algebra import BlockAlgebra
from crossfourier.modules import MAX_RANK, ModuleOperator, random_vector
from test_modules import (
    entries_of,
    hexes,
    hexes_rows,
    loop_adjoint,
    loop_call,
    loop_compose,
    loop_inner,
    loop_inverse,
    rows_of,
)

TOL = 1e-10

draws = given(
    dims=st.sampled_from([(1,), (1, 1, 1), (2, 1), (3,)]),
    rank=st.integers(1, MAX_RANK),
    seed=st.integers(0, 2**32 - 1),
)
fixed = settings(derandomize=True, database=None, deadline=None)


def _draw(dims, rank, seed):
    """Vectors x, y, an element a, and a well-conditioned operator T = 1 + small."""
    A = BlockAlgebra(dims)
    rng = np.random.default_rng(seed)
    x, y = random_vector(A, rank, rng), random_vector(A, rank, rng)
    a = A.random_element(rng)
    # a random (n d) x (n d) block has norm about 2 sqrt(n); scaled to about 1/2
    small = 1.0 / (4.0 * np.sqrt(rank))
    T = ModuleOperator(A, tuple(
        tuple((A.unit() if i == j else A.zero()) + A.random_element(rng, small) for j in range(rank))
        for i in range(rank)
    ))
    return A, x, y, a, T


def _gap(S, R):
    return max(float(np.abs(s - r).max()) for s, r in zip(S.blocks, R.blocks))


@fixed
@draws
def test_inner_product_identities(dims, rank, seed):
    A, x, y, a, T = _draw(dims, rank, seed)
    assert (x.inner(y.right(a)) - x.inner(y) * a).norm() <= TOL
    assert (x.inner(y).star() - y.inner(x)).norm() <= TOL
    assert (T(x).inner(y) - x.inner(T.adjoint()(y))).norm() <= TOL


@fixed
@draws
def test_inverse_inverts(dims, rank, seed):
    A, _, _, _, T = _draw(dims, rank, seed)
    assert _gap(T.inverse().compose(T), ModuleOperator.identity(A, rank)) <= TOL


@fixed
@draws
def test_draw_matches_entry_loop_bit_for_bit(dims, rank, seed):
    A, x, y, a, T = _draw(dims, rank, seed)
    xs, ys, ts = entries_of(x), entries_of(y), rows_of(T)
    assert hexes([x.inner(y)]) == hexes([loop_inner(xs, ys)])
    assert hexes(entries_of(x.right(a))) == hexes([u * a for u in xs])
    assert hexes(entries_of(x - y)) == hexes([u + (-1.0) * v for u, v in zip(xs, ys)])
    assert hexes(entries_of(T(x))) == hexes(loop_call(ts, xs))
    assert hexes_rows(rows_of(T.adjoint())) == hexes_rows(loop_adjoint(ts))
    assert hexes_rows(rows_of(T.compose(T.adjoint()))) == hexes_rows(loop_compose(ts, loop_adjoint(ts)))
    assert hexes_rows(rows_of(T.inverse())) == hexes_rows(loop_inverse(ts))

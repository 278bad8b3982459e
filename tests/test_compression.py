"""The coded compression assembly against the per-entry loop it replaced.

compression_matrix finds the row of every (column h, support point g) entry
through Ball.translate and looks each cocycle value up once per entry.  The
loop below is the assembly as it ran before: one group product, one ball
lookup and one cocycle lookup per entry.  Both must give the same CSR
matrix byte for byte (indptr, indices and data, signed zeros included), on
every group family, on Z^d under each length, for block dimensions [1],
[1, 1], [2, 1] and [3], at radii 0 to 4 and at one radius of at least 6 on
the free families, on a cold system and again on the warm one.  A warm
system compresses through the CompressionPlan it keeps per radius and
length, so a sequence of elements through one system is checked too.
"""

import cmath
import copy
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse

from families import DIMS, FAMILIES, make_system
from crossfourier.algebra import (
    AlgAutomorphism, BlockAlgebra, apply_automorphisms, stack_automorphisms, stack_blocks,
)
from crossfourier import crossed
from crossfourier.crossed import CcElement, compression_matrix, delta, random_cc
from crossfourier.groups import (
    Cyclic, FreeF2, Zd, ball, default_length, one_norm, squared_two_norm, two_norm, word_length,
)
from crossfourier.system import (
    TwistedSystem, generator_action, section_cocycle_system, sl2z_extension, theta_cocycle, theta_system,
    trivial_system,
)


def loop_compression(f, R, length):
    """The per-entry assembly: (rows, columns, terms, cocycles) gathered in one Python loop."""
    system = f.system
    idx = ball(R, length)
    pos = {g: i for i, g in enumerate(idx)}
    grp, dims = system.group, system.algebra.dims
    support = f.support()
    rows, cols, terms, sigmas = [], [], [], []
    for c, h in enumerate(idx):
        for t, g in enumerate(support):
            r = pos.get(grp.mul(g, h))
            if r is not None:
                rows.append(r)
                cols.append(c)
                terms.append(t)
                sigmas.append(system.cocycle(g, h))
    D = system.algebra.rep_dim
    shape = (len(idx) * D, len(idx) * D)
    if not rows:
        return scipy.sparse.csr_matrix(shape, dtype=complex)
    rows, cols = np.array(rows), np.array(cols)
    distinct, row_of = np.unique(rows, return_inverse=True)
    inverses = stack_automorphisms([system.action(idx[r]).inverse() for r in distinct])
    terms = np.array(f._sorted_rows())[terms]
    products = [np.matmul(c[terms], s) for c, s in zip(f._blocks, stack_blocks(sigmas))]
    coo_rows, coo_cols, coo_data = [], [], []
    offset = 0
    for d, y in zip(dims, apply_automorphisms(inverses, row_of, products, permutes=True)):
        i, j = np.indices((d, d))
        coo_rows.append((rows[:, None, None] * D + offset + i).ravel())
        coo_cols.append((cols[:, None, None] * D + offset + j).ravel())
        coo_data.append(y.ravel())
        offset += d
    data = np.concatenate(coo_data) + 0j
    sparse = scipy.sparse.csr_matrix((data, (np.concatenate(coo_rows), np.concatenate(coo_cols))), shape=shape)
    sparse.eliminate_zeros()
    return sparse


def csr_bytes(m) -> tuple:
    return m.shape, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


def element(system, extra=(), seed=0, size=5):
    """Random coefficients on points of ball(2), imaginary ones included, plus `extra` points."""
    rng = np.random.default_rng(seed)
    pool = ball(2, default_length(system.group))
    points = [pool[i] for i in rng.choice(len(pool), size=min(size, len(pool)), replace=False)]
    points += [g for g in extra if g not in points]
    f = random_cc(system, points, rng)
    # imaginary units make signed zeros under conjugation
    return f + CcElement(system, {points[0]: 1j * system.algebra.unit()})


def assert_cold_and_warm(f, R, length):
    """Compress on the cold system, then check the loop and the warm system against it."""
    coded = csr_bytes(compression_matrix(f, R, length).sparse)
    assert coded == csr_bytes(loop_compression(f, R, length))
    assert coded == csr_bytes(compression_matrix(f, R, length).sparse)


# far points of the infinite families, so products leave the ball
FAR = {
    "Zd": [(3, -3), (0, 5)],
    "free-F2": [("a", "b", "A", "B"), ("B", "B", "B")],
    "free-product-Z2-Z3": [("s", "t", "s", "T", "s"), ("T", "s", "t")],
}


@pytest.mark.parametrize("dims", DIMS, ids=str)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coded_compression_is_the_loop_on_every_family(family, dims):
    system = make_system(family, dims)
    f = element(system, FAR.get(family, ()), seed=len(dims))
    length = default_length(system.group)
    for R in range(5):
        assert_cold_and_warm(f, R, length)
    # a length over an equal group object, whose coded view numbers points in another order
    twin = copy.copy(system.group)
    twin.__dict__.pop("_coded", None)
    system._compression_plans.clear()
    assert_cold_and_warm(f, 3, default_length(twin))


@pytest.mark.parametrize("family, R", [("free-F2", 6), ("free-product-Z2-Z3", 9)])
def test_coded_compression_is_the_loop_on_large_free_balls(family, R):
    system = make_system(family, (1,))
    assert_cold_and_warm(element(system, FAR[family], size=3), R, default_length(system.group))


@pytest.mark.parametrize("make_length", [one_norm, two_norm, squared_two_norm, word_length])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_coded_compression_is_the_loop_on_zd_lengths(d, make_length):
    system = theta_system(Zd(d), "1/5", BlockAlgebra([2, 1]))
    length = make_length(system.group)
    # sums whose unit-step paths leave the ball and come back into it (a
    # corner step out of a two-norm ball), and sums that never reach it
    extra = [(1,) + (-1,) * (d - 1), (2,) + (-2,) * (d - 1), (-3,) + (1,) * (d - 1), (9,) * d]
    f = element(system, extra, seed=d)
    for R in (0, 1, 1.5, 2, 2.5, 3, 4):
        assert_cold_and_warm(f, R, length)


def test_coded_compression_is_the_loop_on_the_rotation_system():
    # Z acting on M2 + C by powers of a rotation, with a cocycle rule that
    # returns the (shared) unit for every key
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    Z = Zd(1)
    action = generator_action(Z, A, [AlgAutomorphism.conjugation(A, [u, np.eye(1)])])
    system = TwistedSystem(A, Z, action, lambda g, h: A.unit(), tag="rotation")
    f = element(system, [(7,), (-9,)])
    length = default_length(Z)
    for R in (0, 1, 2, 4, 20):
        assert_cold_and_warm(f, R, length)


def sequence(system):
    """Elements with overlapping, disjoint and far supports, one with a NaN coefficient."""
    unit = system.algebra.unit()
    first = element(system, seed=1, size=4)
    pool = [g for g in ball(2, default_length(system.group)) if g not in first.support()]
    overlapping = element(system, first.support()[:2] + pool[:1], seed=2, size=1)
    disjoint = random_cc(system, pool[1:4], np.random.default_rng(3))
    nan = first + float("nan") * CcElement(system, {pool[0]: unit})
    out = [first, overlapping, disjoint, nan, first]
    if FAR.get(family_of(system)):
        out.append(random_cc(system, FAR[family_of(system)], np.random.default_rng(4)))
        out.append(overlapping + random_cc(system, FAR[family_of(system)][:1], np.random.default_rng(5)))
    return out


def family_of(system) -> str:
    return system.tag.removeprefix("perturbed-")


@pytest.mark.parametrize("dims", DIMS, ids=str)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_warm_system_compresses_a_sequence_as_the_loop(family, dims):
    system = make_system(family, dims)
    length = default_length(system.group)
    for k, f in enumerate(sequence(system)):
        for R in (2, 2.0, 3)[k % 2:]:
            rep = compression_matrix(f, R, length)
            assert type(rep.radius) is type(R) and rep.length is length
            assert csr_bytes(rep.sparse) == csr_bytes(loop_compression(f, R, length))
    assert sorted(system._compression_plans) == [(2.0, length.tag), (3.0, length.tag)]


def test_a_support_already_seen_makes_no_cocycle_calls():
    system = make_system("free-F2", (2, 1))
    calls = []
    cocycle = system.cocycle

    def counting(g, h):
        calls.append((g, h))
        return cocycle(g, h)

    system.cocycle = counting
    f = element(system, FAR["free-F2"], seed=6)
    compression_matrix(f, 3)
    assert calls
    calls.clear()
    # new coefficients on the same support, then on part of it
    g = random_cc(system, f.support(), np.random.default_rng(7))
    compression_matrix(g, 3.0)
    compression_matrix(random_cc(system, f.support()[1:], np.random.default_rng(8)), 3)
    assert calls == []


def test_a_system_is_freed_with_its_plans():
    # no reference cycle: dropping the system frees it and its plans before
    # any collection, so a long run that builds a system per task does not
    # hold the dead ones until the next full collection
    system = make_system("Zd", (2, 1))
    f = element(system, FAR["Zd"])
    rep = compression_matrix(f, 3)
    assert system._compression_plans
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system, f, rep
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("make_group", [lambda: Zd(2), lambda: Cyclic(12), FreeF2], ids=["Z2", "Z12", "F2"])
def test_a_fresh_group_is_freed_with_its_coded_view(make_group):
    # the group keeps its coded view (groups.coded_group), which must not
    # point back at it: a system built per task frees its group and tables
    # at once, as above
    group = make_group()
    system = trivial_system(BlockAlgebra([1]), group)
    f = random_cc(system, ball(1, default_length(group)), np.random.default_rng(0))
    rep = compression_matrix(f * f.star(), 2)
    refs = [weakref.ref(x) for x in (system, group, system.coded)]
    gc.disable()
    try:
        del system, group, f, rep
        assert [r() for r in refs] == [None] * 3
    finally:
        gc.enable()


def test_coded_compression_of_the_empty_element_is_empty():
    system = theta_system(Zd(2), "1/5")
    rep = compression_matrix(CcElement(system, {}), 2)
    assert rep.sparse.shape == (13, 13) and rep.sparse.nnz == 0


def assert_views_agree(rep):
    """.matrix, one scatter of the entries, is .sparse.toarray() bit for bit, and a dense-path
    value is the SVD of that array bit for bit."""
    dense = rep.sparse.toarray()
    assert rep.matrix.dtype == dense.dtype and rep.matrix.tobytes() == dense.tobytes()
    if rep.shape[0] and np.isfinite(dense).all():
        assert crossed.largest_singular_value(rep) == np.linalg.svd(dense, compute_uv=False)[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dense_view_and_dense_values_are_the_csr_bits_on_every_family(family):
    # signed zeros (imaginary units), a NaN coefficient, far points and an
    # empty compression; every matrix here stays below the dense cutoff
    system = make_system(family, (2, 1))
    elements = sequence(system) + [CcElement(system, {}), delta(system, FAR.get(family, [None])[0])]
    for f in elements:
        for R in (0, 2, 3):
            rep = compression_matrix(f, R)
            assert rep.shape[0] <= crossed._DENSE_SVD_LIMIT
            assert_views_agree(rep)


def test_dense_view_and_dense_values_are_the_csr_bits_at_full_radius_past_the_cutoff():
    system = trivial_system(BlockAlgebra([1]), Cyclic(256))
    f = random_cc(system, [0, 1, 5, 17], np.random.default_rng(256))
    rep = compression_matrix(f, crossed.full_radius(system))
    assert rep.shape == (256, 256) and 256 > crossed._DENSE_SVD_LIMIT
    assert_views_agree(rep)


# -- the rules evaluate each value once, with the same bits ------------------------------


def hexes(a) -> list:
    return [float(v).hex() for m in a.blocks for z in m.ravel() for v in (z.real, z.imag)]


def test_theta_rule_is_the_closed_form_and_builds_each_value_once():
    # the rule is the closed form bit for bit; the system evaluates it once per
    # distinct B(g, h) and keeps one table row per B
    A = BlockAlgebra([2, 1])
    group = Zd(2)
    rule = theta_cocycle(group, A, "1/5")
    points = ball(3, default_length(group))
    want = {}
    for g in points:
        for h in points:
            b = g[1] * h[0]
            want.setdefault(b, cmath.exp(2j * cmath.pi * 0.2 * b) * A.unit())
            assert hexes(rule(g, h)) == hexes(want[b])
    system = theta_system(group, "1/5", A)
    calls = []
    cocycle = system.cocycle

    def counting(g, h):
        calls.append(g[1] * h[0])
        return cocycle(g, h)

    system.cocycle = counting
    codes = system.coded.encode(points)
    g, h = np.repeat(codes, len(codes)), np.tile(codes, len(codes))
    rows = system.cocycle_rows(g, h, system.coded.mul(g, h))
    assert sorted(calls) == sorted(want) and len(system._cocycle_cache) == len(want)
    table = system.cocycle_blocks(rows)
    for i, (x, y) in enumerate(zip(system.coded.decode(g), system.coded.decode(h))):
        assert hexes(A.element([t[i] for t in table])) == hexes(want[x[1] * y[0]])


def test_section_rule_is_the_closed_form_and_lifts_each_element_once():
    ext = sl2z_extension()
    lifted = []
    lift = ext.lift

    def counting_lift(g):
        lifted.append(g)
        return lift(g)

    ext.lift = counting_lift
    system = section_cocycle_system(ext)
    A, group = system.algebra, system.group
    points = ball(3, default_length(group))
    for g in points:
        for h in points:
            z = ext.kmul(ext.kmul(lift(g), lift(h)), ext.kinv(lift(group.mul(g, h))))
            k = ext.center_index(z)
            want = A.scalar([cmath.exp(2j * cmath.pi * j * k / 2) for j in range(2)])
            assert hexes(system.cocycle(g, h)) == hexes(want)
    assert len(lifted) == len(set(lifted))


def test_a_block_swapping_system_keeps_each_action_once():
    base = make_system("free-F2", (1, 1))
    calls, autos = [], {}

    def rule(g):
        calls.append(g)
        autos.setdefault(g, base.action(g))
        return autos[g]

    system = TwistedSystem(base.algebra, base.group, rule, base.cocycle)
    points = ball(2, default_length(system.group))
    rng = np.random.default_rng(4)
    f, h = random_cc(system, points[:7], rng), random_cc(system, points[5:12], rng)
    runs = []
    for _ in range(2):
        product = f * h
        blocks = product._blocks + product.star()._blocks
        runs.append([b.tobytes() for b in blocks] + [csr_bytes(compression_matrix(product, 2).sparse)])
        # the rule is called once per distinct code, by the fill that first meets it
        assert len(calls) == len(set(calls)) == len(system._action_cache)
    assert system._permutes  # some stacked action swaps the blocks
    assert runs[0] == runs[1]
    g = points[3]
    assert system.action(g) is autos[g] and calls[-1] == g

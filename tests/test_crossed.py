import cmath
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from crossfourier import crossed
from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.crossed import (
    SUPPORT_TOL,
    CcElement,
    cc_unit,
    compression_matrix,
    delta,
    differences,
    exact_norm_finite,
    full_radius,
    opnorm_bounds,
    products,
    random_cc,
    stars,
    sums,
)
from crossfourier.groups import Cyclic, Dihedral, DirectProduct, FreeF2, Zd, ball, default_length
from crossfourier.system import TwistedSystem, generator_action, theta_system, trivial_system, sl2z_system
from families import make_system, rotation_system


def projective_z2_system():
    """Genuinely twisted pair: action Ad(u) with non-central cocycle u^2 on M2.

    The twisted-action identity forces cocycle(1,1) = u^2 whenever the order-2
    action generator lifts to a unitary of larger order; this exercises the
    action applied to non-scalar cocycle values in every formula.
    """
    A = BlockAlgebra([2])
    phi = np.pi / 3
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    u_sq = A.element([u @ u])
    conj = AlgAutomorphism.conjugation(A, [u])
    ident = AlgAutomorphism.identity(A)

    def action(g):
        return conj if g == 1 else ident

    def cocycle(g, h):
        return u_sq if (g, h) == (1, 1) else A.unit()

    G = Cyclic(2)
    return TwistedSystem(A, G, action, cocycle, tag="projective-Z2")


SYSTEMS = {
    "rotation-Z": rotation_system,
    "nc-torus": lambda: theta_system(Zd(2), "1/5"),
    "Z12-theta": lambda: theta_system(Cyclic(12), "1/12"),
    "psl": sl2z_system,
    "projective-Z2": projective_z2_system,
    "swap-theta-Z": lambda: _swap_theta_system(),
}


def _swap_theta_system():
    """Nontrivial action and nontrivial (central) cocycle at the same time."""
    import cmath

    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    Z = Zd(1)
    action = generator_action(Z, A, [swap])

    def cocycle(g, h):
        return cmath.exp(2j * cmath.pi * 0.3 * g[0] * h[0]) * A.unit()

    return TwistedSystem(A, Z, action, cocycle, tag="swap-theta")


def sample_support(system, rng, size=3):
    if system.group.is_finite:
        size = min(size, len(system.group.elements()))
    out = set()
    while len(out) < size:
        out.add(system.group.random_element(rng))
    return sorted(out, key=system.group.sort_key)


def test_system_mismatch_rejected():
    a = theta_system(Zd(2), "1/5")
    b = theta_system(Zd(2), "1/5")  # equal data, distinct system object
    with pytest.raises(ValueError, match="different systems"):
        delta(a) * delta(b)


def test_unit_is_two_sided_identity():
    for make in SYSTEMS.values():
        sys_ = make()
        rng = np.random.default_rng(0)
        one = cc_unit(sys_)
        f = random_cc(sys_, sample_support(sys_, rng), rng)
        assert ((one * f) - f).norm_l1() < 1e-12
        assert ((f * one) - f).norm_l1() < 1e-12


def test_nc_torus_defining_relation():
    sys_ = theta_system(Zd(2), "1/5")
    f = delta(sys_, (0, 1)) * delta(sys_, (1, 0))
    assert f.support() == [(1, 1)]
    val = f.coeff((1, 1)).blocks[0][0, 0]
    assert val == pytest.approx(cmath.exp(2j * cmath.pi / 5))


@pytest.mark.parametrize("name", list(SYSTEMS), ids=str)
def test_ring_axioms_on_random_triples(name):
    sys_ = SYSTEMS[name]()
    rng = np.random.default_rng(42)
    for _ in range(50):
        f1 = random_cc(sys_, sample_support(sys_, rng), rng)
        f2 = random_cc(sys_, sample_support(sys_, rng), rng)
        f3 = random_cc(sys_, sample_support(sys_, rng), rng)
        assert (((f1 * f2) * f3) - (f1 * (f2 * f3))).norm_l1() < 1e-10
        assert ((f1 * (f2 + f3)) - (f1 * f2 + f1 * f3)).norm_l1() < 1e-10
        assert (((f1 + f2) * f3) - (f1 * f3 + f2 * f3)).norm_l1() < 1e-10
        assert ((f1 * f2).star() - f2.star() * f1.star()).norm_l1() < 1e-10
        assert (f1.star().star() - f1).norm_l1() < 1e-12


def test_star_fixed_points():
    for make in SYSTEMS.values():
        sys_ = make()
        one = cc_unit(sys_)
        assert (one.star() - one).norm_l1() < 1e-14


def test_star_untwisted_scalar_case():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    f = CcElement(sys_, {(1,): A.scalar(2 + 1j), (-2,): A.scalar(3)})
    fs = f.star()
    assert fs.coeff((-1,)).blocks[0][0, 0] == pytest.approx(2 - 1j)
    assert fs.coeff((2,)).blocks[0][0, 0] == pytest.approx(3)


def test_support_bound_of_products():
    sys_ = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(3)
    f1 = random_cc(sys_, [(0, 0), (1, 0)], rng)
    f2 = random_cc(sys_, [(0, 1), (2, 0)], rng)
    prod_support = {sys_.group.mul(g, h) for g in f1.support() for h in f2.support()}
    assert set((f1 * f2).support()) <= prod_support


def test_expectation_and_fourier():
    for make in SYSTEMS.values():
        sys_ = make()
        rng = np.random.default_rng(1)
        g0 = sample_support(sys_, rng, 1)[0]
        # expectation kills off-identity points
        assert delta(sys_, g0).expectation().norm() == (1.0 if g0 == sys_.group.identity() else 0.0)
        assert (cc_unit(sys_).expectation() - sys_.algebra.unit()).norm() == 0
        # cross-check E(f * delta_g^*) = f(g)
        f = random_cc(sys_, sample_support(sys_, rng), rng)
        for g in f.support():
            lhs = (f * delta(sys_, g).star()).expectation()
            assert (lhs - f.coeff(g)).norm() < 1e-10


@pytest.mark.parametrize("name", list(SYSTEMS), ids=str)
def test_expectation_of_star_product_is_gram(name):
    sys_ = SYSTEMS[name]()
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = random_cc(sys_, sample_support(sys_, rng), rng)
        lhs = (f.star() * f).expectation()
        assert (lhs - f.gram()).norm() < 1e-10
        assert lhs.norm() == pytest.approx(f.module_norm() ** 2, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", list(SYSTEMS), ids=str)
def test_expectation_covariance(name):
    # E(delta_g * f * delta_g^*) = action(g)(E(f))
    sys_ = SYSTEMS[name]()
    rng = np.random.default_rng(6)
    for _ in range(25):
        f = random_cc(sys_, sample_support(sys_, rng), rng)
        g = sys_.group.random_element(rng)
        dg = delta(sys_, g)
        lhs = (dg * f * dg.star()).expectation()
        rhs = sys_.act(g, f.expectation())
        assert (lhs - rhs).norm() < 1e-10


def test_expectation_positive_and_faithful():
    sys_ = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(7)
    from crossfourier.algebra import classify

    for _ in range(20):
        f = random_cc(sys_, sample_support(sys_, rng), rng)
        e = (f.star() * f).expectation()
        assert classify(e).positive
        assert e.norm() > 1e-12  # zero only for f = 0


def test_scalar_module_norm_is_l2():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    f = CcElement(sys_, {(0,): A.scalar(3), (2,): A.scalar(4j)})
    assert f.module_norm() == pytest.approx(5.0)
    assert f.module_norm() == pytest.approx(5.0)
    assert f.norm_l1() == pytest.approx(7.0)
    assert f.norm_linf() == pytest.approx(4.0)


@pytest.mark.parametrize("name", list(SYSTEMS), ids=str)
def test_norm_inequality_chain(name):
    sys_ = SYSTEMS[name]()
    rng = np.random.default_rng(8)
    kappa = lambda g: 1.0 + float(len(str(g)) % 3)  # any rule >= 1
    for _ in range(25):
        f = random_cc(sys_, sample_support(sys_, rng), rng)
        assert f.norm_linf() <= f.module_norm() + 1e-9
        assert f.module_norm() <= f.norm_l1() + 1e-9
        assert f.weighted_module_norm(kappa) <= f.weighted_l2_norm(kappa) + 1e-9
        assert f.module_norm() <= f.weighted_module_norm(kappa) + 1e-9


def test_weight_below_one_rejected():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    f = delta(sys_, (1,))
    with pytest.raises(ValueError, match="weight below 1"):
        f.weighted_l2_norm(lambda g: 0.5)


def test_random_cc_is_the_mapping_of_its_draws():
    # one draw per support point in turn, as {g: random_element} made them: a
    # repeated point keeps its last draw at its first position
    A = BlockAlgebra([2, 1])
    sys_ = theta_system(Zd(1), 0.37, algebra=A)
    support = [(1,), (0,), (1,), (2,), (0,)]
    used = np.random.default_rng(4)
    f = random_cc(sys_, support, used)
    rng = np.random.default_rng(4)
    draws = {g: [1.0 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d) for d in A.dims]
             for g in support}
    assert f._points == list(draws) == [(1,), (0,), (2,)]
    for g, blocks in draws.items():
        assert [m.tobytes() for m in f.coeff(g).blocks] == [m.tobytes() for m in blocks]
    assert used.random() == rng.random()  # and no more draws


def loop_random_cc_in(system, pool, max_size, rng):
    """random_cc_in as one element's draws: a size, distinct points of pool, then random_cc's coefficients."""
    size = 1 + int(rng.integers(min(max_size, len(pool))))
    idx = rng.choice(len(pool), size=size, replace=False)
    return random_cc(system, [pool[i] for i in idx], rng)


# each system is made twice, on fresh groups, so that a numbered coded view
# gives its codes in the order of first sight in each run
DRAW_SYSTEMS = {
    "cyclic": (lambda: theta_system(Cyclic(12), "1/12"), lambda s: s.group.elements(), 3),
    "Zd-M2+C": (lambda: theta_system(Zd(2), "1/5", algebra=BlockAlgebra([2, 1])),
                lambda s: ball(2, default_length(s.group)), 3),
    "F2": (lambda: trivial_system(BlockAlgebra([1, 1]), FreeF2()), lambda s: ball(2, default_length(s.group)), 4),
    "Z2*Z3": (sl2z_system, lambda s: ball(3, default_length(s.group)), 3),
    "pool-below-max-size": (lambda: theta_system(Zd(1), 0.37, algebra=BlockAlgebra([2, 1])),
                            lambda s: ball(1, default_length(s.group)), 5),
}


@pytest.mark.parametrize("name", sorted(DRAW_SYSTEMS))
def test_random_ccs_in_is_the_loop_of_random_cc_in(name):
    make, pool_of, max_size = DRAW_SYSTEMS[name]
    for count in (0, 1, 2, 37):
        batched_sys, loop_sys = make(), make()
        batched_rng, loop_rng = np.random.default_rng(count), np.random.default_rng(count)
        batched = crossed.random_ccs_in(batched_sys, pool_of(batched_sys), max_size, batched_rng, count)
        expected = [loop_random_cc_in(loop_sys, pool_of(loop_sys), max_size, loop_rng) for _ in range(count)]
        assert len(batched) == count
        for f, g in zip(batched, expected):
            assert f._codes.tobytes() == g._codes.tobytes()
            assert [b.tobytes() for b in f._blocks] == [b.tobytes() for b in g._blocks]
            assert f.support() == g.support() and f._points == g._points
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    if name == "pool-below-max-size":
        assert len(pool_of(make())) < max_size


def test_a_mapping_checks_every_key_before_pruning():
    # a key that is no group element is rejected even when its value is zero
    sys_ = theta_system(Zd(2), "1/5")
    A = sys_.algebra
    for coeffs in ({(1, 2, 3): A.unit()}, {(1, 2, 3): A.zero(), (0, 0): A.unit()}, {(0, 0): A.unit(), (1,): A.zero()}):
        with pytest.raises(ValueError, match="integer 2-tuple"):
            CcElement(sys_, coeffs)


def _decode_counter(monkeypatch, coded) -> list:
    """The number of codes of each coded.decode call from now on."""
    calls, decode = [], coded.decode

    def counting(codes):
        calls.append(len(codes))
        return decode(codes)

    monkeypatch.setattr(coded, "decode", counting)
    return calls


@pytest.mark.parametrize("make", [lambda: theta_system(Zd(2), "1/5"), lambda: make_system("free-F2", (1, 1))],
                         ids=["Z2-theta", "F2"])
def test_arithmetic_and_compression_decode_no_point_but_new_pieces(make, monkeypatch):
    # an element is its codes and blocks: once the system's tables know the
    # pairs, products, stars, sums, differences and scalar multiples decode
    # nothing; support() decodes once, and compressing decodes the point of
    # each new plan piece only
    system = make()
    group = system.group
    rng = np.random.default_rng(3)
    pool = ball(2, default_length(group))
    f1, f2, f3 = (random_cc(system, [pool[i] for i in rng.choice(len(pool), 4, replace=False)], rng)
                  for _ in range(3))

    def arithmetic():
        p = f1 * f2
        q, s, d = p.star(), p + f3, p - f3
        out = [p, q, s, d, 1.5 * p, p * q, (s * d).star()]
        out += products([p, q], [d, s]) + stars([p, s]) + sums([p, q], [s, d]) + differences([p, q], [s, d])
        return out

    warm = arithmetic()  # fills the coded products, cocycle and action tables
    want = sorted({group.mul(g, h) for g in f1.support() for h in f2.support()}, key=group.sort_key)
    calls = _decode_counter(monkeypatch, system.coded)
    results = arithmetic()
    assert calls == []
    assert [f._codes.tobytes() for f in results] == [f._codes.tobytes() for f in warm]
    p = results[0]
    assert p.support() == want and calls == [len(p)]
    assert p.support() == want and calls == [len(p)]

    compression_matrix(p, 1)  # warms the cocycle and action tables of ball(1)
    system._compression_plans.clear()
    q = results[4]  # 1.5 * p: the same codes, no points yet
    del calls[:]
    sparse = compression_matrix(q, 1).sparse
    assert calls == [len(q)]  # one point per new piece, in one call
    compression_matrix(q, 1)
    assert calls == [len(q)]
    twin = CcElement(system, dict(q.items()))  # rows in support order, points from the mapping
    twin_sparse = compression_matrix(twin, 1).sparse
    assert [x.tobytes() for x in (sparse.indptr, sparse.indices, sparse.data)] == [
        x.tobytes() for x in (twin_sparse.indptr, twin_sparse.indices, twin_sparse.data)]


def test_the_results_of_one_batch_share_one_decode(monkeypatch):
    # reading the points of every result of a batch decodes the batch's codes once
    system = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(4)
    pool = ball(2, default_length(system.group))
    fs = [random_cc(system, [pool[i] for i in rng.choice(len(pool), 3, replace=False)], rng) for _ in range(6)]
    alone = [fs[c] * fs[3 + c] for c in range(3)] + [f.star() for f in fs] + [fs[c] + fs[3 + c] for c in range(3)]
    want = [f.support() for f in alone]
    batch = products(fs[:3], fs[3:]) + stars(fs) + sums(fs[:3], fs[3:])
    calls = _decode_counter(monkeypatch, system.coded)
    assert [f.support() for f in batch] == want
    assert calls == [sum(map(len, batch[:3])), sum(map(len, batch[3:9])), sum(map(len, batch[9:]))]
    assert [f.support() for f in batch] == want and len(calls) == 3


def test_a_batch_decode_leaves_each_result_only_its_own_points():
    # the first result read decodes the batch once and seeds every result
    # still alive with its own slice; a dropped result is skipped
    system = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(5)
    pool = ball(2, default_length(system.group))
    fs = [random_cc(system, pool[:6], rng) for _ in range(6)]
    batch = products(fs[:3], fs[3:]) + products(fs[3:], fs[:3])[:1]
    del batch[1]
    batch[0].support()
    for f in batch[:2]:
        assert f._point_list == system.coded.decode(f._codes)
    assert callable(batch[2]._point_list)  # another batch, not read


def test_a_fresh_plan_encodes_its_ball_once_and_no_support_point(monkeypatch):
    # Ball.translate takes the code of g, so compressing encodes no point of f
    system = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(6)
    pool = ball(2, default_length(system.group))
    f = random_cc(system, pool, rng) * random_cc(system, pool[:5], rng)
    calls, encode = [], system.coded.encode

    def counting(points):
        calls.append(len(points))
        return encode(points)

    monkeypatch.setattr(system.coded, "encode", counting)
    comp = compression_matrix(f, 4)
    assert calls == [len(comp.index)]


def test_fourier_uniqueness_at_cc_level():
    sys_ = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(9)
    f1 = random_cc(sys_, [(0, 0), (1, 2)], rng)
    f2 = CcElement(sys_, {g: f1.coeff(g) for g in f1.support()})
    diff = f1 - f2
    assert all(diff.coeff(g).norm() < 1e-14 for g in f1.support())
    assert len(diff) == 0


# -- compressions ------------------------------------------------------------------


def test_overflow_is_kept_in_the_support():
    # 1e200 squared overflows: f * f is inf + nan j at 0, and the NaN norms
    # of -(f * f) and f * f - f * f are not below the support tolerance
    sys_ = theta_system(Zd(1), "1/5")
    f = delta(sys_, (0,), 1e200 * sys_.algebra.unit())
    with np.errstate(over="ignore", invalid="ignore"):
        ff = f * f
        neg = (-1.0) * ff
        diff = ff - ff
    assert ff.support() == neg.support() == diff.support() == [(0,)]
    assert math.isinf(ff.coeff((0,)).blocks[0][0, 0].real)
    assert math.isnan(neg.norm_l1()) and math.isnan(diff.norm_l1())
    assert CcElement(sys_, {(1,): math.nan * sys_.algebra.unit()}).support() == [(1,)]


def test_pruning_takes_the_norm_not_the_largest_entry():
    # arithmetic drops the rows of norm below 1e-14; a 2 x 2 block whose largest
    # entry is below that may still have a norm above it, and is kept, as is a
    # 1 x 1 block of norm exactly 1e-14
    A = BlockAlgebra([2, 1])
    sys_ = trivial_system(A, Zd(1))
    blocks = {(0,): [[1.5, 0.0], [0.0, 0.0]], (1,): [[0.8, 0.8], [0.8, 0.8]], (2,): [[0.6, 0.0], [0.0, 0.0]],
              (3,): [[0.6, 0.0], [0.0, 0.6]], (4,): [[0.0, 0.0], [0.0, 0.0]]}
    f = CcElement(sys_, {g: A.element([m, [[1.0 if g == (4,) else 0.0]]]) for g, m in blocks.items()})
    small = 1e-14 * f
    assert small.support() == [g for g, a in f.items() if not (1e-14 * a).norm() < SUPPORT_TOL] == [(0,), (1,), (4,)]
    assert small.norm_l1() == sum((1e-14 * f.coeff(g)).norm() for g in small.support())
    # the mapping constructor prunes the same way, to the same bits
    mapped = CcElement(sys_, {g: 1e-14 * a for g, a in f.items()})

    def bits(h):
        return [(g, [float(v).hex() for x in a.blocks for z in x.ravel() for v in (z.real, z.imag)])
                for g, a in h.items()]

    assert mapped.support() == small.support() and bits(mapped) == bits(small)
    assert mapped.norm_l1() == small.norm_l1()


def test_coefficient_norms_propagate_nan_like_the_packed_norms():
    # Z acting on C + C by the block swap: with the right factor scalar([inf, -2])
    # at 0, the product has the coefficient [1, nan] at 1, a NaN after a finite block
    from crossfourier.algebra import stacked_norms

    A = BlockAlgebra([1, 1])
    Z = Zd(1)
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    sys_ = TwistedSystem(A, Z, generator_action(Z, A, [swap]), lambda g, h: A.unit(), tag="swap")
    f1 = CcElement(sys_, {(0,): A.scalar([1.0, 0.5]), (1,): A.scalar([0.0, 1.0])})
    with np.errstate(invalid="ignore"):
        f2 = CcElement(sys_, {(0,): A.scalar([math.inf, -2.0]), (1,): A.unit()})
        p = f1 * f2
        small_then_nan = A.scalar([1e-20, math.nan])
    items = p.items()
    norms = [a.norm() for _, a in items]
    packed = stacked_norms([np.stack([a.blocks[j] for _, a in items]) for j in range(2)])
    np.testing.assert_array_equal(norms, packed)
    assert math.isnan(p.coeff((1,)).norm())
    assert math.isnan(p.norm_l1()) and math.isnan(sum(norms)) and math.isnan(p.norm_linf())
    assert CcElement(sys_, {(1,): small_then_nan}).support() == [(1,)]
    # a 2 x 2 block with a NaN or infinite entry: NaN or inf, where the SVD fails
    M2 = BlockAlgebra([1, 2])
    for bad in (math.nan, math.inf):
        a = M2.element([np.ones((1, 1)), np.array([[1.0, bad], [0.0, 1.0]])])
        np.testing.assert_array_equal([a.norm()], stacked_norms([b[None] for b in a.blocks]))


def test_star_over_an_identity_action_keeps_finite_entries_beside_an_inf():
    # the one departure from the AlgElement arithmetic: a system built with
    # trivial_action skips its actions, alone or in any batch, where applying one,
    # 1 x 1^*, spreads the NaN of inf * 0 over the whole block
    A = BlockAlgebra([2])
    sys_ = trivial_system(A, Zd(1))
    a = A.element([[[math.inf, 1.0], [2.0, 3.0]]])
    h, h_inv = (-1,), (1,)
    with np.errstate(invalid="ignore"):
        packed = CcElement(sys_, {h_inv: a}).star().coeff(h)
        oracle = sys_.act(h, sys_.cocycle(h_inv, h).star() * a.star())
    assert np.isfinite(packed.blocks[0][:, 1]).all() and np.isnan(oracle.blocks[0]).all()
    assert math.isnan(packed.norm()) and math.isnan(oracle.norm())


def test_compression_of_unit_is_identity():
    for make in SYSTEMS.values():
        sys_ = make()
        comp = compression_matrix(cc_unit(sys_), 2)
        assert np.linalg.norm(comp.matrix - np.eye(comp.matrix.shape[0])) < 1e-12


def test_compression_path_graph():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    f = CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()})
    R = 3
    comp = compression_matrix(f, R)
    n = 2 * R + 1
    assert len(comp.index) == n
    # adjacency of the path on the ball, in the ball's own deterministic order
    expect = np.zeros((n, n))
    for i, g in enumerate(comp.index):
        for j, h in enumerate(comp.index):
            if abs(g[0] - h[0]) == 1:
                expect[i, j] = 1
    assert np.linalg.norm(comp.matrix - expect) < 1e-12
    assert crossed.largest_singular_value(comp) == pytest.approx(2 * np.cos(np.pi / (2 * R + 2)), abs=1e-10)


def _random_unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _dihedral_points_system():
    """D4 permuting the vertices of a square: a block-permutation action on C^4."""
    A = BlockAlgebra([1, 1, 1, 1])
    G = Dihedral(4)
    rotate = AlgAutomorphism.block_permutation(A, [1, 2, 3, 0])
    reflect = AlgAutomorphism.block_permutation(A, [0, 3, 2, 1])
    return TwistedSystem(A, G, generator_action(G, A, [rotate, reflect]), lambda g, h: A.unit(), tag="D4-points")


def _product_conjugation_system():
    """Z2 x Z3 on M2 by commuting diagonal conjugations of orders 2 and 3."""
    A = BlockAlgebra([2])
    G = DirectProduct([Cyclic(2), Cyclic(3)])
    images = [AlgAutomorphism.conjugation(A, [np.diag([1, -1])]),
              AlgAutomorphism.conjugation(A, [np.diag([1, np.exp(2j * np.pi / 3)])])]
    return TwistedSystem(A, G, generator_action(G, A, images), lambda g, h: A.unit(), tag="Z2xZ3-conjugation")


def _f2_swap_system():
    """F2 on M2 + M2 + C: a swaps the two 2-blocks (with conjugations), b conjugates."""
    A = BlockAlgebra([2, 2, 1])
    rng = np.random.default_rng(21)
    a = AlgAutomorphism(A, [1, 0, 2], [_random_unitary(rng, 2), _random_unitary(rng, 2), np.eye(1)])
    b = AlgAutomorphism.conjugation(A, [_random_unitary(rng, 2), _random_unitary(rng, 2), np.eye(1)])
    G = FreeF2()
    return TwistedSystem(A, G, generator_action(G, A, [a, b]), lambda g, h: A.unit(), tag="F2-swap")


# every group family; theta, section and non-central cocycles; conjugation,
# block-permutation and mixed actions
EXACT_SYSTEMS = {
    **SYSTEMS,
    "D4-points": _dihedral_points_system,
    "Z2xZ3-conjugation": _product_conjugation_system,
    "F2-swap": _f2_swap_system,
}


def entrywise_compression(f, R):
    """The compression filled block by block into a zeroed dense matrix."""
    system = f.system
    idx = ball(R, default_length(system.group))
    pos = {g: i for i, g in enumerate(idx)}
    D = system.algebra.rep_dim
    M = np.zeros((len(idx) * D, len(idx) * D), dtype=complex)
    for c, h in enumerate(idx):
        for g, a in f.items():
            r = pos.get(system.group.mul(g, h))
            if r is None:
                continue
            entry = system.act_inv(idx[r], a * system.cocycle(g, h))
            k = 0
            for m in entry.blocks:
                d = m.shape[0]
                M[r * D + k : r * D + k + d, c * D + k : c * D + k + d] += m
                k += d
    return M


@pytest.mark.parametrize("name", list(EXACT_SYSTEMS), ids=str)
def test_compression_equals_entrywise_reference_exactly(name):
    from crossfourier.crossed import full_radius

    sys_ = EXACT_SYSTEMS[name]()
    R = full_radius(sys_) if sys_.group.is_finite else 3
    rng = np.random.default_rng(22)
    # imaginary coefficients make signed zeros under conjugation; a zeroed
    # dense fill turns them into +0.0, and so must the entries behind both views
    i_unit = 1j * sys_.algebra.unit()
    elements = [CcElement(sys_, {g: i_unit for g in sample_support(sys_, rng, 4)})]
    elements += [random_cc(sys_, sample_support(sys_, rng, 4), rng) for _ in range(3)]
    for f in elements:
        rep = compression_matrix(f, R)
        assert rep.matrix.tobytes() == entrywise_compression(f, R).tobytes()  # signed zeros included
        S, want = rep.sparse, scipy.sparse.csr_matrix(rep.matrix)
        assert S.has_sorted_indices
        assert np.all(S.data != 0)
        assert np.array_equal(S.indptr, want.indptr)
        assert np.array_equal(S.indices, want.indices)
        assert S.data.tobytes() == want.data.tobytes()  # signed zeros included


def test_compression_of_element_outside_the_ball_is_zero():
    sys_ = theta_system(Zd(2), "1/5")
    rep = compression_matrix(delta(sys_, (9, 0)), 2)
    assert rep.sparse.shape == (13, 13) and rep.sparse.nnz == 0
    assert not rep.matrix.any()
    assert crossed.largest_singular_value(rep) == 0.0


def test_compression_builds_few_automorphisms(monkeypatch):
    # each row's inverse action is built once and generator powers are
    # memoized, so the count grows with |ball|, not |ball| * |supp f| * R
    sys_ = rotation_system()
    rng = np.random.default_rng(23)
    f = random_cc(sys_, ball(2, default_length(sys_.group)), rng)
    built = []
    init = AlgAutomorphism.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgAutomorphism, "__init__", counting_init)
    rep = compression_matrix(f, 100)
    assert len(rep.index) == 201
    assert len(built) <= 4 * len(rep.index)


@pytest.mark.parametrize("name", list(SYSTEMS), ids=str)
def test_compression_star_is_adjoint(name):
    sys_ = SYSTEMS[name]()
    rng = np.random.default_rng(11)
    f = random_cc(sys_, sample_support(sys_, rng), rng)
    if sys_.group.is_finite:
        R = None
        from crossfourier.crossed import full_radius

        R = full_radius(sys_)
    else:
        R = 3
    a = compression_matrix(f, R).matrix
    b = compression_matrix(f.star(), R).matrix
    assert np.linalg.norm(a.conj().T - b) < 1e-10


def test_finite_group_matrix_oracle_for_products():
    for name in ("Z12-theta", "projective-Z2"):
        sys_ = SYSTEMS[name]()
        from crossfourier.crossed import full_radius

        R = full_radius(sys_)
        rng = np.random.default_rng(12)
        for _ in range(20):
            f1 = random_cc(sys_, sample_support(sys_, rng), rng)
            f2 = random_cc(sys_, sample_support(sys_, rng), rng)
            m1 = compression_matrix(f1, R).matrix
            m2 = compression_matrix(f2, R).matrix
            m12 = compression_matrix(f1 * f2, R).matrix
            assert np.linalg.norm(m12 - m1 @ m2) < 1e-10


def test_projective_system_validates_and_star_matches_adjoint():
    sys_ = projective_z2_system()
    from crossfourier.system import validate_system

    assert validate_system(sys_).passed
    from crossfourier.crossed import full_radius

    R = full_radius(sys_)
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = random_cc(sys_, sample_support(sys_, rng, 2), rng)
        a = compression_matrix(f, R).matrix
        b = compression_matrix(f.star(), R).matrix
        assert np.linalg.norm(a.conj().T - b) < 1e-10
        assert (f.star().star() - f).norm_l1() < 1e-12


def test_largest_singular_value_dense_and_sparse_paths_agree():
    # the path graph pins the answer in closed form on both sides of the
    # dense/Lanczos cutoff (200), and three times as far out
    assert 2 * 99 + 1 <= crossed._DENSE_SVD_LIMIT < 2 * 100 + 1
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    f = CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()})
    for R in (99, 100, 299, 301):  # 199, 201, 599 and 603 dimensions
        comp = compression_matrix(f, R)
        want = 2 * np.cos(np.pi / (2 * R + 2))
        assert crossed.largest_singular_value(comp) == pytest.approx(want, abs=1e-8)
        v = crossed._top_singular(comp, vectors=True)[1]
        assert np.linalg.norm(comp.matrix @ v) / np.linalg.norm(v) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("order", [256, 320])
def test_finite_group_values_past_the_cutoff_are_the_dense_svd(order):
    # on a trivial system over a finite group the constant vector, Lanczos's
    # start, is a singular vector of every full-radius compression: from it
    # Lanczos would stop at |sum f| (0 for delta_e - delta_a, whose norm is 2)
    assert order > crossed._DENSE_SVD_LIMIT
    sys_ = trivial_system(BlockAlgebra([1]), Cyclic(order))
    rng = np.random.default_rng(order)
    for f in (delta(sys_) - delta(sys_, 1), random_cc(sys_, [0, 1, 5, 17], rng)):
        comp = compression_matrix(f, full_radius(sys_))
        want = np.linalg.svd(comp.matrix, compute_uv=False)[0]
        assert exact_norm_finite(f) == pytest.approx(want, rel=1e-12)
        assert crossed.largest_singular_value(comp) == pytest.approx(want, rel=1e-12)
        v = crossed._top_singular(comp, vectors=True)[1]
        assert np.linalg.norm(comp.matrix @ v) / np.linalg.norm(v) == pytest.approx(want, rel=1e-12)
    assert exact_norm_finite(delta(sys_) - delta(sys_, 1)) == pytest.approx(2, rel=1e-12)


def _real_and_complex_compressions():
    """A real compression (trivial system, real coefficients) and a complex one, both past the cutoff."""
    rng = np.random.default_rng(21)
    F2 = trivial_system(BlockAlgebra([1]), FreeF2())
    pool = ball(2, default_length(F2.group))
    real = CcElement(F2, {pool[i]: F2.algebra.scalar(rng.normal()) for i in rng.choice(len(pool), 6, replace=False)})
    Z2 = theta_system(Zd(2), "1/5")
    cplx = random_cc(Z2, ball(2, default_length(Z2.group)), rng)
    return compression_matrix(real, 5), compression_matrix(cplx, 13)  # 485 and 365 dimensions


def test_lanczos_runs_in_real_arithmetic_only_on_real_compressions(monkeypatch):
    real, cplx = _real_and_complex_compressions()
    assert not np.any(real.sparse.data.imag) and np.any(cplx.sparse.data.imag)
    seen = []
    original = crossed._lanczos_top

    def spy(operand, adjoint):
        seen.append((operand.dtype, operand.data.flags.c_contiguous))
        return original(operand, adjoint)

    monkeypatch.setattr(crossed, "_lanczos_top", spy)
    for comp in (real, cplx):
        assert comp.sparse.shape[0] > crossed._DENSE_SVD_LIMIT
        crossed.largest_singular_value(comp)
    # contiguous data: csr_matvec would copy a strided real view on every product
    assert seen == [(np.float64, True), (np.complex128, True)]


def _lanczos_by_products(operand, adjoint):
    """(v, j): the Lanczos of crossed._lanczos_top in two passes, storing no vector, each step applied as
    adjoint @ (operand @ q) and scaled by numpy, its Ritz pairs from scipy.linalg.eigh_tridiagonal and its
    dots and axpys from the BLAS handles the loop uses; j steps, q_0 .. q_{j-1} make up the Ritz vector v."""
    n = operand.shape[1]
    start = np.full(n, 1 / np.sqrt(n), dtype=operand.dtype)
    axpy, dot = scipy.linalg.get_blas_funcs(("axpy", "dotc"), (start,))
    alphas, betas = [], []
    q_prev, q, beta = np.zeros_like(start), start, 0.0
    check = 10
    for j in range(1, crossed._LANCZOS_STEPS + 1):
        w = adjoint @ (operand @ q)
        alpha = dot(q, w).real
        axpy(q, w, a=-alpha)
        axpy(q_prev, w, a=-beta)
        beta = math.sqrt(dot(w, w).real)
        alphas.append(alpha)
        betas.append(beta)
        if j == check or j == crossed._LANCZOS_STEPS or beta == 0.0:
            check = j + max(10, j // 8)
            theta, s = _eigh_top(alphas, betas[:-1])
            if s is not None and (beta == 0.0 or abs(beta * s[-1]) <= crossed._LANCZOS_TOL * theta):
                break
            if beta == 0.0:
                return None, j
        w *= 1 / beta
        q_prev, q = q, w
    else:
        return None, j
    v = s[0] * start
    q_prev, q, beta = np.zeros_like(start), start, 0.0
    for i in range(1, j):
        w = adjoint @ (operand @ q)
        axpy(q, w, a=-alphas[i - 1])
        axpy(q_prev, w, a=-beta)
        beta = betas[i - 1]
        w *= 1 / beta
        q_prev, q = q, w
        axpy(q, v, a=s[i])
    return v, j


def _eigh_top(alphas, betas):
    """The top eigenpair of the tridiagonal from scipy.linalg.eigh_tridiagonal, or (None, None) where it does not converge."""
    try:
        theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(len(alphas) - 1,) * 2)
    except np.linalg.LinAlgError:
        return None, None
    return theta[0], s[:, 0]


def _count_lanczos_steps(monkeypatch):
    """A list to which every scheduled convergence test of Lanczos appends its step count j, once:
    as the screen proves it cannot pass, or as _top_ritz runs it."""
    steps = []
    screen, ritz = crossed._fails_surely, crossed._top_ritz

    def screened(alphas, *args):
        out = screen(alphas, *args)
        if out[0]:
            steps.append(len(alphas))
        return out

    def exact(alphas, betas):
        steps.append(len(alphas))
        return ritz(alphas, betas)

    monkeypatch.setattr(crossed, "_fails_surely", screened)
    monkeypatch.setattr(crossed, "_top_ritz", exact)
    return steps


def test_lanczos_loop_is_the_sparse_product_loop_bit_for_bit(monkeypatch):
    # _lanczos_top calls scipy's private csr_matvec kernel into kept buffers,
    # scales by BLAS scal, tests convergence by LAPACK's stebz and stein, and
    # keeps its first vectors in a block, replaying the steps past it; every
    # Ritz vector must be the one two passes of the public products, numpy
    # scaling and eigh_tridiagonal give, whether the block holds every
    # vector, all but the last, about half of them or two
    real, cplx = _real_and_complex_compressions()
    path = trivial_system(BlockAlgebra([1]), Zd(1))
    unit = path.algebra.unit()
    ring = compression_matrix(CcElement(path, {(1,): unit, (-1,): unit}), 200)
    wide = scipy.sparse.random(40, 90, density=0.2, format="csr", random_state=3)
    matrices = (real.sparse.real, cplx.sparse, ring.sparse.real, ring.sparse, wide, wide.T.tocsr())
    for matrix in matrices:
        adjoint = matrix.conj().T.tocsr()
        want, j = _lanczos_by_products(matrix, adjoint)
        assert want is not None and j // 2 > 2
        for rows in (j, j - 1, j // 2, 2):
            monkeypatch.setattr(crossed, "_LANCZOS_KEPT_BYTES", rows * matrix.dtype.itemsize * matrix.shape[1])
            got = crossed._lanczos_top(matrix, adjoint)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="CSR"):  # the kernel reads CSR arrays and checks no shapes
        crossed._lanczos_top(wide.tocsc(), wide.conj().T.tocsr())
    with pytest.raises(ValueError, match="CSR"):
        crossed._lanczos_top(wide, wide.tocsr())


def test_lanczos_memory_is_its_kept_block_and_a_few_vectors(monkeypatch):
    import tracemalloc

    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    unit = sys_.algebra.unit()
    operand = compression_matrix(CcElement(sys_, {(1,): unit, (-1,): unit}), 1000).sparse.real.copy()
    adjoint = operand.conj().T.tocsr()
    steps = _count_lanczos_steps(monkeypatch)
    crossed._lanczos_top(operand, adjoint)  # scipy's imports and BLAS lookups happen here
    vector = operand.dtype.itemsize * operand.shape[1]  # 2001 dimensions, real
    assert steps[-1] * vector > 1.5 * crossed._LANCZOS_KEPT_BYTES  # the whole basis would pass the block
    tracemalloc.start()
    try:
        v = crossed._lanczos_top(operand, adjoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v is not None
    # past the block: the spare and zero buffers, M q, v and the tridiagonal solver's work
    assert peak <= crossed._LANCZOS_KEPT_BYTES + 16 * vector


def test_the_ritz_screen_leaves_lapack_a_few_tests_on_the_long_path(monkeypatch):
    # the benchmark's Z-path-R1000 compression: every one of its 24 scheduled
    # tests ran LAPACK's bisection before the screen, and the witness is the same
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    unit = sys_.algebra.unit()
    operand = compression_matrix(CcElement(sys_, {(1,): unit, (-1,): unit}), 1000).sparse.real.copy()
    adjoint = operand.conj().T.tocsr()
    want, j = _lanczos_by_products(operand, adjoint)
    steps = _count_lanczos_steps(monkeypatch)
    exact = []
    ritz = crossed._top_ritz

    def counted(alphas, betas):
        exact.append(len(alphas))
        return ritz(alphas, betas)

    monkeypatch.setattr(crossed, "_top_ritz", counted)
    got = crossed._lanczos_top(operand, adjoint)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(steps) == 24 and steps[-1] == j
    assert len(exact) <= 3 and exact[0] == 10 and exact[-1] == j


def _tridiagonals():
    """Random tridiagonals (alphas, betas) of sizes 1, 2, 10, 200 and 600, with Lanczos-like and near-split ones."""
    rng = np.random.default_rng(25)
    for j in (1, 2, 10, 200, 600):
        for tiny in (None, 1e-9, 1e-17, 1e-300):
            alphas = rng.uniform(0.0, 4.0, j)
            betas = rng.uniform(0.0, 2.0, j - 1)
            if tiny is not None and j > 1:  # near splits, one of them just below the top
                betas[rng.choice(j - 1, min(j - 1, 3), replace=False)] = tiny
                betas[-1] = tiny
            yield alphas.tolist(), betas.tolist()
        # a cluster at the top: equal diagonal entries joined by tiny betas
        if j > 1:
            yield [3.0] * j, [1e-12] * (j - 1)


def test_top_ritz_is_eigh_tridiagonal_bit_for_bit():
    for alphas, betas in _tridiagonals():
        theta, s = crossed._top_ritz(alphas, betas)
        want_theta, want_s = _eigh_top(alphas, betas)
        assert (theta is None) == (want_theta is None)
        if theta is not None:
            assert np.float64(theta).tobytes() == np.float64(want_theta).tobytes()
            assert s.dtype == want_s.dtype and s.tobytes() == want_s.tobytes()


@pytest.mark.parametrize("alphas, betas", [([math.nan], []), ([1.0, math.inf], [0.5]), ([1.0, 2.0], [math.nan])])
def test_top_ritz_rejects_a_non_finite_entry_as_eigh_tridiagonal_does(alphas, betas):
    with pytest.raises(ValueError):
        scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(len(alphas) - 1,) * 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        crossed._top_ritz(alphas, betas)


@pytest.mark.parametrize("failing", [0, 1])
def test_top_ritz_gives_none_where_lapack_reports_no_convergence(monkeypatch, failing):
    drivers = list(crossed._ritz_drivers())
    real = drivers[failing]

    def fails(*args):
        *out, info = real(*args)
        return (*out, 1)

    drivers[failing] = fails
    monkeypatch.setattr(crossed, "_ritz_drivers", lambda: drivers)
    assert crossed._top_ritz([1.0, 2.0, 3.0], [0.5, 0.5]) == (None, None)


def test_lanczos_calls_lapack_and_blas_without_the_scipy_wrappers(monkeypatch):
    # the speed of the loop rests on these: no eigh_tridiagonal (validation and
    # dispatch on every convergence test), and the BLAS and LAPACK handles
    # resolved a bounded number of times, not once per step or per test
    operand = _lanczos_compressions()[0].sparse.real.copy()  # the path graph, 603 dimensions
    adjoint = operand.conj().T.tocsr()
    calls = {"eigh_tridiagonal": 0, "get_blas_funcs": 0, "get_lapack_funcs": 0}
    for name in calls:
        original = getattr(scipy.linalg, name)

        def spy(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, spy)
    steps = _count_lanczos_steps(monkeypatch)
    crossed._ritz_drivers.cache_clear()
    assert crossed._lanczos_top(operand, adjoint) is not None
    assert len(steps) >= 8 and steps[-1] >= 100
    assert calls == {"eigh_tridiagonal": 0, "get_blas_funcs": 1, "get_lapack_funcs": 1}
    assert crossed._lanczos_top(operand, adjoint) is not None
    assert calls == {"eigh_tridiagonal": 0, "get_blas_funcs": 2, "get_lapack_funcs": 1}


def test_real_lanczos_agrees_with_complex_lanczos_on_a_real_compression():
    real, _ = _real_and_complex_compressions()
    n = real.sparse.shape[0]
    v0 = np.ones(n) / np.sqrt(n)
    complex_value = scipy.sparse.linalg.svds(real.sparse, k=1, v0=v0, return_singular_vectors=False, maxiter=5000)[0]
    value = crossed.largest_singular_value(real)
    assert value == pytest.approx(complex_value, rel=1e-12)
    assert value == pytest.approx(np.linalg.svd(real.matrix, compute_uv=False)[0], rel=1e-12)


def test_top_singular_vector_stays_complex_on_both_lanczos_paths():
    for comp in _real_and_complex_compressions():
        v = crossed._top_singular(comp, vectors=True)[1]
        assert v.dtype == np.complex128 and v.shape == (comp.sparse.shape[0],)
        ratio = np.linalg.norm(comp.sparse @ v) / np.linalg.norm(v)
        assert ratio == pytest.approx(crossed.largest_singular_value(comp), rel=1e-12)


def _lanczos_compressions():
    """Compressions past the cutoff: the real path graph, complex Z2-theta and the rotation system."""
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    path = compression_matrix(CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()}), 301)  # 603 dimensions
    _, cplx = _real_and_complex_compressions()
    rotation = rotation_system()
    rng = np.random.default_rng(5)
    f = random_cc(rotation, ball(2, default_length(rotation.group)), rng)
    return [path, cplx, compression_matrix(f, 100)]  # 603, 365 and 603 dimensions


def test_lanczos_value_is_its_own_witness_and_pins_the_top_singular_value():
    for comp in _lanczos_compressions():
        assert comp.sparse.shape[0] > crossed._DENSE_SVD_LIMIT
        value = crossed.largest_singular_value(comp)
        v = crossed._top_singular(comp, vectors=True)[1]
        assert value == pytest.approx(np.linalg.norm(comp.sparse @ v) / np.linalg.norm(v), rel=1e-15)
        top = np.linalg.svd(comp.matrix, compute_uv=False)[0]
        assert top * (1 - 1e-12) <= value <= top * (1 + 1e-14)


def _symmetric_start_case():
    """delta_{-1} - delta_1 on Z compressed at R = 100 (201 dimensions: Lanczos) and its norm 2 cos(pi / 202)."""
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    comp = compression_matrix(delta(sys_, (-1,)) - delta(sys_, (1,)), 100)
    assert comp.shape == (201, 201) and comp.shape[0] > crossed._DENSE_SVD_LIMIT
    return comp, 2 * np.cos(np.pi / 202)


def test_lanczos_from_a_symmetric_start_gives_a_witnessed_lower_bound():
    comp, top = _symmetric_start_case()
    assert np.linalg.svd(comp.matrix, compute_uv=False)[0] == pytest.approx(top, abs=1e-12)
    value = crossed.largest_singular_value(comp)
    v = crossed._top_singular(comp, vectors=True)[1]
    assert value <= top + 1e-12
    assert value == pytest.approx(np.linalg.norm(comp.sparse @ v) / np.linalg.norm(v), rel=1e-15)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the fixed start ones / sqrt(n) misses the top singular "
                                       "vector of this odd element, and Lanczos stops at 1.99903")
def test_lanczos_from_a_symmetric_start_reaches_the_top_singular_value():
    comp, top = _symmetric_start_case()
    assert crossed.largest_singular_value(comp) == pytest.approx(top, abs=1e-12)


def _compression_of(rows, cols, values, n):
    """An n x n CompressedRep over Z with the given entries, for tests of the singular-value path alone
    (which reads only the entries, the shape and the group; the radius and index are placeholders)."""
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    return crossed.CompressedRep(sys_, 0.0, default_length(sys_.group), (), (rows, cols, values), (n, n))


def test_lanczos_converges_on_a_cluster_without_the_dense_svd(monkeypatch):
    # a permuted complex diagonal whose top two singular values are 1e-9 apart
    n = 2 * crossed._DENSE_SVD_LIMIT
    rng = np.random.default_rng(3)
    singular = np.concatenate([[1.0, 1.0 - 1e-9], rng.uniform(0.0, 0.99, n - 2)])
    entries = singular * np.exp(2j * np.pi * rng.uniform(size=n))
    comp = _compression_of(rng.permutation(n), np.arange(n), entries, n)
    calls = []
    original = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    value = crossed.largest_singular_value(comp)
    assert calls == []
    assert 1.0 - 2e-9 <= value <= 1.0 + 1e-14


def test_lanczos_non_convergence_falls_back_to_the_dense_svd(monkeypatch):
    monkeypatch.setattr(crossed, "_LANCZOS_STEPS", 1)
    calls = []
    original = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    comp = compression_matrix(CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()}), 301)  # 603 > 300
    want = 2 * np.cos(np.pi / (2 * 301 + 2))
    assert crossed.largest_singular_value(comp) == pytest.approx(want, abs=1e-12)
    assert calls == [(603, 603)]
    v = crossed._top_singular(comp, vectors=True)[1]
    assert np.linalg.norm(comp.matrix @ v) / np.linalg.norm(v) == pytest.approx(want, abs=1e-12)


def test_a_ritz_vector_failing_the_explicit_residual_check_is_not_returned(monkeypatch):
    # Lanczos hands back the start vector, far from the top singular vector
    monkeypatch.setattr(crossed, "_lanczos_top", lambda operand, adjoint: np.ones(operand.shape[0]))
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    comp = compression_matrix(CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()}), 301)  # 603 > 300
    want = 2 * np.cos(np.pi / (2 * 301 + 2))
    assert crossed.largest_singular_value(comp) == pytest.approx(want, abs=1e-12)
    v = crossed._top_singular(comp, vectors=True)[1]
    assert np.linalg.norm(comp.matrix @ v) / np.linalg.norm(v) == pytest.approx(want, abs=1e-12)


def test_lanczos_non_convergence_past_the_dense_budget_names_the_shape(monkeypatch):
    monkeypatch.setattr(crossed, "_LANCZOS_STEPS", 1)
    n = math.isqrt(crossed._BUDGET_BYTES // 16) + 1  # the first dimension past the budget
    # distinct diagonal entries, so that one step does not span an invariant subspace
    comp = _compression_of(np.arange(n), np.arange(n), np.arange(1.0, n + 1) + 0j, n)
    with pytest.raises(ValueError, match=f"{n} x {n}"):
        crossed.largest_singular_value(comp)


def test_singular_values_go_through_the_module_level_function(monkeypatch):
    # every consumer reaches a singular value through largest_singular_value (perfbench/tracer.py patches it)
    from crossfourier.decay import content_probe
    from crossfourier.summation import fejer_net, run_convergence

    calls = []
    original = crossed.largest_singular_value

    def spy(rep):
        calls.append(rep.shape)
        return original(rep)

    monkeypatch.setattr(crossed, "largest_singular_value", spy)
    sys_ = theta_system(Zd(2), "1/5")
    f = delta(sys_, (1, 0))
    opnorm_bounds(f, [1, 2])
    assert calls == [(5, 5), (13, 13)]
    calls.clear()
    run_convergence(fejer_net(sys_, [2, 4]), f, R_schedule=[1, 2])
    assert calls == [(5, 5), (13, 13)] * 2
    calls.clear()
    content_probe(sys_, [(0, 0), (1, 0)], sample_budget=4)  # 2 point masses, 2 random starts, 2 ascent steps
    assert calls == [(41, 41)] * 6  # ball(4) of Z^2
    calls.clear()
    finite = theta_system(Cyclic(12), "1/12")
    assert exact_norm_finite(delta(finite, 1)) == pytest.approx(1.0)
    assert calls == [(12, 12)]
    calls.clear()
    report = run_convergence(fejer_net(finite, [1]), delta(finite, 4), R_schedule=[6])
    assert report.rows[0]["opnorm_error_R6"] == 0.0 and calls == []  # the kernel is 1: no error, no SVD



def test_default_schedule_on_f2_stops_below_the_dense_cap():
    from crossfourier.groups import FreeF2

    # ball(8) of F2 has 13121 points, past the 8192-dimension cap; ball(16)
    # would have 86 million and must never be enumerated
    sys_ = trivial_system(BlockAlgebra([1]), FreeF2())
    a, b = FreeF2().generators()
    f = CcElement(sys_, {a: sys_.algebra.unit(), b: sys_.algebra.unit()})
    assert [R for R, _ in opnorm_bounds(f).trace] == [4.0]


def test_default_schedule_counts_balls_instead_of_enumerating(monkeypatch):
    import crossfourier.groups as groups

    # ball(32) of Z2 * Z3 has 458 746 points; the schedule check must not build it
    seen = []
    original = groups.ball

    def recording(R, length):
        seen.append(R)
        return original(R, length)

    monkeypatch.setattr(crossed, "ball", recording)
    monkeypatch.setattr(groups, "ball", recording)
    assert crossed.default_radii(sl2z_system(), [4, 8, 16, 32]) == [4, 8, 16]
    assert seen == []


def test_default_schedule_on_z2_keeps_every_radius():
    sys_ = theta_system(Zd(2), "1/5")
    f = delta(sys_, (1, 0))
    b = opnorm_bounds(f)
    assert [R for R, _ in b.trace] == [4.0, 8.0, 16.0, 32.0]
    assert b.lower == pytest.approx(1.0, abs=1e-10)


def test_opnorm_bounds_unitary_point_mass():
    sys_ = theta_system(Zd(2), "1/5")
    f = delta(sys_, (2, 1))
    b = opnorm_bounds(f, [4])
    assert b.lower == pytest.approx(1.0, abs=1e-10)
    assert b.upper == pytest.approx(1.0)


def test_opnorm_bounds_monotone_trace_and_sandwich():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    f = CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()})
    b = opnorm_bounds(f, [1, 4, 16, 64])
    values = [s for _, s in b.trace]
    assert values == sorted(values)
    for R, s in b.trace:
        assert s == pytest.approx(2 * np.cos(np.pi / (2 * R + 2)), abs=1e-8)
    assert b.lower <= b.upper + 1e-9
    assert b.upper == pytest.approx(2.0)


def test_opnorm_exact_on_finite_group():
    sys_ = theta_system(Cyclic(12), "1/12")
    rng = np.random.default_rng(14)
    f = random_cc(sys_, [0, 1, 5], rng)
    assert opnorm_bounds(f).lower == pytest.approx(exact_norm_finite(f), rel=1e-12)
    assert exact_norm_finite(f) <= f.norm_l1() + 1e-9


def test_opnorm_finite_group_independent_matrix_oracle():
    # rebuild the 12 x 12 regular representation from scratch: for scalar
    # coefficients with trivial action, entry (h', h) = f(h'-h) sigma(h'-h, h)
    sys_ = theta_system(Cyclic(12), "1/12")
    rng = np.random.default_rng(15)
    f = random_cc(sys_, [0, 2, 7], rng)
    M = np.zeros((12, 12), dtype=complex)
    for hp in range(12):
        for h in range(12):
            g = (hp - h) % 12
            M[hp, h] = f.coeff(g).blocks[0][0, 0] * np.exp(2j * np.pi * g * h / 12)
    oracle = np.linalg.svd(M, compute_uv=False)[0]
    assert opnorm_bounds(f).lower == pytest.approx(oracle, rel=1e-10)

import cmath

import numpy as np
import pytest
import scipy.sparse

from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.crossed import (
    CcElement,
    cc_unit,
    compression_matrix,
    delta,
    exact_norm_finite,
    opnorm_bounds,
    random_cc,
)
from crossfourier.groups import Cyclic, Dihedral, DirectProduct, FreeF2, Zd, ball, default_length
from crossfourier.system import TwistedSystem, generator_action, theta_system, trivial_system, sl2z_system


def rotation_system():
    """Z acting on M2 + C by powers of a rotation conjugation, untwisted."""
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    return TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")


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


def test_fourier_uniqueness_at_cc_level():
    sys_ = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(9)
    f1 = random_cc(sys_, [(0, 0), (1, 2)], rng)
    f2 = CcElement(sys_, {g: f1.coeff(g) for g in f1.support()})
    diff = f1 - f2
    assert all(diff.coeff(g).norm() < 1e-14 for g in f1.support())
    assert len(diff) == 0


# -- compressions ------------------------------------------------------------------


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
    assert comp.largest_singular_value() == pytest.approx(2 * np.cos(np.pi / (2 * R + 2)), abs=1e-10)


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
    # imaginary coefficients make signed zeros under conjugation; the dense
    # fill turned them into +0.0, and so must the sparse assembly
    i_unit = 1j * sys_.algebra.unit()
    elements = [CcElement(sys_, {g: i_unit for g in sample_support(sys_, rng, 4)})]
    elements += [random_cc(sys_, sample_support(sys_, rng, 4), rng) for _ in range(3)]
    for f in elements:
        rep = compression_matrix(f, R)
        assert np.array_equal(rep.matrix, entrywise_compression(f, R))
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
    assert rep.largest_singular_value() == 0.0


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
    # dense/Lanczos cutoff (600)
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    A = sys_.algebra
    f = CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()})
    for R in (299, 301):  # 599 and 603 dimensions
        comp = compression_matrix(f, R)
        want = 2 * np.cos(np.pi / (2 * R + 2))
        assert comp.largest_singular_value() == pytest.approx(want, abs=1e-8)
        v = comp.top_singular_vector()
        assert np.linalg.norm(comp.matrix @ v) / np.linalg.norm(v) == pytest.approx(want, abs=1e-8)


def test_singular_values_go_through_the_module_level_function(monkeypatch):
    import crossfourier.crossed as crossed

    calls = []
    original = crossed.largest_singular_value

    def spy(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(crossed, "largest_singular_value", spy)
    sys_ = theta_system(Zd(2), "1/5")
    f = delta(sys_, (1, 0))
    compression_matrix(f, 2).largest_singular_value()
    assert calls == [(13, 13)]
    opnorm_bounds(f, [1, 2])
    assert calls == [(13, 13), (5, 5), (13, 13)]


def test_default_schedule_on_f2_stops_below_the_dense_cap():
    from crossfourier.groups import FreeF2

    # ball(8) of F2 has 13121 points, past the 8192-dimension cap; ball(16)
    # would have 86 million and must never be enumerated
    sys_ = trivial_system(BlockAlgebra([1]), FreeF2())
    a, b = FreeF2().generators()
    f = CcElement(sys_, {a: sys_.algebra.unit(), b: sys_.algebra.unit()})
    assert [R for R, _ in opnorm_bounds(f).trace] == [4.0]


def test_default_schedule_counts_balls_instead_of_enumerating(monkeypatch):
    import crossfourier.crossed as crossed
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

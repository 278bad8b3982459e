import cmath

import numpy as np
import pytest

from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.groups import Cyclic, DirectProduct, Zd, ball, block_length
from crossfourier.system import (
    CentralExtension,
    TwistedSystem,
    generator_action,
    section_cocycle_system,
    sl2z_extension,
    sl2z_system,
    theta_cocycle,
    theta_system,
    trivial_system,
    validate_system,
)


def test_trivial_system_validates():
    sys_ = trivial_system(BlockAlgebra([2, 1]), Cyclic(5))
    assert validate_system(sys_).passed


def test_theta_bicharacter_on_z2_validates():
    sys_ = theta_system(Zd(2), "1/5")
    report = validate_system(sys_)
    assert report.passed
    # the defining convention: cocycle(m, n) = exp(2 pi i theta m_2 n_1)
    val = sys_.cocycle((0, 1), (1, 0)).blocks[0][0, 0]
    assert val == pytest.approx(cmath.exp(2j * cmath.pi / 5))
    assert sys_.cocycle((1, 0), (0, 1)).blocks[0][0, 0] == pytest.approx(1.0)


def test_theta_on_finite_cyclic():
    sys_ = theta_system(Cyclic(12), "1/12")
    assert validate_system(sys_).passed  # exhaustive: 12^3 triples
    with pytest.raises(ValueError, match="well-defined"):
        theta_system(Cyclic(12), "1/5")


def test_action_system_with_nontrivial_action():
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    sys_ = TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")
    assert validate_system(sys_, n_samples=100).passed
    rng = np.random.default_rng(0)
    a = A.random_element(rng)
    assert (sys_.act((3,), a) - theta.power(3)(a)).norm() < 1e-12
    # generator powers are memoized; filling the tables from +-5 first and
    # reading them back must give AlgAutomorphism.power's matrices exactly
    for k in (5, -5, *range(-5, 6)):
        got, want = sys_.action((k,)), theta.power(k)
        assert got.perm == want.perm
        assert all(np.array_equal(x, y) for x, y in zip(got.unitaries, want.unitaries))


def test_block_swap_action():
    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(2)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    assert validate_system(sys_).passed
    assert (sys_.act(1, A.scalar([1, 2])) - A.scalar([2, 1])).norm() == 0


def test_perturbed_cocycle_fails_with_expected_violation():
    base = theta_system(Zd(2), 0.3)
    witness_pair = ((1, 0), (0, 1))

    def bad_cocycle(g, h):
        val = base.cocycle(g, h)
        if (g, h) == witness_pair:
            return cmath.exp(0.1j) * val
        return val

    bad = TwistedSystem(base.algebra, base.group, base._action_rule, bad_cocycle, tag="perturbed")
    # evaluate the cocycle identity at triples containing the perturbed pair
    triples = [((1, 0), (0, 1), k) for k in [(1, 0), (0, 1), (1, 1), (2, 0)]]
    report = validate_system(bad, triples=triples)
    assert not report.passed
    expected = abs(cmath.exp(0.1j) - 1)
    assert report.cocycle_violation == pytest.approx(expected, rel=1e-9)


def test_section_cocycle_homomorphic_section_is_trivial():
    # K = Z2 x Z2, Z = first factor, G = Z2, split section s(j) = (0, j)
    K = DirectProduct([Cyclic(2), Cyclic(2)])
    G = Cyclic(2)
    ext = CentralExtension(
        group=G,
        lift=lambda g: (0, g),
        kmul=K.mul,
        kinv=K.inv,
        center=((0, 0), (1, 0)),
    )
    sys_ = section_cocycle_system(ext)
    assert validate_system(sys_).passed
    for g in (0, 1):
        for h in (0, 1):
            assert (sys_.cocycle(g, h) - sys_.algebra.unit()).norm() == 0


def test_section_must_fix_identity():
    K = DirectProduct([Cyclic(2), Cyclic(2)])
    ext = CentralExtension(
        group=Cyclic(2),
        lift=lambda g: (1, g),
        kmul=K.mul,
        kinv=K.inv,
        center=((0, 0), (1, 0)),
    )
    with pytest.raises(ValueError, match="identity"):
        section_cocycle_system(ext)


def test_sl2z_section_signs():
    # oracle: multiply the section matrices by hand (2x2 integer arithmetic)
    def mat(rows):
        return tuple(tuple(r) for r in rows)

    def mm(x, y):
        return mat(
            [
                [sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
        )

    S = mat([[0, -1], [1, 0]])
    U = mat([[0, -1], [1, -1]])
    I = mat([[1, 0], [0, 1]])
    negI = mat([[-1, 0], [0, -1]])
    assert mm(S, S) == negI
    assert mm(U, mm(U, U)) == I

    sys_ = sl2z_system()
    G = sys_.group
    s, t = G.normal_form("s"), G.normal_form("t")
    # cocycle(s, s): defect of S^2 = -I against the lift of e
    val = sys_.cocycle(s, s)
    assert (val - sys_.algebra.scalar([1, -1])).norm() < 1e-12
    # cocycle(t, t): U^2 is the lift of t^2, no defect
    assert (sys_.cocycle(t, t) - sys_.algebra.unit()).norm() < 1e-12
    # all values are +-1 vectors
    ext = sl2z_extension()
    for g in ball(2, block_length(G)):
        for h in ball(2, block_length(G)):
            v = sys_.cocycle(g, h)
            assert (v - sys_.algebra.scalar([1, 1])).norm() < 1e-12 or (
                v - sys_.algebra.scalar([1, -1])
            ).norm() < 1e-12


def test_sl2z_system_validates_exhaustively_on_ball3():
    sys_ = sl2z_system()
    pool = ball(3, block_length(sys_.group))
    triples = [(g, h, k) for g in pool for h in pool for k in pool]
    assert validate_system(sys_, triples=triples).passed


@pytest.mark.parametrize(
    "make",
    [
        lambda: trivial_system(BlockAlgebra([2, 1]), Cyclic(5)),
        lambda: theta_system(Zd(2), "1/5"),
        lambda: theta_system(Cyclic(12), "1/12"),
        lambda: sl2z_system(),
    ],
)
def test_cocycle_inverse_identity(make):
    # cocycle(g, g^-1) = action(g)(cocycle(g^-1, g)), specialization at (g, g^-1, g)
    sys_ = make()
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = sys_.group.random_element(rng)
        ginv = sys_.group.inv(g)
        lhs = sys_.cocycle(g, ginv)
        rhs = sys_.act(g, sys_.cocycle(ginv, g))
        assert (lhs - rhs).norm() < 1e-10

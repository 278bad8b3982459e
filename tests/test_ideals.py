import numpy as np
import pytest

from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.crossed import CcElement, cc_unit, delta, random_cc
from crossfourier.groups import Cyclic, Zd
from crossfourier.ideals import (
    InvariantIdeal,
    central_projection_split,
    e_invariance_probe,
    enumerate_invariant_ideals,
    ideal_membership,
    orbit_closure,
    quotient_system,
)
from crossfourier.multipliers import apply_multiplier
from crossfourier.summation import abel_poisson_net, fejer_net
from crossfourier.system import (
    TwistedSystem,
    generator_action,
    sl2z_system,
    theta_system,
    trivial_system,
    validate_system,
)
from crossfourier.groups import one_norm


def test_enumerate_trivial_action_c2():
    sys_ = trivial_system(BlockAlgebra([1, 1]), Cyclic(3))
    ideals = enumerate_invariant_ideals(sys_)
    assert len(ideals) == 4
    assert ideals[0].is_zero and ideals[-1].is_everything


def test_enumerate_swap_action_c2():
    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(2)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    ideals = enumerate_invariant_ideals(sys_)
    assert len(ideals) == 2  # single orbit: only 0 and A


def test_enumerate_m2_plus_m3():
    sys_ = trivial_system(BlockAlgebra([2, 3]), Cyclic(2))
    assert len(enumerate_invariant_ideals(sys_)) == 4


def test_membership_blockwise():
    sys_ = trivial_system(BlockAlgebra([1, 1]), Cyclic(3))
    J = InvariantIdeal(sys_.algebra, frozenset([0]))
    rng = np.random.default_rng(0)
    f = CcElement(sys_, {0: sys_.algebra.scalar([1.5, 0]), 2: sys_.algebra.scalar([2j, 0])})
    assert ideal_membership(f, J)
    assert not ideal_membership(cc_unit(sys_), J)  # the unit is in no proper ideal


def test_membership_closed_under_products():
    # J-valued coefficients absorb arbitrary elements under the twisted product
    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(4)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap4")
    assert validate_system(sys_).passed
    J = orbit_closure(sys_, [0])
    assert J.is_everything  # swap joins the two blocks
    sys2 = trivial_system(A, Cyclic(4))
    J = InvariantIdeal(A, frozenset([1]))
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = CcElement(
            sys2, {int(g): A.scalar([0, complex(rng.normal(), rng.normal())]) for g in rng.choice(4, 2, replace=False)}
        )
        h = random_cc(sys2, [0, 3], rng)
        assert ideal_membership(f * h, J)
        assert ideal_membership(h * f, J)


def test_quotient_trivial_ideal_is_same_system():
    sys_ = theta_system(Cyclic(12), "1/12")
    q = quotient_system(sys_, InvariantIdeal(sys_.algebra, frozenset()))
    assert q.system.algebra.dims == sys_.algebra.dims
    assert validate_system(q.system).passed


def test_quotient_scalar_system():
    A = BlockAlgebra([1, 1])
    sys_ = trivial_system(A, Cyclic(3))
    q = quotient_system(sys_, InvariantIdeal(A, frozenset([0])))
    assert q.system.algebra.dims == (1,)
    x = A.scalar([5, 7])
    assert q.q(x).blocks[0][0, 0] == pytest.approx(7)


def test_quotient_by_everything_rejected():
    sys_ = trivial_system(BlockAlgebra([1, 1]), Cyclic(3))
    with pytest.raises(ValueError, match="whole algebra"):
        quotient_system(sys_, InvariantIdeal(sys_.algebra, frozenset([0, 1])))


def test_quotient_is_multiplicative():
    A = BlockAlgebra([1, 1, 1])
    sys_ = theta_system(Zd(1), 0.3, algebra=A)
    q = quotient_system(sys_, InvariantIdeal(A, frozenset([1])))
    assert validate_system(q.system, n_samples=50).passed
    rng = np.random.default_rng(2)
    for _ in range(15):
        f1 = random_cc(sys_, [(0,), (1,)], rng)
        f2 = random_cc(sys_, [(-1,), (2,)], rng)
        lhs = q.q_cc(f1 * f2)
        rhs = q.q_cc(f1) * q.q_cc(f2)
        assert (lhs - rhs).norm_l1() < 1e-10


def test_quotient_commutes_with_fourier_coefficients():
    A = BlockAlgebra([1, 1])
    sys_ = theta_system(Zd(1), 0.3, algebra=A)
    q = quotient_system(sys_, InvariantIdeal(A, frozenset([0])))
    rng = np.random.default_rng(3)
    f = random_cc(sys_, [(0,), (2,)], rng)
    for g in f.support():
        assert (q.q(f.coeff(g)) - q.q_cc(f).coeff(g)).norm() < 1e-14


def test_quotient_compatible_with_scalar_multipliers():
    A = BlockAlgebra([1, 1])
    sys_ = theta_system(Zd(1), 0.3, algebra=A)
    q = quotient_system(sys_, InvariantIdeal(A, frozenset([0])))
    net = fejer_net(sys_, [4])
    net_q = fejer_net(q.system, [4])
    rng = np.random.default_rng(4)
    f = random_cc(sys_, [(0,), (1,), (-2,)], rng)
    lhs = q.q_cc(apply_multiplier(net.multipliers[0], f))
    rhs = apply_multiplier(net_q.multipliers[0], q.q_cc(f))
    assert (lhs - rhs).norm_l1() < 1e-12


def test_e_invariance_of_induced_ideal():
    A = BlockAlgebra([1, 1])
    sys_ = trivial_system(A, Cyclic(6))
    gens = [delta(sys_, 0, A.scalar([1, 0]))]
    report = e_invariance_probe(sys_, gens, sample_budget=30)
    assert report.passed
    assert set(report.candidate_blocks) == {0}


def test_e_invariance_violated_by_point_mass_generator():
    sys_ = trivial_system(BlockAlgebra([1]), Cyclic(6))
    gens = [delta(sys_, 2)]  # supported off the identity: empty candidate ideal
    report = e_invariance_probe(sys_, gens, sample_budget=30)
    assert not report.passed
    assert report.candidate_blocks == ()


def test_e_invariance_zero_ideal_passes():
    sys_ = trivial_system(BlockAlgebra([1, 1]), Cyclic(4))
    gens = [CcElement(sys_, {})]
    report = e_invariance_probe(sys_, gens, sample_budget=10)
    assert report.passed


def test_central_projection_split_trivial():
    sys_ = theta_system(Cyclic(12), "1/12")
    p, q, report = central_projection_split(cc_unit(sys_))
    assert report.passed
    assert (p - cc_unit(sys_)).norm_l1() == 0
    assert len(q) == 0


def test_central_projection_split_psl_model():
    sys_ = sl2z_system()
    A = sys_.algebra
    s = delta(sys_, None, A.scalar([1, -1]))  # the lift of the central symmetry
    gens = [delta(sys_, sys_.group.normal_form("s")), delta(sys_, sys_.group.normal_form("t")),
            delta(sys_, None, A.scalar([2, 3]))]
    p, q, report = central_projection_split(s, gens)
    assert report.passed
    assert (p - delta(sys_, None, A.scalar([1, 0]))).norm_l1() < 1e-12
    assert (q - delta(sys_, None, A.scalar([0, 1]))).norm_l1() < 1e-12
    # the two induced ideals have blockwise trivial intersection
    Jp = orbit_closure(sys_, [0])
    Jq = orbit_closure(sys_, [1])
    assert Jp.blocks & Jq.blocks == frozenset()


def test_central_projection_split_rejects_non_unitary():
    sys_ = sl2z_system()
    s = delta(sys_, None, sys_.algebra.scalar([1, -0.5]))
    with pytest.raises(ValueError, match="self-adjoint unitary"):
        central_projection_split(s)


def test_central_projection_split_rejects_non_commuting():
    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(2)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    s = delta(sys_, None, A.scalar([1, -1]))
    witness = delta(sys_, 1)  # u_1 conjugates s to -s
    with pytest.raises(ValueError, match="commute"):
        central_projection_split(s, [witness])


def test_shipped_nets_preserve_invariant_ideals():
    A = BlockAlgebra([1, 1])
    sys_ = theta_system(Zd(1), 0.3, algebra=A)
    J = InvariantIdeal(A, frozenset([1]))
    rng = np.random.default_rng(5)
    nets = [
        fejer_net(sys_, [2, 4]),
        abel_poisson_net(sys_, one_norm(Zd(1)), [0.5, 0.9]),
    ]
    for net in nets:
        for T in net.multipliers:
            assert T.preserves_ideals
            for _ in range(10):
                f = CcElement(
                    sys_,
                    {(int(g),): A.scalar([0, complex(rng.normal(), rng.normal())])
                     for g in rng.integers(-2, 3, size=2)},
                )
                assert ideal_membership(apply_multiplier(T, f), J)

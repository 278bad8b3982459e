import tracemalloc

import numpy as np
import pytest

from crossfourier.algebra import BlockAlgebra, PointMap
from crossfourier.crossed import CcElement, delta, exact_norm_finite, random_cc
from crossfourier.groups import Cyclic, FreeF2, Zd, ball, folner_sequence, one_norm, word_length
from crossfourier.modules import (
    ModuleOperator,
    ModuleVector,
    basis_vector,
    random_vector,
    trivial_rep,
    unitary_tensor_rep,
    validate_equivariant,
)
from crossfourier.multipliers import (
    apply_multiplier,
    expectation_multiplier,
    identity_multiplier,
    left_multiplier,
    make_endo_multiplier,
    make_gilbert_multiplier,
    make_matrix_coeff_multiplier,
    gram_matrix,
    multiplier_norm_probe,
    pd_check,
    scalar_multiplier,
)
from crossfourier.system import theta_system, trivial_system


Z12_SYS = theta_system(Cyclic(12), "1/12")


def test_identity_multiplier():
    rng = np.random.default_rng(0)
    f = random_cc(Z12_SYS, [0, 3, 7], rng)
    assert (apply_multiplier(identity_multiplier(Z12_SYS), f) - f).norm_l1() == 0


def test_expectation_kernel():
    rng = np.random.default_rng(1)
    f = random_cc(Z12_SYS, [0, 3, 7], rng)
    g = apply_multiplier(expectation_multiplier(Z12_SYS), f)
    assert g.support() == [0]
    assert (g.coeff(0) - f.coeff(0)).norm() == 0


def test_scalar_multiplier_is_coefficientwise():
    rng = np.random.default_rng(2)
    phi = lambda g: 1.0 / (1 + g)
    T = scalar_multiplier(Z12_SYS, phi)
    f = random_cc(Z12_SYS, [0, 3, 7], rng)
    Tf = apply_multiplier(T, f)
    for g in f.support():
        assert (Tf.coeff(g) - phi(g) * f.coeff(g)).norm() < 1e-14
    assert set(Tf.support()) <= set(f.support())


def test_multiplier_linearity_on_samples():
    rng = np.random.default_rng(3)
    x = basis_vector(Z12_SYS.algebra, 1, 0)
    T = make_matrix_coeff_multiplier(trivial_rep(Z12_SYS), x, x)
    for _ in range(20):
        a, b = Z12_SYS.algebra.random_element(rng), Z12_SYS.algebra.random_element(rng)
        lam = complex(rng.normal(), rng.normal())
        lhs = T.apply_at(5, a + lam * b)
        rhs = T.apply_at(5, a) + lam * T.apply_at(5, b)
        assert (lhs - rhs).norm() < 1e-12


def test_pd_check_delta_kernel():
    Z = Zd(1)
    is_pd, mineig = pd_check(lambda g: 1.0 if g == (0,) else 0.0, ball(4, one_norm(Z)), Z)
    assert is_pd and mineig == pytest.approx(1.0)


def test_pd_check_geometric_kernel_on_z():
    Z = Zd(1)
    S = [(k,) for k in range(-4, 5)]
    is_pd, mineig = pd_check(lambda g: 0.5 ** abs(g[0]), S, Z)
    assert is_pd
    assert mineig >= -1e-10


def test_pd_check_fejer_kernel_on_z():
    Z = Zd(1)
    for N in (2, 5, 9):
        S = [(k,) for k in range(-N, N + 1)]
        is_pd, _ = pd_check(lambda g: max(0.0, 1 - abs(g[0]) / N), S, Z)
        assert is_pd


def test_pd_check_rejects_non_hermitian():
    Z = Zd(1)
    with pytest.raises(ValueError, match="Hermitian"):
        pd_check(lambda g: 1.0 if g[0] >= 0 else 0.5, [(k,) for k in range(-2, 3)], Z)


def _loop_gram(phi, S, group):
    """The per-entry fill: one phi call per Gram entry."""
    gram = np.empty((len(S), len(S)), dtype=complex)
    for i, gi in enumerate(S):
        for j, gj in enumerate(S):
            gram[i, j] = complex(phi(group.mul(group.inv(gi), gj)))
    return gram


@pytest.mark.parametrize("group, S, phi", [
    (Zd(2), list(ball(3, one_norm(Zd(2)))), lambda g: max(0.0, 1 - (abs(g[0]) + abs(g[1])) / 4)),
    (FreeF2(), list(ball(2, word_length(FreeF2()))), lambda g: 0.5 ** len(g) * (1j if len(g) == 1 else 1)),
    (Cyclic(12), list(range(12)), lambda g: complex(np.exp(2j * np.pi * g / 12)) if g % 5 else float("nan")),
], ids=["Z2-fejer", "F2-word", "Z12-nan"])
def test_gram_matrix_is_the_per_entry_fill_with_one_phi_call_per_distinct_point(group, S, phi):
    calls = []

    def counted(g):
        calls.append(g)
        return phi(g)

    gram = gram_matrix(counted, S, group)
    want = _loop_gram(phi, S, group)
    assert gram.dtype == want.dtype and gram.shape == want.shape
    assert gram.tobytes() == want.tobytes()
    # once per distinct g_i^-1 g_j, in first-seen row-major order
    assert calls == list(dict.fromkeys(group.mul(group.inv(gi), gj) for gi in S for gj in S))


def test_pd_check_of_a_multi_chunk_gram_is_the_full_matrix_check_in_a_fraction_of_the_memory():
    # the Z^2 Fejer kernel (N = 30) over ball(16): 545 points, ten row chunks
    group = Zd(2)
    S, folner = list(ball(16, one_norm(group))), folner_sequence(group)
    phi = lambda g: folner.ratio(g, 30)
    gram = gram_matrix(phi, S, group)
    assert gram.tobytes() == _loop_gram(phi, S, group).tobytes()
    want = float(np.min(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))))
    tracemalloc.start()
    try:
        is_pd, mineig = pd_check(phi, S, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_pd and mineig.hex() == want.hex()
    assert peak <= 2.5 * gram.nbytes


def test_pd_check_finds_an_asymmetry_in_the_last_row_chunk():
    S = [(k,) for k in range(600)]
    with pytest.raises(ValueError, match="Hermitian"):
        pd_check(lambda g: 0.5 if g == (599,) else 1.0, S, Zd(1))


def test_pd_check_detects_non_pd():
    Z = Zd(1)
    # phi = indicator of {-1, 1}: Gram has negative eigenvalues
    is_pd, mineig = pd_check(lambda g: 1.0 if abs(g[0]) == 1 else 0.0, [(k,) for k in range(-2, 3)], Z)
    assert not is_pd and mineig < -0.5


# -- matrix coefficients -----------------------------------------------------------


def test_matrix_coeff_trivial_pair_gives_identity():
    rep = trivial_rep(Z12_SYS)
    one = basis_vector(Z12_SYS.algebra, 1, 0)
    T = make_matrix_coeff_multiplier(rep, one, one)
    rng = np.random.default_rng(4)
    f = random_cc(Z12_SYS, [0, 2, 5], rng)
    assert (apply_multiplier(T, f) - f).norm_l1() < 1e-12
    assert T.bound == pytest.approx(1.0)


def test_matrix_coeff_central_y_gives_scalar_kernel():
    A = BlockAlgebra([1, 1])
    sys_ = trivial_system(A, Cyclic(5))
    rep = trivial_rep(sys_)
    rng = np.random.default_rng(5)
    x = random_vector(A, 1, rng)
    y = random_vector(A, 1, rng)  # everything is central over a commutative algebra
    T = make_matrix_coeff_multiplier(rep, x, y)
    assert T.preserves_ideals
    for g in range(5):
        a = A.random_element(rng)
        phi_g = x.inner(rep.v_apply(g, y))
        assert (T.apply_at(g, a) - phi_g * a).norm() < 1e-12


def test_matrix_coeff_t_e_of_unit_is_inner_product():
    sys_ = Z12_SYS

    def urep(j):
        w = np.exp(2j * np.pi * j / 12)
        return np.diag([w, w.conjugate()])

    rep = unitary_tensor_rep(sys_, urep, 2)
    assert validate_equivariant(rep).passed
    rng = np.random.default_rng(6)
    x, y = random_vector(sys_.algebra, 2, rng), random_vector(sys_.algebra, 2, rng)
    T = make_matrix_coeff_multiplier(rep, x, y)
    assert (T.apply_at(0, sys_.algebra.unit()) - x.inner(y)).norm() < 1e-14
    Txx = make_matrix_coeff_multiplier(rep, x, x)
    assert Txx.apply_at(0, sys_.algebra.unit()).norm() == pytest.approx(x.norm() ** 2, rel=1e-12)


def test_matrix_coeff_norm_bound_on_finite_group():
    sys_ = Z12_SYS

    def urep(j):
        w = np.exp(2j * np.pi * j / 12)
        return np.array([[w, 0], [0, w ** 2]])

    rep = unitary_tensor_rep(sys_, urep, 2)
    rng = np.random.default_rng(7)
    x, y = random_vector(sys_.algebra, 2, rng), random_vector(sys_.algebra, 2, rng)
    T = make_matrix_coeff_multiplier(rep, x, y)
    for _ in range(25):
        f = random_cc(sys_, [int(k) for k in rng.choice(12, size=3, replace=False)], rng)
        assert exact_norm_finite(apply_multiplier(T, f)) <= T.bound * exact_norm_finite(f) + 1e-9


def test_pd_scalar_contraction_on_finite_group():
    sys_ = Z12_SYS
    # normalized pd kernel: wrapped triangle (autocorrelation of a length-4 box)
    phi = lambda g: max(0.0, 1 - min(g, 12 - g) / 4)
    is_pd, _ = pd_check(phi, sys_.group.elements(), sys_.group)
    assert is_pd
    T = scalar_multiplier(sys_, phi, bound=1.0)
    rng = np.random.default_rng(8)
    for _ in range(25):
        f = random_cc(sys_, [int(k) for k in rng.choice(12, size=3, replace=False)], rng)
        assert exact_norm_finite(apply_multiplier(T, f)) <= exact_norm_finite(f) + 1e-9


# -- gilbert pairs ------------------------------------------------------------------


def _diag_rep(algebra, rank):
    def pi(a):
        return ModuleOperator.diagonal(algebra, rank, a)

    return pi


def test_gilbert_constant_unit_is_identity():
    sys_ = Z12_SYS
    A = sys_.algebra
    one = basis_vector(A, 1, 0)
    eta = (lambda g: one, 1.0)
    T = make_gilbert_multiplier(_diag_rep(A, 1), sys_, 1, eta, eta, side="left")
    rng = np.random.default_rng(9)
    f = random_cc(sys_, [0, 4, 9], rng)
    assert (apply_multiplier(T, f) - f).norm_l1() < 1e-12
    assert T.bound == pytest.approx(1.0)


def test_gilbert_scalar_kernel_through_unit_tensor_vectors():
    # the cosine kernel phi(g) = cos(2 pi g / 12) factors through C^2-valued
    # unit vectors xi(s) = (e^{2 pi i s/12}, e^{-2 pi i s/12}) / sqrt(2)
    sys_ = Z12_SYS
    A = sys_.algebra
    phi = lambda g: np.cos(2 * np.pi * g / 12)

    def eta(s):
        w = np.exp(2j * np.pi * s / 12)
        return ModuleVector(A, (A.scalar(w / np.sqrt(2)), A.scalar(w.conjugate() / np.sqrt(2))))

    T = make_gilbert_multiplier(
        _diag_rep(A, 2), sys_, 2, (eta, 1.0), (eta, 1.0), side="left"
    )
    assert T.bound == pytest.approx(1.0)
    is_pd, _ = pd_check(phi, sys_.group.elements(), sys_.group)
    assert is_pd
    # the constructed multiplier acts as the scalar kernel phi
    rng = np.random.default_rng(10)
    f = random_cc(sys_, [0, 1, 6], rng)
    Tf = apply_multiplier(T, f)
    for g in f.support():
        assert (Tf.coeff(g) - phi(g) * f.coeff(g)).norm() < 1e-10
    # contraction on the full regular representation, bound phi(e) = 1
    for _ in range(10):
        f = random_cc(sys_, [int(k) for k in rng.choice(12, size=4, replace=False)], rng)
        assert exact_norm_finite(apply_multiplier(T, f)) <= exact_norm_finite(f) + 1e-9


def test_gilbert_right_side():
    sys_ = Z12_SYS
    A = sys_.algebra
    one = basis_vector(A, 1, 0)
    eta = (lambda g: one, 1.0)
    T = make_gilbert_multiplier(_diag_rep(A, 1), sys_, 1, eta, eta, side="right")
    rng = np.random.default_rng(11)
    f = random_cc(sys_, [1, 5], rng)
    assert (apply_multiplier(T, f) - f).norm_l1() < 1e-12


def test_gilbert_rejects_broken_factorization():
    sys_ = Z12_SYS
    A = sys_.algebra
    one = basis_vector(A, 1, 0)

    def eta1(s):
        return (1.0 + (0.1 if s == 3 else 0.0)) * one

    with pytest.raises(ValueError, match="factorization condition"):
        make_gilbert_multiplier(_diag_rep(A, 1), sys_, 1, (eta1, 1.1), (lambda t: one, 1.0), side="left")


def test_gilbert_rejects_non_central_eta2():
    A = BlockAlgebra([2])
    sys_ = trivial_system(A, Cyclic(3))
    rng = np.random.default_rng(12)
    v = ModuleVector(A, (A.random_element(rng),))

    def pi(a):
        return ModuleOperator.diagonal(A, 1, a)

    with pytest.raises(ValueError, match="centrality condition"):
        make_gilbert_multiplier(pi, sys_, 1, (lambda s: v, v.norm()), (lambda t: v, v.norm()), side="left")


# -- endomorphism recipe --------------------------------------------------------------


def test_endo_identity_is_trivial_multiplier():
    T = make_endo_multiplier(Z12_SYS, lambda a: a)
    rng = np.random.default_rng(13)
    f = random_cc(Z12_SYS, [0, 2], rng)
    assert (apply_multiplier(T, f) - f).norm_l1() == 0


def test_endo_point_map_is_multiplicative_on_cc():
    A = BlockAlgebra([1, 1])
    sys_ = theta_system(Zd(1), 0.25, algebra=A)
    beta = PointMap(A, [0, 0])
    T = make_endo_multiplier(sys_, beta)
    rng = np.random.default_rng(14)
    for _ in range(10):
        f1 = random_cc(sys_, [(0,), (1,)], rng)
        f2 = random_cc(sys_, [(-1,), (2,)], rng)
        lhs = apply_multiplier(T, f1 * f2)
        rhs = apply_multiplier(T, f1) * apply_multiplier(T, f2)
        assert (lhs - rhs).norm_l1() < 1e-10


def test_endo_rejects_non_multiplicative_linear_map():
    # a linear map that commutes with everything (trivial system) but is not
    # a homomorphism: a -> a + trace-like defect on a commutative algebra
    A = BlockAlgebra([1, 1])
    sys_ = trivial_system(A, Cyclic(3))

    def beta(a):
        mean = 0.5 * (a.blocks[0][0, 0] + a.blocks[1][0, 0])
        return A.scalar([mean, mean])

    with pytest.raises(ValueError, match="multiplicative"):
        make_endo_multiplier(sys_, beta)


def test_endo_rejects_non_commuting():
    A = BlockAlgebra([1, 1])
    from crossfourier.algebra import AlgAutomorphism
    from crossfourier.system import TwistedSystem, generator_action

    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(2)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    beta = PointMap(A, [0, 0])
    with pytest.raises(ValueError, match="commute"):
        make_endo_multiplier(sys_, beta)


def test_endo_rejects_cocycle_movers():
    # commutative central cocycle valued (1, -1) at (1, 1); the coordinate
    # swap commutes with the trivial action but moves the cocycle value
    A = BlockAlgebra([1, 1])
    sigma_val = A.scalar([1, -1])

    from crossfourier.system import TwistedSystem, trivial_action, validate_system

    G = Cyclic(2)

    def cocycle(g, h):
        return sigma_val if (g, h) == (1, 1) else A.unit()

    sys_ = TwistedSystem(A, G, trivial_action(A), cocycle, tag="table")
    assert validate_system(sys_).passed
    beta = PointMap(A, [1, 0])
    with pytest.raises(ValueError, match="fix the cocycle"):
        make_endo_multiplier(sys_, beta)


# -- norm probe -------------------------------------------------------------------------


def test_norm_probe_identity_on_finite_group():
    probe = multiplier_norm_probe(identity_multiplier(Z12_SYS), sample_budget=10)
    assert probe.ratio_max == pytest.approx(1.0, abs=1e-9)


def test_norm_probe_pd_kernel_bounded_by_one():
    phi = lambda g: max(0.0, 1 - min(g, 12 - g) / 4)
    T = scalar_multiplier(Z12_SYS, phi, bound=1.0)
    probe = multiplier_norm_probe(T, sample_budget=15)
    assert probe.ratio_max <= 1.0 + 1e-9


def test_ideal_preservation_flags():
    assert identity_multiplier(Z12_SYS).preserves_ideals
    assert scalar_multiplier(Z12_SYS, lambda g: 0.5).preserves_ideals
    assert left_multiplier(Z12_SYS, lambda g: Z12_SYS.algebra.unit()).preserves_ideals


def test_norm_probe_matrix_coeff_bounded_by_square():
    from crossfourier.modules import random_vector, unitary_tensor_rep

    def urep(j):
        w = np.exp(2j * np.pi * j / 12)
        return np.diag([w, w.conjugate()])

    rep = unitary_tensor_rep(Z12_SYS, urep, 2)
    rng = np.random.default_rng(21)
    x = random_vector(Z12_SYS.algebra, 2, rng)
    T = make_matrix_coeff_multiplier(rep, x, x)
    probe = multiplier_norm_probe(T, sample_budget=15)
    assert probe.ratio_max <= x.norm() ** 2 + 1e-9


def test_one_sided_recipes_preserve_every_enumerated_ideal():
    from crossfourier.algebra import BlockAlgebra
    from crossfourier.ideals import enumerate_invariant_ideals, ideal_membership
    from crossfourier.multipliers import right_multiplier
    from crossfourier.system import trivial_system

    A = BlockAlgebra([1, 1, 2])
    sys_ = trivial_system(A, Cyclic(4))
    rng = np.random.default_rng(22)
    psi = A.random_element(rng)
    recipes = [
        scalar_multiplier(sys_, lambda g: 0.5 + 0.1 * g),
        left_multiplier(sys_, lambda g: psi),
        right_multiplier(sys_, lambda g: psi),
    ]
    for J in enumerate_invariant_ideals(sys_):
        for T in recipes:
            assert T.preserves_ideals
            for _ in range(5):
                f = CcElement(
                    sys_,
                    {int(g): J.element_from(A.random_element(rng)) for g in rng.choice(4, 2, replace=False)},
                )
                assert ideal_membership(apply_multiplier(T, f), J)

import numpy as np
import pytest

from crossfourier.algebra import AlgAutomorphism, BlockAlgebra, PointMap, classify
from crossfourier.groups import Cyclic, Zd
from crossfourier.modules import (
    EquivariantRep,
    ModuleOperator,
    ModuleVector,
    basis_vector,
    central_part,
    endomorphism_rep,
    random_vector,
    trivial_rep,
    unitary_tensor_rep,
    validate_equivariant,
)
from crossfourier.system import TwistedSystem, generator_action, theta_system, trivial_system


def test_inner_product_basics():
    A = BlockAlgebra([2, 1])
    one = ModuleVector(A, (A.unit(),))
    assert (one.inner(one) - A.unit()).norm() == 0
    e0 = basis_vector(A, 3, 0)
    assert (e0.inner(e0) - A.unit()).norm() == 0
    rng = np.random.default_rng(0)
    x, y = random_vector(A, 3, rng), random_vector(A, 3, rng)
    a = A.random_element(rng)
    # A-linearity in the second variable: <x, y.a> = <x,y> a
    assert (x.inner(y.right(a)) - x.inner(y) * a).norm() < 1e-12
    assert classify(x.inner(x)).positive


def test_cauchy_schwarz():
    A = BlockAlgebra([2, 3])
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = random_vector(A, 2, rng), random_vector(A, 2, rng)
        assert x.inner(y).norm() <= x.norm() * y.norm() + 1e-10


def test_operator_adjoint_exact():
    A = BlockAlgebra([2, 1])
    rng = np.random.default_rng(2)
    rows = tuple(tuple(A.random_element(rng) for _ in range(3)) for _ in range(3))
    S = ModuleOperator(A, rows)
    for _ in range(20):
        x, y = random_vector(A, 3, rng), random_vector(A, 3, rng)
        lhs = S(x).inner(y)
        rhs = x.inner(S.adjoint()(y))
        assert (lhs - rhs).norm() < 1e-12


def test_operator_inverse():
    A = BlockAlgebra([2, 1])
    rng = np.random.default_rng(3)
    ident = ModuleOperator.identity(A, 2)
    rows = tuple(
        tuple(ident.rows[i][j] + 0.2 * A.random_element(rng) for j in range(2)) for i in range(2)
    )
    S = ModuleOperator(A, rows)
    Sinv = S.inverse()
    x = random_vector(A, 2, rng)
    assert (Sinv(S(x)) - x).norm() < 1e-10
    assert (S(Sinv(x)) - x).norm() < 1e-10


def systems_for_reps():
    A = BlockAlgebra([2, 1])
    phi = np.pi / 5
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    twisted_action = TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")
    return {
        "trivial-Z5": trivial_system(BlockAlgebra([1, 1]), Cyclic(5)),
        "theta-Z12": theta_system(Cyclic(12), "1/12"),
        "nc-torus": theta_system(Zd(2), "1/5"),
        "rotation": twisted_action,
    }


@pytest.mark.parametrize("name,make", systems_for_reps().items(), ids=systems_for_reps().keys())
def test_trivial_rep_validates(name, make):
    rep = trivial_rep(make)
    report = validate_equivariant(rep)
    assert report.passed, report.axiom_violations


def test_endomorphism_rep_validates():
    A = BlockAlgebra([1, 1])
    sys_ = trivial_system(A, Cyclic(5))
    beta = PointMap(A, [0, 0])
    rep = endomorphism_rep(sys_, beta)
    assert validate_equivariant(rep).passed


def test_unitary_tensor_rep_validates_with_cocycle():
    sys_ = theta_system(Cyclic(12), "1/12")

    def urep(j):
        w = np.exp(2j * np.pi * j / 12)
        return np.diag([w, w.conjugate()])

    rep = unitary_tensor_rep(sys_, urep, 2)
    assert validate_equivariant(rep).passed


def test_scaled_v_breaks_axiom_iii():
    sys_ = theta_system(Cyclic(12), "1/12")
    base = trivial_rep(sys_)

    def bad_vmatrix(g):
        m = base.vmatrix(g)
        if g == 1:
            return ModuleOperator(m.algebra, tuple(tuple(2.0 * a for a in row) for row in m.rows))
        return m

    bad = EquivariantRep(sys_, 1, base.rho, bad_vmatrix, tag="scaled")
    report = validate_equivariant(bad)
    assert not report.passed
    assert report.axiom_violations["iii"] > 1.0  # inner products scale by 4


def test_v_preserves_norm():
    sys_ = theta_system(Zd(2), "1/5")
    rep = trivial_rep(sys_)
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = sys_.group.random_element(rng)
        x = random_vector(sys_.algebra, 1, rng)
        assert rep.v_apply(g, x).norm() == pytest.approx(x.norm(), rel=1e-10)


def test_central_part_commutative_is_everything():
    A = BlockAlgebra([1, 1])
    rep = trivial_rep(trivial_system(A, Cyclic(3)))
    basis = central_part(rep)
    assert len(basis) == 2  # all of A


def test_central_part_m2_is_scalars():
    A = BlockAlgebra([2])
    rep = trivial_rep(trivial_system(A, Cyclic(3)))
    basis = central_part(rep)
    assert len(basis) == 1
    z = basis[0].entries[0]
    # the single basis vector is a multiple of the unit
    offdiag = z.blocks[0] - np.trace(z.blocks[0]) / 2 * np.eye(2)
    assert np.linalg.norm(offdiag) < 1e-10


def test_central_part_invariant_under_v():
    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(2)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    rep = trivial_rep(sys_)
    for z in central_part(rep):
        vz = rep.v_apply(1, z)
        # still central: rho(a) vz = vz . a on the spanning set
        for a in A.basis():
            assert (rep.rho(a)(vz) - vz.right(a)).norm() < 1e-10


def test_central_vectors_solve_defining_equation():
    A = BlockAlgebra([2, 1])
    rep = trivial_rep(trivial_system(A, Cyclic(2)))
    basis = central_part(rep)
    assert len(basis) == 2  # center of M2 + C is C + C
    for z in basis:
        for a in A.basis():
            assert (rep.rho(a)(z) - z.right(a)).norm() < 1e-10
    # orthonormal after flattening
    for i, z in enumerate(basis):
        for j, w in enumerate(basis):
            dot = np.vdot(z.flatten(), w.flatten())
            assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

import numpy as np
import pytest

from crossfourier.algebra import (
    AlgAutomorphism,
    BlockAlgebra,
    PointMap,
    PointState,
    classify,
    pure_states,
    state_norm,
)

ALGEBRAS = [BlockAlgebra([1]), BlockAlgebra([1, 1]), BlockAlgebra([2]), BlockAlgebra([2, 1]), BlockAlgebra([2, 3])]


def test_unit_and_involution():
    A = BlockAlgebra([2, 1])
    rng = np.random.default_rng(0)
    a, b = A.random_element(rng), A.random_element(rng)
    assert ((A.unit() * a) - a).norm() == 0
    assert ((a * b).star() - b.star() * a.star()).norm() < 1e-14


def test_commutative_product_is_pointwise():
    A = BlockAlgebra([1, 1])
    x = A.scalar([2, 3])
    y = A.scalar([5, -1j])
    assert (x * y - A.scalar([10, -3j])).norm() == 0


def test_norm_values():
    A2 = BlockAlgebra([2])
    assert BlockAlgebra([1]).unit().norm() == 1
    assert A2.element([[[0, 1], [0, 0]]]).norm() == pytest.approx(1)
    assert BlockAlgebra([1, 1]).scalar([3, -4j]).norm() == pytest.approx(4)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=str)
def test_cstar_identity(alg):
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = alg.random_element(rng)
        assert (a.star() * a).norm() == pytest.approx(a.norm() ** 2, rel=1e-9)


def test_classify_flags():
    A = BlockAlgebra([1, 1])
    c = classify(A.unit())
    assert c.selfadjoint and c.unitary and c.positive and c.projection and c.central
    c = classify(A.scalar([1, -1]))
    assert c.selfadjoint and c.unitary and c.central
    assert not c.positive and not c.projection
    rng = np.random.default_rng(1)
    M = BlockAlgebra([2, 3])
    for _ in range(10):
        a = M.random_element(rng)
        assert classify(a.star() * a).positive
    assert not classify(M.random_element(rng)).central
    assert classify(M.scalar([2j, 1])).central


def test_automorphism_preserves_structure():
    A = BlockAlgebra([2, 2, 1])
    rng = np.random.default_rng(3)
    u2a, u2b = A.dims[0], A.dims[1]
    theta = AlgAutomorphism(
        A,
        perm=[1, 0, 2],
        unitaries=[np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2)]
        + [np.eye(1)],
    )
    for _ in range(20):
        a, b = A.random_element(rng), A.random_element(rng)
        assert (theta(a * b) - theta(a) * theta(b)).norm() < 1e-10
        assert (theta(a.star()) - theta(a).star()).norm() < 1e-10
        assert theta(a).norm() == pytest.approx(a.norm(), rel=1e-9)
    assert (theta(A.unit()) - A.unit()).norm() < 1e-12
    inv = theta.inverse()
    assert theta.inverse() is inv  # built once per automorphism
    for _ in range(5):
        a = A.random_element(rng)
        assert (inv(theta(a)) - a).norm() < 1e-12
        assert (theta(inv(a)) - a).norm() < 1e-12


def test_automorphism_rejects_bad_data():
    A = BlockAlgebra([2, 1])
    with pytest.raises(ValueError, match="different dimension"):
        AlgAutomorphism(A, [1, 0], [np.eye(2), np.eye(1)])
    with pytest.raises(ValueError, match="unitary"):
        AlgAutomorphism(A, [0, 1], [2 * np.eye(2), np.eye(1)])


def test_automorphism_power():
    A = BlockAlgebra([2])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u])
    rng = np.random.default_rng(5)
    a = A.random_element(rng)
    three = theta.compose(theta).compose(theta)
    assert (theta.power(3)(a) - three(a)).norm() < 1e-12
    assert (theta.power(-2)(theta.power(2)(a)) - a).norm() < 1e-12
    assert theta.power(0).is_identity()


def test_point_map_endomorphism():
    A = BlockAlgebra([1, 1, 1])
    beta = PointMap(A, [0, 0, 2])
    x = A.scalar([1, 2, 3])
    assert (beta(x) - A.scalar([1, 1, 3])).norm() == 0
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = A.random_element(rng), A.random_element(rng)
        assert (beta(a * b) - beta(a) * beta(b)).norm() < 1e-12
    assert (beta(A.unit()) - A.unit()).norm() == 0


def test_pure_states_commutative():
    A = BlockAlgebra([1, 1, 1])
    states = pure_states(A)
    assert len(states) == 3
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = A.random_element(rng), A.random_element(rng)
        for w in states:
            assert w(a * b) == pytest.approx(w(a) * w(b))
    assert all(w(A.unit()) == 1 for w in states)


def test_norm_as_max_over_pure_states_commutative():
    A = BlockAlgebra([1, 1, 1, 1])
    states = pure_states(A)
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = A.random_element(rng)
        via_states = max(state_norm(a, w) for w in states)
        assert via_states == pytest.approx(a.norm(), rel=1e-9)


def test_vector_states_positive():
    A = BlockAlgebra([2, 3])
    rng = np.random.default_rng(6)
    states = pure_states(A, sample_budget=4, rng=rng)
    assert len(states) == 8
    for w in states:
        assert w(A.unit()) == pytest.approx(1)
        a = A.random_element(rng)
        assert w(a.star() * a).real >= -1e-12


def test_state_norm_multiplicative_at_point_evaluations():
    A = BlockAlgebra([1, 1])
    w = PointState(A, 1)
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = A.random_element(rng), A.random_element(rng)
        assert state_norm(a * b, w) == pytest.approx(state_norm(a, w) * state_norm(b, w))
        assert state_norm(a + b, w) <= state_norm(a, w) + state_norm(b, w) + 1e-12


def test_wire_roundtrip():
    A = BlockAlgebra([2, 1])
    rng = np.random.default_rng(10)
    a = A.random_element(rng)
    assert (A.from_wire(A.to_wire(a)) - a).norm() < 1e-15

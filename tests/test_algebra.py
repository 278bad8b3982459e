import numpy as np
import pytest

from crossfourier.algebra import (
    ALG_TOL,
    AlgAutomorphism,
    BlockAlgebra,
    PointMap,
    PointState,
    classify,
    pure_states,
    state_norm,
    unitary_rows,
)

ALGEBRAS = [BlockAlgebra([1]), BlockAlgebra([1, 1]), BlockAlgebra([2]), BlockAlgebra([2, 1]), BlockAlgebra([2, 3])]


def test_unit_and_involution():
    A = BlockAlgebra([2, 1])
    rng = np.random.default_rng(0)
    a, b = A.random_element(rng), A.random_element(rng)
    assert ((A.unit() * a) - a).norm() == 0
    assert ((a * b).star() - b.star() * a.star()).norm() < 1e-14


def test_unit_is_one_read_only_element_per_algebra():
    A = BlockAlgebra([2, 1])
    unit = A.unit()
    assert A.unit() is unit
    assert all(not b.flags.writeable for b in unit.blocks)
    assert all(np.array_equal(b, np.eye(d)) and b.dtype == complex for b, d in zip(unit.blocks, A.dims))
    with pytest.raises(ValueError):
        unit.blocks[0][0, 0] = 2


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
    # one conjugator per block, checked when built, not when first applied
    B = BlockAlgebra([1, 1])
    for unitaries in ([np.eye(1)], [np.eye(1)] * 3):
        with pytest.raises(ValueError, match="one per block"):
            AlgAutomorphism(B, [0, 1], unitaries)
        with pytest.raises(ValueError, match="one per block"):
            AlgAutomorphism.conjugation(B, unitaries)


def _near_unitaries():
    """Conjugators U = Q diag(sqrt(1 + e)) Q^* whose defect U U^* - 1 = Q diag(e) Q^* sits near 1e-10.

    One defect eigenvalue e_1 sweeps across the tolerance (the spectral norm
    just below and just above it); the rest make the Frobenius norm land just
    below or above it too, or on either side of half of it.
    """
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        q = BlockAlgebra([d]).random_unitary(rng).blocks[0]
        for lead in (0.3, 0.45, 0.5, 0.55, 0.7, 0.9, 0.99, 0.999999, 1.0, 1.000001, 1.01, 1.1, 1.5):
            for rest in (0.0, 0.3, 0.6, 0.75):
                for sign in (1, -1):
                    e = ALG_TOL * np.array([sign * lead] + [rest] * (d - 1))
                    yield q @ np.diag(np.sqrt(1 + e)) @ q.conj().T
                    yield np.diag(np.sqrt(1 + e))


def test_unitarity_prefilter_decides_as_the_spectral_norm_check():
    decisions = {True: 0, False: 0}
    frobenius_above = 0
    for u in _near_unitaries():
        d = len(u)
        defect = u @ u.conj().T - np.eye(d)
        want = not np.linalg.norm(defect, 2) > ALG_TOL  # the spectral-only check
        frobenius_above += bool(want and np.linalg.norm(defect) > ALG_TOL)
        try:
            AlgAutomorphism.conjugation(BlockAlgebra([d]), [u])
            accepted = True
        except ValueError as exc:
            assert "unitary" in str(exc)
            accepted = False
        assert accepted == want
        decisions[accepted] += 1
    # both decisions occur, and spectral accepts whose Frobenius norm is past the tolerance
    assert decisions[True] and decisions[False] and frobenius_above


def test_batched_unitarity_check_decides_as_the_spectral_norm_check():
    by_dim: dict = {}
    for u in _near_unitaries():
        by_dim.setdefault(len(u), []).append(u)
    for us in by_dim.values():
        want = [not np.linalg.norm(u @ u.conj().T - np.eye(len(u)), 2) > ALG_TOL for u in us]
        assert True in want and False in want
        assert unitary_rows(np.array(us, dtype=complex)).tolist() == want


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_conjugator_is_not_unitary(d, bad):
    u = np.eye(d, dtype=complex)
    u[0, 0] = bad
    # rejected as not unitary, not by a LAPACK failure of the spectral norm
    with pytest.raises(ValueError, match="not unitary to 1e-10"):
        AlgAutomorphism.conjugation(BlockAlgebra([d]), [u])
    big = np.eye(d, dtype=complex)
    big[0, 0] = 1e200  # finite, but its defect overflows
    with pytest.raises(ValueError, match="not unitary to 1e-10"):
        AlgAutomorphism.conjugation(BlockAlgebra([d]), [big])
    stack = np.array([np.eye(d), u, big, np.eye(d)], dtype=complex)
    assert unitary_rows(stack).tolist() == [True, False, False, True]


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
    assert (theta.power(0)(a) - a).norm() == 0.0


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

import numpy as np
import pytest

from crossfourier.algebra import AlgAutomorphism, BlockAlgebra, PointMap, classify
from crossfourier.config import build_rep
from crossfourier.groups import Cyclic, Zd
from crossfourier.modules import (
    MAX_RANK,
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

from families import system_for


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
        tuple(A.element([b[i, j] for b in ident.blocks]) + 0.2 * A.random_element(rng) for j in range(2))
        for i in range(2)
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
            return ModuleOperator(m.algebra, ((m.algebra.element([2.0 * b[0, 0] for b in m.blocks]),),))
        return m

    bad = EquivariantRep(sys_, 1, base.rho, bad_vmatrix, tag="scaled")
    report = validate_equivariant(bad)
    assert not report.passed
    assert report.axiom_violations["iii"] > 1.0  # inner products scale by 4


def test_v_inverse_is_built_once_per_group_element(monkeypatch):
    sys_ = theta_system(Cyclic(12), "1/12")
    w = np.exp(2j * np.pi / 12)
    rep = unitary_tensor_rep(sys_, lambda j: np.diag([w ** j, w ** -j]), 2)
    calls = []
    original = ModuleOperator.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModuleOperator, "inverse", counting)
    x = random_vector(sys_.algebra, 2, np.random.default_rng(0))
    for _ in range(3):
        for g in (1, 5):
            y = rep.v_apply(g, rep.v_inverse_apply(g, x))
            assert max(float(np.abs(a - b).max()) for a, b in zip(y.blocks, x.blocks)) < 1e-12
    assert len(calls) == 2


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
    z = basis[0].blocks[0][0]
    # the single basis vector is a multiple of the unit
    offdiag = z - np.trace(z) / 2 * np.eye(2)
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


# -- the stacked layer against the per-entry AlgElement arithmetic it replaced ------


def _sum(algebra, terms):
    total = algebra.zero()
    for t in terms:
        total = total + t
    return total


def loop_inner(xs, ys):
    return _sum(xs[0].algebra, (a.star() * b for a, b in zip(xs, ys)))


def loop_call(rows, xs):
    return [_sum(xs[0].algebra, (a * x for a, x in zip(row, xs))) for row in rows]


def loop_adjoint(rows):
    return [[rows[k][i].star() for k in range(len(rows))] for i in range(len(rows))]


def loop_compose(left, right):
    n, algebra = len(left), left[0][0].algebra
    return [[_sum(algebra, (left[i][k] * right[k][j] for k in range(n))) for j in range(n)] for i in range(n)]


def loop_inverse(rows):
    """Per block, the (n d) x (n d) matrix assembled entry by entry, inverted and cut up again."""
    n, algebra = len(rows), rows[0][0].algebra
    inverses = []
    for bi, d in enumerate(algebra.dims):
        big = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            for j in range(n):
                big[i * d:(i + 1) * d, j * d:(j + 1) * d] = rows[i][j].blocks[bi]
        inverses.append(np.linalg.inv(big))
    return [
        [algebra.element([inv[i * d:(i + 1) * d, j * d:(j + 1) * d] for inv, d in zip(inverses, algebra.dims)])
         for j in range(n)]
        for i in range(n)
    ]


def loop_v_apply(rep, g, xs):
    return loop_call(rows_of(rep.vmatrix(g)), [rep.system.act(g, a) for a in xs])


def loop_v_inverse_apply(rep, g, xs):
    return [rep.system.act_inv(g, a) for a in loop_call(loop_inverse(rows_of(rep.vmatrix(g))), xs)]


def loop_central_part(rep, tol=1e-10):
    A, n = rep.system.algebra, rep.rank
    coord_dim = n * A.total_dim

    def flatten(xs):
        return np.concatenate([m.reshape(-1) for a in xs for m in a.blocks])

    def unflatten(vec):
        entries, k = [], 0
        for _ in range(n):
            blocks = []
            for d in A.dims:
                blocks.append(vec[k:k + d * d].reshape(d, d))
                k += d * d
            entries.append(A.element(blocks))
        return entries

    columns = []
    for i in range(coord_dim):
        e = np.zeros(coord_dim, dtype=complex)
        e[i] = 1.0
        z = unflatten(e)
        col = [flatten([u + (-1.0) * (v * a) for u, v in zip(loop_call(rows_of(rep.rho(a)), z), z)])
               for a in A.basis()]
        columns.append(np.concatenate(col))
    _, s, vh = np.linalg.svd(np.array(columns).T)
    scale = max(1.0, float(s[0])) if len(s) else 1.0
    return [unflatten(vh[i].conj()) for i in range(vh.shape[0]) if i >= len(s) or s[i] <= tol * scale]


def entries_of(x):
    return [x.algebra.element([b[i] for b in x.blocks]) for i in range(x.rank)]


def rows_of(T):
    return [[T.algebra.element([b[i, k] for b in T.blocks]) for k in range(T.rank)] for i in range(T.rank)]


def hexes(elements):
    """float.hex of every real and imaginary part, element by element."""
    out = []
    for a in elements:
        for m in a.blocks:
            for z in m.reshape(-1):
                out += [float(z.real).hex(), float(z.imag).hex()]
    return out


def hexes_rows(rows):
    return hexes([a for row in rows for a in row])


def _oracle_systems():
    rotation = systems_for_reps()["rotation"]
    A = BlockAlgebra([2, 2, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0, 2])
    G = Cyclic(2)
    permuting = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    return {
        "trivial": trivial_system(BlockAlgebra([2, 1]), Cyclic(3)),
        "block-permuting": permuting,
        "rotation": rotation,
    }


ORACLE_SYSTEMS = _oracle_systems()


def _oracle_rep(sys_, rank):
    if rank == 1:
        return trivial_rep(sys_)
    group = sys_.group

    def urep(g):
        # a genuine representation: powers of one unitary of finite order, or of any order on Z
        k = g[0] if isinstance(g, tuple) else g
        phase = np.exp(2j * np.pi * k / (group.n if group.is_finite else 7))
        return np.diag([phase ** (j + 1) for j in range(rank)])

    return unitary_tensor_rep(sys_, urep, rank)


# from rank 4 on, a numpy sum over the entries would round differently
@pytest.mark.parametrize("rank", [1, 3, MAX_RANK])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_stacked_vectors_match_entry_loop_bit_for_bit(name, rank):
    sys_ = ORACLE_SYSTEMS[name]
    A = sys_.algebra
    rng = np.random.default_rng(11)
    x, y = random_vector(A, rank, rng), random_vector(A, rank, rng)
    xs, ys = entries_of(x), entries_of(y)
    a = A.random_element(rng)
    c = complex(-0.75, -1.25)
    assert hexes([x.inner(y)]) == hexes([loop_inner(xs, ys)])
    assert float(x.norm()).hex() == float(np.sqrt(loop_inner(xs, xs).norm())).hex()
    assert hexes(entries_of(x.right(a))) == hexes([u * a for u in xs])
    assert hexes(entries_of(x + y)) == hexes([u + v for u, v in zip(xs, ys)])
    assert hexes(entries_of(x - y)) == hexes([u + (-1.0) * v for u, v in zip(xs, ys)])
    assert hexes(entries_of(c * x)) == hexes([c * u for u in xs])
    assert hexes(entries_of(-2.5 * x)) == hexes([-2.5 * u for u in xs])


@pytest.mark.parametrize("rank", [1, 3, MAX_RANK])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_stacked_operators_match_entry_loop_bit_for_bit(name, rank):
    A = ORACLE_SYSTEMS[name].algebra
    rng = np.random.default_rng(12)

    def random_rows():
        return [[A.random_element(rng) + (2.0 * A.unit() if i == j else A.zero()) for j in range(rank)]
                for i in range(rank)]

    s_rows, t_rows = random_rows(), random_rows()
    S, T = ModuleOperator(A, s_rows), ModuleOperator(A, t_rows)
    x = random_vector(A, rank, rng)
    assert hexes_rows(rows_of(S)) == hexes_rows(s_rows)
    assert hexes(entries_of(S(x))) == hexes(loop_call(s_rows, entries_of(x)))
    assert hexes_rows(rows_of(S.adjoint())) == hexes_rows(loop_adjoint(s_rows))
    assert hexes_rows(rows_of(S.compose(T))) == hexes_rows(loop_compose(s_rows, t_rows))
    assert hexes_rows(rows_of(S.inverse())) == hexes_rows(loop_inverse(s_rows))

    a = A.random_element(rng)
    unit_rows = [[A.unit() if i == j else A.zero() for j in range(rank)] for i in range(rank)]
    diag_rows = [[a if i == j else A.zero() for j in range(rank)] for i in range(rank)]
    assert hexes_rows(rows_of(ModuleOperator.identity(A, rank))) == hexes_rows(unit_rows)
    assert hexes_rows(rows_of(ModuleOperator.diagonal(A, rank, a))) == hexes_rows(diag_rows)
    # negative parts and signed zeros, where a product's zero sign could flip
    mat = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    mat[0, 0] = complex(-0.0, -1.5)
    scalar_rows = [[complex(mat[i, j]) * A.unit() for j in range(rank)] for i in range(rank)]
    assert hexes_rows(rows_of(ModuleOperator.from_scalar_matrix(A, mat))) == hexes_rows(scalar_rows)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_equivariant_action_matches_entry_loop_bit_for_bit(name, rank):
    sys_ = ORACLE_SYSTEMS[name]
    rep = _oracle_rep(sys_, rank)
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = sys_.group.random_element(rng)
        x = random_vector(sys_.algebra, rank, rng)
        assert hexes(entries_of(rep.v_apply(g, x))) == hexes(loop_v_apply(rep, g, entries_of(x)))
        assert hexes(entries_of(rep.v_inverse_apply(g, x))) == hexes(loop_v_inverse_apply(rep, g, entries_of(x)))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_central_part_matches_entry_loop_bit_for_bit(name, rank):
    rep = _oracle_rep(ORACLE_SYSTEMS[name], rank)
    got = [hexes(entries_of(z)) for z in central_part(rep)]
    assert got and got == [hexes(z) for z in loop_central_part(rep)]


# -- the batched validator against the per-sample loop it replaced -----------------


def loop_validate_equivariant(rep, rng):
    """The per-sample validator: each sample drawn and checked in turn, one ModuleVector operation at a time."""
    sys_, A, n = rep.system, rep.system.algebra, rep.rank
    grp = sys_.group
    worst = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0, "unit": 0.0}
    e = grp.identity()
    for _ in range(40):
        g = grp.random_element(rng)
        h = grp.random_element(rng)
        a = A.random_element(rng)
        x = random_vector(A, n, rng)
        x2 = random_vector(A, n, rng)

        lhs = rep.rho(sys_.act(g, a))(x)
        rhs = rep.v_apply(g, rep.rho(a)(rep.v_inverse_apply(g, x)))
        worst["i"] = max(worst["i"], (lhs - rhs).norm())

        lhs = rep.v_apply(g, rep.v_apply(h, x))
        rhs = rep.ad_rho(sys_.cocycle(g, h), rep.v_apply(grp.mul(g, h), x))
        worst["ii"] = max(worst["ii"], (lhs - rhs).norm())

        lhs_a = sys_.act(g, x.inner(x2))
        rhs_a = rep.v_apply(g, x).inner(rep.v_apply(g, x2))
        worst["iii"] = max(worst["iii"], (lhs_a - rhs_a).norm())

        lhs = rep.v_apply(g, x.right(a))
        rhs = rep.v_apply(g, x).right(sys_.act(g, a))
        worst["iv"] = max(worst["iv"], (lhs - rhs).norm())

        worst["unit"] = max(worst["unit"], (rep.v_apply(e, x) - x).norm())
        worst["unit"] = max(worst["unit"], (rep.v_inverse_apply(g, rep.v_apply(g, x)) - x).norm())
    return worst


def _shipped_rep(system, kind):
    """The three reps a config can ask for (config.build_rep)."""
    if kind == "trivial":
        return build_rep(system, {})
    if kind == "endomorphism-composed":
        return build_rep(system, {"rho": {"kind": "endomorphism-composed", "point_map": [1, 1]}})
    rng = np.random.default_rng(len(system.group.generators()))
    wires = []
    for _ in system.group.generators():
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        wires.append(np.stack([q.real, q.imag], axis=-1).reshape(-1).tolist())
    return build_rep(system, {"rank": 2, "v": {"kind": "alpha-tensor-unitary", "generator_unitaries": wires}})


def _assert_validator_is_the_loop(rep, seed):
    batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = validate_equivariant(rep, batched_rng).axiom_violations
    expected = loop_validate_equivariant(rep, loop_rng)
    assert {k: float(v).hex() for k, v in batched.items()} == {k: v.hex() for k, v in expected.items()}
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    return batched


# the families' systems act by a block swap on C + C and are perturbed by
# coboundaries, so the actions permute blocks and conjugate, and the cocycles
# are not central; Z_6 is finite, the other three infinite
@pytest.mark.parametrize("dims, kind", [
    ((1, 1), "trivial"), ((1, 1), "endomorphism-composed"), ((1, 1), "alpha-tensor-unitary"),
    ((2, 1), "trivial"), ((2, 1), "alpha-tensor-unitary"),  # point maps need a commutative algebra
], ids=lambda v: str(v) if isinstance(v, tuple) else v)
@pytest.mark.parametrize("family", ["cyclic", "Zd", "free-F2", "free-product-Z2-Z3"])
def test_batched_validator_is_the_per_sample_loop_bit_for_bit(family, dims, kind):
    _assert_validator_is_the_loop(_shipped_rep(system_for(family, dims), kind), seed=3)


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_batched_validator_is_the_loop_on_the_oracle_systems(name):
    for rank in (1, 2):
        _assert_validator_is_the_loop(_oracle_rep(ORACLE_SYSTEMS[name], rank), seed=rank)


def test_batched_validator_keeps_an_earlier_violation_over_a_later_nan():
    sys_ = theta_system(Cyclic(12), "1/12")
    A = sys_.algebra
    nans = []

    def rho(a):
        # NaN where the real part is positive, left multiplication by 1.01 a elsewhere
        nans.append(complex(a.blocks[0][0, 0]).real > 0)
        return ModuleOperator(A, ((np.nan * A.unit() if nans[-1] else 1.01 * a,),))

    rep = EquivariantRep(sys_, 1, rho, lambda g: ModuleOperator.identity(A, 1), tag="nan")
    violations = _assert_validator_is_the_loop(rep, seed=0)
    assert any(nans) and not all(nans)
    # (i) compares rho(a) with itself: 0 or NaN per sample, and max() keeps the 0.0 it starts from;
    # (ii) meets rho(cocycle) of both signs, and keeps the finite maximum
    assert violations["i"] == 0.0
    assert 0.0 < violations["ii"] < np.inf

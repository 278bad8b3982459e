"""Finitely generated Hilbert modules A^n and equivariant representations.

Vectors are n-tuples over the coefficient algebra with inner product
<x, y> = sum_i x_i* y_i (linear in the second variable) and right action
(x . a)_i = x_i a.  Operators are n x n matrices over A acting on column
vectors; the adjoint is the entrywise star of the transpose.

Both are stored stacked, one array per block j of A: a vector as an
(n, d_j, d_j) array whose row i is x_i, an operator as an (n, n, d_j, d_j)
array whose [i, k] is T_ik.  Operations are batched matmuls and reshapes,
with sums over entries run left to right from zero (zero + a_1 b_1 + ...),
so results are bit for bit those of the same AlgElement arithmetic.

An equivariant representation is a pair (rho, v): rho represents A by module
operators and v(g) is the invertible map x -> V_g . (action(g) applied
entrywise), stored through its matrix part V_g.  C-linearity is automatic;
the action twist is what the axiom-(iv) validator checks, it is never
assumed.  Module ranks are capped at 8 to keep the central-part solver small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ALG_TOL, AlgElement, BlockAlgebra, adjoints, stacked_norms, sum_from_zero
from .system import TwistedSystem

MAX_RANK = 8


class _Stacked:
    """One read-only array per algebra block, the entries on its leading axes."""

    def __init__(self, algebra: BlockAlgebra, elements: list, shape: tuple):
        if any(a.algebra != algebra for a in elements):
            raise ValueError("entry algebra mismatch")
        self._store(algebra, [np.array([a.blocks[j] for a in elements], dtype=complex).reshape(shape + (d, d))
                              for j, d in enumerate(algebra.dims)])

    @classmethod
    def _of(cls, algebra: BlockAlgebra, blocks: list):
        out = cls.__new__(cls)
        out._store(algebra, blocks)
        return out

    def _store(self, algebra, blocks):
        self.algebra, self.blocks = algebra, tuple(blocks)
        for b in self.blocks:
            b.flags.writeable = False

    @property
    def rank(self) -> int:
        return self.blocks[0].shape[0]

    def _check(self, other):
        if self.algebra != other.algebra or self.rank != other.rank:
            raise ValueError("module shape mismatch")


class ModuleVector(_Stacked):
    """A vector of A^n, made from its tuple of n entries."""

    def __init__(self, algebra: BlockAlgebra, entries: tuple):
        if len(entries) > MAX_RANK:
            raise ValueError(f"module rank capped at {MAX_RANK}")
        super().__init__(algebra, entries, (len(entries),))

    def __add__(self, other):
        self._check(other)
        return ModuleVector._of(self.algebra, [x + y for x, y in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return ModuleVector._of(self.algebra, [scalar * x for x in self.blocks])

    def right(self, a: AlgElement) -> "ModuleVector":
        """The module action x . a."""
        if a.algebra != self.algebra:
            raise ValueError("algebra mismatch")
        return ModuleVector._of(self.algebra, [np.matmul(x, m) for x, m in zip(self.blocks, a.blocks)])

    def inner(self, other: "ModuleVector") -> AlgElement:
        """<x, y> = sum_i x_i* y_i."""
        self._check(other)
        return self.algebra.element([sum_from_zero(np.matmul(adjoints(x), y), 0)
                                     for x, y in zip(self.blocks, other.blocks)])

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self).norm()))

    def flatten(self) -> np.ndarray:
        """Coordinates entry by entry, each entry block by block, blocks row-major."""
        return np.concatenate([x.reshape(self.rank, -1) for x in self.blocks], axis=1).reshape(-1)


def basis_vector(algebra: BlockAlgebra, rank: int, i: int) -> ModuleVector:
    entries = [algebra.zero()] * rank
    entries[i] = algebra.unit()
    return ModuleVector(algebra, tuple(entries))


def random_vector(algebra: BlockAlgebra, rank: int, rng) -> ModuleVector:
    return ModuleVector(algebra, tuple(algebra.random_element(rng) for _ in range(rank)))


class ModuleOperator(_Stacked):
    """n x n matrix over A acting on column vectors by left multiplication, made from its rows."""

    def __init__(self, algebra: BlockAlgebra, rows: tuple):
        super().__init__(algebra, [a for row in rows for a in row], (len(rows), len(rows)))

    @staticmethod
    def identity(algebra: BlockAlgebra, rank: int) -> "ModuleOperator":
        return ModuleOperator.diagonal(algebra, rank, algebra.unit())

    @staticmethod
    def diagonal(algebra: BlockAlgebra, rank: int, a: AlgElement) -> "ModuleOperator":
        on = np.eye(rank, dtype=bool)[:, :, None, None]
        return ModuleOperator._of(algebra, [np.where(on, m, 0j) for m in a.blocks])

    @staticmethod
    def from_scalar_matrix(algebra: BlockAlgebra, mat: np.ndarray) -> "ModuleOperator":
        mat = np.asarray(mat, dtype=complex)[:, :, None, None]
        return ModuleOperator._of(algebra, [mat * np.eye(d, dtype=complex) for d in algebra.dims])

    def __call__(self, x: ModuleVector) -> ModuleVector:
        self._check(x)
        # [i, k] of each product is T_ik x_k
        return ModuleVector._of(self.algebra, [sum_from_zero(np.matmul(t, y[None]), 1)
                                               for t, y in zip(self.blocks, x.blocks)])

    def adjoint(self) -> "ModuleOperator":
        return ModuleOperator._of(self.algebra, [adjoints(t).swapaxes(0, 1) for t in self.blocks])

    def compose(self, other: "ModuleOperator") -> "ModuleOperator":
        self._check(other)
        # [i, k, j] of each product is S_ik T_kj
        products = [np.matmul(s[:, :, None], t[None]) for s, t in zip(self.blocks, other.blocks)]
        return ModuleOperator._of(self.algebra, [sum_from_zero(p, 1) for p in products])

    def inverse(self) -> "ModuleOperator":
        """Inverse as a matrix over A: per block j, the (n d_j) x (n d_j) matrix inverted."""
        n = self.rank
        out = []
        for t, d in zip(self.blocks, self.algebra.dims):
            big = np.linalg.inv(t.transpose(0, 2, 1, 3).reshape(n * d, n * d))
            out.append(big.reshape(n, d, n, d).transpose(0, 2, 1, 3))
        return ModuleOperator._of(self.algebra, out)


class EquivariantRep:
    """A pair (rho, v) of rules on A^n over a twisted system.

    rho: AlgElement -> ModuleOperator;  vmatrix: g -> ModuleOperator, and
    v(g) x = V_g . (entrywise action(g))(x).  The axioms are validated by
    validate_equivariant, never assumed.
    """

    def __init__(self, system: TwistedSystem, rank: int, rho: Callable, vmatrix: Callable, tag: str = "custom"):
        if rank > MAX_RANK:
            raise ValueError(f"module rank capped at {MAX_RANK}")
        self.system = system
        self.rank = rank
        self._rho = rho
        self._vmatrix = vmatrix
        self.tag = tag
        self._twists: dict = {}

    def rho(self, a: AlgElement) -> ModuleOperator:
        return self._rho(a)

    def _twist(self, g) -> list:
        """[V_g, the code of g, V_g^{-1}], built once per g.

        The inverse of V_g is left None until v_inverse_apply first needs it.
        """
        twist = self._twists.get(g)
        if twist is None:
            twist = self._twists[g] = [self._vmatrix(g), self.system.coded.encode([g]), None]
        return twist

    def vmatrix(self, g) -> ModuleOperator:
        return self._twist(g)[0]

    def _vinverse(self, g) -> ModuleOperator:
        twist = self._twist(g)
        if twist[2] is None:
            twist[2] = twist[0].inverse()
        return twist[2]

    def _stacked_twists(self, points: list, inverse: bool = False) -> tuple:
        """(codes, V): the codes of the points and their V_g, or V_g^{-1}, stacked (_stacked_ops)."""
        ops = list(map(self._vinverse if inverse else self.vmatrix, points))
        codes = np.concatenate([self._twists[g][1] for g in points])
        return codes, _stacked_ops(self.system.algebra, self.rank, ops)

    def _act(self, g, x: ModuleVector, inverse: bool) -> ModuleVector:
        """action(g), or its inverse automorphism, applied to every entry of x (TwistedSystem.act_rows)."""
        acted = self.system.act_rows(self._twist(g)[1], np.zeros(x.rank, dtype=np.int64), x.blocks, inverse)
        return ModuleVector._of(x.algebra, acted)

    def v_apply(self, g, x: ModuleVector) -> ModuleVector:
        return self.vmatrix(g)(self._act(g, x, inverse=False))

    def v_inverse_apply(self, g, x: ModuleVector) -> ModuleVector:
        return self._act(g, self._vinverse(g)(x), inverse=True)

    def ad_rho(self, u: AlgElement, x: ModuleVector) -> ModuleVector:
        """(rho(u) x) . u* for a unitary u."""
        return self.rho(u)(x).right(u.star())


def trivial_rep(system: TwistedSystem) -> EquivariantRep:
    """Left multiplication with the action itself, on the module A."""
    A = system.algebra
    return EquivariantRep(system, 1, lambda a: ModuleOperator(A, ((a,),)), lambda g: ModuleOperator.identity(A, 1),
                          tag="trivial")


def endomorphism_rep(system: TwistedSystem, beta: Callable) -> EquivariantRep:
    """(rho_beta, action) on A: rho_beta(a) is left multiplication by beta(a)."""
    A = system.algebra
    return EquivariantRep(system, 1, lambda a: ModuleOperator(A, ((beta(a),),)),
                          lambda g: ModuleOperator.identity(A, 1), tag="endomorphism")


def unitary_tensor_rep(system: TwistedSystem, urep: Callable, rank: int) -> EquivariantRep:
    """Diagonal left multiplication with v = (unitary group rep) tensor action.

    urep(g) must be a genuine rank x rank unitary representation of the group;
    scalar-matrix V_g entries commute with the cocycle values, which is what
    makes axiom (ii) hold for any cocycle.
    """
    A = system.algebra
    return EquivariantRep(system, rank, lambda a: ModuleOperator.diagonal(A, rank, a),
                          lambda g: ModuleOperator.from_scalar_matrix(A, urep(g)), tag="unitary-tensor")


@dataclass
class EquivariantReport:
    axiom_violations: dict
    n_samples: int

    @property
    def max_violation(self) -> float:
        return max(self.axiom_violations.values())

    @property
    def passed(self) -> bool:
        return self.max_violation <= ALG_TOL

    def as_dict(self):
        return {"axiom_violations": dict(self.axiom_violations), "n_samples": self.n_samples,
                "passed": self.passed}


# The stacked forms of the validator: every array has a leading sample axis,
# operators (S, n, n, d_j, d_j) and vectors (S, n, d_j, d_j) per block, and
# each helper is the ModuleOperator or ModuleVector operation row by row.

def _stacked_ops(algebra: BlockAlgebra, rank: int, ops: list) -> list:
    if any(t.algebra != algebra or t.rank != rank for t in ops):
        raise ValueError("module shape mismatch")
    return [np.stack(col) for col in zip(*(t.blocks for t in ops))]


def _applied(ops: list, xs: list) -> list:
    return [sum_from_zero(np.matmul(t, y[:, None]), 2) for t, y in zip(ops, xs)]


def _right(xs: list, ms: list) -> list:
    return [np.matmul(x, m[:, None]) for x, m in zip(xs, ms)]


def _inner(xs: list, ys: list) -> list:
    return [sum_from_zero(np.matmul(adjoints(x), y), 1) for x, y in zip(xs, ys)]


def _distances(xs: list, ys: list) -> list:
    """(x - y).norm() for each sample, the difference formed as x + (-1.0) y."""
    diff = [x + (-1.0) * y for x, y in zip(xs, ys)]
    return np.sqrt(stacked_norms(_inner(diff, diff))).tolist()


def validate_equivariant(rep: EquivariantRep, rng=None) -> EquivariantReport:
    """Max violations of the four equivariance axioms on 40 random samples.

      (i)   rho(action(g)(a)) = v(g) rho(a) v(g)^{-1}
      (ii)  v(g) v(h) = ad_rho(cocycle(g, h)) v(gh)
      (iii) action(g)(<x, x'>) = <v(g) x, v(g) x'>
      (iv)  v(g)(x . a) = (v(g) x) . action(g)(a)

    plus v(e) acting as the identity.  Every draw comes first, in the order
    of a loop over the samples (g and h by Group.random_element, then a and
    the entries of x and x' by one BlockAlgebra.random_element draw each);
    then each axiom is evaluated once over all samples on stacked arrays,
    and its defects are folded into its maximum in sample order by max(),
    which keeps an earlier value over a later NaN.  Every violation is bit
    for bit that of the per-sample loop of ModuleVector arithmetic.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    sys_, A, n = rep.system, rep.system.algebra, rep.rank
    grp, coded = sys_.group, sys_.coded
    n_samples = 40
    gs, hs, normals = [], [], []
    for _ in range(n_samples):
        gs.append(grp.random_element(rng))
        hs.append(grp.random_element(rng))
        normals.extend(rng.normal(size=(1, 2 * A.total_dim)) for _ in range(1 + 2 * n))
    drawn = [b.reshape((n_samples, 1 + 2 * n) + b.shape[1:]) for b in A.from_normals(np.concatenate(normals))]
    every = np.arange(n_samples)
    a, x, x2 = [b[:, 0] for b in drawn], [b[:, 1:1 + n] for b in drawn], [b[:, 1 + n:] for b in drawn]

    def rho(blocks):
        return _stacked_ops(A, n, [rep.rho(AlgElement(A, row)) for row in zip(*blocks)])

    def acted(codes, xs, inverse=False):  # action(g_s) on every entry of vector s
        flat = sys_.act_rows(codes, every.repeat(n), [y.reshape((-1,) + y.shape[2:]) for y in xs], inverse)
        return [y.reshape(z.shape) for y, z in zip(flat, xs)]

    def v_apply(codes, vs, xs):
        return _applied(vs, acted(codes, xs))

    def v_inverse_apply(xs):  # v(g_s)^{-1}
        return acted(g, _applied(vg_inverse, xs), inverse=True)

    g, vg = rep._stacked_twists(gs)
    _, vg_inverse = rep._stacked_twists(gs, inverse=True)
    h, vh = rep._stacked_twists(hs)
    gh = coded.mul(g, h)
    _, vgh = rep._stacked_twists(coded.decode(gh))
    e, ve = rep._stacked_twists([grp.identity()] * n_samples)
    acted_a = sys_.act_rows(g, every, a)
    vx = v_apply(g, vg, x)
    sigma = sys_.cocycle_blocks(sys_.cocycle_rows(g, h, gh))
    defects = {
        "i": [_distances(_applied(rho(acted_a), x),
                         v_apply(g, vg, _applied(rho(a), v_inverse_apply(x))))],
        "ii": [_distances(v_apply(g, vg, v_apply(h, vh, x)),
                          _right(_applied(rho(sigma), v_apply(gh, vgh, x)), [adjoints(c) for c in sigma]))],
        "iii": [stacked_norms([u - w for u, w in zip(sys_.act_rows(g, every, _inner(x, x2)),
                                                     _inner(vx, v_apply(g, vg, x2)))]).tolist()],
        "iv": [_distances(v_apply(g, vg, _right(x, a)), _right(vx, acted_a))],
        "unit": [_distances(v_apply(e, ve, x), x), _distances(v_inverse_apply(vx), x)],
    }
    # per sample, each check of an axiom in turn
    worst = {axiom: max([0.0, *itertools.chain.from_iterable(zip(*values))]) for axiom, values in defects.items()}
    return EquivariantReport(worst, n_samples)


def central_part(rep: EquivariantRep) -> list[ModuleVector]:
    """Orthonormal basis of {z : rho(a) z = z . a for all a}.

    The defining equations are complex-linear in z, so the space is the null
    space of one stacked matrix over the matrix-unit spanning set of A;
    orthonormality is Gram-Schmidt over C after flattening (SVD basis).
    """
    A, n = rep.system.algebra, rep.rank
    coord_dim = n * A.total_dim
    cuts = np.cumsum([d * d for d in A.dims])[:-1]

    def unflatten(vec) -> ModuleVector:
        parts = np.split(vec.reshape(n, A.total_dim), cuts, axis=1)
        return ModuleVector._of(A, [p.reshape(n, d, d) for p, d in zip(parts, A.dims)])

    # columns are z-coordinates; one row block per spanning element a
    columns = []
    for i in range(coord_dim):
        e = np.zeros(coord_dim, dtype=complex)
        e[i] = 1.0
        z = unflatten(e)
        col = [(rep.rho(a)(z) - z.right(a)).flatten() for a in A.basis()]
        columns.append(np.concatenate(col))
    M = np.array(columns).T
    _, s, vh = np.linalg.svd(M)
    scale = max(1.0, float(s[0])) if len(s) else 1.0
    null = [i for i in range(vh.shape[0]) if i >= len(s) or s[i] <= ALG_TOL * scale]
    return [unflatten(vh[i].conj()) for i in null]

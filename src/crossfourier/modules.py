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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ALG_TOL, AlgElement, BlockAlgebra, adjoints, sum_from_zero
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

    def _act(self, g, x: ModuleVector, inverse: bool) -> ModuleVector:
        """action(g), or its inverse automorphism, applied to every entry of x (TwistedSystem.act_rows)."""
        acted = self.system.act_rows(self._twist(g)[1], np.zeros(x.rank, dtype=np.int64), x.blocks, inverse)
        return ModuleVector._of(x.algebra, acted)

    def v_apply(self, g, x: ModuleVector) -> ModuleVector:
        return self.vmatrix(g)(self._act(g, x, inverse=False))

    def v_inverse_apply(self, g, x: ModuleVector) -> ModuleVector:
        twist = self._twist(g)
        if twist[2] is None:
            twist[2] = twist[0].inverse()
        return self._act(g, twist[2](x), inverse=True)

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


def validate_equivariant(rep: EquivariantRep, rng=None) -> EquivariantReport:
    """Max violations of the four equivariance axioms on 40 random samples.

      (i)   rho(action(g)(a)) = v(g) rho(a) v(g)^{-1}
      (ii)  v(g) v(h) = ad_rho(cocycle(g, h)) v(gh)
      (iii) action(g)(<x, x'>) = <v(g) x, v(g) x'>
      (iv)  v(g)(x . a) = (v(g) x) . action(g)(a)

    plus v(e) acting as the identity.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    sys_, A, n = rep.system, rep.system.algebra, rep.rank
    grp = sys_.group
    worst = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0, "unit": 0.0}
    e = grp.identity()
    n_samples = 40
    for _ in range(n_samples):
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

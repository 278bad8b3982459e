"""Finitely generated Hilbert modules A^n and equivariant representations.

Vectors are n-tuples over the coefficient algebra with inner product
<x, y> = sum_i x_i* y_i (linear in the second variable) and right action
(x . a)_i = x_i a.  Operators are n x n matrices over A acting on column
vectors; the adjoint is the entrywise star of the transpose.

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

from .algebra import ALG_TOL, AlgElement, BlockAlgebra
from .system import TwistedSystem

MAX_RANK = 8


@dataclass(frozen=True, eq=False)
class ModuleVector:
    algebra: BlockAlgebra
    entries: tuple

    def __post_init__(self):
        if len(self.entries) > MAX_RANK:
            raise ValueError(f"module rank capped at {MAX_RANK}")
        for a in self.entries:
            if a.algebra != self.algebra:
                raise ValueError("entry algebra mismatch")

    @property
    def rank(self):
        return len(self.entries)

    def __add__(self, other):
        self._check(other)
        return ModuleVector(self.algebra, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return ModuleVector(self.algebra, tuple(scalar * a for a in self.entries))

    def right(self, a: AlgElement) -> "ModuleVector":
        """The module action x . a."""
        return ModuleVector(self.algebra, tuple(x * a for x in self.entries))

    def _check(self, other):
        if self.algebra != other.algebra or self.rank != other.rank:
            raise ValueError("module shape mismatch")

    def inner(self, other: "ModuleVector") -> AlgElement:
        """<x, y> = sum_i x_i* y_i."""
        self._check(other)
        total = self.algebra.zero()
        for a, b in zip(self.entries, other.entries):
            total = total + a.star() * b
        return total

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self).norm()))

    def flatten(self) -> np.ndarray:
        return np.concatenate([m.reshape(-1) for a in self.entries for m in a.blocks])


def basis_vector(algebra: BlockAlgebra, rank: int, i: int) -> ModuleVector:
    entries = [algebra.zero()] * rank
    entries[i] = algebra.unit()
    return ModuleVector(algebra, tuple(entries))


def random_vector(algebra: BlockAlgebra, rank: int, rng, scale: float = 1.0) -> ModuleVector:
    return ModuleVector(algebra, tuple(algebra.random_element(rng, scale) for _ in range(rank)))


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """n x n matrix over A acting on column vectors by left multiplication."""

    algebra: BlockAlgebra
    rows: tuple  # tuple of tuples of AlgElement

    @property
    def rank(self):
        return len(self.rows)

    @staticmethod
    def identity(algebra: BlockAlgebra, rank: int) -> "ModuleOperator":
        return ModuleOperator(
            algebra,
            tuple(
                tuple(algebra.unit() if i == j else algebra.zero() for j in range(rank))
                for i in range(rank)
            ),
        )

    @staticmethod
    def diagonal(algebra: BlockAlgebra, rank: int, a: AlgElement) -> "ModuleOperator":
        return ModuleOperator(
            algebra,
            tuple(
                tuple(a if i == j else algebra.zero() for j in range(rank))
                for i in range(rank)
            ),
        )

    @staticmethod
    def from_scalar_matrix(algebra: BlockAlgebra, mat: np.ndarray) -> "ModuleOperator":
        mat = np.asarray(mat, dtype=complex)
        return ModuleOperator(
            algebra,
            tuple(tuple(complex(mat[i, j]) * algebra.unit() for j in range(mat.shape[1])) for i in range(mat.shape[0])),
        )

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.rank != self.rank:
            raise ValueError("module shape mismatch")
        out = []
        for row in self.rows:
            acc = self.algebra.zero()
            for a, xj in zip(row, x.entries):
                acc = acc + a * xj
            out.append(acc)
        return ModuleVector(self.algebra, tuple(out))

    def adjoint(self) -> "ModuleOperator":
        n = self.rank
        return ModuleOperator(self.algebra, tuple(tuple(self.rows[j][i].star() for j in range(n)) for i in range(n)))

    def compose(self, other: "ModuleOperator") -> "ModuleOperator":
        n = self.rank
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.algebra.zero()
                for k in range(n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return ModuleOperator(self.algebra, tuple(rows))

    def _dense_blocks(self) -> list[np.ndarray]:
        """Per algebra block j, the (n d_j) x (n d_j) complex matrix."""
        n = self.rank
        out = []
        for bi, d in enumerate(self.algebra.dims):
            big = np.zeros((n * d, n * d), dtype=complex)
            for i in range(n):
                for j in range(n):
                    big[i * d : (i + 1) * d, j * d : (j + 1) * d] = self.rows[i][j].blocks[bi]
            out.append(big)
        return out

    def inverse(self) -> "ModuleOperator":
        """Inverse as a matrix over A, computed per algebra block."""
        n = self.rank
        inv_blocks = [np.linalg.inv(b) for b in self._dense_blocks()]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                blocks = []
                for bi, d in enumerate(self.algebra.dims):
                    blocks.append(inv_blocks[bi][i * d : (i + 1) * d, j * d : (j + 1) * d])
                row.append(self.algebra.element(blocks))
            rows.append(tuple(row))
        return ModuleOperator(self.algebra, tuple(rows))


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
        self._vcache: dict = {}

    def rho(self, a: AlgElement) -> ModuleOperator:
        return self._rho(a)

    def vmatrix(self, g) -> ModuleOperator:
        m = self._vcache.get(g)
        if m is None:
            m = self._vmatrix(g)
            self._vcache[g] = m
        return m

    def v_apply(self, g, x: ModuleVector) -> ModuleVector:
        twisted = ModuleVector(x.algebra, tuple(self.system.act(g, a) for a in x.entries))
        return self.vmatrix(g)(twisted)

    def v_inverse_apply(self, g, x: ModuleVector) -> ModuleVector:
        y = self.vmatrix(g).inverse()(x)
        return ModuleVector(x.algebra, tuple(self.system.act_inv(g, a) for a in y.entries))

    def ad_rho(self, u: AlgElement, x: ModuleVector) -> ModuleVector:
        """(rho(u) x) . u* for a unitary u."""
        return self.rho(u)(x).right(u.star())


def trivial_rep(system: TwistedSystem) -> EquivariantRep:
    """Left multiplication with the action itself, on the module A."""
    A = system.algebra

    def rho(a):
        return ModuleOperator(A, ((a,),))

    def vmatrix(g):
        return ModuleOperator.identity(A, 1)

    return EquivariantRep(system, 1, rho, vmatrix, tag="trivial")


def endomorphism_rep(system: TwistedSystem, beta: Callable) -> EquivariantRep:
    """(rho_beta, action) on A: rho_beta(a) is left multiplication by beta(a)."""
    A = system.algebra

    def rho(a):
        return ModuleOperator(A, ((beta(a),),))

    def vmatrix(g):
        return ModuleOperator.identity(A, 1)

    return EquivariantRep(system, 1, rho, vmatrix, tag="endomorphism")


def unitary_tensor_rep(system: TwistedSystem, urep: Callable, rank: int) -> EquivariantRep:
    """Diagonal left multiplication with v = (unitary group rep) tensor action.

    urep(g) must be a genuine rank x rank unitary representation of the group;
    scalar-matrix V_g entries commute with the cocycle values, which is what
    makes axiom (ii) hold for any cocycle.
    """
    A = system.algebra

    def rho(a):
        return ModuleOperator.diagonal(A, rank, a)

    def vmatrix(g):
        return ModuleOperator.from_scalar_matrix(A, urep(g))

    return EquivariantRep(system, rank, rho, vmatrix, tag="unitary-tensor")


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


def validate_equivariant(rep: EquivariantRep, n_samples: int = 40, rng=None) -> EquivariantReport:
    """Max violations of the four equivariance axioms on random samples.

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


def central_part(rep: EquivariantRep, tol: float = 1e-10) -> list[ModuleVector]:
    """Orthonormal basis of {z : rho(a) z = z . a for all a}.

    The defining equations are complex-linear in z, so the space is the null
    space of one stacked matrix over the matrix-unit spanning set of A;
    orthonormality is Gram-Schmidt over C after flattening (SVD basis).
    """
    A, n = rep.system.algebra, rep.rank
    coord_dim = n * A.total_dim

    def unflatten(vec) -> ModuleVector:
        entries = []
        k = 0
        for _ in range(n):
            blocks = []
            for d in A.dims:
                blocks.append(vec[k : k + d * d].reshape(d, d))
                k += d * d
            entries.append(A.element(blocks))
        return ModuleVector(A, tuple(entries))

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
    null = [i for i in range(vh.shape[0]) if i >= len(s) or s[i] <= tol * scale]
    return [unflatten(vh[i].conj()) for i in null]

"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is fixed by its ordered block dimensions (d_1, ..., d_k); the
commutative case C(X) with |X| = k is all-1 blocks.  Elements carry one
complex d_j x d_j matrix per block; the C*-norm is the maximum largest
singular value over blocks, which block SVD computes exactly at this scale.

Automorphisms are a permutation of equal-dimension blocks composed with a
per-block unitary conjugation; that is the full automorphism group of a
finite-dimensional C*-algebra, so nothing is lost by this representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Centralized tolerances: algebraic identities are checked to ALG_TOL,
# spectral quantities to SPECTRAL_RTOL (relative).
ALG_TOL = 1e-10
SPECTRAL_RTOL = 1e-9


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=complex)
    m.flags.writeable = False
    return m


class BlockAlgebra:
    """A = M_{d_1} + ... + M_{d_k} (direct sum)."""

    def __init__(self, dims: Iterable[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("block dimensions must be a nonempty list of ints >= 1")
        self.dims = dims
        self.rep_dim = sum(dims)          # dimension of the defining representation
        self.total_dim = sum(d * d for d in dims)
        self.is_commutative = all(d == 1 for d in dims)

    def __repr__(self):
        return f"BlockAlgebra{self.dims}"

    def __eq__(self, other):
        return isinstance(other, BlockAlgebra) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def element(self, blocks: Sequence) -> "AlgElement":
        if len(blocks) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} blocks, got {len(blocks)}")
        mats = []
        for d, b in zip(self.dims, blocks):
            m = np.atleast_2d(np.asarray(b, dtype=complex))
            if m.shape != (d, d):
                raise ValueError(f"block shape {m.shape} does not match dimension {d}")
            mats.append(_freeze(m))
        return AlgElement(self, tuple(mats))

    def scalar(self, values) -> "AlgElement":
        """Element c_j * 1 per block; for commutative A this is the generic element."""
        values = np.atleast_1d(np.asarray(values, dtype=complex))
        if values.size == 1:
            values = np.repeat(values, len(self.dims))
        if values.size != len(self.dims):
            raise ValueError("one scalar per block required")
        return self.element([c * np.eye(d) for c, d in zip(values, self.dims)])

    def zero(self) -> "AlgElement":
        return self.element([np.zeros((d, d)) for d in self.dims])

    def unit(self) -> "AlgElement":
        return self.element([np.eye(d) for d in self.dims])

    def basis(self) -> list["AlgElement"]:
        """Matrix units, a spanning set used by validators and solvers."""
        out = []
        for j, d in enumerate(self.dims):
            for r in range(d):
                for c in range(d):
                    blocks = [np.zeros((dk, dk)) for dk in self.dims]
                    blocks[j][r, c] = 1.0
                    out.append(self.element(blocks))
        return out

    def random_element(self, rng, scale: float = 1.0) -> "AlgElement":
        blocks = []
        for d in self.dims:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            blocks.append(scale * m / np.sqrt(2 * d))
        return self.element(blocks)

    def random_unitary(self, rng) -> "AlgElement":
        blocks = []
        for d in self.dims:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(m)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            blocks.append(q)
        return self.element(blocks)

    def random_selfadjoint(self, rng, scale: float = 1.0) -> "AlgElement":
        a = self.random_element(rng, scale)
        return 0.5 * (a + a.star())

    def to_wire(self, a: "AlgElement") -> list[list[float]]:
        """Row-major per-block entries, real and imaginary parts interleaved."""
        out = []
        for m in a.blocks:
            flat = []
            for z in m.reshape(-1):
                flat.extend([float(z.real), float(z.imag)])
            out.append(flat)
        return out

    def from_wire(self, data: Sequence[Sequence[float]]) -> "AlgElement":
        blocks = []
        for d, flat in zip(self.dims, data):
            arr = np.asarray(flat, dtype=float)
            if arr.size != 2 * d * d:
                raise ValueError(f"wire block has {arr.size} floats, expected {2 * d * d}")
            blocks.append((arr[0::2] + 1j * arr[1::2]).reshape(d, d))
        return self.element(blocks)


@dataclass(frozen=True, eq=False)
class AlgElement:
    """One complex matrix per block of its algebra; immutable."""

    algebra: BlockAlgebra
    blocks: tuple

    def _binary(self, other, op):
        if self.algebra != other.algebra:
            raise ValueError("algebra mismatch")
        return AlgElement(self.algebra, tuple(_freeze(op(x, y)) for x, y in zip(self.blocks, other.blocks)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return self._binary(other, np.matmul)
        return AlgElement(self.algebra, tuple(_freeze(other * x) for x in self.blocks))

    def __rmul__(self, scalar):
        return AlgElement(self.algebra, tuple(_freeze(scalar * x) for x in self.blocks))

    def __truediv__(self, scalar):
        return (1.0 / scalar) * self

    def star(self) -> "AlgElement":
        return AlgElement(self.algebra, tuple(_freeze(x.conj().T) for x in self.blocks))

    def norm(self) -> float:
        """C*-norm: max over blocks of the largest singular value."""
        return max(
            float(np.linalg.norm(x, 2)) if x.shape[0] > 1 else float(abs(x[0, 0]))
            for x in self.blocks
        )

    def is_zero(self, tol: float = 1e-14) -> bool:
        return self.norm() <= tol


@dataclass(frozen=True)
class Classification:
    selfadjoint: bool
    unitary: bool
    positive: bool
    projection: bool
    central: bool


def classify(a: AlgElement, tol: float = ALG_TOL) -> Classification:
    """Flags decided to `tol`; positivity via minimum eigenvalue >= -tol."""
    selfadjoint = (a - a.star()).norm() <= tol
    unit = a.algebra.unit()
    unitary = (a.star() * a - unit).norm() <= tol and (a * a.star() - unit).norm() <= tol
    positive = False
    if selfadjoint:
        mineig = min(
            float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) for m in a.blocks
        )
        positive = mineig >= -tol
    projection = selfadjoint and (a * a - a).norm() <= tol
    central = all(
        np.linalg.norm(m - (np.trace(m) / m.shape[0]) * np.eye(m.shape[0]), 2) <= tol
        for m in a.blocks
    )
    return Classification(selfadjoint, unitary, positive, projection, central)


class AlgAutomorphism:
    """Block permutation composed with per-block unitary conjugation.

    Output block k is U_k a_{perm[k]} U_k^*; perm may only relate blocks of
    identical dimension and every U_k must be unitary to 1e-10.
    """

    def __init__(self, algebra: BlockAlgebra, perm: Sequence[int], unitaries: Sequence[np.ndarray]):
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(len(algebra.dims))):
            raise ValueError("perm is not a permutation of the blocks")
        for k, p in enumerate(perm):
            if algebra.dims[k] != algebra.dims[p]:
                raise ValueError("permutation relates blocks of different dimension")
        mats = []
        for k, u in enumerate(unitaries):
            u = np.asarray(u, dtype=complex)
            d = algebra.dims[k]
            if u.shape != (d, d):
                raise ValueError("conjugator shape mismatch")
            if np.linalg.norm(u @ u.conj().T - np.eye(d), 2) > ALG_TOL:
                raise ValueError("conjugator is not unitary to 1e-10")
            mats.append(_freeze(u))
        self.algebra = algebra
        self.perm = perm
        self.unitaries = tuple(mats)
        self._inverse = None

    @staticmethod
    def identity(algebra: BlockAlgebra) -> "AlgAutomorphism":
        return AlgAutomorphism(algebra, range(len(algebra.dims)), [np.eye(d) for d in algebra.dims])

    @staticmethod
    def block_permutation(algebra: BlockAlgebra, perm: Sequence[int]) -> "AlgAutomorphism":
        return AlgAutomorphism(algebra, perm, [np.eye(algebra.dims[k]) for k in range(len(algebra.dims))])

    @staticmethod
    def conjugation(algebra: BlockAlgebra, unitaries: Sequence[np.ndarray]) -> "AlgAutomorphism":
        return AlgAutomorphism(algebra, range(len(algebra.dims)), unitaries)

    def __call__(self, a: AlgElement) -> AlgElement:
        if a.algebra != self.algebra:
            raise ValueError("algebra mismatch")
        blocks = [u @ a.blocks[p] @ u.conj().T for p, u in zip(self.perm, self.unitaries)]
        return self.algebra.element(blocks)

    def compose(self, other: "AlgAutomorphism") -> "AlgAutomorphism":
        """self after other: (self . other)(a) = self(other(a))."""
        perm = tuple(other.perm[p] for p in self.perm)
        unitaries = [u @ other.unitaries[p] for p, u in zip(self.perm, self.unitaries)]
        return AlgAutomorphism(self.algebra, perm, unitaries)

    def inverse(self) -> "AlgAutomorphism":
        """The inverse automorphism, built (and checked unitary) once per instance."""
        if self._inverse is None:
            n = len(self.perm)
            perm = [0] * n
            unitaries: list = [None] * n
            for k, p in enumerate(self.perm):
                perm[p] = k
                unitaries[p] = self.unitaries[k].conj().T
            self._inverse = AlgAutomorphism(self.algebra, perm, unitaries)
        return self._inverse

    def power(self, n: int) -> "AlgAutomorphism":
        base = self if n >= 0 else self.inverse()
        out = AlgAutomorphism.identity(self.algebra)
        for _ in range(abs(n)):
            out = base.compose(out)
        return out

    def is_identity(self, tol: float = ALG_TOL) -> bool:
        return all(
            p == k and np.linalg.norm(u - u[0, 0] * np.eye(u.shape[0]), 2) <= tol and abs(abs(u[0, 0]) - 1) <= tol
            for k, (p, u) in enumerate(zip(self.perm, self.unitaries))
        ) or self._acts_as_identity(tol)

    def _acts_as_identity(self, tol):
        return all((self(b) - b).norm() <= tol for b in self.algebra.basis())


class PointMap:
    """Unital *-endomorphism of a commutative algebra: pullback of a point map.

    Output coordinate k is the input coordinate point_map[k]; non-injective
    point maps give genuine (non-automorphic) endomorphisms.
    """

    def __init__(self, algebra: BlockAlgebra, point_map: Sequence[int]):
        if not algebra.is_commutative:
            raise ValueError("point maps need a commutative algebra")
        point_map = tuple(int(k) for k in point_map)
        if len(point_map) != len(algebra.dims) or any(not 0 <= k < len(algebra.dims) for k in point_map):
            raise ValueError("point map must send coordinates to coordinates")
        self.algebra = algebra
        self.point_map = point_map

    def __call__(self, a: AlgElement) -> AlgElement:
        if a.algebra != self.algebra:
            raise ValueError("algebra mismatch")
        return self.algebra.scalar([a.blocks[k][0, 0] for k in self.point_map])


class PointState:
    """Point evaluation on a commutative coordinate: multiplicative pure state."""

    def __init__(self, algebra: BlockAlgebra, index: int):
        if algebra.dims[index] != 1:
            raise ValueError("point evaluations live on 1-dimensional blocks")
        self.algebra = algebra
        self.index = index

    def __call__(self, a: AlgElement) -> complex:
        return complex(a.blocks[self.index][0, 0])


class VectorState:
    """omega(a) = <v, a_block v> for a unit vector v in one block."""

    def __init__(self, algebra: BlockAlgebra, block: int, vector: np.ndarray):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.size != algebra.dims[block]:
            raise ValueError("vector length must match the block dimension")
        n = np.linalg.norm(v)
        if abs(n - 1.0) > ALG_TOL:
            v = v / n
        self.algebra = algebra
        self.block = block
        self.vector = _freeze(v)

    def __call__(self, a: AlgElement) -> complex:
        return complex(self.vector.conj() @ a.blocks[self.block] @ self.vector)


def pure_states(algebra: BlockAlgebra, sample_budget: int = 5, rng=None) -> list:
    """All point evaluations on 1-dim blocks; sampled vector states elsewhere."""
    out: list = []
    for j, d in enumerate(algebra.dims):
        if d == 1:
            out.append(PointState(algebra, j))
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            for _ in range(sample_budget):
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                out.append(VectorState(algebra, j, v))
    return out


def state_norm(a: AlgElement, omega) -> float:
    """||a||_omega = omega(a* a)^(1/2)."""
    val = omega(a.star() * a)
    return float(np.sqrt(max(val.real, 0.0)))

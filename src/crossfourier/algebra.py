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

import math
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
        self._unit = None

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
        """The unit, built once per algebra (elements are immutable)."""
        if self._unit is None:
            self._unit = self.element([np.eye(d) for d in self.dims])
        return self._unit

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
        return self.element([x[0] for x in self.random_stack(rng, 1, scale)])

    def random_stack(self, rng, n: int, scale: float = 1.0) -> list:
        """n random elements as one (n, d_j, d_j) array per block, row i the i-th.

        Each element takes, block by block, d_j^2 standard normals for the
        real parts and d_j^2 for the imaginary parts, all from one draw, so the
        rows are the values of n random_element calls made in turn.
        """
        z = rng.normal(size=(n, 2 * self.total_dim))
        out, at = [], 0
        for d in self.dims:
            re, im = (z[:, at + k * d * d:at + (k + 1) * d * d].reshape(n, d, d) for k in (0, 1))
            out.append(scale * (re + 1j * im) / np.sqrt(2 * d))
            at += 2 * d * d
        return out

    def random_unitary(self, rng) -> "AlgElement":
        blocks = []
        for d in self.dims:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(m)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            blocks.append(q)
        return self.element(blocks)

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


def block_norm(m: np.ndarray) -> float:
    """Largest singular value of one block matrix; abs() of the entry for a 1 x 1 block.

    A block with a NaN entry gets NaN and one with an infinite entry inf, as
    in stacked_norms.
    """
    if m.shape[0] == 1:
        return float(abs(m[0, 0]))
    try:
        v = float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError:
        v = math.nan
    return v if v == v else float(np.abs(m).max())


def stacked_norms(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """AlgElement.norm of every row of a stacked element, bit for bit.

    A row with a NaN entry gets NaN and one with an infinite entry inf,
    where the SVD would fail or return NaN.
    """
    out = None
    for x in blocks:
        if x.shape[1] == 1:
            # the scalar abs() of AlgElement.norm; np.abs rounds differently
            v = np.hypot(x.real, x.imag).reshape(len(x))
        else:
            # np.linalg.norm(m, 2) is the largest of svd(m, compute_uv=False)
            finite = np.isfinite(x).all(axis=(1, 2))
            if finite.all():
                v = np.linalg.svd(x, compute_uv=False).max(axis=-1)
            else:
                v = np.abs(x).max(axis=(1, 2))
                if finite.any():
                    v[finite] = np.linalg.svd(x[finite], compute_uv=False).max(axis=-1)
        out = v if out is None else np.maximum(out, v)
    return out


def adjoints(x: np.ndarray) -> np.ndarray:
    """The adjoint of every matrix in a stacked block (the last two axes)."""
    return np.swapaxes(x, -1, -2).conj()


def sum_from_zero(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """zero + t_0 + t_1 + ... along `axis`, left to right as AlgElement sums run."""
    zero = np.zeros(terms.shape[:axis] + (1,) + terms.shape[axis + 1:], dtype=terms.dtype)
    return np.add.accumulate(np.concatenate([zero, terms], axis=axis), axis=axis).take(-1, axis=axis)


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
        """C*-norm: max over blocks of the largest singular value; NaN if any block's is NaN."""
        if len(self.blocks) == 1:
            return block_norm(self.blocks[0])
        norms = [block_norm(x) for x in self.blocks]
        # max() keeps an earlier value over a later NaN; the sum of norms is NaN iff one is
        total = sum(norms)
        return max(norms) if total == total else math.nan


@dataclass(frozen=True)
class Classification:
    selfadjoint: bool
    unitary: bool
    positive: bool
    projection: bool
    central: bool


def classify(a: AlgElement) -> Classification:
    """Flags decided to ALG_TOL; positivity via minimum eigenvalue >= -ALG_TOL."""
    selfadjoint = (a - a.star()).norm() <= ALG_TOL
    unit = a.algebra.unit()
    unitary = (a.star() * a - unit).norm() <= ALG_TOL and (a * a.star() - unit).norm() <= ALG_TOL
    positive = False
    if selfadjoint:
        mineig = min(
            float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) for m in a.blocks
        )
        positive = mineig >= -ALG_TOL
    projection = selfadjoint and (a * a - a).norm() <= ALG_TOL
    central = all(
        np.linalg.norm(m - (np.trace(m) / m.shape[0]) * np.eye(m.shape[0]), 2) <= ALG_TOL
        for m in a.blocks
    )
    return Classification(selfadjoint, unitary, positive, projection, central)


def _is_unitary(u: np.ndarray) -> bool:
    """Whether ||U U^* - 1||_2 <= ALG_TOL.

    ||X||_2 <= ||X||_F, so a Frobenius norm of at most half the tolerance
    accepts without the SVD of the spectral norm.  The half is a margin far
    wider than the rounding of either norm, so the Frobenius test accepts
    only what the spectral test accepts.
    """
    defect = u @ u.conj().T - np.eye(len(u))
    return np.linalg.norm(defect) <= 0.5 * ALG_TOL or not np.linalg.norm(defect, 2) > ALG_TOL


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
            if not _is_unitary(u):
                raise ValueError("conjugator is not unitary to 1e-10")
            mats.append(_freeze(u))
        self.algebra = algebra
        self.perm = perm
        self.unitaries = tuple(mats)
        # exactly the identity map, so applying it may be skipped
        self.exact_identity = perm == tuple(range(len(perm))) and all(
            np.array_equal(u, np.eye(len(u))) for u in mats)
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

    def is_identity(self) -> bool:
        """Acts as the identity to ALG_TOL, which for a block algebra is: fixes every block, scalar unitaries."""
        return all(
            p == k and np.linalg.norm(u - u[0, 0] * np.eye(u.shape[0]), 2) <= ALG_TOL
            and abs(abs(u[0, 0]) - 1) <= ALG_TOL
            for k, (p, u) in enumerate(zip(self.perm, self.unitaries))
        )


def stack_blocks(elements: Sequence[AlgElement]) -> list:
    """Nonempty elements as one (n, d_j, d_j) array per block j, element i in row i."""
    return [np.array(col) for col in zip(*(a.blocks for a in elements))]


class AutomorphismStack:
    """Automorphisms stacked for batched application to stacked elements.

    `apply(which, blocks)` puts automorphism which[i] applied to row i of
    `blocks` in row i: the block permutation of AlgAutomorphism.__call__
    followed by the same products (U a) U^*, one batched matmul per block,
    so every row is bit for bit the automorphism applied on its own.
    """

    def __init__(self, autos: Sequence[AlgAutomorphism]):
        self.perms = np.array([a.perm for a in autos])
        self.unitaries = [np.stack(col) for col in zip(*(a.unitaries for a in autos))]
        self._permutes = bool((self.perms != np.arange(self.perms.shape[-1])).any())

    def extend(self, autos: Sequence[AlgAutomorphism]):
        """Append more automorphisms after the present rows."""
        more = AutomorphismStack(autos)
        self.perms = np.concatenate([self.perms, more.perms])
        self.unitaries = [np.concatenate(p) for p in zip(self.unitaries, more.unitaries)]
        self._permutes = self._permutes or more._permutes

    def apply(self, which: np.ndarray, blocks: Sequence[np.ndarray]) -> list:
        perms = self.perms[which] if self._permutes else None
        out = []
        for k, table in enumerate(self.unitaries):
            x = blocks[k]  # every row keeps its own block k unless some automorphism permutes
            if perms is not None:
                x = np.empty_like(blocks[k])
                for j, b in enumerate(blocks):
                    if b.shape[1:] == x.shape[1:]:
                        chosen = perms[:, k] == j
                        x[chosen] = b[chosen]
            u = table[which]
            out.append(np.matmul(np.matmul(u, x), u.conj().transpose(0, 2, 1)))
        return out


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
    return state_root(omega(a.star() * a))


def state_root(value: complex) -> float:
    """omega(a* a)^(1/2) from the value omega(a* a), a negative real part (rounding) read as 0."""
    return float(np.sqrt(max(value.real, 0.0)))

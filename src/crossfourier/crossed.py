"""Arithmetic in the twisted convolution algebra and operator-norm bounds.

Elements are finitely supported A-valued functions on G over a fixed twisted
system.  The product and involution are forced by the generator relations
u_g a = action(g)(a) u_g and u_g u_h = cocycle(g, h) u_{gh}:

    (f1 * f2)(k) = sum_g f1(g) . action(g)(f2(g^{-1}k)) . cocycle(g, g^{-1}k)
    f*(h)        = action(h)( cocycle(h^{-1}, h)* . f(h^{-1})* )

Operator norms are bounded from below by compressing the regular
representation to a ball and from above by the l1 norm.  The compression
works in the A^G picture, where the operator attached to f has the A-valued
matrix entry action(h')^{-1}( f(h'h^{-1}) cocycle(h'h^{-1}, h) ) at (h', h);
realizing each entry in the defining representation of A gives a complex
matrix whose largest singular value is the compressed norm.  On finite
groups the full-radius compression is the exact reduced norm.

The compression is assembled in one pass, with one inverse action per row
and batched block products, and stored as a CSR matrix (CompressedRep.sparse);
CompressedRep.matrix is the dense array, built on demand.  Singular values
densify only below the dense SVD cutoff and run Lanczos on the CSR above it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .algebra import AlgElement
from .groups import LengthFunction, ball, ball_size, default_length, word_length
from .system import TwistedSystem

SUPPORT_TOL = 1e-14

# Dense SVD below this dimension, Lanczos (deterministic fixed start) above.
_DENSE_SVD_LIMIT = 600

# Default radius schedules stop before a dense compression passes 1 GiB
# (dimension 8192).  Explicit radii are not capped.
_DEFAULT_DENSE_BYTES = 1 << 30


class CcElement:
    """Finitely supported function G -> A over a twisted system.

    Stored values always have norm >= 1e-14, so the support is canonical.
    Instances are immutable; arithmetic returns new elements.
    """

    def __init__(self, system: TwistedSystem, coeffs: Mapping):
        self.system = system
        pruned = {}
        for g, a in coeffs.items():
            if a.algebra != system.algebra:
                raise ValueError("coefficient algebra does not match the system")
            if a.norm() >= SUPPORT_TOL:
                pruned[system.group.check(g)] = a
        self._coeffs = pruned

    # -- basic structure ------------------------------------------------------

    def support(self) -> list:
        return sorted(self._coeffs, key=self.system.group.sort_key)

    def items(self):
        return [(g, self._coeffs[g]) for g in self.support()]

    def coeff(self, g) -> AlgElement:
        """The coefficient at g; also the Fourier coefficient of the element.

        The expectation onto A is the g = e case.
        """
        return self._coeffs.get(g, self.system.algebra.zero())

    def expectation(self) -> AlgElement:
        return self.coeff(self.system.group.identity())

    def __len__(self):
        return len(self._coeffs)

    def __repr__(self):
        terms = ", ".join(f"{self.system.group.word(g)}" for g in self.support())
        return f"CcElement(supp=[{terms}])"

    # -- linear structure -------------------------------------------------------

    def _same_system(self, other: "CcElement"):
        if self.system is not other.system:
            raise ValueError("elements live over different systems")

    def __add__(self, other: "CcElement") -> "CcElement":
        self._same_system(other)
        out = dict(self._coeffs)
        for g, a in other._coeffs.items():
            out[g] = out[g] + a if g in out else a
        return CcElement(self.system, out)

    def __sub__(self, other: "CcElement") -> "CcElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "CcElement":
        return CcElement(self.system, {g: scalar * a for g, a in self._coeffs.items()})

    # -- twisted product and involution ------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, CcElement):
            return NotImplemented
        self._same_system(other)
        sys_, grp = self.system, self.system.group
        out: dict = {}
        for g, a in self._coeffs.items():
            act_g = sys_.action(g)
            for h, b in other._coeffs.items():
                k = grp.mul(g, h)
                term = a * act_g(b) * sys_.cocycle(g, h)
                out[k] = out[k] + term if k in out else term
        return CcElement(sys_, out)

    def star(self) -> "CcElement":
        sys_, grp = self.system, self.system.group
        out = {}
        for g, a in self._coeffs.items():
            ginv = grp.inv(g)
            out[ginv] = sys_.act(ginv, sys_.cocycle(g, ginv).star() * a.star())
        return CcElement(sys_, out)

    # -- norms ---------------------------------------------------------------------

    def norm_l1(self) -> float:
        return sum(a.norm() for a in self._coeffs.values())

    def norm_linf(self) -> float:
        return max((a.norm() for a in self._coeffs.values()), default=0.0)

    def gram(self) -> AlgElement:
        """sum_g action(g)^{-1}(f(g)* f(g)), the module inner product <f, f>."""
        total = self.system.algebra.zero()
        for g, a in self._coeffs.items():
            total = total + self.system.act_inv(g, a.star() * a)
        return total

    def module_norm(self) -> float:
        """|| sum_g action(g)^{-1}(f(g)* f(g)) ||^{1/2}."""
        return float(np.sqrt(self.gram().norm()))

    def _weights(self, weight) -> dict:
        """{g: weight(g)} over the support; raises where the weight drops below 1."""
        out = {}
        for g in self._coeffs:
            w = float(weight(g))
            if w < 1.0 - 1e-12:
                raise ValueError(f"weight below 1 at support point {self.system.group.word(g)}")
            out[g] = w
        return out

    def weighted_l2_norm(self, weight) -> float:
        w = self._weights(weight)
        return float(np.sqrt(sum((w[g] ** 2) * a.norm() ** 2 for g, a in self._coeffs.items())))

    def weighted_module_norm(self, weight) -> float:
        w = self._weights(weight)
        return CcElement(self.system, {g: w[g] * a for g, a in self._coeffs.items()}).module_norm()


def delta(system: TwistedSystem, g=None, a: AlgElement | None = None) -> CcElement:
    """a at the single point g (defaults: the unit at the identity)."""
    if g is None:
        g = system.group.identity()
    if a is None:
        a = system.algebra.unit()
    return CcElement(system, {g: a})


def cc_unit(system: TwistedSystem) -> CcElement:
    return delta(system)


def cc_zero(system: TwistedSystem) -> CcElement:
    return CcElement(system, {})


def random_cc(system: TwistedSystem, support: Iterable, rng, scale: float = 1.0) -> CcElement:
    return CcElement(system, {g: system.algebra.random_element(rng, scale) for g in support})


def random_cc_in(system: TwistedSystem, pool: list, max_size: int, rng) -> CcElement:
    """random_cc on 1 to max_size distinct points drawn from pool."""
    size = 1 + int(rng.integers(min(max_size, len(pool))))
    idx = rng.choice(len(pool), size=size, replace=False)
    return random_cc(system, [pool[i] for i in idx], rng)


# -- compressed regular representation ---------------------------------------------


def _top_singular(matrix: scipy.sparse.csr_matrix, vectors: bool):
    """(largest singular value, its right singular vector or None).

    Dense SVD of matrix.toarray() up to _DENSE_SVD_LIMIT, Lanczos on the
    sparse matrix from a fixed start above it.
    """
    n = matrix.shape[0]
    if n <= _DENSE_SVD_LIMIT:
        out = np.linalg.svd(matrix.toarray(), compute_uv=vectors)
    else:
        v0 = np.ones(n) / np.sqrt(n)
        out = scipy.sparse.linalg.svds(matrix, k=1, v0=v0, return_singular_vectors=vectors, maxiter=5000)
    if not vectors:
        return float(out[0]), None
    _, s, vh = out
    return float(s[0]), vh[0].conj()


def largest_singular_value(matrix: scipy.sparse.csr_matrix) -> float:
    """Largest singular value; deterministic (fixed Lanczos start above the dense cutoff)."""
    if matrix.shape[0] == 0:
        return 0.0
    return _top_singular(matrix, vectors=False)[0]


@dataclass(frozen=True)
class CompressedRep:
    """P_R Lambda(f) P_R realized as a complex matrix over ball(R) x rep(A).

    The matrix is stored sparse; `matrix` is its dense array, built on first use.
    """

    system: TwistedSystem
    radius: float
    length: LengthFunction
    index: tuple
    sparse: scipy.sparse.csr_matrix

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.sparse.toarray()

    def largest_singular_value(self) -> float:
        return largest_singular_value(self.sparse)

    def top_singular_vector(self) -> np.ndarray:
        """Right singular vector of the top singular value (for witness extraction)."""
        return _top_singular(self.sparse, vectors=True)[1]


def compression_matrix(f: CcElement, R: float, length: LengthFunction | None = None) -> CompressedRep:
    """Compression of the regular representation of f to the ball of radius R.

    Index order is the deterministic ball order, so matrices are reproducible
    bit for bit.  The A-valued entry at (h', h) is
    action(h')^{-1}( f(h'h^{-1}) cocycle(h'h^{-1}, h) ) for h'h^{-1} in supp(f).
    """
    system = f.system
    if length is None:
        length = default_length(system.group)
    idx = ball(R, length)
    if not idx:
        raise ValueError("empty ball")
    pos = {g: i for i, g in enumerate(idx)}
    grp, dims = system.group, system.algebra.dims
    items = f.items()
    # one (row, column, support index, cocycle) per nonzero block; (h', h)
    # fixes g = h'h^{-1}, so no block gets two contributions
    rows, cols, terms, sigmas = [], [], [], []
    for c, h in enumerate(idx):
        for t, (g, _) in enumerate(items):
            r = pos.get(grp.mul(g, h))
            if r is not None:
                rows.append(r)
                cols.append(c)
                terms.append(t)
                sigmas.append(system.cocycle(g, h))
    D = system.algebra.rep_dim
    shape = (len(idx) * D, len(idx) * D)
    if not rows:
        return CompressedRep(system, R, length, tuple(idx), scipy.sparse.csr_matrix(shape, dtype=complex))
    rows, cols = np.array(rows), np.array(cols)
    distinct, row_of = np.unique(rows, return_inverse=True)
    inverses = [system.action(idx[r]).inverse() for r in distinct]
    perms = np.array([inv.perm for inv in inverses])[row_of]
    # a . cocycle per source block, one matmul over all contributions
    products = [
        np.matmul(np.stack([a.blocks[j] for _, a in items])[terms], np.stack([s.blocks[j] for s in sigmas]))
        for j in range(len(dims))
    ]
    coo_rows, coo_cols, coo_data = [], [], []
    offset = 0
    for k, d in enumerate(dims):
        x = np.empty_like(products[k])
        for j, dj in enumerate(dims):
            if dj == d:
                chosen = perms[:, k] == j
                x[chosen] = products[j][chosen]
        u = np.stack([inv.unitaries[k] for inv in inverses])[row_of]
        y = np.matmul(np.matmul(u, x), u.conj().transpose(0, 2, 1))
        i, j = np.indices((d, d))
        coo_rows.append((rows[:, None, None] * D + offset + i).ravel())
        coo_cols.append((cols[:, None, None] * D + offset + j).ravel())
        coo_data.append(y.ravel())
        offset += d
    # adding to 0 turns -0.0 parts into +0.0, as filling a zeroed dense matrix did
    data = np.concatenate(coo_data) + 0j
    sparse = scipy.sparse.csr_matrix((data, (np.concatenate(coo_rows), np.concatenate(coo_cols))), shape=shape)
    sparse.eliminate_zeros()
    return CompressedRep(system, R, length, tuple(idx), sparse)


def full_radius(system: TwistedSystem) -> float:
    """Radius covering a whole finite group under its word length."""
    L = word_length(system.group)
    return max(L(g) for g in system.group.elements())


def default_radii(system: TwistedSystem, infinite: Iterable[float], length: LengthFunction | None = None) -> list:
    """The radius schedule of a caller that was given none.

    Finite groups get the full radius, where the compression is exact.
    Infinite groups get the caller's radii in order, up to the first whose
    dense compression ((|ball| * rep_dim)^2 complex entries) would pass
    _DEFAULT_DENSE_BYTES.  Ball sizes are counted (ball_size), so the
    default lengths enumerate no ball here.
    """
    if system.group.is_finite:
        return [full_radius(system)]
    if length is None:
        length = default_length(system.group)
    out = []
    for R in infinite:
        if 16 * (ball_size(R, length) * system.algebra.rep_dim) ** 2 > _DEFAULT_DENSE_BYTES:
            break
        out.append(R)
    if not out:
        raise ValueError("every default radius exceeds the dense compression cap; give radii explicitly")
    return out


@dataclass(frozen=True)
class OpnormBounds:
    lower: float
    upper: float
    trace: tuple  # ((R, largest singular value), ...)

    def as_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper,
                "trace": [{"radius": r, "lower": s} for r, s in self.trace]}


def opnorm_bounds(
    f: CcElement,
    R_schedule: Iterable[float] | None = None,
    length: LengthFunction | None = None,
) -> OpnormBounds:
    """Certified operator-norm bounds for the regular representation of f.

    lower: largest singular value of the compression, maximized over the
    schedule (nondecreasing in R; exact on finite groups at full radius).
    upper: the l1 norm.

    Without a schedule, finite groups use the full radius and infinite
    groups R = 4, 8, 16, 32, cut before the first radius whose dense
    compression would pass 1 GiB (so F2 gets [4], Z^3 gets [4, 8, 16]).
    """
    if length is None:
        length = default_length(f.system.group)
    if R_schedule is None:
        R_schedule = default_radii(f.system, [4, 8, 16, 32], length)
    R_schedule = list(R_schedule)
    if not R_schedule:
        raise ValueError("empty radius schedule")
    trace = []
    for R in R_schedule:
        trace.append((float(R), compression_matrix(f, R, length).largest_singular_value()))
    lower = max(s for _, s in trace)
    return OpnormBounds(lower, f.norm_l1(), tuple(trace))


def exact_norm_finite(f: CcElement) -> float:
    """Exact reduced norm on a finite group via the full regular representation."""
    if not f.system.group.is_finite:
        raise ValueError("exact norms are only available on finite groups")
    return compression_matrix(f, full_radius(f.system), word_length(f.system.group)).largest_singular_value()

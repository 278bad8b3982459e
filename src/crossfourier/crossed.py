"""Arithmetic in the twisted convolution algebra and operator-norm bounds.

Elements are finitely supported A-valued functions on G over a fixed twisted
system.  The product and involution are forced by the generator relations
u_g a = action(g)(a) u_g and u_g u_h = cocycle(g, h) u_{gh}:

    (f1 * f2)(k) = sum_g f1(g) . action(g)(f2(g^{-1}k)) . cocycle(g, g^{-1}k)
    f*(h)        = action(h)( cocycle(h^{-1}, h)* . f(h^{-1})* )

An element is stored packed: its support points in insertion order, their
codes in the system's coded group and one read-only (n, d_j, d_j) complex
array per algebra block j, row i the coefficient at the i-th point; its
{g: row} index and row norms are built on first use.  The product is one
batched pair kernel on codes (pair_sum): the pairs (g, h), g-major, are
multiplied as one code array, their products numbered in first-seen order,
the coefficients, cocycles and actions gathered from the system's tables,
each term formed by batched matmuls and added to its product in pair order;
only the distinct products are decoded into group elements.

The kernel takes a batch of independent couples (f1, f2), as a list of
first and a list of second factors, and runs it in one pass, the products numbered by (couple, code) so that each couple keeps its
own pairs, order and points (products, decay.regular_applies); stars, sums
and differences batch the same way.  f1 * f2, f.star(), f + g and f - g are
batches of one, and a sampling experiment forms each stage of a chunk of
samples in one call.  Every result is bit for bit the per-coefficient
AlgElement arithmetic in the same order, except where an identity action is
skipped (TwistedSystem.act_rows, when the action is the identity at every
point of the batch): there a zero may change sign, and a coefficient with an
inf or NaN entry keeps finite entries where the AlgElement arithmetic makes
the whole block NaN (its norm is NaN both ways).

Operator norms are bounded from below by compressing the regular
representation to a ball and from above by the l1 norm.  The compression
works in the A^G picture, where the operator attached to f has the A-valued
matrix entry action(h')^{-1}( f(h'h^{-1}) cocycle(h'h^{-1}, h) ) at (h', h);
realizing each entry in the defining representation of A gives a complex
matrix whose largest singular value is the compressed norm.  On finite
groups the full-radius compression is the exact reduced norm.

The compression is assembled in one pass from a CompressionPlan, kept by
the system per (radius, length tag): the ball, which translates itself by
a support point g into the row of every g h (Ball.translate), the inverse
actions of its points, and per support point g the rows, columns and
cocycle rows of its entries.  Every element compressed at one radius
reuses what the ones before it built.  The result is a CSR matrix
(CompressedRep.sparse; .matrix is the dense array, built on demand).
Singular values densify only up to the dense SVD cutoff (300).  Above it a
plain Lanczos loop runs on x -> M^H (M x) (the CSR and its adjoint, in real
arithmetic on a real compression) from the fixed start ones / sqrt(n).  It
never restarts and stores no Krylov basis: a first pass keeps only the
tridiagonal coefficients until the top Ritz pair passes ARPACK's test at
1e-8 (about sqrt(eps)), and a second pass replays the same recurrence to sum
the Ritz vector v.  v is accepted only if its explicit residual is at most
1e-8 rho ||v||, and the value returned is ||M v|| / ||v||: a lower bound
with its own witness, below the top singular value by at most the
Kato-Temple term ||r||^2 / (rho - sigma_2^2), which is of order eps over the
relative gap.  So a full-radius value on a finite group above 300 dimensions
is the exact norm up to that term.  Past the step cap, or when the residual
check fails, the dense SVD runs if the matrix fits in 1 GiB.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .algebra import AlgElement, AutomorphismStack, adjoints, stack_blocks, stacked_norms, sum_from_zero
from .groups import LengthFunction, Numbering, ball, ball_size, default_length, word_length
from .system import TwistedSystem

SUPPORT_TOL = 1e-14

# Dense SVD up to this dimension, Lanczos (deterministic fixed start) above.
# Past about 300 Lanczos on the sparse compressions is the faster of the two;
# every compression of the benchmark's experiment configs (161 at most) stays
# dense.
_DENSE_SVD_LIMIT = 300

# Lanczos stops once the estimated residual |beta_j s_j| of its top Ritz pair
# is at most this times the Ritz value, and its Ritz vector v is accepted once
# the explicit residual r = M^H M v - rho v has ||r|| <= this * rho * ||v||;
# about sqrt(eps).  The value needs no more: by Kato-Temple, sigma_1^2 - rho
# <= ||r||^2 / (rho - sigma_2^2), so the Ritz value is off by about eps * rho
# over the relative gap, and whatever the gap, rho = ||M v||^2 / ||v||^2 is a
# lower bound witnessed by v.
_LANCZOS_TOL = 1e-8

# Lanczos gives up after this many steps, about twice as many operator
# applications counting the second pass, and the dense fallback runs.
_LANCZOS_STEPS = 20_000

# Default radius schedules stop before a dense compression passes 1 GiB
# (dimension 8192).  Explicit radii are not capped.
_DEFAULT_DENSE_BYTES = 1 << 30


class CcElement:
    """Finitely supported function G -> A over a twisted system.

    Stored packed: the support points in insertion order, their codes and
    one read-only (n, d_j, d_j) array per algebra block j whose row i is the
    coefficient at points[i]; all arithmetic runs on these arrays.  An
    element built from a mapping keeps the given AlgElements and their norms,
    stacks them and encodes its points on first use; one built by arithmetic
    (or random_cc) comes with its stack, often views of a batch's arrays, and
    makes its row AlgElements (views of the stack), its {g: row} index and
    its row norms on first use.  A value of norm < 1e-14 is never stored, so
    the support is canonical; one whose norm is NaN is kept, so overflow
    propagates instead of vanishing.  Instances are immutable; arithmetic
    returns new elements.
    """

    def __init__(self, system: TwistedSystem, coeffs: Mapping):
        points, values, norms = [], [], []
        for g, a in coeffs.items():
            if a.algebra != system.algebra:
                raise ValueError("coefficient algebra does not match the system")
            norm = a.norm()
            if not norm < SUPPORT_TOL:
                points.append(system.group.check(g))
                values.append(a)
                norms.append(norm)
        self._store(system, points, norms, coefficients=values)

    def _store(self, system, points: list, norms: list | None = None, blocks: list | None = None,
               coefficients: list | None = None, codes: np.ndarray | None = None):
        """Set the state; at least one of blocks (read-only) and coefficients is given when points are."""
        self.system = system
        self._points = points
        self._code_array = codes            # or None until _codes encodes the points
        self._row_index = None              # {g: row}, on first use
        self._norm_list = norms             # AlgElement.norm of each row, or None until first read
        self._stack = blocks                # or None until _blocks stacks the coefficients
        self._coefficients = coefficients   # row AlgElements, or None until first use
        self._order = None                  # rows in support order, on first use

    # -- basic structure ------------------------------------------------------

    @property
    def _rows(self) -> dict:
        if self._row_index is None:
            self._row_index = {g: i for i, g in enumerate(self._points)}
        return self._row_index

    @property
    def _norms(self) -> list:
        """AlgElement.norm of each row (stacked_norms, bit for bit)."""
        if self._norm_list is None:
            self._norm_list = stacked_norms(self._blocks).tolist() if self._points else []
        return self._norm_list

    @property
    def _blocks(self) -> list:
        """One read-only (n, d_j, d_j) array per block, row i the coefficient at points[i]."""
        if self._stack is None:
            if self._coefficients:
                self._stack = stack_blocks(self._coefficients)
            else:
                self._stack = _no_blocks(self.system)
            for x in self._stack:
                x.flags.writeable = False
        return self._stack

    def _codes(self) -> np.ndarray:
        """The code of each point in the system's coded group."""
        if self._code_array is None:
            self._code_array = self.system.coded.encode(self._points)
        return self._code_array

    def _sorted_rows(self) -> list:
        if self._order is None:
            keys = list(map(self.system.group.sort_key, self._points))
            self._order = sorted(range(len(keys)), key=keys.__getitem__)
        return self._order

    def _row_elements(self) -> list:
        """The coefficient of each row as an AlgElement, built once."""
        if self._coefficients is None:
            algebra = self.system.algebra
            self._coefficients = [AlgElement(algebra, row) for row in zip(*self._blocks)]
        return self._coefficients

    def support(self) -> list:
        return [self._points[i] for i in self._sorted_rows()]

    def items(self) -> list:
        """(g, f(g)) in support order."""
        coeffs = self._row_elements()
        return [(self._points[i], coeffs[i]) for i in self._sorted_rows()]

    def coeff(self, g) -> AlgElement:
        """The coefficient at g; also the Fourier coefficient of the element.

        The expectation onto A is the g = e case.
        """
        i = self._rows.get(g)
        return self.system.algebra.zero() if i is None else self._row_elements()[i]

    def expectation(self) -> AlgElement:
        return self.coeff(self.system.group.identity())

    def __len__(self):
        return len(self._points)

    def __repr__(self):
        terms = ", ".join(f"{self.system.group.word(g)}" for g in self.support())
        return f"CcElement(supp=[{terms}])"

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "CcElement") -> "CcElement":
        return sums([self], [other])[0]

    def __sub__(self, other: "CcElement") -> "CcElement":
        return differences([self], [other])[0]

    def __rmul__(self, scalar) -> "CcElement":
        return _packed(self.system, self._points, [scalar * x for x in self._blocks], self._code_array)

    # -- twisted product and involution ------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, CcElement):
            return NotImplemented
        return products([self], [other])[0]

    def star(self) -> "CcElement":
        return stars([self])[0]

    # -- norms ---------------------------------------------------------------------

    def norm_l1(self) -> float:
        return sum(self._norms)

    def norm_linf(self) -> float:
        """The largest coefficient norm; NaN if any is (max() would keep an earlier value over it)."""
        total = self.norm_l1()
        return max(self._norms, default=0.0) if total == total else math.nan

    def gram(self) -> AlgElement:
        """sum_g action(g)^{-1}(f(g)* f(g)), the module inner product <f, f>."""
        x = [np.matmul(adjoints(a), a) for a in self._blocks]
        acted = self.system.act_rows(self._codes(), np.arange(len(self)), x, inverse=True)
        return self.system.algebra.element([sum_from_zero(y) for y in acted])

    def module_norm(self) -> float:
        """|| sum_g action(g)^{-1}(f(g)* f(g)) ||^{1/2}."""
        return float(np.sqrt(self.gram().norm()))

    def _weights(self, weight) -> list:
        """weight(g) for each row.

        Raises ValueError naming the support point where the weight drops
        below 1, or where weight(g) ||f(g)|| squared, which both weighted
        norms form, overflows a float.
        """
        out = []
        for g, norm in zip(self._points, self._norms):
            try:
                w = float(weight(g))
            except OverflowError:
                w = math.inf
            if w < 1.0 - 1e-12:
                raise ValueError(f"weight below 1 at support point {self.system.group.word(g)}")
            scaled = w * norm
            if not math.isfinite(scaled * scaled):
                raise ValueError(f"weighted coefficient overflows at support point {self.system.group.word(g)}")
            out.append(w)
        return out

    def weighted_l2_norm(self, weight) -> float:
        w = self._weights(weight)
        return float(np.sqrt(sum((wg ** 2) * norm ** 2 for wg, norm in zip(w, self._norms))))

    def weighted_module_norm(self, weight) -> float:
        w = np.array(self._weights(weight))
        return _packed(self.system, self._points, [w[:, None, None] * x for x in self._blocks]).module_norm()


def _no_blocks(system: TwistedSystem) -> list:
    return [np.empty((0, d, d), dtype=complex) for d in system.algebra.dims]


def _packed(system: TwistedSystem, points: list, blocks: list, codes: np.ndarray | None = None) -> CcElement:
    """The element with row i of `blocks` at points[i] (distinct, canonical, coded codes[i] if given),
    rows of norm < 1e-14 dropped."""
    return _packed_many(system, points, blocks, codes, [len(points)])[0]


def _dropped(blocks: list) -> np.ndarray | None:
    """Which rows have a norm (AlgElement.norm) below SUPPORT_TOL, or None if no row has.

    The norm of a 1 x 1 block is its hypot, that of a larger block at least
    its largest entry, so the SVD of stacked_norms decides only the rows
    whose largest entry is below twice the tolerance.  A row with a NaN
    entry has a NaN bound and norm, and is kept.
    """
    bound = None
    for x in blocks:
        if x.shape[1] == 1:
            v = np.hypot(x.real, x.imag).reshape(len(x))
        else:
            v = np.maximum.reduce(np.abs(x).reshape(len(x), -1), axis=1)
        bound = v if bound is None else np.maximum(bound, v)
    low = bound < 2 * SUPPORT_TOL
    if not np.count_nonzero(low):
        return None
    low[low] = stacked_norms([x[low] for x in blocks]) < SUPPORT_TOL
    return low if np.count_nonzero(low) else None


def _packed_many(system: TwistedSystem, points: list, blocks: list, codes: np.ndarray | None,
                 counts: list) -> list:
    """_packed on consecutive runs of rows: the c-th element takes the next counts[c] rows.

    Rows are pruned in one pass over all of them; the elements' blocks are
    read-only views of the shared arrays, and their norms are computed on
    first read.
    """
    drop = _dropped(blocks) if points else None
    if drop is not None:
        keep = ~drop
        counts = np.bincount(np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts)).tolist()
        points = list(itertools.compress(points, keep.tolist()))
        blocks = [b[keep] for b in blocks]
        codes = None if codes is None else codes[keep]
    for b in blocks:
        b.flags.writeable = False
    if len(counts) == 1:
        f = CcElement.__new__(CcElement)
        f._store(system, points, blocks=blocks, codes=codes)
        return [f]
    out, lo = [], 0
    for hi in itertools.accumulate(counts):
        f = CcElement.__new__(CcElement)
        f._store(system, points[lo:hi], blocks=[b[lo:hi] for b in blocks],
                 codes=None if codes is None else codes[lo:hi])
        out.append(f)
        lo = hi
    return out


def _system_of(elements) -> TwistedSystem:
    system = elements[0].system
    if any(f.system is not system for f in elements):
        raise ValueError("elements live over different systems")
    return system


def _gathered(elements, coded, support_order: bool = False) -> tuple:
    """(codes, blocks, rows) of a list of elements, concatenated in turn.

    codes: every element's points coded in `coded`, each element's in
    insertion order, or in support order when asked; blocks: their
    coefficient arrays, concatenated (a fresh copy unless there is one
    element, whose read-only arrays they are); rows: the row of each code in
    blocks, or None in insertion order, where it is the position.
    """
    codes = [f._codes() if f.system.coded is coded else coded.encode(f._points) for f in elements]
    if len(elements) == 1:
        codes, blocks = codes[0], elements[0]._blocks
    else:
        codes, blocks = np.concatenate(codes), [np.concatenate(col) for col in zip(*(f._blocks for f in elements))]
    if not support_order:
        return codes, blocks, None
    starts = itertools.accumulate((len(f) for f in elements), initial=0)
    rows = np.concatenate([np.array(f._sorted_rows(), dtype=np.int64) + k for f, k in zip(elements, starts)])
    return codes[rows], blocks, rows


def _pair_indices(n1: list, n2: list) -> tuple:
    """(couple, left, right) of the pairs of couples with supports of sizes n1[c] x n2[c]:
    couple after couple, g-major, left and right indexing the concatenated supports.
    couple is None for a single couple."""
    if len(n1) == 1:
        return (None,) + np.divmod(np.arange(n1[0] * n2[0]), n2[0])
    sizes = np.multiply(n1, n2)
    couple = np.repeat(np.arange(len(n1)), sizes)
    left, right = np.divmod(np.arange(len(couple)) - np.repeat(np.cumsum(sizes) - sizes, sizes),
                            np.repeat(n2, sizes))
    left += np.repeat(np.cumsum(n1) - n1, sizes)
    right += np.repeat(np.cumsum(n2) - n2, sizes)
    return couple, left, right


def _numbered(couple: np.ndarray | None, codes: np.ndarray, n: int) -> tuple:
    """(at, first, counts) for the keys (couple[i], codes[i]) of a batch of n couples (codes[i] for couple None).

    at numbers the distinct keys in first-seen order; first marks the entry
    where each number is first seen, which is the entry whose number passes
    every earlier one; counts[c] is the number of distinct keys of couple c.
    Codes may take 62 bits, so a key is the couple and the rank of its code
    among the distinct codes, never the two packed into one int.
    """
    keys = Numbering()
    if couple is None:
        at = keys.many(codes)
    else:
        _, rank = np.unique(codes, return_inverse=True)
        at = keys.many(couple * (int(rank.max()) + 1) + rank)
    first = np.empty(len(at), dtype=bool)
    first[0], first[1:] = True, at[1:] > np.maximum.accumulate(at)[:-1]
    counts = [len(keys.items)] if couple is None else np.bincount(couple[first], minlength=n).tolist()
    return at, first, counts


def _summed(terms: list, at: np.ndarray, first: np.ndarray) -> list:
    """Row k: the terms numbered k added in position order, starting from the first,
    as out[k] = out[k] + term adds them (np.add.at adds in index order)."""
    sums = [t[first] for t in terms]
    if len(sums[0]) < len(at):  # some number has a later entry
        later = ~first
        for s, t in zip(sums, terms):
            np.add.at(s, at[later], t[later])
    return sums


class Pairs(NamedTuple):
    """The pairs (g, h) of a batch of couples (f1, f2), couple after couple, one entry per pair."""

    system: TwistedSystem
    a: list             # f1(g), one stacked array per block
    b: list             # f2(h)
    sigma: list         # cocycle(g, h)
    left_codes: np.ndarray  # the codes of every supp f1 in pair order ...
    left: np.ndarray    # ... and each pair's g as an index into them
    codes: np.ndarray   # the codes of the products gh in first-seen order ...
    at: np.ndarray      # ... and each pair's gh as an index into them


def pair_sum(firsts: list, seconds: list, terms: Callable[[Pairs], list], support_order: bool = False) -> list:
    """For each couple (f1, f2) = (firsts[c], seconds[c]), the element k -> sum over its pairs
    (g, h) with gh = k of terms(pairs).

    One pass serves the whole batch: the codes and blocks of every couple are
    concatenated, and the gathers, the cocycle and action rows, the matmuls
    of `terms` and the sums run once over all pairs.  Each couple keeps its
    own order: its pairs run over supp f1 x supp f2, g-major, each support in
    insertion order, or in support order when asked; its terms at a point are
    added in pair order starting from the first, as out[k] = out[k] + term
    adds them; its points are its products in first-seen order.  So every
    element is the one a batch of one gives, bit for bit, except that an
    identity action is skipped only when every action in the batch is the
    identity (TwistedSystem.act_rows).  Products are numbered by (couple,
    code), so couples never share a point.  Every f1 lives over one system;
    an f2 may live over another system on an equal group, and its points are
    then coded in f1's.
    """
    if len(firsts) != len(seconds):
        raise ValueError("a batch needs as many second factors as first ones")
    if not firsts:
        return []
    system = _system_of(firsts)
    coded = system.coded
    n1, n2 = [len(f) for f in firsts], [len(f) for f in seconds]
    if not any(map(int.__mul__, n1, n2)):
        return _packed_many(system, [], _no_blocks(system), None, [0] * len(firsts))
    codes1, blocks1, rows1 = _gathered(firsts, coded, support_order)
    codes2, blocks2, rows2 = _gathered(seconds, coded, support_order)
    couple, left, right = _pair_indices(n1, n2)
    g, h = codes1[left], codes2[right]
    gh = coded.mul(g, h)
    at, first, counts = _numbered(couple, gh, len(firsts))
    codes = gh[first]
    a = [x[left if rows1 is None else rows1[left]] for x in blocks1]
    b = [x[right if rows2 is None else rows2[right]] for x in blocks2]
    sigma = system.cocycle_blocks(system.cocycle_rows(g, h))
    sums = _summed(terms(Pairs(system, a, b, sigma, codes1, left, codes, at)), at, first)
    return _packed_many(system, coded.decode(codes), sums, codes, counts)


def _product_terms(pairs: Pairs) -> list:
    """f1(g) . action(g)(f2(h)) . cocycle(g, h) for each pair."""
    acted = pairs.system.act_rows(pairs.left_codes, pairs.left, pairs.b)
    return [np.matmul(np.matmul(x, y), s) for x, y, s in zip(pairs.a, acted, pairs.sigma)]


def products(firsts: list, seconds: list) -> list:
    """firsts[c] * seconds[c] for each c, elements of one system, in one pair_sum pass."""
    if firsts and seconds:
        _system_of([firsts[0], *seconds])
    return pair_sum(firsts, seconds, _product_terms)


def stars(elements: list) -> list:
    """f* for each element of one system, in one pass over all their rows.

    As in pair_sum, the action is skipped only when it is the identity at
    every point of the batch.
    """
    if not elements:
        return []
    system = _system_of(elements)
    counts = [len(f) for f in elements]
    if not sum(counts):
        return _packed_many(system, [], _no_blocks(system), None, counts)
    codes, blocks, _ = _gathered(elements, system.coded)
    inverses = system.coded.inv(codes)
    sigma = system.cocycle_blocks(system.cocycle_rows(codes, inverses))
    x = [np.matmul(adjoints(s), adjoints(a)) for s, a in zip(sigma, blocks)]
    acted = system.act_rows(inverses, np.arange(len(inverses)), x)
    return _packed_many(system, system.coded.decode(inverses), acted, inverses, counts)


def sums(firsts: list, seconds: list) -> list:
    """firsts[c] + seconds[c] for each c, elements of one system, in one pass."""
    return _combined(firsts, seconds, None)


def differences(firsts: list, seconds: list) -> list:
    """firsts[c] - seconds[c] for each c: the rows of the second enter as (-1.0) * f2(h),
    which is not -f2(h) in the sign of a zero or on an infinite part."""
    return _combined(firsts, seconds, -1.0)


def _combined(firsts: list, seconds: list, scale) -> list:
    """f1 + scale f2 per couple: the rows of f1, then those of f2, keyed by (couple, code).

    A point of both supports gets f1(g) + f2(g) at its place in f1; the other
    points of f2 follow in their order, as a {g: coefficient} merge does.
    """
    seq = [f for couple in zip(firsts, seconds, strict=True) for f in couple]
    if not seq:
        return []
    system = _system_of(seq)
    sizes = [len(f) for f in seq]
    if not sum(sizes):
        return _packed_many(system, [], _no_blocks(system), None, [0] * len(firsts))
    codes = np.concatenate([f._codes() for f in seq])
    scaled = (f._blocks if scale is None or k % 2 == 0 else [scale * x for x in f._blocks] for k, f in enumerate(seq))
    blocks = [np.concatenate(col) for col in zip(*scaled)]
    couple = None if len(firsts) == 1 else np.repeat(np.arange(len(firsts)), np.add(sizes[::2], sizes[1::2]))
    at, first, counts = _numbered(couple, codes, len(firsts))
    points = list(itertools.compress(itertools.chain.from_iterable(f._points for f in seq), first.tolist()))
    return _packed_many(system, points, _summed(blocks, at, first), codes[first], counts)


def delta(system: TwistedSystem, g=None, a: AlgElement | None = None) -> CcElement:
    """a at the single point g (defaults: the unit at the identity)."""
    if g is None:
        g = system.group.identity()
    if a is None:
        a = system.algebra.unit()
    return CcElement(system, {g: a})


def cc_unit(system: TwistedSystem) -> CcElement:
    return delta(system)


def random_cc(system: TwistedSystem, support: Iterable, rng) -> CcElement:
    """A random_element draw at each support point in turn, stacked as drawn.

    A repeated point keeps its last draw at its first position, as the
    {g: draw} mapping of the same draws does.
    """
    support = list(support)
    blocks = system.algebra.random_stack(rng, len(support))
    last = dict(zip(support, range(len(support))))
    if len(last) < len(support):
        rows = np.fromiter(last.values(), dtype=np.int64, count=len(last))
        blocks = [x[rows] for x in blocks]
    return _packed(system, [system.group.check(g) for g in last], blocks)


def random_cc_in(system: TwistedSystem, pool: list, max_size: int, rng) -> CcElement:
    """random_cc on 1 to max_size distinct points drawn from pool."""
    size = 1 + int(rng.integers(min(max_size, len(pool))))
    idx = rng.choice(len(pool), size=size, replace=False)
    return random_cc(system, [pool[i] for i in idx], rng)


# -- compressed regular representation ---------------------------------------------


def _top_ritz(alphas: list, betas: list):
    """(theta, s): the largest eigenvalue of the tridiagonal and its unit eigenvector, or (None, None)."""
    try:
        theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(len(alphas) - 1,) * 2)
    except np.linalg.LinAlgError:  # inverse iteration failed on a tight cluster
        return None, None
    return theta[0], s[:, 0]


def _lanczos_top(operand: scipy.sparse.csr_matrix, adjoint: scipy.sparse.csr_matrix):
    """Top Ritz vector of x -> M^H (M x) by two passes of plain Lanczos, or None.

    Pass 1 runs the three-term recurrence from ones / sqrt(n), keeping only
    alpha and beta, and tests the top Ritz pair (theta, s) of the tridiagonal
    at step 10 and then every max(10, j // 8) steps against ARPACK's test
    |beta_j s_j| <= _LANCZOS_TOL * theta (or beta_j = 0).  Pass 2 replays the
    recurrence from the stored coefficients, the same operations in the same
    order, so every q_j is pass 1's bit for bit, and sums v = sum_j s_j q_j.
    No restart, no reorthogonalization, no stored basis: memory is O(n).
    None when the step cap is reached first.
    """
    n = operand.shape[0]
    start = np.full(n, 1 / np.sqrt(n), dtype=operand.dtype)
    axpy = scipy.linalg.get_blas_funcs("axpy", (start,))  # y += a x in place
    alphas, betas = [], []
    q_prev, q, beta = np.zeros_like(start), start, 0.0
    check = 10
    for j in range(1, _LANCZOS_STEPS + 1):
        w = adjoint @ (operand @ q)
        alpha = np.vdot(q, w).real
        axpy(q, w, a=-alpha)
        axpy(q_prev, w, a=-beta)
        beta = math.sqrt(np.vdot(w, w).real)
        alphas.append(alpha)
        betas.append(beta)
        if j == check or j == _LANCZOS_STEPS or beta == 0.0:
            check = j + max(10, j // 8)
            theta, s = _top_ritz(alphas, betas[:-1])
            if s is not None and (beta == 0.0 or abs(beta * s[-1]) <= _LANCZOS_TOL * theta):
                break
            if beta == 0.0:
                return None
        w *= 1 / beta
        q_prev, q = q, w
    else:
        return None
    v = s[0] * start
    q_prev, q, beta = np.zeros_like(start), start, 0.0
    for i in range(1, j):
        w = adjoint @ (operand @ q)
        axpy(q, w, a=-alphas[i - 1])
        axpy(q_prev, w, a=-beta)
        beta = betas[i - 1]
        w *= 1 / beta
        q_prev, q = q, w
        axpy(q, v, a=s[i])
    return v


def _top_singular(matrix: scipy.sparse.csr_matrix, vectors: bool):
    """(largest singular value, its right singular vector or None).

    Dense SVD of matrix.toarray() up to _DENSE_SVD_LIMIT.  Above it, the
    two-pass Lanczos of _lanczos_top on the implicit Gram operator
    x -> M^H (M x), with the CSR adjoint built once, from the fixed start
    ones / sqrt(n); in real arithmetic on matrix.real when every stored entry
    is real (real coefficients, cocycle and action values), in complex
    arithmetic otherwise.  Its Ritz vector v is accepted only if the explicit
    residual passes, ||M^H M v - rho v|| <= _LANCZOS_TOL * rho * ||v|| with
    rho = ||M v||^2 / ||v||^2.  The value returned is then ||M v|| / ||v||,
    recomputed from the matrix and the v that is returned (complex either
    way): a lower bound witnessed by v, within the Kato-Temple term of the
    top singular value.  When the step cap is reached or the residual check
    fails, the dense SVD runs instead if the dense matrix fits in
    _DEFAULT_DENSE_BYTES; otherwise ValueError.
    """
    n = matrix.shape[0]
    if n > _DENSE_SVD_LIMIT:
        operand = matrix if np.any(matrix.data.imag) else matrix.real
        adjoint = operand.conj().T.tocsr()
        v = _lanczos_top(operand, adjoint)
        if v is not None:
            image = operand @ v
            rho = np.vdot(image, image).real / np.vdot(v, v).real
            if np.linalg.norm(adjoint @ image - rho * v) <= _LANCZOS_TOL * rho * np.linalg.norm(v):
                v = v.astype(complex) / np.linalg.norm(v)
                value = float(np.linalg.norm(matrix @ v) / np.linalg.norm(v))
                return value, (v if vectors else None)
        if 16 * n * n > _DEFAULT_DENSE_BYTES:
            raise ValueError(
                f"Lanczos did not converge on the {n} x {matrix.shape[1]} compression, "
                "which is too large for the dense SVD"
            )
    out = np.linalg.svd(matrix.toarray(), compute_uv=vectors)
    if not vectors:
        return float(out[0]), None
    _, s, vh = out
    return float(s[0]), vh[0].conj().astype(complex, copy=False)


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


class CompressionPlan:
    """What compressing to ball(R) of one system under one length shares between elements.

    The plan owns the ball and builds, on first use, the codes of the ball
    points and one AutomorphismStack of their inverse actions.  For each
    support point g it keeps, built on g's first use, the rows of the
    entries g contributes (the positions of g h, Ball.translate), their
    columns h and the rows of cocycle(g, h) in the system's cocycle table
    (TwistedSystem.cocycle_rows).  compression_matrix keeps one plan per (float R, length
    tag) on the system, so a plan lives exactly as long as its system.  The
    plan holds no reference back to the system: without that cycle, a
    dropped system and its plans are freed at once by reference counting,
    not at the next full collection.
    """

    def __init__(self, R: float, length: LengthFunction):
        self.ball = ball(R, length)
        if not self.ball:
            raise ValueError("empty ball")
        self.index = tuple(self.ball)
        self._codes = self._inverses = None
        self._pieces: dict = {}  # code of g -> (rows, columns, cocycle rows)

    def _piece(self, system: TwistedSystem, code: int, g) -> tuple:
        piece = self._pieces.get(code)
        if piece is None:
            if self._codes is None:
                self._codes = system.coded.encode(self.ball)
            targets = self.ball.translate(g)
            cols = np.flatnonzero(targets >= 0)
            sigma = system.cocycle_rows(np.full(len(cols), code, dtype=np.int64), self._codes[cols])
            piece = self._pieces[code] = (targets[cols], cols, sigma)
        return piece

    def compress(self, f: CcElement) -> scipy.sparse.csr_matrix:
        """The CSR matrix of P_R Lambda(f) P_R, entries taken from the pieces of supp f in support order.

        f lives over the system that keeps this plan.  (h', h) fixes
        g = h'h^{-1}, so no block gets two contributions, and the CSR
        conversion puts the entries in canonical order whatever order they
        come in.
        """
        system = f.system
        D = system.algebra.rep_dim
        shape = (len(self.ball) * D, len(self.ball) * D)
        order, codes = f._sorted_rows(), f._codes().tolist()
        pieces = [self._piece(system, codes[i], f._points[i]) for i in order]
        counts = [len(rows) for rows, _, _ in pieces]
        if not sum(counts):
            return scipy.sparse.csr_matrix(shape, dtype=complex)
        rows = np.concatenate([p[0] for p in pieces])
        cols = np.concatenate([p[1] for p in pieces])
        sigmas = system.cocycle_blocks(np.concatenate([p[2] for p in pieces]))
        if self._inverses is None:
            self._inverses = AutomorphismStack([system.action(h).inverse() for h in self.ball])
        # a . cocycle per source block, one matmul over all contributions
        terms = np.repeat(order, counts)
        products = [np.matmul(c[terms], s) for c, s in zip(f._blocks, sigmas)]
        coo_rows, coo_cols, coo_data = [], [], []
        offset = 0
        for d, y in zip(system.algebra.dims, self._inverses.apply(rows, products)):
            i, j = np.indices((d, d))
            coo_rows.append((rows[:, None, None] * D + offset + i).ravel())
            coo_cols.append((cols[:, None, None] * D + offset + j).ravel())
            coo_data.append(y.ravel())
            offset += d
        # adding to 0 turns -0.0 parts into +0.0, as filling a zeroed dense matrix did
        data = np.concatenate(coo_data) + 0j
        sparse = scipy.sparse.csr_matrix((data, (np.concatenate(coo_rows), np.concatenate(coo_cols))), shape=shape)
        sparse.eliminate_zeros()
        return sparse


def compression_matrix(f: CcElement, R: float, length: LengthFunction | None = None) -> CompressedRep:
    """Compression of the regular representation of f to the ball of radius R.

    Index order is the deterministic ball order, so matrices are reproducible
    bit for bit.  The A-valued entry at (h', h) is
    action(h')^{-1}( f(h'h^{-1}) cocycle(h'h^{-1}, h) ) for h'h^{-1} in supp(f).
    The ball, translations, cocycles and inverse actions come from the
    system's CompressionPlan, so they are built once per (system, R, length).
    """
    system = f.system
    if length is None:
        length = default_length(system.group)
    key = (float(R), length.tag)
    plan = system._compression_plans.get(key)
    if plan is None:
        plan = system._compression_plans[key] = CompressionPlan(R, length)
    return CompressedRep(system, R, length, plan.index, plan.compress(f))


def compression_bytes(f: CcElement, R: float) -> int:
    """An upper bound on the bytes of the values compression_matrix(f, R) stores.

    16 bytes per complex value, |ball(R)| |supp f| sum_j d_j^2 values, with
    |ball(R)| counted by ball_size, so the default lengths build no ball.
    """
    return 16 * ball_size(R, default_length(f.system.group)) * len(f) * f.system.algebra.total_dim


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

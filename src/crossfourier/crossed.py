"""Arithmetic in the twisted convolution algebra and operator-norm bounds.

Elements are finitely supported A-valued functions on G over a fixed twisted
system.  The product and involution are forced by the generator relations
u_g a = action(g)(a) u_g and u_g u_h = cocycle(g, h) u_{gh}:

    (f1 * f2)(k) = sum_g f1(g) . action(g)(f2(g^{-1}k)) . cocycle(g, g^{-1}k)
    f*(h)        = action(h)( cocycle(h^{-1}, h)* . f(h^{-1})* )

An element is its codes and its blocks: the int64 code of each support
point in the system's coded group, in insertion order, and one read-only
(n, d_j, d_j) complex array per algebra block j, row i the coefficient at
the i-th code; a point is decoded only at the edges (coeff, support,
weights, reports).  The product is one batched pair kernel on codes
(pair_sum): the pairs (g, h), g-major, are multiplied as one code array,
their products numbered in first-seen order, the coefficients, cocycles
and actions gathered from the system's tables, each term formed by batched
matmuls and added to its product in pair order.

The kernel takes a batch of independent couples (f1, f2), as a list of
first and a list of second factors, and runs it in one pass, the products
numbered by (couple, code) so that each couple keeps its own pairs, order
and codes (products, decay.regular_applies); stars, sums and differences
batch the same way.  f1 * f2, f.star(), f + g and f - g are batches of
one, and a sampling experiment forms each stage of a chunk of samples in
one call.  Every result is the same alone as in any batch, and bit for bit
the per-coefficient AlgElement arithmetic in the same order, with the
actions applied as TwistedSystem.act_rows applies them.

Operator norms are bounded from below by compressing the regular
representation to a ball and from above by the l1 norm.  The compression
works in the A^G picture, where the operator attached to f has the A-valued
matrix entry action(h')^{-1}( f(h'h^{-1}) cocycle(h'h^{-1}, h) ) at (h', h);
realizing each entry in the defining representation of A gives a complex
matrix whose largest singular value is the compressed norm.  On finite
groups the full-radius compression is the exact reduced norm.

The compression is assembled in one pass from a CompressionPlan, kept by
the system per (radius, length tag): the ball, which translates itself by
a support point g into the row of every g h (Ball.translate), the codes of
its points, and per support point g the rows, columns and cocycle rows of
its entries; the inverse actions come from the system's action table
(TwistedSystem.act_rows).  Every element compressed at one radius
reuses what the ones before it built.  The result is its entries, from
which CompressedRep builds the dense array (.matrix, one scatter) and the
CSR matrix (.sparse, which imports scipy) on first use.  A singular value
has one entry point, largest_singular_value(rep) (opnorm_bounds for
callers), and the compression picks its path: the dense array up to the
dense SVD cutoff (200), and at every size on a finite group, within the one
resource budget (check_budget, 1 GiB): there the fixed Lanczos start can lie
in an invariant subspace that misses the top singular vector.  Above the
cutoff, on infinite groups, Lanczos (_lanczos_top) runs on x -> M^H (M x)
from the fixed start ones / sqrt(n); its Ritz vector v is accepted only if
its explicit residual is at most 1e-8 rho ||v||, and the value returned is
||M v|| / ||v||, a lower bound witnessed by v, though not necessarily the
top singular value: nothing bounds the gap to sigma_2.  Past the step cap,
or when the residual check fails, the dense SVD runs if the matrix passes
the budget.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .algebra import AlgElement, adjoints, stack_blocks, stacked_norms, sum_from_zero
from .groups import LengthFunction, Numbering, ball, ball_size, default_length, word_length
from .system import TwistedSystem

SUPPORT_TOL = 1e-14

# Dense SVD of CompressedRep.matrix up to this dimension, Lanczos (deterministic
# fixed start) on the CSR matrix above, the one path that loads scipy.
# From 200 dimensions up Lanczos on the sparse compressions measured 2-10x
# faster than the dense SVD on every system of the benchmark's norms
# workload; every compression of its experiment configs (161 at most) stays
# dense.
_DENSE_SVD_LIMIT = 200

# Lanczos stops once the estimated residual |beta_j s_j| of its top Ritz pair
# is at most this times the Ritz value, and its Ritz vector v is accepted once
# the explicit residual r = M^H M v - rho v has ||r|| <= this * rho * ||v||;
# about sqrt(eps).  rho = ||M v||^2 / ||v||^2 is then within this relative
# distance of some eigenvalue of M^H M, not necessarily the top one, and a
# lower bound witnessed by v whichever it is.
_LANCZOS_TOL = 1e-8

# Lanczos gives up after this many steps, and the dense fallback runs.
_LANCZOS_STEPS = 20_000

# Lanczos keeps its first vectors in one block of at most this many bytes
# (at least two rows) and replays only the steps past it to sum the Ritz vector.
_LANCZOS_KEPT_BYTES = 4 << 20

# Before a convergence test, its screen (_fails_surely) shifts the tridiagonal
# by floor * (1 + delta): delta starts at the first value, then at a quarter
# of the last one whose shift factored, never below the second (far above
# the rounding of a factorization, so one that succeeds proves the shift
# above the spectrum), and grows 8-fold on each of at most _SCREEN_TRIES shifts.
_SCREEN_DELTA = 1e-4
_SCREEN_DELTA_MIN = 1e-12
_SCREEN_TRIES = 6

# The one resource budget.  Before the library builds what a config sizes
# (a ball, a compression, a Gram matrix, a pair table, a sample list), the
# bytes of the largest such structure are counted in closed form (ball_size,
# support sizes, Folner set sizes, sample counts) and passed to check_budget.
_BUDGET_BYTES = 1 << 30


def check_budget(nbytes: int, what: str):
    """ValueError if nbytes passes _BUDGET_BYTES; what names the structure, led by the config key that sizes it."""
    if nbytes > _BUDGET_BYTES:
        raise ValueError(f"{what} would take {nbytes} bytes, past the budget of {_BUDGET_BYTES}")


_csr_matvec = None  # scipy's private CSR kernel (see _lanczos_top), set by _scipy


@functools.cache
def _scipy():
    """scipy with its linalg and sparse modules, imported on the first call (a CSR view or Lanczos); sets _csr_matvec."""
    global _csr_matvec
    import scipy.linalg
    import scipy.sparse
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
    return scipy


class CcElement:
    """Finitely supported function G -> A over a twisted system.

    Stored as its codes and its blocks, each coefficient once: the int64
    code of each support point in system.coded, in insertion order, and one
    (n, d_j, d_j) array per algebra block j whose row i is the coefficient
    at the i-th code, all read-only; arithmetic runs on these arrays and
    decodes no point.  An element built from a mapping checks every key,
    stacks its values at once and prunes them as arithmetic prunes its
    results (_pruned); one built by arithmetic (or random_cc) often holds
    views of a batch's arrays.  The points (seeded by a mapping and by
    random_cc), the {g: row} index, the row norms and the row AlgElements
    (views of the arrays) are made on first use.  A value of norm < 1e-14
    is never stored, so the support is canonical; one whose norm is NaN is
    kept, so overflow propagates instead of vanishing.  Instances are
    immutable; arithmetic returns new elements.
    """

    def __init__(self, system: TwistedSystem, coeffs: Mapping):
        values = list(coeffs.values())
        if any(a.algebra != system.algebra for a in values):
            raise ValueError("coefficient algebra does not match the system")
        points = list(map(system.group.check, coeffs))
        codes, blocks = (system.coded.encode(points), stack_blocks(values)) if values else _no_rows(system)
        codes, blocks, _, points = _pruned(codes, blocks, [len(points)], points)
        self._store(system, codes, blocks, points)

    def _store(self, system, codes: np.ndarray, blocks: list, points: list | Callable | None = None):
        """Set the state: read-only codes and blocks, one row per code, and the decoded codes if known
        (or a function that sets them: a batch's results share one decode, _packed_many)."""
        self.system = system
        self._codes = codes                 # the int64 code of each support point in system.coded
        self._blocks = blocks               # one read-only (n, d_j, d_j) array per block
        self._point_list = points           # the decoded codes, on first use unless given
        self._row_index = None              # {g: row}, on first use
        self._norm_list = None              # AlgElement.norm of each row, on first read
        self._coefficients = None           # row AlgElements, on first use
        self._order = None                  # rows in support order, on first use

    # -- basic structure ------------------------------------------------------

    @property
    def _points(self) -> list:
        """The support points in insertion order, decoded from the codes on first use."""
        if self._point_list is None:
            self._point_list = self.system.coded.decode(self._codes)
        elif callable(self._point_list):
            self._point_list()
        return self._point_list

    @property
    def _rows(self) -> dict:
        if self._row_index is None:
            self._row_index = {g: i for i, g in enumerate(self._points)}
        return self._row_index

    @property
    def _norms(self) -> list:
        """AlgElement.norm of each row (stacked_norms, bit for bit)."""
        if self._norm_list is None:
            self._norm_list = stacked_norms(self._blocks).tolist() if len(self) else []
        return self._norm_list

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
        return len(self._codes)

    def __repr__(self):
        terms = ", ".join(f"{self.system.group.word(g)}" for g in self.support())
        return f"CcElement(supp=[{terms}])"

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "CcElement") -> "CcElement":
        return sums([self], [other])[0]

    def __sub__(self, other: "CcElement") -> "CcElement":
        return differences([self], [other])[0]

    def __rmul__(self, scalar) -> "CcElement":
        return _packed_many(self.system, self._codes, [scalar * x for x in self._blocks], [len(self)])[0]

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
        acted = self.system.act_rows(self._codes, np.arange(len(self)), x, inverse=True)
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
        (f,) = _packed_many(self.system, self._codes, [w[:, None, None] * x for x in self._blocks], [len(self)])
        return f.module_norm()


def _no_rows(system: TwistedSystem) -> tuple:
    return np.zeros(0, dtype=np.int64), [np.empty((0, d, d), dtype=complex) for d in system.algebra.dims]


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


def _pruned(codes: np.ndarray, blocks: list, counts: list, points: list | None = None) -> tuple:
    """(codes, blocks, counts, points) without the rows of norm < 1e-14, the codes and blocks made read-only.

    counts[c] rows in turn belong to the c-th element; its count drops by
    its dropped rows.  points, if given, are the decoded codes, pruned with them.
    """
    drop = _dropped(blocks) if len(codes) else None
    if drop is not None:
        keep = ~drop
        counts = np.bincount(np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts)).tolist()
        codes, blocks = codes[keep], [b[keep] for b in blocks]
        if points is not None:
            points = list(itertools.compress(points, keep.tolist()))
    for x in (codes, *blocks):
        x.flags.writeable = False
    return codes, blocks, counts, points


def _packed_many(system: TwistedSystem, codes: np.ndarray, blocks: list, counts: list,
                 points: list | None = None) -> list:
    """The elements with row i of `blocks` at codes[i] in system.coded, rows of norm < 1e-14
    dropped: the c-th element takes the next counts[c] rows, its codes distinct.

    Rows are pruned in one pass over all of them; the elements' codes and
    blocks are read-only views of the shared arrays.  points, the decoded
    codes, seed each element's cache with its slice.  Without them several
    elements share one decode: the first to read its points decodes all the
    codes in one call and hands each element still alive its own slice, so
    no element keeps the others' points.
    """
    codes, blocks, counts, points = _pruned(codes, blocks, counts, points)
    if len(counts) == 1:
        f = CcElement.__new__(CcElement)
        f._store(system, codes, blocks, points)
        return [f]
    bounds = list(itertools.pairwise(itertools.accumulate(counts, initial=0)))

    def decode():
        decoded = system.coded.decode(codes)
        for ref, (lo, hi) in zip(refs, bounds):
            if (f := ref()) is not None:
                f._point_list = decoded[lo:hi]

    out = []
    for lo, hi in bounds:
        f = CcElement.__new__(CcElement)
        f._store(system, codes[lo:hi], [b[lo:hi] for b in blocks], decode if points is None else points[lo:hi])
        out.append(f)
    refs = [weakref.ref(f) for f in out]
    return out


def regrouped(f: CcElement, at, counts: list, system: TwistedSystem | None = None, blocks=None) -> list:
    """Elements of f's coefficients at the support points f.support()[i], i in `at`, in that order: the
    c-th takes the next counts[c], rows of norm < 1e-14 dropped.  They keep f's codes, so `system` (f's
    by default) must be over f's group object, and keep the algebra blocks numbered `blocks` (all)."""
    rows = np.array(f._sorted_rows(), dtype=np.int64)[at]
    kept = f._blocks if blocks is None else [f._blocks[j] for j in blocks]
    return _packed_many(f.system if system is None else system, f._codes[rows], [b[rows] for b in kept], counts)


def _system_of(elements) -> TwistedSystem:
    system = elements[0].system
    if any(f.system is not system for f in elements):
        raise ValueError("elements live over different systems")
    return system


def _gathered(elements, coded, support_order: bool = False) -> tuple:
    """(codes, blocks) of a list of elements, concatenated in turn, each in insertion or, when asked, support order.

    codes: every element's codes in `coded` (an element over another
    system's coded view has its points coded in this one); blocks: their
    coefficient arrays, concatenated (a fresh copy unless there is one
    element in insertion order, whose read-only arrays they are).
    """
    codes = [f._codes if f.system.coded is coded else coded.encode(f._points) for f in elements]
    if len(elements) == 1:
        codes, blocks = codes[0], elements[0]._blocks
    else:
        codes, blocks = np.concatenate(codes), [np.concatenate(col) for col in zip(*(f._blocks for f in elements))]
    if not support_order:
        return codes, blocks
    starts = itertools.accumulate((len(f) for f in elements), initial=0)
    rows = np.concatenate([np.array(f._sorted_rows(), dtype=np.int64) + k for f, k in zip(elements, starts)])
    return codes[rows], [b[rows] for b in blocks]


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
    counts = [len(keys)] if couple is None else np.bincount(couple[first], minlength=n).tolist()
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
    adds them; its codes are its products' in first-seen order.  So every
    element is the one a batch of one gives, bit for bit.  Products are
    numbered by (couple, code), so couples never share a point.  Every f1
    lives over one system; an f2 may live over another system on an equal
    group, and its points are then coded in f1's.
    """
    if len(firsts) != len(seconds):
        raise ValueError("a batch needs as many second factors as first ones")
    if not firsts:
        return []
    system = _system_of(firsts)
    coded = system.coded
    n1, n2 = [len(f) for f in firsts], [len(f) for f in seconds]
    if not any(map(int.__mul__, n1, n2)):
        return _packed_many(system, *_no_rows(system), [0] * len(firsts))
    codes1, blocks1 = _gathered(firsts, coded, support_order)
    codes2, blocks2 = _gathered(seconds, coded, support_order)
    couple, left, right = _pair_indices(n1, n2)
    g, h = codes1[left], codes2[right]
    gh = coded.mul(g, h)
    at, first, counts = _numbered(couple, gh, len(firsts))
    codes = gh[first]
    a, b = [x[left] for x in blocks1], [x[right] for x in blocks2]
    sigma = system.cocycle_blocks(system.cocycle_rows(g, h, gh))
    sums = _summed(terms(Pairs(system, a, b, sigma, codes1, left, codes, at)), at, first)
    return _packed_many(system, codes, sums, counts)


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
    """f* for each element of one system, in one pass over all their rows."""
    if not elements:
        return []
    system = _system_of(elements)
    counts = [len(f) for f in elements]
    if not sum(counts):
        return _packed_many(system, *_no_rows(system), counts)
    codes, blocks = _gathered(elements, system.coded)
    inverses = system.coded.inv(codes)
    sigma = system.cocycle_blocks(system.cocycle_rows(codes, inverses, system.coded.identities(len(codes))))
    x = [np.matmul(adjoints(s), adjoints(a)) for s, a in zip(sigma, blocks)]
    acted = system.act_rows(inverses, np.arange(len(inverses)), x)
    return _packed_many(system, inverses, acted, counts)


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
        return _packed_many(system, *_no_rows(system), [0] * len(firsts))
    codes = np.concatenate([f._codes for f in seq])
    scaled = (f._blocks if scale is None or k % 2 == 0 else [scale * x for x in f._blocks] for k, f in enumerate(seq))
    blocks = [np.concatenate(col) for col in zip(*scaled)]
    couple = None if len(firsts) == 1 else np.repeat(np.arange(len(firsts)), np.add(sizes[::2], sizes[1::2]))
    at, first, counts = _numbered(couple, codes, len(firsts))
    return _packed_many(system, codes[first], _summed(blocks, at, first), counts)


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
    {g: draw} mapping of the same draws does.  The checked points seed the
    element's points.
    """
    support = list(support)
    blocks = system.algebra.random_stack(rng, len(support))
    last = dict(zip(support, range(len(support))))
    if len(last) < len(support):
        rows = np.fromiter(last.values(), dtype=np.int64, count=len(last))
        blocks = [x[rows] for x in blocks]
    return ccs_at(system, list(last), blocks, [len(last)])[0]


# The sampling loops (the experiments', the decay probe's and the e-invariance
# probe's) draw their samples one chunk at a time, all of a chunk's draws
# first (random_ccs_in, ccs_at), then check them, each stage of a chunk one
# batched call where the checks batch (products, stars, sums, differences,
# decay.regular_applies): memory stays O(chunk) whatever the sample count,
# and a call's pairs (at most 27 per triple, on supports of at most 3
# points) stay well within the room groups.PAIR_MEMO leaves.
_CHUNK = 64


def sample_chunks(n: int):
    """The sizes of the chunks of n samples."""
    for start in range(0, n, _CHUNK):
        yield min(_CHUNK, n - start)


def random_cc_in(system: TwistedSystem, pool: list, max_size: int, rng) -> CcElement:
    """random_cc on 1 to max_size distinct points drawn from pool (random_ccs_in of one)."""
    return random_ccs_in(system, pool, max_size, rng, 1)[0]


def random_ccs_in(system: TwistedSystem, pool: list, max_size: int, rng, count: int) -> list:
    """The count elements that count calls of random_cc_in return, bit for bit, all drawn first.

    Per element the calls are those of random_cc on points of pool, in the
    same order: rng.integers for the support size (1 to max_size), rng.choice
    for the distinct points, one rng.normal for the coefficients; so the
    elements' codes, blocks and support order, and the state of rng after
    the call, are the loop's.  The draws are split into blocks once and
    packed in one pass (ccs_at).  pool holds distinct points (a ball, a group's elements).
    """
    top, width = min(max_size, len(pool)), 2 * system.algebra.total_dim
    picks, draws = [], []
    for _ in range(count):
        size = 1 + int(rng.integers(top))
        picks.append(rng.choice(len(pool), size=size, replace=False))
        draws.append(rng.normal(size=(size, width)))
    if not count:
        return []
    points = [pool[i] for i in np.concatenate(picks).tolist()]
    return ccs_at(system, points, system.algebra.from_normals(np.concatenate(draws)), list(map(len, picks)))


def ccs_at(system: TwistedSystem, points: list, blocks: list, counts: list) -> list:
    """The elements {points[i]: row i of blocks}, the c-th on the next counts[c] points, which are distinct:
    each is what CcElement makes of that mapping, all checked, coded, pruned and packed in one pass."""
    points = list(map(system.group.check, points))
    return _packed_many(system, system.coded.encode(points), blocks, counts, points)


# -- compressed regular representation ---------------------------------------------


@functools.cache
def _ritz_drivers() -> tuple:
    """LAPACK's dstebz and dstein (the drivers of scipy's eigh_tridiagonal with select "i") and dptsv, resolved once."""
    return tuple(_scipy().linalg.get_lapack_funcs(("stebz", "stein", "ptsv"), (np.zeros(0),)))


def _top_ritz(alphas, betas):
    """(theta, s): the largest eigenvalue of the tridiagonal and its unit eigenvector, or (None, None).

    The value of scipy.linalg.eigh_tridiagonal(alphas, betas, select="i",
    select_range=(j - 1, j - 1)) bit for bit, from the same LAPACK calls
    without that function's checks and dispatch: a ValueError on a NaN or
    inf entry, as its finite check raises; at j = 1 the entry itself;
    otherwise dstebz's bisection for the j-th eigenvalue (range 'I',
    il = iu = j, abstol 0, block order) and dstein's inverse iteration for
    its vector.  A positive info from either (no convergence, a LinAlgError
    there) gives (None, None).
    """
    d, e = np.asarray_chkfinite(alphas), np.asarray_chkfinite(betas)
    j = len(d)
    if j == 1:
        return d[0], np.ones(1)
    stebz, stein, _ = _ritz_drivers()
    m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, j, j, 0.0, "B")
    if info == 0:
        s, info = stein(d, e, w[:m], iblock, isplit)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's tridiagonal eigensolver")
    return (w[0], s[:, 0]) if info == 0 else (None, None)


def _fails_surely(alphas: np.ndarray, betas: np.ndarray, beta: float, floor: float, delta: float) -> tuple:
    """(proved, floor, delta): proved True only if the Ritz test of _lanczos_top cannot pass on this tridiagonal.

    T is the j x j tridiagonal of alphas and betas (all positive), theta_j
    its top eigenvalue with unit eigenvector s, and the test it screens is
    |beta s_j| <= _LANCZOS_TOL theta_j.  floor is at most theta_j: an
    earlier test's theta or a shift that did not factor (Cauchy interlacing:
    the top eigenvalue of T never falls as T grows).  The shifts
    t = floor (1 + delta) are tried in turn until t I - T factors as
    positive definite (dptsv), which puts t above theta_j.  Then
    x = (t I - T)^{-1} e_1 is proportional to the vector of trailing
    characteristic polynomials det(t - T[i+1:j]) / prod beta_k, i <= j,
    whose every component (up to an alternating sign) is positive and
    increasing in t on [theta_j, oo) by interlacing; at theta_j it is
    proportional to s, so |s_j| >= |x_j| / ||x||.  The test cannot pass
    when |beta x_j| > 2 _LANCZOS_TOL t ||x||, the 2 absorbing rounding, as
    t > theta_j.  A NaN anywhere proves nothing.  The floor and delta
    returned seed the next screen: the last shift that did not factor, and
    a quarter of the delta that did.
    """
    ptsv = _ritz_drivers()[2]
    delta = max(delta, _SCREEN_DELTA_MIN)
    for _ in range(_SCREEN_TRIES):
        shift = floor * (1 + delta)
        start = np.zeros(len(alphas))
        start[0] = 1.0
        # off-diagonal +beta: similar to t I - T by a diagonal of signs, so |x| is the same
        _, _, x, info = ptsv(shift - alphas, betas, start, overwrite_d=1, overwrite_b=1)
        if info == 0:
            return abs(beta * x[-1]) > 2 * _LANCZOS_TOL * shift * np.linalg.norm(x), floor, delta / 4
        floor, delta = shift, 8 * delta
    return False, floor, delta


def _lanczos_top(operand, adjoint):
    """Top Ritz vector v of x -> M^H (M x) by plain Lanczos from ones / sqrt(n), or None.

    None when the step cap comes first, or when beta_j = 0 and the Ritz pair
    of that tridiagonal fails.  operand is an m x n CSR matrix M and adjoint
    its n x m CSR adjoint (a ValueError otherwise: scipy's private
    csr_matvec, called here directly, checks no shapes or formats).  v is
    bit for bit what two passes of the public products adjoint @ (operand @ q),
    numpy scaling and eigh_tridiagonal give, whatever part of the basis the
    kept block of _LANCZOS_KEPT_BYTES holds (tests/test_crossed.py checks it).

    The stop rule is a contract: LAPACK decides every stop.  A convergence
    test is scheduled at steps 10, then j + max(10, j // 8); it passes when
    the top Ritz pair (theta, s) of _top_ritz has |beta_j s_j| <= _LANCZOS_TOL
    theta, or beta_j = 0.  Before a scheduled test the screen _fails_surely
    tries to prove, from a solve with a shifted tridiagonal, that it
    cannot pass, and the test is skipped only when the proof succeeds.
    The first test, a beta_j = 0 test and the test at the step cap always
    run _top_ritz.  So the stop step, and v, are the same as with every
    test run.
    """
    m, n = operand.shape
    if operand.format != "csr" or adjoint.format != "csr" or adjoint.shape != (n, m):
        raise ValueError("Lanczos needs a CSR matrix and its CSR adjoint")
    middle = np.empty(m, dtype=operand.dtype)

    def gram(q, w):  # w = M^H (M q), into zeroed buffers as the public products fill fresh ones
        middle.fill(0)
        _csr_matvec(m, n, operand.indptr, operand.indices, operand.data, q, middle)
        w.fill(0)
        _csr_matvec(n, m, adjoint.indptr, adjoint.indices, adjoint.data, middle, w)

    rows = max(2, min(_LANCZOS_STEPS, _LANCZOS_KEPT_BYTES // (operand.dtype.itemsize * n)))
    kept = np.empty((rows, n), dtype=operand.dtype)  # q_0 .. q_{rows-1}
    spare = np.empty((3, n), dtype=operand.dtype)  # q_i past the block, i mod 3

    def row(i):
        return kept[i] if i < rows else spare[i % 3]

    kept[0] = 1 / np.sqrt(n)
    # y += a x, x^H y and x *= a, in place
    axpy, dot, scal = _scipy().linalg.get_blas_funcs(("axpy", "dotc", "scal"), (kept,))
    alphas, betas = np.empty((2, min(64, _LANCZOS_STEPS)))  # the tridiagonal, grown by doubling up to the cap
    q_prev, beta = np.zeros(n, dtype=operand.dtype), 0.0
    check, floor, delta = 10, 0.0, _SCREEN_DELTA
    for j in range(1, _LANCZOS_STEPS + 1):
        q, w = row(j - 1), row(j)
        gram(q, w)
        alpha = dot(q, w).real
        axpy(q, w, a=-alpha)
        axpy(q_prev, w, a=-beta)
        beta = math.sqrt(dot(w, w).real)
        if j > len(alphas):
            grown = np.empty((2, min(2 * len(alphas), _LANCZOS_STEPS)))
            grown[:, :j - 1] = alphas, betas
            alphas, betas = grown
        alphas[j - 1], betas[j - 1] = alpha, beta
        if j == check or j == _LANCZOS_STEPS or beta == 0.0:
            check = j + max(10, j // 8)
            skip = floor > 0.0 and j < _LANCZOS_STEPS and beta != 0.0  # not the first (no floor), last or beta = 0 test
            if skip:
                skip, floor, delta = _fails_surely(alphas[:j], betas[:j - 1], beta, floor, delta)
            if not skip:
                theta, s = _top_ritz(alphas[:j], betas[:j - 1])
                if s is not None and (beta == 0.0 or abs(beta * s[-1]) <= _LANCZOS_TOL * theta):
                    break
                if beta == 0.0:
                    return None
                if s is not None:
                    floor = max(floor, theta)
        scal(1 / beta, w)
        q_prev = q
    else:
        return None
    v = s[0] * kept[0]
    for i in range(1, min(j, rows)):
        axpy(kept[i], v, a=s[i])
    for i in range(rows, j):  # replay the steps past the block from its last two rows
        q_prev, q, w = row(i - 2), row(i - 1), row(i)
        gram(q, w)
        axpy(q, w, a=-alphas[i - 1])
        axpy(q_prev, w, a=-betas[i - 2])
        scal(1 / betas[i - 1], w)
        axpy(w, v, a=s[i])
    return v


def _top_singular(rep: CompressedRep, vectors: bool):
    """(largest singular value, its right singular vector or None) of a compression.

    The dense SVD of rep.matrix up to _DENSE_SVD_LIMIT, and at any size on a
    finite group if the dense matrix passes check_budget: there Lanczos's
    fixed start ones / sqrt(n) can lie in an invariant subspace of M^H M that
    misses the top singular vector (the constant vectors are one when
    cocycle and action are trivial), and the Ritz value it converges to
    passes the residual check.  Otherwise the Lanczos of _lanczos_top on
    rep.sparse, with the CSR adjoint built once; in real arithmetic on a
    contiguous copy of its real part (a strided view would be copied on
    every product) when every stored entry is real, in complex arithmetic
    otherwise.  Its Ritz vector v is accepted only if the explicit residual
    passes, ||M^H M v - rho v|| <= _LANCZOS_TOL * rho * ||v|| with
    rho = ||M v||^2 / ||v||^2.  The value returned is then ||M v|| / ||v||,
    recomputed from the matrix and the v that is returned (complex either
    way): a lower bound witnessed by v, and no more, since the residual test
    puts rho near some eigenvalue of M^H M, not necessarily the top one.
    When the step cap is reached or the residual check fails, the dense SVD
    runs instead if the dense matrix passes check_budget.
    """
    n, m = rep.shape
    if n > _DENSE_SVD_LIMIT and rep.system.group.is_finite:
        check_budget(16 * n * m, f"the dense SVD of the {n} x {m} compression")
    elif n > _DENSE_SVD_LIMIT:
        matrix = rep.sparse
        operand = matrix if np.any(matrix.data.imag) else matrix.real.copy()
        adjoint = operand.conj().T.tocsr()
        v = _lanczos_top(operand, adjoint)
        if v is not None:
            image = operand @ v
            rho = np.vdot(image, image).real / np.vdot(v, v).real
            if np.linalg.norm(adjoint @ image - rho * v) <= _LANCZOS_TOL * rho * np.linalg.norm(v):
                v = v.astype(complex) / np.linalg.norm(v)
                value = float(np.linalg.norm(matrix @ v) / np.linalg.norm(v))
                return value, (v if vectors else None)
        check_budget(16 * n * m, f"the dense SVD of the {n} x {m} compression, where Lanczos did not converge,")
    out = np.linalg.svd(rep.matrix, compute_uv=vectors)
    if not vectors:
        return float(out[0]), None
    _, s, vh = out
    return float(s[0]), vh[0].conj().astype(complex, copy=False)


def largest_singular_value(rep: CompressedRep) -> float:
    """The largest singular value of a compression, the one value entry point (_top_singular picks the path)."""
    return _top_singular(rep, vectors=False)[0]


@dataclass(frozen=True)
class CompressedRep:
    """P_R Lambda(f) P_R realized as a complex matrix over ball(R) x rep(A).

    Stored as its entries (rows, columns, values), one per position at most;
    `matrix`, the dense array, and `sparse`, the CSR matrix without stored
    zeros, are built from them on first use, so the singular-value path
    (_top_singular) builds only the view it reads.
    """

    system: TwistedSystem
    radius: float
    length: LengthFunction
    index: tuple
    entries: tuple  # (rows, columns, values)
    shape: tuple

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        rows, cols, values = self.entries
        out = np.zeros(self.shape, dtype=complex)
        out[rows, cols] = values
        return out

    @functools.cached_property
    def sparse(self):
        rows, cols, values = self.entries
        out = _scipy().sparse.csr_matrix((values, (rows, cols)), shape=self.shape)
        out.eliminate_zeros()
        return out


class CompressionPlan:
    """What compressing to ball(R) of one system under one length shares between elements.

    The plan owns the ball, which holds its points' codes.  For each support point g
    it keeps, built when it first meets g's code (the one time g is decoded),
    the rows of the entries g contributes (the positions of g h,
    Ball.translate), their columns h and the rows of cocycle(g, h) in the
    system's cocycle table (TwistedSystem.cocycle_rows, given the products
    g h as the codes at those rows).  compression_matrix keeps one plan per
    (float R, length tag) on the system, so a plan lives exactly as long as
    its system.  The plan holds no reference back to the system: without
    that cycle, a dropped system and its plans are freed at once by
    reference counting, not at the next full collection.
    """

    def __init__(self, system: TwistedSystem, R: float, length: LengthFunction):
        self.ball = ball(R, length).over(system.group)  # a length may be over an equal group object
        if not self.ball:
            raise ValueError("empty ball")
        self.index = tuple(self.ball)
        self._codes = self.ball.codes
        self._pieces: dict = {}  # code of g -> (rows, columns, cocycle rows)

    def compress(self, f: CcElement) -> tuple:
        """((rows, columns, values), shape) of P_R Lambda(f) P_R, the entries from the pieces of f's codes in row order.

        f lives over the system that keeps this plan.  (h', h) fixes
        g = h'h^{-1}, so no block gets two contributions.
        """
        system = f.system
        D = system.algebra.rep_dim
        shape = (len(self.ball) * D, len(self.ball) * D)
        codes = f._codes.tolist()
        new = [code for code in codes if code not in self._pieces]
        if new:  # the points of new pieces, decoded in one call
            for code, g in zip(new, system.coded.decode(np.array(new, dtype=np.int64))):
                targets = self.ball.translate(g, code)
                cols = np.flatnonzero(targets >= 0)
                rows = targets[cols]
                self._pieces[code] = (rows, cols, system.cocycle_rows(np.full(len(cols), code, dtype=np.int64),
                                                                      self._codes[cols], self._codes[rows]))
        pieces = [self._pieces[code] for code in codes]
        counts = [len(rows) for rows, _, _ in pieces]
        if not sum(counts):
            return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)), shape
        rows, cols, sigma_rows = (np.concatenate(x) for x in zip(*pieces))
        sigmas = system.cocycle_blocks(sigma_rows)
        # a . cocycle per source block, one matmul over all contributions
        terms = np.repeat(np.arange(len(f)), counts)
        products = [np.matmul(c[terms], s) for c, s in zip(f._blocks, sigmas)]
        coo_rows, coo_cols, coo_data = [], [], []
        offset = 0
        for d, y in zip(system.algebra.dims, system.act_rows(self._codes, rows, products, inverse=True)):
            i, j = np.indices((d, d))
            coo_rows.append((rows[:, None, None] * D + offset + i).ravel())
            coo_cols.append((cols[:, None, None] * D + offset + j).ravel())
            coo_data.append(y.ravel())
            offset += d
        # adding to 0 turns -0.0 parts into +0.0, as filling a zeroed dense matrix did
        return (np.concatenate(coo_rows), np.concatenate(coo_cols), np.concatenate(coo_data) + 0j), shape


def compression_matrix(f: CcElement, R: float, length: LengthFunction | None = None) -> CompressedRep:
    """Compression of the regular representation of f to the ball of radius R.

    Index order is the deterministic ball order, so matrices are reproducible
    bit for bit.  The A-valued entry at (h', h) is
    action(h')^{-1}( f(h'h^{-1}) cocycle(h'h^{-1}, h) ) for h'h^{-1} in supp(f).
    The ball, translations and cocycles come from the system's
    CompressionPlan, so they are built once per (system, R, length).
    """
    system = f.system
    if length is None:
        length = default_length(system.group)
    key = (float(R), length.tag)
    plan = system._compression_plans.get(key)
    if plan is None:
        plan = system._compression_plans[key] = CompressionPlan(system, R, length)
    return CompressedRep(system, R, length, plan.index, *plan.compress(f))


def full_radius(system: TwistedSystem) -> float:
    """Radius covering a whole finite group under its word length."""
    L = word_length(system.group)
    return max(L(g) for g in system.group.elements())


def default_radii(system: TwistedSystem, infinite: Iterable[float], length: LengthFunction | None = None) -> list:
    """The radius schedule of a caller that was given none.

    Finite groups get the full radius, where the compression is exact.
    Infinite groups get the caller's radii in order, up to the first whose
    dense compression ((|ball| * rep_dim)^2 complex entries) fails
    check_budget; if the first one fails, so does the call.  Ball sizes are
    counted (ball_size), so the default lengths enumerate no ball here.
    """
    if system.group.is_finite:
        return [full_radius(system)]
    if length is None:
        length = default_length(system.group)
    out = []
    for R in infinite:
        try:
            check_budget(16 * (ball_size(R, length) * system.algebra.rep_dim) ** 2,
                         f"the dense compression at radius {R}")
        except ValueError:
            if out:
                break
            raise
        out.append(R)
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
    trace = [(float(R), largest_singular_value(compression_matrix(f, R, length))) for R in R_schedule]
    lower = max(s for _, s in trace)
    return OpnormBounds(lower, f.norm_l1(), tuple(trace))


def exact_norm_finite(f: CcElement) -> float:
    """Exact reduced norm on a finite group, opnorm_bounds' lower bound at its default, the full radius."""
    if not f.system.group.is_finite:
        raise ValueError("exact norms are only available on finite groups")
    return opnorm_bounds(f).lower

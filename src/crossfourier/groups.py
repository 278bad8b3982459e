"""Discrete group families with canonical normal forms.

Shipped families: finite cyclic Z_n, finite dihedral D_n, direct products of
finite cyclic groups, the lattices Z^d, the free group F2 and the free
product Z2 * Z3.  Elements are plain hashable Python values in a canonical
normal form, so equality of values is equality of group elements.

Each family also ships the length functions and (where they exist) the
Folner sequences used by the truncation and summation machinery.  A ball
numbers its points in ball order and left-translates itself by any group
element as an int64 array of those numbers (Ball.translate).

A CodedGroup (coded_group) gives elements int64 codes and multiplies and
inverts whole code arrays: Z^d adds coordinate codes near 0; finite groups
up to order 1024 gather products from a multiplication table that group.mul
fills as pairs appear; the free families, larger groups and points far out
in Z^d are numbered as they appear and multiplied through group.mul.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

Elt = Any  # per-family canonical value (int, tuple of ints, tuple of letters)


class Group:
    """Base class; subclasses fix the element representation."""

    name: str = "group"
    is_finite: bool = False

    def identity(self) -> Elt:
        raise NotImplementedError

    def mul(self, g: Elt, h: Elt) -> Elt:
        raise NotImplementedError

    def inv(self, g: Elt) -> Elt:
        raise NotImplementedError

    def normal_form(self, word: str) -> Elt:
        """Parse a word over the group's alphabet into the canonical element."""
        raise NotImplementedError

    def word(self, g: Elt) -> str:
        """Canonical string for an element (inverse of normal_form)."""
        raise NotImplementedError

    def sort_key(self, g: Elt):
        """Total order key making all enumerations reproducible."""
        raise NotImplementedError

    def check(self, g: Elt) -> Elt:
        """Validate that g is a canonical element of this group."""
        raise NotImplementedError

    def generators(self) -> list[Elt]:
        """Standard generating set (closed under nothing; inverses separate)."""
        raise NotImplementedError

    def decompose(self, g: Elt) -> list[tuple[int, int]]:
        """Write g as an ordered product of generator powers: [(gen index, exponent)].

        Used to evaluate homomorphisms and actions given on the generators.
        """
        raise NotImplementedError

    def elements(self) -> list[Elt]:
        raise ValueError(f"{self.name} is infinite; full enumeration unavailable")

    def random_element(self, rng, radius: int = 3) -> Elt:
        """Random element: uniform on finite groups, random word otherwise."""
        if self.is_finite:
            elts = self.elements()
            return elts[int(rng.integers(len(elts)))]
        gens = self.generators()
        letters = gens + [self.inv(s) for s in gens]
        g = self.identity()
        for _ in range(int(rng.integers(radius + 1))):
            g = self.mul(g, letters[int(rng.integers(len(letters)))])
        return g


@dataclass(frozen=True)
class LengthFunction:
    """A proper length rule L: G -> [0, oo) with L(e) = 0 and L(g) = L(g^-1).

    tag is one of: word | one-norm | two-norm | squared-two-norm | block.
    """

    group: Group
    tag: str
    fn: Callable[[Elt], float] = field(repr=False)

    def __call__(self, g: Elt) -> float:
        return self.fn(g)


class Cyclic(Group):
    """Z_n; elements are residues 0..n-1."""

    is_finite = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclic order must be >= 1")
        self.n = n
        self.name = f"Z{n}"

    def identity(self):
        return 0

    def mul(self, g, h):
        return (g + h) % self.n

    def inv(self, g):
        return (-g) % self.n

    def check(self, g):
        if not isinstance(g, int) or not 0 <= g < self.n:
            raise ValueError(f"not a residue mod {self.n}: {g!r}")
        return g

    def normal_form(self, word: str):
        word = word.strip()
        if word == "e":
            return 0
        try:
            return int(word) % self.n
        except ValueError:
            raise ValueError(f"unknown generator symbol in {word!r}") from None

    def word(self, g):
        return str(g)

    def sort_key(self, g):
        return (g,)

    def generators(self):
        return [1 % self.n]

    def elements(self):
        return list(range(self.n))

    def decompose(self, g):
        return [(0, g)] if g else []


class Dihedral(Group):
    """D_n of order 2n; element (k, e) is r^k s^e with s r = r^-1 s."""

    is_finite = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dihedral parameter must be >= 1")
        self.n = n
        self.name = f"D{n}"

    def identity(self):
        return (0, 0)

    def mul(self, g, h):
        k1, e1 = g
        k2, e2 = h
        k = (k1 + (k2 if e1 == 0 else -k2)) % self.n
        return (k, e1 ^ e2)

    def inv(self, g):
        k, e = g
        return ((-k) % self.n, 0) if e == 0 else g

    def check(self, g):
        k, e = g
        if not (0 <= k < self.n and e in (0, 1)):
            raise ValueError(f"not a dihedral normal form: {g!r}")
        return g

    def normal_form(self, word: str):
        g = self.identity()
        for tok in word.split():
            if tok == "e":
                continue
            base, _, exp = tok.partition("^")
            k = int(exp) if exp else 1
            if base == "r":
                step = (k % self.n, 0)
            elif base == "s":
                step = (0, k % 2)
            else:
                raise ValueError(f"unknown generator symbol {tok!r}")
            g = self.mul(g, step)
        return g

    def word(self, g):
        k, e = g
        parts = []
        if k:
            parts.append("r" if k == 1 else f"r^{k}")
        if e:
            parts.append("s")
        return " ".join(parts) or "e"

    def sort_key(self, g):
        return g

    def generators(self):
        return [(1 % self.n, 0), (0, 1)]

    def elements(self):
        return [(k, e) for e in (0, 1) for k in range(self.n)]

    def decompose(self, g):
        k, e = g
        out = []
        if k:
            out.append((0, k))
        if e:
            out.append((1, 1))
        return out


class DirectProduct(Group):
    """Direct product of finite groups; elements are tuples."""

    is_finite = True

    def __init__(self, factors: Iterable[Group]):
        self.factors = tuple(factors)
        if not all(f.is_finite for f in self.factors):
            raise ValueError("direct products are shipped for finite factors only")
        self.name = "x".join(f.name for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, g, h):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, g, h))

    def inv(self, g):
        return tuple(f.inv(a) for f, a in zip(self.factors, g))

    def check(self, g):
        if len(g) != len(self.factors):
            raise ValueError("component count mismatch")
        for f, a in zip(self.factors, g):
            f.check(a)
        return tuple(g)

    def normal_form(self, word: str):
        parts = word.split(";")
        if len(parts) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} ';'-separated components")
        return tuple(f.normal_form(p) for f, p in zip(self.factors, parts))

    def word(self, g):
        return ";".join(f.word(a) for f, a in zip(self.factors, g))

    def sort_key(self, g):
        return tuple(f.sort_key(a) for f, a in zip(self.factors, g))

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for s in f.generators():
                g = list(self.identity())
                g[i] = s
                gens.append(tuple(g))
        return gens

    def elements(self):
        return [tuple(c) for c in itertools.product(*(f.elements() for f in self.factors))]

    def decompose(self, g):
        out = []
        offset = 0
        for f, a in zip(self.factors, g):
            out.extend((offset + i, k) for i, k in f.decompose(a))
            offset += len(f.generators())
        return out


class Zd(Group):
    """The lattice Z^d; elements are integer tuples."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.name = f"Z^{d}"

    def identity(self):
        return (0,) * self.d

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        return tuple(-a for a in g)

    def check(self, g):
        if len(g) != self.d or not all(isinstance(a, int) for a in g):
            raise ValueError(f"not an integer {self.d}-tuple: {g!r}")
        return tuple(g)

    def normal_form(self, word: str):
        total = self.identity()
        for tok in word.split("+"):
            tok = tok.strip()
            if tok in ("e", ""):
                continue
            tok = tok.strip("()")
            try:
                vec = tuple(int(x) for x in tok.split(","))
            except ValueError:
                raise ValueError(f"unknown generator symbol in {tok!r}") from None
            if len(vec) != self.d:
                raise ValueError(f"expected {self.d} coordinates in {tok!r}")
            total = self.mul(total, vec)
        return total

    def word(self, g):
        return "(" + ",".join(str(a) for a in g) + ")"

    def sort_key(self, g):
        return g

    def generators(self):
        gens = []
        for i in range(self.d):
            v = [0] * self.d
            v[i] = 1
            gens.append(tuple(v))
        return gens

    def decompose(self, g):
        return [(i, a) for i, a in enumerate(g) if a]


_F2_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


class FreeF2(Group):
    """Free group on a, b; elements are freely reduced letter tuples."""

    def __init__(self):
        self.name = "F2"

    def identity(self):
        return ()

    def _reduce_concat(self, left, right):
        out = list(left)
        for x in right:
            if out and out[-1] == _F2_INV[x]:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def mul(self, g, h):
        # g and h are reduced: only the letters where they meet can cancel
        if not g or not h or g[-1] != _F2_INV[h[0]]:
            return g + h
        i, j = len(g) - 1, 1
        while i and j < len(h) and g[i - 1] == _F2_INV[h[j]]:
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g):
        return tuple(_F2_INV[x] for x in reversed(g))

    def check(self, g):
        for x in g:
            if x not in _F2_INV:
                raise ValueError(f"unknown generator symbol {x!r}")
        for x, y in zip(g, g[1:]):
            if y == _F2_INV[x]:
                raise ValueError(f"word not reduced: {g!r}")
        return tuple(g)

    def normal_form(self, word: str):
        letters = []
        for tok in word.split():
            if tok == "e":
                continue
            tok = tok.replace("⁻¹", "^-1")
            base, _, exp = tok.partition("^")
            if base in ("A", "B") and not exp:
                base, exp = base.lower(), "-1"
            if base not in ("a", "b"):
                raise ValueError(f"unknown generator symbol {tok!r}")
            k = int(exp) if exp else 1
            letter = base if k >= 0 else _F2_INV[base]
            letters.extend([letter] * abs(k))
        return self._reduce_concat((), letters)

    def word(self, g):
        return " ".join(x if x.islower() else f"{x.lower()}^-1" for x in g) or "e"

    _ORDER = {"a": 0, "A": 1, "b": 2, "B": 3}

    def sort_key(self, g):
        return (len(g),) + tuple(self._ORDER[x] for x in g)

    def generators(self):
        return [("a",), ("b",)]

    _LETTER_POWER = {"a": (0, 1), "A": (0, -1), "b": (1, 1), "B": (1, -1)}

    def decompose(self, g):
        out: list[tuple[int, int]] = []
        for x in g:
            i, k = self._LETTER_POWER[x]
            if out and out[-1][0] == i:
                out[-1] = (i, out[-1][1] + k)
            else:
                out.append((i, k))
        return out


class FreeProductZ2Z3(Group):
    """Z2 * Z3 with presentation <s, t | s^2, t^3>.

    Elements are tuples of syllables from {"s", "t", "T"} (T = t^2) in which
    s-syllables and t-syllables alternate; this normal form is unique and
    reduction is linear in the word length.
    """

    def __init__(self):
        self.name = "Z2*Z3"

    def identity(self):
        return ()

    @staticmethod
    def _factor(syl):
        return 0 if syl == "s" else 1

    def _push(self, stack, syl):
        if stack and self._factor(stack[-1]) == self._factor(syl):
            if syl == "s":
                stack.pop()
            else:
                k = (1 if stack[-1] == "t" else 2) + (1 if syl == "t" else 2)
                stack.pop()
                if k % 3 == 1:
                    stack.append("t")
                elif k % 3 == 2:
                    stack.append("T")
        else:
            stack.append(syl)

    def mul(self, g, h):
        # g and h are in normal form: only the syllables where they meet
        # cancel or merge, and a merged t-syllable ends the reduction
        i, j = len(g), 0
        while i and j < len(h):
            x, y = g[i - 1], h[j]
            if x != y and "s" in (x, y):
                break
            if x == y != "s":
                return g[:i - 1] + ("T" if x == "t" else "t",) + h[j + 1:]
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g):
        inv_syl = {"s": "s", "t": "T", "T": "t"}
        return tuple(inv_syl[x] for x in reversed(g))

    def check(self, g):
        for x in g:
            if x not in ("s", "t", "T"):
                raise ValueError(f"unknown generator symbol {x!r}")
        for x, y in zip(g, g[1:]):
            if self._factor(x) == self._factor(y):
                raise ValueError(f"syllables do not alternate: {g!r}")
        return tuple(g)

    def normal_form(self, word: str):
        stack: list[str] = []
        for tok in word.split():
            if tok == "e":
                continue
            tok = tok.replace("⁻¹", "^-1").replace("²", "^2")
            base, _, exp = tok.partition("^")
            k = int(exp) if exp else 1
            if base == "s":
                for _ in range(abs(k) % 2):
                    self._push(stack, "s")
            elif base == "t":
                k %= 3
                if k == 1:
                    self._push(stack, "t")
                elif k == 2:
                    self._push(stack, "T")
            else:
                raise ValueError(f"unknown generator symbol {tok!r}")
        return tuple(stack)

    def word(self, g):
        return " ".join("t^2" if x == "T" else x for x in g) or "e"

    _ORDER = {"s": 0, "t": 1, "T": 2}

    def sort_key(self, g):
        return (len(g),) + tuple(self._ORDER[x] for x in g)

    def generators(self):
        return [("s",), ("t",)]

    _SYLLABLE_POWER = {"s": (0, 1), "t": (1, 1), "T": (1, 2)}

    def decompose(self, g):
        return [self._SYLLABLE_POWER[x] for x in g]


# -- coded elements -----------------------------------------------------------


class Numbering:
    """Distinct hashable items numbered in first-seen order.

    many() takes a list, or an int64 array, which past 256 keys is numbered
    through its distinct values (np.unique).
    """

    def __init__(self):
        self.number: dict = {}
        self.items: list = []

    def __len__(self):
        return len(self.items)

    def many(self, items) -> np.ndarray:
        if isinstance(items, np.ndarray):
            if len(items) > 256:
                distinct, first, inverse = np.unique(items, return_index=True, return_inverse=True)
                order = np.argsort(first)
                numbers = np.empty(len(distinct), dtype=np.int64)
                numbers[order] = self.many(distinct[order].tolist())
                return numbers[inverse]
            items = items.tolist()
        if not self.items:
            self.items += dict.fromkeys(items)
            self.number.update(zip(self.items, range(len(self.items))))
            return np.fromiter(map(self.number.__getitem__, items), dtype=np.int64, count=len(items))
        try:
            return np.fromiter(map(self.number.__getitem__, items), dtype=np.int64, count=len(items))
        except KeyError:  # then one dict lookup per item: a new item is first
            pass          # numbered known + its first position, then renumbered in first-seen order
        known = len(self.items)
        numbers = np.fromiter(map(self.number.setdefault, items, itertools.count(known)), dtype=np.int64,
                              count=len(items))
        fresh = list(itertools.islice(self.number, known, None))
        new = numbers >= known
        numbers[new] = known + np.searchsorted(np.fromiter(itertools.islice(self.number.values(), known, None),
                                                           dtype=np.int64, count=len(fresh)), numbers[new])
        self.number.update(zip(fresh, range(known, known + len(fresh))))
        self.items += fresh
        return numbers


class KeyedTable(Numbering):
    """A Numbering that owns stacked value arrays: the key numbered k has row k of each.

    rows(keys, values) numbers the keys as many() does and, when some are
    new, calls values(at) once, with at the positions of the first entry of
    each new key in number order; values returns one array per column, a
    row per new key; if values raises, the new keys are forgotten.  The
    columns grow to twice the rows known before, so a table filled a key at
    a time copies each row a bounded number of times, and hold the same
    bits whatever the chunks it was filled in.
    """

    def __init__(self):
        super().__init__()
        self.columns: list = []  # the value arrays, row k for key k: views of the first len(self) rows of _arrays
        self._arrays, self._room = [], 0

    def rows(self, keys, values: Callable[[np.ndarray], list]) -> np.ndarray:
        known = len(self.items)
        numbers = self.many(keys)
        if len(self.items) > known:
            at = np.flatnonzero(numbers >= known)
            try:
                fresh = values(at[np.unique(numbers[at], return_index=True)[1]])
            except BaseException:  # the new keys get no rows: forget them, so the table stays whole
                for key in self.items[known:]:
                    del self.number[key]
                del self.items[known:]
                raise
            n = len(self.items)
            if n > self._room:
                self._room = max(2 * known, n)
                grown = [np.empty((self._room,) + v.shape[1:], dtype=v.dtype) for v in fresh]
                for g, c in zip(grown, self.columns):
                    g[:known] = c
                self._arrays = grown
            for c, v in zip(self._arrays, fresh):
                c[known:n] = v
            self.columns = [c[:n] for c in self._arrays]
        return numbers


# Code pairs whose products a CodedGroup keeps: about 2 MB of tables.  A
# call with more pairs than the room left looks them all up one by one, so
# a long chain of large products holds no table per pair.  (A system keeps
# its cocycle values unbounded, one row per key: TwistedSystem.cocycle_rows.)
PAIR_MEMO = 1 << 14


class CodedGroup:
    """int64 codes of group elements, with products and inverses of code arrays.

    mul(a, b)[i] codes the product of the elements coded a[i] and b[i], and
    inv(a)[i] the inverse of a[i].  This base, used by finite groups, the
    free families and Z^d for d > 5, numbers elements as they first appear
    and forms products and inverses through group.mul and group.inv, one
    call per entry (the tuple path), keeping every inverse and the products
    of up to PAIR_MEMO distinct code pairs, from calls that fit the room left.
    A finite group of order up to 1024 numbers its elements in the order of
    group.elements() instead, and keeps their inverses and a dense
    multiplication table (8 MB at order 1024) filled as pairs appear.
    Codes are only compared and looked up, so no result depends on which
    number an element gets.
    """

    def __init__(self, group: Group):
        self.group = weakref.proxy(group)  # the group keeps its coded view; no cycle back
        # code pair -> its product's code, and code -> its inverse's
        self._numbering, self._products, self._inverted = Numbering(), KeyedTable(), KeyedTable()
        self._identities = np.zeros(0, dtype=np.int64)
        self._table = self._residues = None
        if group.is_finite and len(elements := group.elements()) <= 1024:
            self.encode(elements)
            self._inverses = self.encode(list(map(group.inv, elements)))
            self._table = np.full((len(elements),) * 2, -1, dtype=np.int64)
            if isinstance(group, Cyclic):
                self._residues = np.array(elements, dtype=np.int64)

    def encode(self, points: list) -> np.ndarray:
        return self._numbering.many(points)

    def identities(self, n: int) -> np.ndarray:
        """n copies of the code of the group's identity, read-only."""
        if len(self._identities) < n:
            self._identities = np.repeat(self.encode([self.group.identity()]), 2 * n)
            self._identities.flags.writeable = False
        return self._identities[:n]

    def decode(self, codes: np.ndarray) -> list:
        items = self._numbering.items
        return [items[c] for c in codes.tolist()]

    def coordinates(self, codes: np.ndarray) -> np.ndarray | None:
        """The elements as int64 coordinates small enough for a theta key
        (residues on Z_n up to order 1024, (n, d) rows on Z^d), or None."""
        return None if self._residues is None else self._residues[codes]

    def pair_keys(self, a: np.ndarray, b: np.ndarray):
        """One key per code pair, for Numbering.many; numbers stay below 2^31."""
        return a << 32 | b

    def _tuple_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.encode(list(map(self.group.mul, self.decode(a), self.decode(b))))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._table is None:
            if len(self._products) + len(a) > PAIR_MEMO:
                return self._tuple_mul(a, b)
            pairs = self._products.rows(self.pair_keys(a, b), lambda at: [self._tuple_mul(a[at], b[at])])
            return self._products.columns[0][pairs]
        out = self._table[a, b]
        new = np.flatnonzero(out < 0)
        if len(new):
            out[new] = self._table[a[new], b[new]] = self._tuple_mul(a[new], b[new])
        return out

    def inv(self, a: np.ndarray) -> np.ndarray:
        if self._table is None:
            rows = self._inverted.rows(a, lambda at: [self.encode(list(map(self.group.inv, self.decode(a[at]))))])
            return self._inverted.columns[0][rows]
        return self._inverses[a]


class ZdCodes(CodedGroup):
    """Z^d, d <= 5: a point with every coordinate in [-R, R), R = 2^(b-3) for
    b = min(32, 62 // d), has a linear code, coordinate g_i + 2^(b-1) as
    digit i in base 2^b.

    A linear code is K, the identity's code, plus a linear function of the
    point, so a product of two is a + b - K (no digit carries, since each
    coordinate sum lies in [-2R, 2R)) and an inverse 2K - a, kept when a
    mask test finds every coordinate back in [-R, R).  Any other point is
    numbered as it first appears and coded -1 - its number; products and
    inverses that leave the range or meet such a point take the tuple path.
    So every point, however large, has one code.
    """

    def __init__(self, group: "Zd"):
        super().__init__(group)
        self.d, bits = group.d, min(32, 62 // group.d)
        self.range = 1 << (bits - 3)
        self._shifts = bits * np.arange(self.d, dtype=np.int64)
        digits = int(np.left_shift(1, self._shifts).sum())  # a 1 in every digit
        self._half, self._mask = 1 << (bits - 1), (1 << bits) - 1
        self._offset = self._half * digits
        # a digit g_i + 2^(b-1) + R, for g_i in [-2R, 2R), has top bits 10 iff g_i is in [-R, R)
        self._lift, self._top = self.range * digits, (3 << (bits - 2)) * digits

    def encode(self, points) -> np.ndarray:
        """The codes of a list of d-tuples, or of the rows of an (n, d) int64 array."""
        try:
            coords = np.asarray(points, dtype=np.int64).reshape(-1, self.d)
        except OverflowError:  # a coordinate past int64
            coords = None
        if coords is not None and ((coords + self.range).view(np.uint64) < 2 * self.range).all():
            return (coords + self._half) @ (1 << self._shifts)
        if isinstance(points, np.ndarray):
            points = list(map(tuple, points.tolist()))
        weights, R = (1 << self._shifts).tolist(), self.range

        def code(p):
            if all(-R <= x < R for x in p):
                return sum((x + self._half) * w for x, w in zip(p, weights))
            return -1 - int(self._numbering.many([p])[0])

        return np.array(list(map(code, points)), dtype=np.int64)

    def _linear_coordinates(self, codes: np.ndarray) -> np.ndarray:
        return (np.right_shift(codes[:, None], self._shifts) & self._mask) - self._half

    def decode(self, codes: np.ndarray) -> list:
        out = list(map(tuple, self._linear_coordinates(codes).tolist()))
        if self._numbering.items:
            items = self._numbering.items
            for i in np.flatnonzero(codes < 0).tolist():
                out[i] = items[-1 - int(codes[i])]
        return out

    def coordinates(self, codes: np.ndarray) -> np.ndarray | None:
        if self._numbering.items and (codes < 0).any():
            return None
        return self._linear_coordinates(codes)

    def pair_keys(self, a: np.ndarray, b: np.ndarray):
        return list(zip(a.tolist(), b.tolist()))

    def _linear_or(self, out: np.ndarray, operands: np.ndarray, tuple_path: Callable) -> np.ndarray:
        """out where it is a linear code made from linear codes (operands < 0 where one is not), else the tuple path."""
        bad = ((out + self._lift) & self._top) != self._offset
        if self._numbering.items:
            bad |= operands < 0
        at = np.flatnonzero(bad)
        if len(at):
            out[at] = tuple_path(at)
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._linear_or(a + b - self._offset, a | b, lambda at: self._tuple_mul(a[at], b[at]))

    def inv(self, a: np.ndarray) -> np.ndarray:
        return self._linear_or(2 * self._offset - a, a, lambda at: CodedGroup.inv(self, a[at]))


def coded_group(group: Group) -> CodedGroup:
    """The coded view of the group, made on first use and kept on it, so the
    systems and balls over one group share its tables: ZdCodes on Z^d up to
    d = 5, the numbered CodedGroup otherwise."""
    coded = group.__dict__.get("_coded")
    if coded is None:
        coded = group._coded = ZdCodes(group) if isinstance(group, Zd) and group.d <= 5 else CodedGroup(group)
    return coded


# -- length functions ---------------------------------------------------------


def word_length(group: Group) -> LengthFunction:
    """Word length w.r.t. the standard generators."""
    if isinstance(group, FreeF2):
        return LengthFunction(group, "word", lambda g: float(len(g)))
    if isinstance(group, Cyclic):
        n = group.n
        return LengthFunction(group, "word", lambda g: float(min(g, n - g)))
    if isinstance(group, Zd):
        return LengthFunction(group, "word", lambda g: float(sum(abs(a) for a in g)))
    if isinstance(group, DirectProduct):
        fns = [word_length(f) for f in group.factors]
        return LengthFunction(group, "word", lambda g: float(sum(fn(a) for fn, a in zip(fns, g))))
    if group.is_finite:
        table = _word_lengths(group)
        return LengthFunction(group, "word", lambda g: float(table[g]))
    raise ValueError(f"no word length shipped for {group.name}")


def _word_lengths(group: Group) -> dict:
    """{g: word length of g} over a finite group, breadth first.

    The letters are the standard generators and their inverses.
    """
    letters = list(dict.fromkeys(x for s in group.generators() for x in (s, group.inv(s))))
    table = {group.identity(): 0}
    frontier, n = [group.identity()], 0
    while frontier:
        n += 1
        nxt = []
        for g in frontier:
            for s in letters:
                h = group.mul(g, s)
                if h not in table:
                    table[h] = n
                    nxt.append(h)
        frontier = nxt
    return table


def one_norm(group: Zd) -> LengthFunction:
    return LengthFunction(group, "one-norm", lambda g: float(sum(abs(a) for a in g)))


def two_norm(group: Zd) -> LengthFunction:
    return LengthFunction(group, "two-norm", lambda g: math.sqrt(sum(a * a for a in g)))


def squared_two_norm(group: Zd) -> LengthFunction:
    return LengthFunction(group, "squared-two-norm", lambda g: float(sum(a * a for a in g)))


def block_length(group: FreeProductZ2Z3) -> LengthFunction:
    """Number of syllables in the alternating normal form."""
    return LengthFunction(group, "block", lambda g: float(len(g)))


def default_length(group: Group) -> LengthFunction:
    if isinstance(group, Zd):
        return one_norm(group)
    if isinstance(group, FreeProductZ2Z3):
        return block_length(group)
    return word_length(group)


# -- ball enumeration ---------------------------------------------------------


class Ball(list):
    """The points of a ball in ball order, numbered by their positions.

    codes are the points' codes in the group's coded view (coded_group),
    encoded once, on first use; a ball of Z^d also keeps its points as an
    (n, d) int64 coordinate array, from which ZdCodes encodes them.
    translate(g, code), for g and its code in that view, is the int64 array
    whose entry i is the position of g * self[i], or -1 where that product
    lies outside the ball.  A call is O(|ball|) array work (per letter of g
    on the free families):
      F2 and Z2 * Z3: one left-multiplication table per letter, applied right
        to left along the normal form of g (a product along a reduced word
        never comes back into the ball once it has left it);
      other groups: the products of the code of g with the points' codes in
        the coded view (whose tables the systems over the group share),
        looked up among the points' codes.
    What translate needs is built on its first call.
    """

    def __init__(self, group: Group, points: list, first: list | None = None, tail: list | None = None,
                 coordinates: np.ndarray | None = None):
        super().__init__(points)
        self.group = group
        # free families: point i is letter number first[i] times point tail[i]
        self._first, self._tail = first, tail
        self._coordinates = coordinates
        self._translate = None

    @functools.cached_property
    def codes(self) -> np.ndarray:
        coded = coded_group(self.group)
        if isinstance(coded, ZdCodes) and self._coordinates is not None:
            return coded.encode(self._coordinates)
        return coded.encode(list(self))

    def over(self, group: Group) -> "Ball":
        """This ball over group, an equal group object, so that its codes are group's."""
        if group is self.group:
            return self
        return Ball(group, self, self._first, self._tail, self._coordinates)

    def translate(self, g: Elt, code: int) -> np.ndarray:
        if self._translate is None:
            if self._first is not None:
                self._translate = _free_translate(self.group, self._first, self._tail)
            else:
                self._translate = _coded_translate(self)
        return self._translate(g, code)


def ball(R: float, length: LengthFunction) -> Ball:
    """All g with L(g) <= R, ordered by (length, lexicographic key), as a Ball.

    Exact and duplicate-free; the order is the index order used by every
    matrix compression, so it must never change.
    """
    if R < 0:
        raise ValueError("ball radius must be nonnegative")
    group = length.group
    if isinstance(group, Zd) and length.tag in _ZD_TAGS:
        return _zd_ball(group, R, length.tag)
    if (isinstance(group, FreeF2) and length.tag == "word") or (
        isinstance(group, FreeProductZ2Z3) and length.tag == "block"
    ):
        return _free_ball(group, math.floor(R))
    if not group.is_finite:
        raise ValueError(f"no ball enumeration for {group.name} with {length.tag}")
    # (L(g), g) for every element, each length computed once
    keyed = [((L, group.sort_key(g)), g) for g in group.elements() if (L := length(g)) <= R]
    keyed.sort(key=operator.itemgetter(0))
    return Ball(group, [g for _, g in keyed])


def _letters(group: Group) -> list:
    """The letters (F2) or syllables (Z2 * Z3) of the normal forms, in sort-key order."""
    return sorted(group._ORDER, key=group._ORDER.get)


def _free_ball(group: Group, r: int) -> Ball:
    """ball(r) of F2 (word length) or Z2 * Z3 (block length), breadth first.

    Level n is every letter x, in sort-key order, put in front of every
    point of level n - 1 that x may precede, in ball order; that is
    (length, lexicographic key) order, so no sort is needed.
    """
    letters = _letters(group)
    # x may precede a word starting with y unless x y reduces; any x may
    # precede the identity, whose first letter is numbered -1
    precede = [[len(group.mul((x,), (y,))) == 2 for y in letters] + [True] for x in letters]
    points, first, tail = [group.identity()], [-1], [-1]
    level = range(1)
    for _ in range(r):
        start = len(points)
        for x, letter in enumerate(letters):
            ok = precede[x]
            rows = [i for i in level if ok[first[i]]]
            points += [(letter,) + points[i] for i in rows]
            first += [x] * len(rows)
            tail += rows
        level = range(start, len(points))
    return Ball(group, points, first, tail)


def _free_translate(group: Group, first: list, tail: list) -> Callable:
    """Left translation of a free-family ball through one table per letter.

    x times the point y w (y its first letter) is x prepended to y w, or,
    when x y reduces to the syllable z (possibly empty), z prepended to w.
    Each table has a trailing -1 so that a product outside the ball stays
    outside.
    """
    letters = _letters(group)
    number = {x: i for i, x in enumerate(letters)}
    n = len(first)
    first, tail, rows = np.array(first), np.array(tail), np.arange(n)
    prepend = np.full((len(letters), n + 1), -1)  # the row of letter x times point i
    prepend[first[1:], tail[1:]] = rows[1:]
    tables = np.full((len(letters), n + 1), -1)
    for x, letter in enumerate(letters):
        # indexed by the first letter y of a point (the identity's -1 last):
        # whether x y reduces, and the letter then put in front (-1: none)
        reduced = [group.mul((letter,), (y,)) for y in letters]
        on_tail = np.array([len(p) < 2 for p in reduced] + [False])
        put = np.array([x if len(p) == 2 else number[p[0]] if p else -1 for p in reduced] + [x])
        base = np.where(on_tail[first], tail, rows)
        z = put[first]
        tables[x, :n] = np.where(z < 0, base, prepend[z, base])

    def translate(g, code):
        out = rows
        for letter in reversed(g):
            out = tables[number[letter]][out]
        return out

    return translate


def _coded_translate(points: Ball) -> Callable:
    """Left translation through the coded group: the codes of g h, found among the sorted codes of the points.

    An element has one code, so equal codes are equal points.  On Z^d, with
    r the ball's largest coordinate, a g past 2r in some coordinate moves
    no point into the ball and is answered without products.
    """
    coded, n, codes = coded_group(points.group), len(points), points.codes
    order = np.argsort(codes)
    ordered = codes[order]
    r = math.inf if points._coordinates is None else int(np.abs(points._coordinates).max())

    def translate(g, code):
        if r < math.inf and max(map(abs, g)) > 2 * r:
            return np.full(n, -1, dtype=np.int64)
        c = coded.mul(np.full(n, code, dtype=np.int64), codes)
        at = np.minimum(np.searchsorted(ordered, c), n - 1)
        return np.where(ordered[at] == c, order[at], -1)

    return translate


def ball_size(R: float, length: LengthFunction) -> int:
    """len(ball(R, length)), counted in closed form where one is known.

    Z^d under the one-norm (= word length): sum_k 2^k C(d, k) C(floor R, k).
    F2 under word length: 2 * 3^floor(R) - 1.  Z2 * Z3 under block length:
    1 + sum_{1 <= m <= R} (2^floor(m/2) + 2^ceil(m/2)).  Other lengths
    enumerate the ball.
    """
    if R < 0:
        raise ValueError("ball radius must be nonnegative")
    group, r = length.group, int(math.floor(R))
    if isinstance(group, Zd) and length.tag in ("one-norm", "word"):
        return sum(2 ** k * math.comb(group.d, k) * math.comb(r, k) for k in range(min(group.d, r) + 1))
    if isinstance(group, FreeF2) and length.tag == "word":
        return 2 * 3 ** r - 1
    if isinstance(group, FreeProductZ2Z3) and length.tag == "block":
        return 1 + sum(2 ** (m // 2) + 2 ** ((m + 1) // 2) for m in range(1, r + 1))
    return len(ball(R, length))


def shell_size(m: int, length: LengthFunction) -> int:
    """Number of g with m - 1 < L(g) <= m (shell 0 is L = 0): ball_size(m) - ball_size(m - 1)."""
    return ball_size(m, length) - (ball_size(m - 1, length) if m else 0)


def shell_sizes(length: LengthFunction) -> Callable[[int], int]:
    """shell_size(m, length) for a caller that asks m, m + 1, m + 2, ... in turn
    (shell_series): each ball size is counted once and carried to the next shell."""
    last = [-1, 0]  # m and ball_size(m) of the last shell asked

    def size(m):
        outer = ball_size(m, length)
        inner = last[1] if last[0] == m - 1 else ball_size(m - 1, length) if m else 0
        last[:] = m, outer
        return outer - inner

    return size


def one_norm_shell_floor(m: int, length: LengthFunction) -> float:
    """The least L(g) over the 1-norm shell |g|_1 = m of Z^d.

    |g|_2 >= |g|_1 / sqrt(d), so the 2-norm is at least m / sqrt(d) and the
    squared 2-norm at least m^2 / d there.
    """
    d = length.group.d
    if length.tag in ("one-norm", "word"):
        return m
    if length.tag == "two-norm":
        return m / math.sqrt(d)
    if length.tag == "squared-two-norm":
        return m * m / d
    raise ValueError(f"unsupported length tag {length.tag!r}")


def free_shell_sum(q: float, length: LengthFunction) -> float | None:
    """sum_m shell_size(m, length) q^m for q >= 0 on the free families, in closed form.

    F2 (shells 4 * 3^{m-1}): 1 + 4q / (1 - 3q), finite for 3q < 1.  Z2 * Z3
    (shells 2^floor(m/2) + 2^ceil(m/2)): (1 + q)(1 + 2q) / (1 - 2q^2), finite
    for sqrt(2) q < 1.  inf past the radius of convergence; None for other
    groups and lengths.
    """
    group = length.group
    if isinstance(group, FreeF2) and length.tag == "word":
        return 1.0 + 4.0 * q / (1.0 - 3.0 * q) if 3.0 * q < 1.0 else math.inf
    if isinstance(group, FreeProductZ2Z3) and length.tag == "block":
        return (1.0 + q) * (1.0 + 2.0 * q) / (1.0 - 2.0 * q * q) if math.sqrt(2.0) * q < 1.0 else math.inf
    return None


def shell_series(term: Callable[[int], float], start: int, tol: float) -> tuple[list, float]:
    """Partial terms term(start), term(start + 1), ..., term(m) and a certified
    bound for the remainder sum_{k > m} term(k).

    For nonnegative terms whose ratios term(k + 1) / term(k) never increase,
    the remainder past m is at most t q / (1 - q) with t = term(m) and
    q = term(m + 1) / t.  The series stops at the first m at least 8 past
    start where q < 1 and that bound is below tol, or at the first zero term
    more than 8 past start (remainder 0).  Each term is formed once: the
    term(m + 1) of a ratio test is carried over as the next term.
    """
    terms = [term(start)]
    m, ahead = start, None  # the last ratio test's term(m + 1): every step after the first test makes one or stops
    while True:
        m += 1
        t = term(m) if ahead is None else ahead
        terms.append(t)
        if t == 0.0:
            if m > start + 8:
                return terms, 0.0
            continue
        if m < start + 8:
            continue
        ahead = term(m + 1)
        q = ahead / t
        if q < 1.0 and t * q / (1.0 - q) < tol:
            return terms, t * q / (1.0 - q)
        if m > start + 2_000_000:
            raise ValueError("shell series did not converge")


# The Z^d lengths that ball() enumerates on a coordinate array
_ZD_TAGS = ("one-norm", "word", "two-norm", "squared-two-norm")


def _zd_ball(group: Zd, R: float, tag: str) -> Ball:
    """ball(R) of Z^d under a _ZD_TAGS length, built on an int64 coordinate array.

    The integer points within an integer budget that covers ball(R) are
    enumerated in lexicographic order, one coordinate at a time against what
    is left of the budget: floor(R) of the one-norm for the one-norm and word
    lengths, and for the two-norm lengths a budget on the sum of squares
    (floor(R^2), or floor(R) for the squared two-norm) with one unit of slack
    for rounding.  Their lengths are computed on the array as the length
    functions compute them (the integer sum, then a float, then the square
    root), those past R are dropped, and a stable sort by length gives the
    (length, lexicographic) order.
    """
    one_norm = tag in ("one-norm", "word")
    cost = np.abs if one_norm else np.square  # of one coordinate: the point's sum is the length or its square
    if one_norm:
        budget = int(math.floor(R))
    else:
        budget = int(math.floor(R if tag == "squared-two-norm" else R * R)) + 1
    coords, left = np.zeros((1, 0), dtype=np.int64), np.array([budget], dtype=np.int64)
    for _ in range(group.d):
        if one_norm:
            reach = left
        else:  # the integer square root, its float estimate corrected by one either way
            reach = np.sqrt(left).astype(np.int64)
            reach -= reach * reach > left
            reach += (reach + 1) * (reach + 1) <= left
        counts = 2 * reach + 1
        prefix = np.repeat(np.arange(len(left)), counts)
        a = np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts, counts) - reach[prefix]
        coords = np.column_stack((coords[prefix], a))
        left = left[prefix] - cost(a)
    lengths = cost(coords).sum(axis=1).astype(float)
    if tag == "two-norm":
        lengths = np.sqrt(lengths)
    inside = np.flatnonzero(lengths <= R)
    coords = coords[inside[np.argsort(lengths[inside], kind="stable")]]
    return Ball(group, list(zip(*coords.T.tolist())), coordinates=coords)


# -- Folner sequences ---------------------------------------------------------


class FolnerSequence:
    """Index-parameterized finite subsets F_i with |gF_i n F_i|/|F_i| -> 1."""

    def __init__(self, group: Group):
        self.group = group

    def set_at(self, i: int) -> list:
        raise NotImplementedError

    def ratio(self, g: Elt, i: int) -> float:
        """|g F_i n F_i| / |F_i|, computed exactly."""
        raise NotImplementedError


class BoxFolner(FolnerSequence):
    """Half-open boxes {0..i-1}^d in Z^d, anchored at 0.

    On Z these give the classical Fejer kernel: the ratio at g is
    max(0, 1 - |g|/i) per axis.
    """

    def set_at(self, i: int):
        if i < 1:
            raise ValueError("Folner index must be >= 1")
        return [g for g in itertools.product(range(i), repeat=self.group.d)]

    def ratio(self, g, i):
        out = 1.0
        for a in g:
            out *= max(0, i - abs(a)) / i
        return out


class FullGroupFolner(FolnerSequence):
    """Finite groups: the whole group at every index."""

    def set_at(self, i: int):
        if i < 1:
            raise ValueError("Folner index must be >= 1")
        return self.group.elements()

    def ratio(self, g, i):
        return 1.0


def folner_sequence(group: Group) -> FolnerSequence:
    if group.is_finite:
        return FullGroupFolner(group)
    if isinstance(group, Zd):
        return BoxFolner(group)
    raise ValueError(f"no Folner sequence shipped for {group.name}")

"""Discrete group families with canonical normal forms.

Shipped families: finite cyclic Z_n, finite dihedral D_n, direct products of
finite cyclic groups, the lattices Z^d, the free group F2 and the free
product Z2 * Z3.  Elements are plain hashable Python values in a canonical
normal form, so equality of values is equality of group elements.

Each family also ships the length functions and (where they exist) the
Folner sequences used by the truncation and summation machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

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
        return self._reduce_concat(g, h)

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
        stack = list(g)
        for syl in h:
            self._push(stack, syl)
        return tuple(stack)

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
        table = _bfs_lengths(group)
        return LengthFunction(group, "word", lambda g: float(table[g]))
    raise ValueError(f"no word length shipped for {group.name}")


def _bfs_lengths(group: Group) -> dict:
    letters = []
    for s in group.generators():
        letters.append(s)
        letters.append(group.inv(s))
    table = {group.identity(): 0}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in letters:
                h = group.mul(g, s)
                if h not in table:
                    table[h] = table[g] + 1
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


def ball(R: float, length: LengthFunction) -> list:
    """All g with L(g) <= R, ordered by (length, lexicographic key).

    Exact and duplicate-free; the order is the index order used by every
    matrix compression, so it must never change.
    """
    if R < 0:
        raise ValueError("ball radius must be nonnegative")
    group = length.group
    if group.is_finite:
        elts = [g for g in group.elements() if length(g) <= R]
    elif isinstance(group, Zd):
        elts = _zd_ball(group, R, length)
    elif isinstance(group, FreeF2) and length.tag == "word":
        elts = _generated_ball(group, int(math.floor(R)))
    elif isinstance(group, FreeProductZ2Z3) and length.tag == "block":
        elts = _syllable_ball(group, int(math.floor(R)))
    else:
        raise ValueError(f"no ball enumeration for {group.name} with {length.tag}")
    return sorted(elts, key=lambda g: (length(g), group.sort_key(g)))


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


def _zd_ball(group: Zd, R: float, length: LengthFunction) -> list:
    if length.tag == "squared-two-norm":
        box = int(math.isqrt(int(math.floor(R))))
    else:
        box = int(math.floor(R))
    rng = range(-box, box + 1)
    return [g for g in itertools.product(rng, repeat=group.d) if length(g) <= R]


def _generated_ball(group: Group, radius: int) -> list:
    letters = []
    for s in group.generators():
        letters.append(s)
        letters.append(group.inv(s))
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in letters:
                h = group.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return list(seen)


def _syllable_ball(group: FreeProductZ2Z3, radius: int) -> list:
    out = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            last = group._factor(g[-1]) if g else None
            for syl in ("s", "t", "T"):
                if group._factor(syl) != last:
                    nxt.append(g + (syl,))
        out.extend(nxt)
        frontier = nxt
    return out


# -- Folner sequences ---------------------------------------------------------


class FolnerSequence:
    """Index-parameterized finite subsets F_i with |gF_i n F_i|/|F_i| -> 1."""

    def __init__(self, group: Group):
        self.group = group

    def set_at(self, i: int) -> list:
        raise NotImplementedError

    def ratio(self, g: Elt, i: int) -> float:
        """|g F_i n F_i| / |F_i|, computed exactly."""
        F = self.set_at(i)
        Fset = set(F)
        count = sum(1 for x in F if self.group.mul(g, x) in Fset)
        return count / len(F)


class BoxFolner(FolnerSequence):
    """Half-open boxes {0..i-1}^d in Z^d, anchored at 0.

    On Z these give the classical Fejer kernel: the ratio at g is
    max(0, 1 - |g|/i) per axis.
    """

    def __init__(self, group: Zd):
        super().__init__(group)

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

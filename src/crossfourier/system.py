"""Twisted C*-dynamical systems: an algebra, a group, an action and a cocycle.

A system packages an action rule g -> automorphism and a unitary cocycle rule
(g, h) -> element satisfying

    action(g) . action(h) = Ad(cocycle(g, h)) . action(gh)
    cocycle(g, h) cocycle(gh, k) = action(g)(cocycle(h, k)) cocycle(g, hk)
    cocycle(g, e) = cocycle(e, g) = 1.

Rules are closed-form and pure; on infinite groups they are never tables.

Each system works on the coded view of its group (system.coded, kept on
the group) and keeps, as long as it lives, the tables the batched
arithmetic gathers from, each a groups.KeyedTable.  Each cocycle value is
kept once, as the row of its key in one table: the key is B(g, h) for
theta rules, 0 for the trivial rule, the center index for the SL(2,Z)
section rule (read from syllable counts, so the table has two rows) and
the code pair otherwise, and its value is evaluated through cocycle() at
the first pair with that key.  Each action is kept once, as the row of its
code in the other table, stacked with its inverse when act_rows first
meets the code; generator_action stacks a batch of new codes in array
passes from its stacked generator powers, and the inverses are the
conjugate transposes with the permutations inverted, every conjugator
checked unitary.  cocycle() returns the rule's value and keeps nothing;
so does action(), except on a rule that stacks (generator_action's), whose
action it reads from the table, filling g's row as act_rows would.
act_rows is the one place that applies stacked actions.
Whether it applies them is decided once per system: a system whose action
rule is trivial_action's skips them, every other system applies each one,
the identity included.
Validation is exhaustive on finite groups up to order 64 and sampled from
ball(3)^3 otherwise; it runs batched on the same tables (validate_system).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (
    ALG_TOL, AlgAutomorphism, AlgElement, BlockAlgebra, adjoints, apply_automorphisms, compose_automorphisms,
    check_unitary, inverse_automorphisms, stack_automorphisms, stack_blocks, stacked_norms, unitary_rows,
)
from .groups import Group, Cyclic, FreeProductZ2Z3, KeyedTable, Zd, ball, coded_group, default_length


class TwistedSystem:
    """The quadruple (algebra, group, action, cocycle) with its coded tables."""

    def __init__(
        self,
        algebra: BlockAlgebra,
        group: Group,
        action_rule: Callable[[object], AlgAutomorphism],
        cocycle_rule: Callable[[object, object], AlgElement],
        tag: str = "custom",
    ):
        self.algebra = algebra
        self.group = group
        self._action_rule = action_rule
        self._cocycle_rule = cocycle_rule
        self.tag = tag
        self._action_cache = KeyedTable()  # code -> its action, then its inverse (stack_automorphisms)
        self._cocycle_cache = KeyedTable()  # cocycle key -> its value's blocks
        self._compression_plans: dict = {}  # (float R, length tag) -> crossed.CompressionPlan
        self._skips_action = getattr(action_rule, "trivial", False)
        self._permutes = False  # whether some stacked action permutes blocks

    def __repr__(self):
        return f"TwistedSystem({self.algebra!r}, {self.group.name}, tag={self.tag})"

    @functools.cached_property
    def coded(self):
        """The coded view of the group (groups.coded_group), shared with its balls."""
        return coded_group(self.group)

    def action(self, g) -> AlgAutomorphism:
        """The rule's value; the batched arithmetic applies the stacked table (act_rows) instead.

        A rule that stacks its values (generator_action's) is read from the
        stacked table, g's row filled as act_rows fills it, so a repeated
        action is a lookup; the row is the rule's value bit for bit.
        """
        return self._automorphism(g, inverse=False)

    def cocycle(self, g, h) -> AlgElement:
        """The rule's value; the batched arithmetic reads the stacked table (cocycle_rows) instead."""
        return self._cocycle_rule(g, h)

    def act(self, g, a: AlgElement) -> AlgElement:
        return self.action(g)(a)

    def act_inv(self, g, a: AlgElement) -> AlgElement:
        """Apply action(g)^{-1} (the inverse automorphism, not action(g^{-1}))."""
        return self._automorphism(g, inverse=True)(a)

    def _automorphism(self, g, inverse: bool) -> AlgAutomorphism:
        """action(g), or its inverse automorphism: a stacking rule's from its table row, any other's from the rule."""
        if not hasattr(self._action_rule, "stack"):
            auto = self._action_rule(g)
            return auto.inverse() if inverse else auto
        row = self._action_rows(self.coded.encode([g]))[0]
        stack, half = self._action_cache.columns, 1 + len(self.algebra.dims)
        return AlgAutomorphism.from_stack(self.algebra, stack[half:] if inverse else stack[:half], row)

    # -- the coded tables ---------------------------------------------------------

    def cocycle_rows(self, g: np.ndarray, h: np.ndarray, gh: np.ndarray) -> np.ndarray:
        """The row of cocycle(g[i], h[i]) in the stacked values (cocycle_blocks), for code arrays g, h.

        gh holds the codes of the products g[i] h[i], which every caller has
        formed already.  A value is keyed by the rule's keys(coded, g, h, gh)
        where it has them (theta, trivial and the SL(2,Z) section rules; the
        section's keys are the center index, read from gh), by the code pair
        otherwise; a key's number is its row.  Each new key's value is
        evaluated through cocycle() at its first pair and stacked, so every
        value is kept once, in the table alone.
        """
        keys_of = getattr(self._cocycle_rule, "keys", None)
        return self._cocycle_cache.rows(
            keys_of(self.coded, g, h, gh) if keys_of else self.coded.pair_keys(g, h),
            lambda at: stack_blocks(list(map(self.cocycle, self.coded.decode(g[at]), self.coded.decode(h[at])))),
        )

    def cocycle_blocks(self, rows: np.ndarray) -> list:
        return [t[rows] for t in self._cocycle_cache.columns]

    def _stack_actions(self, codes: np.ndarray) -> list:
        """The stacked actions of new codes, then their inverses (stack_automorphisms).

        A rule with a stack method (generator_action's) stacks the batch at
        once; any other rule is called per point.
        """
        points = self.coded.decode(codes)
        stack_of = getattr(self._action_rule, "stack", None)
        stack = stack_of(points) if stack_of else stack_automorphisms(list(map(self._action_rule, points)))
        self._permutes = self._permutes or bool((stack[0] != np.arange(stack[0].shape[1])).any())
        return stack + inverse_automorphisms(stack)

    def _action_rows(self, codes: np.ndarray) -> np.ndarray:
        """The rows of the codes' actions in the stacked table, stacking those of new codes."""
        return self._action_cache.rows(codes, lambda at: self._stack_actions(codes[at]))

    def act_rows(self, codes: np.ndarray, which: np.ndarray, blocks: list, inverse: bool = False) -> list:
        """action(g), or its inverse automorphism, for g coded codes[which[i]], applied to row i of blocks.

        Bit for bit AlgAutomorphism.__call__, except on a system whose action
        rule is trivial_action's: there the blocks are returned as they are,
        whatever the batch.  That differs from applying 1 x 1^* only in the
        sign of a zero and beside an inf or NaN entry, which applying spreads
        as NaN over the block.
        """
        if self._skips_action:
            return blocks
        rows = self._action_rows(codes)
        stack, half = self._action_cache.columns, 1 + len(self.algebra.dims)
        return apply_automorphisms(stack[half:] if inverse else stack[:half], rows[which], blocks, self._permutes)


# -- action rules --------------------------------------------------------------


def trivial_action(algebra: BlockAlgebra) -> Callable:
    ident = AlgAutomorphism.identity(algebra)
    rule = lambda g: ident
    rule.trivial = True  # TwistedSystem.act_rows skips the actions of a system with this rule
    return rule


def generator_action(group: Group, algebra: BlockAlgebra, images: Sequence[AlgAutomorphism]) -> Callable:
    """Action from generator images, evaluated along the normal form.

    rule.stack(points) is the stacked actions of a batch of points
    (stack_automorphisms), and rule(g) the batch of one.  Each generator's
    powers are kept stacked, for either sign, grown one compose at a time
    in the order AlgAutomorphism.power uses, so the bits are the same; the
    factors of group.decompose are composed left to right, one batched
    compose per factor position.  Every power and every partial product is
    checked unitary, as building each as an AlgAutomorphism checks it.

    The caller is responsible for the images satisfying the group's relations
    (with the chosen cocycle); validate_system checks this on samples.
    """
    if len(images) != len(group.generators()):
        raise ValueError("one automorphism per generator required")
    ident = stack_automorphisms([AlgAutomorphism.identity(algebra)])
    # powers[(i, s)] stacks images[i]^k for k of sign s, row |k|
    powers = {}

    def power_rows(i: int, negative: bool, exponents: np.ndarray) -> list:
        table = powers.get((i, negative), ident)
        base = images[i].inverse() if negative else images[i]
        top = int(exponents.max()) + 1
        if top > len(table[0]):
            fresh, prev, perm = [[] for _ in table], [t[-1] for t in table], np.array(base.perm)
            for _ in range(top - len(table[0])):
                prev = [prev[0][perm]] + [np.matmul(u, prev[1 + p]) for p, u in zip(base.perm, base.unitaries)]
                for column, row in zip(fresh, prev):
                    column.append(row)
            fresh = [np.array(column) for column in fresh]
            good = np.logical_and.reduce([unitary_rows(u) for u in fresh[1:]])
            kept = len(good) if good.all() else int(np.argmin(good))
            table = powers[(i, negative)] = [np.concatenate([t, f[:kept]]) for t, f in zip(table, fresh)]
            if kept < len(good):
                raise ValueError("conjugator is not unitary to 1e-10")
        return [t[exponents] for t in table]

    def stack(points: list) -> list:
        factors = list(map(group.decompose, points))
        depth = np.fromiter(map(len, factors), dtype=np.int64, count=len(factors))
        out = [np.repeat(t, len(points), axis=0) for t in ident]
        partial = []  # the conjugators of every partial product, checked at the end
        for position in range(int(depth.max(initial=0))):
            at = np.flatnonzero(depth > position)
            i, k = np.array([factors[a][position] for a in at.tolist()], dtype=np.int64).reshape(-1, 2).T
            tables = set(zip(i.tolist(), (k < 0).tolist()))
            if len(tables) == 1:
                step = power_rows(*tables.pop(), np.abs(k))
            else:
                step = [np.empty((len(at),) + t.shape[1:], dtype=t.dtype) for t in ident]
                for gen, negative in tables:
                    chosen = (i == gen) & ((k < 0) == negative)
                    for s, t in zip(step, power_rows(gen, negative, np.abs(k[chosen]))):
                        s[chosen] = t
            if position:
                step = compose_automorphisms([t[at] for t in out], step)
                partial.append(step[1:])
            for t, s in zip(out, step):
                t[at] = s
        if partial:
            check_unitary([np.concatenate(u) for u in zip(*partial)])
        return out

    def rule(g):
        return AlgAutomorphism.from_stack(algebra, stack([g]), 0)

    rule.stack = stack
    return rule


# -- cocycle rules --------------------------------------------------------------


def trivial_cocycle(algebra: BlockAlgebra) -> Callable:
    one = algebra.unit()
    rule = lambda g, h: one
    rule.keys = lambda coded, g, h, gh: np.zeros(len(g), dtype=np.int64)  # one value under one key
    return rule


def _theta_value(theta) -> float:
    """theta as a float, from a number or a rational string like "1/5"."""
    try:
        return float(Fraction(theta) if isinstance(theta, str) else theta)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse theta {theta!r}") from None


def theta_cocycle(group: Group, algebra: BlockAlgebra, theta) -> Callable:
    """Bicharacter cocycle exp(2 pi i theta B(g, h)) times the unit.

    B is bilinear, so the cocycle identity holds exactly:
      Z^d, d >= 2:  B(m, n) = sum_{i<j} m_j n_i   (for d = 2 this is m_2 n_1)
      Z^1:          B(m, n) = m n
      Z_n:          B(j, k) = j k, which needs n * theta to be an integer.
    rule.keys(coded, g, h, gh) is B on code arrays, so a system keeps one value per distinct B.
    """
    th = _theta_value(theta)

    if isinstance(group, Zd):
        if group.d == 1:
            bform = lambda g, h: g[0] * h[0]
        else:
            def bform(g, h):
                return sum(g[j] * h[i] for i in range(group.d) for j in range(i + 1, group.d))
        # B on coordinate rows, with lower[j, i] = 1 for j > i
        lower = np.tril(np.ones((group.d, group.d), dtype=np.int64), -1)
        bforms = (lambda x, y: x[:, 0] * y[:, 0]) if group.d == 1 else (lambda x, y: ((x @ lower) * y).sum(axis=1))
    elif isinstance(group, Cyclic):
        if abs(group.n * th - round(group.n * th)) > 1e-12:
            raise ValueError(f"theta = {theta} is not well-defined on Z_{group.n}: n*theta must be an integer")
        bform = bforms = lambda g, h: g * h
    else:
        raise ValueError(f"theta cocycles are shipped for Z^d and Z_n, not {group.name}")

    one = algebra.unit()

    def rule(g, h):
        return cmath.exp(2j * cmath.pi * th * bform(g, h)) * one

    def keys(coded, g, h, gh):
        x, y = coded.coordinates(g), coded.coordinates(h)
        if x is None or y is None:  # B on the points themselves
            return list(map(bform, coded.decode(g), coded.decode(h)))
        return bforms(x, y)

    rule.keys = keys
    return rule


# -- constructors ---------------------------------------------------------------


def trivial_system(algebra: BlockAlgebra, group: Group) -> TwistedSystem:
    return TwistedSystem(algebra, group, trivial_action(algebra), trivial_cocycle(algebra), tag="trivial")


def theta_system(group: Group, theta, algebra: BlockAlgebra | None = None) -> TwistedSystem:
    """Trivial action with the theta-bicharacter cocycle (noncommutative torus)."""
    if algebra is None:
        algebra = BlockAlgebra([1])
    return TwistedSystem(
        algebra, group, trivial_action(algebra), theta_cocycle(group, algebra, theta),
        tag=f"theta-bicharacter({theta})",
    )


# -- central extensions ----------------------------------------------------------


@dataclass
class CentralExtension:
    """Extension 1 -> Z -> K -> G -> 1 with Z finite cyclic central and a section.

    `lift` must be the normal-form section G -> K with lift(e) = e_K; `center`
    lists Z in cyclic order starting at the identity, so the character values
    of z = center[k] are exp(2 pi i j k / |Z|).  `center_keys`, if given,
    is (coded, g, h, gh) -> the index k of s(g) s(h) s(gh)^{-1} = center[k]
    for code arrays g, h and their products gh, computed without lifting; the system then keeps one
    cocycle value per center element.
    """

    group: Group
    lift: Callable = field(repr=False)
    kmul: Callable = field(repr=False)
    kinv: Callable = field(repr=False)
    center: tuple = ()
    center_keys: Callable | None = field(default=None, repr=False)

    def center_index(self, z) -> int:
        try:
            return self.center.index(z)
        except ValueError:
            raise ValueError(f"element {z!r} is not in the declared center") from None


def section_cocycle_system(ext: CentralExtension) -> TwistedSystem:
    """System on C*(Z) = C^{|Z|} with cocycle from the section defect.

    cocycle(g, h) is the canonical unitary of C*(Z) at z = s(g) s(h) s(gh)^{-1},
    realized through the characters of Z; the action is trivial since Z is central.
    The rule lifts each element once.  Its keys are ext.center_keys where
    given (each center element's value is then evaluated once, through the
    rule), and the code pairs otherwise.
    """
    lifts: dict = {}  # g -> s(g), lifted once

    def lift(g):
        k = lifts.get(g)
        if k is None:
            k = lifts[g] = ext.lift(g)
        return k

    if lift(ext.group.identity()) != ext.center[0]:
        raise ValueError("section does not map the group identity to the identity")
    m = len(ext.center)
    algebra = BlockAlgebra([1] * m)
    # the canonical unitary of center[k], for each k
    unitaries = [algebra.scalar([cmath.exp(2j * cmath.pi * j * k / m) for j in range(m)]) for k in range(m)]

    def rule(g, h):
        z = ext.kmul(ext.kmul(lift(g), lift(h)), ext.kinv(lift(ext.group.mul(g, h))))
        return unitaries[ext.center_index(z)]

    if ext.center_keys is not None:
        rule.keys = ext.center_keys
    return TwistedSystem(algebra, ext.group, trivial_action(algebra), rule, tag="central-extension-section")


def _mat2_mul(x, y):
    (a, b), (c, d) = x
    (p, q), (r, s) = y
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _mat2_inv(x):
    (a, b), (c, d) = x
    det = a * d - b * c
    if det != 1:
        raise ValueError("not an SL(2,Z) matrix")
    return ((d, -b), (-c, a))


_SL2_I = ((1, 0), (0, 1))
_SL2_NEG_I = ((-1, 0), (0, -1))
_SL2_S = ((0, -1), (1, 0))        # order 4; projects to the order-2 generator
_SL2_U = ((0, -1), (1, -1))       # order 3; projects to the order-3 generator


def sl2z_extension() -> CentralExtension:
    """1 -> {+-I} -> SL(2,Z) -> Z2 * Z3 -> 1 with the normal-form section.

    Each syllable of the alternating normal form is lifted to a fixed matrix
    (s -> S, t -> U, t^2 -> U^2) and the lifts are multiplied in order, so the
    section is deterministic and reproducible.

    Its center keys need no matrices.  Where g and h meet, gh cancels
    c = (|g| + |h| - |gh|) // 2 syllable pairs (|.| the syllable count),
    alternately s against s (S^2 = -I) and t against t^2 (U^3 = I), and
    may merge one t-syllable more (U U = U^2, U^2 U^2 = U^4 = U), which is
    again a lift.  -I is central, so s(g) s(h) s(gh)^{-1} = (-I)^k with k
    the number of s-pairs: ceil(c / 2) if g ends in s, floor(c / 2)
    otherwise, that is (c + e) // 2 = (|g| + |h| - |gh| + 2 e) // 4 with
    e = 1 if g ends in s (a merged syllable adds 1 to the numerator, which
    the floor drops).
    """
    group = FreeProductZ2Z3()
    syllable_lift = {"s": _SL2_S, "t": _SL2_U, "T": _mat2_mul(_SL2_U, _SL2_U)}

    def lift(g):
        out = _SL2_I
        for syl in g:
            out = _mat2_mul(out, syllable_lift[syl])
        return out

    # per code: its syllable count, and the count plus 2 e, grown as the
    # coded view numbers new elements (its codes are 0, 1, ...)
    counts, leads = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    def center_keys(coded, g, h, gh):
        nonlocal counts, leads
        try:
            return (leads[g] + counts[h] - counts[gh]) >> 2 & 1  # // 4 % 2 of a sum that is never negative
        except IndexError:  # a code numbered since the last call: grow, then look up again
            fresh = coded.decode(np.arange(len(counts), 1 + max(g.max(), h.max(), gh.max())))
            more = np.fromiter(map(len, fresh), dtype=np.int64, count=len(fresh))
            ends_s = np.fromiter((x[-1:] == ("s",) for x in fresh), dtype=np.int64, count=len(fresh))
            counts, leads = np.append(counts, more), np.append(leads, more + 2 * ends_s)
        return center_keys(coded, g, h, gh)

    return CentralExtension(group, lift, _mat2_mul, _mat2_inv, center=(_SL2_I, _SL2_NEG_I), center_keys=center_keys)


def sl2z_system() -> TwistedSystem:
    """The SL(2,Z) model: C*(Z2)-coefficients over Z2 * Z3 with the section cocycle."""
    return section_cocycle_system(sl2z_extension())


# -- validation ------------------------------------------------------------------


# Samples per batched step of validate_system.  Bounds its stacked
# temporaries whatever the sample size (|G|^3 = 262 144 triples at |G| = 64).
_VALIDATE_CHUNK = 2048


def _rank(v: float) -> float:
    """Order of defects: NaN ranks with inf, above every finite value."""
    return math.inf if math.isnan(v) else v


@dataclass
class SystemReport:
    action_violation: float
    cocycle_violation: float
    normalization_violation: float
    unitarity_violation: float
    n_triples: int
    witness: dict

    @property
    def max_violation(self) -> float:
        return max(
            (self.action_violation, self.cocycle_violation, self.normalization_violation,
             self.unitarity_violation),
            key=_rank,
        )

    @property
    def passed(self) -> bool:
        return self.max_violation <= ALG_TOL

    def as_dict(self) -> dict:
        """JSON-ready; a non-finite violation is written as the string 'nan' or 'inf'."""
        def number(v):
            return v if math.isfinite(v) else str(v)

        return {
            "action_violation": number(self.action_violation),
            "cocycle_violation": number(self.cocycle_violation),
            "normalization_violation": number(self.normalization_violation),
            "unitarity_violation": number(self.unitarity_violation),
            "n_triples": self.n_triples,
            "passed": self.passed,
            "witness": {k: str(v) for k, v in self.witness.items()},
        }


# Peak bytes per sampled triple of default_triples (index row, tuple), 96 measured on Z^2 and F2.
_TRIPLE_BYTES = 96


def default_triples(system: TwistedSystem, rng=None, n_samples: int = 200) -> Iterable:
    """Exhaustive triples for finite |G| <= 64, made lazily; ball(3)^3 samples otherwise.

    The samples are drawn at the call, before validate_system draws its
    probes from the same rng.
    """
    from .crossed import check_budget  # crossed imports this module

    group = system.group
    if group.is_finite and len(group.elements()) <= 64:
        return itertools.product(group.elements(), repeat=3)
    check_budget(_TRIPLE_BYTES * n_samples, f"n_samples: {n_samples} sampled triples")
    pool = ball(3, default_length(group))
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(len(pool), size=(n_samples, 3))
    return [(pool[i], pool[j], pool[k]) for i, j, k in idx]


class _Worst:
    """Largest defect per axiom and the first sample reaching it.

    Samples are scanned in order and replace the witness only when strictly
    larger, from 0.0; a non-finite defect beats every finite one.
    """

    def __init__(self):
        self.value = {"action": 0.0, "cocycle": 0.0, "normalization": 0.0, "unitarity": 0.0}
        self.witness: dict = {}

    def update(self, axiom: str, defects: np.ndarray, sample: Callable[[int], object]):
        ranks = np.where(np.isnan(defects), np.inf, defects)
        i = int(np.argmax(ranks))
        if ranks[i] > _rank(self.value[axiom]):
            self.value[axiom] = float(defects[i])
            self.witness[axiom] = sample(i)


def validate_system(
    system: TwistedSystem,
    triples=None,
    probes=None,
    rng=None,
    n_samples: int = 200,
) -> SystemReport:
    """Max violations of the twisted-action axioms over the given samples.

    The default samples are every triple of a finite group of order <= 64
    and n_samples triples from ball(3)^3 otherwise.  Checked: the cocycle
    identity on each triple; unitarity, normalization and the action twist
    action(s) action(t) = Ad(cocycle(s, t)) action(st) (on the probes) on
    each distinct pair (g, h), (h, k) in first-seen order; action(e) = id.

    The check is batched and takes the triples in chunks of _VALIDATE_CHUNK
    from any iterable (the exhaustive ones are made as they are taken), so
    memory is bounded by the chunk and the distinct values.  It runs on
    codes and the system's stacked cocycles and actions, each axiom as
    gathers and batched matmuls.  The products are those of the AlgElement
    arithmetic, in the same order, so violations and witnesses are bit for
    bit those of a loop over the samples; each witness is the first sample
    reaching its violation.  Violations are reported, never raised; the
    report passes iff every violation is finite and at most 1e-10.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if triples is None:
        triples = default_triples(system, rng, n_samples)
    triples = iter(triples)
    if probes is None:
        probes = system.algebra.basis() + [system.algebra.random_element(rng) for _ in range(3)]

    coded = system.coded
    pairs = KeyedTable()  # the distinct pairs (g, h), (h, k) in first-seen order, as codes
    unit = system.algebra.unit().blocks
    worst = _Worst()
    sigma, rows = system.cocycle_blocks, system.cocycle_rows

    def minus(xs, ys):
        return [x - y for x, y in zip(xs, ys)]

    # overflowing values make non-finite defects, which the report carries
    with np.errstate(over="ignore", invalid="ignore"):
        n_triples = 0
        while chunk := list(itertools.islice(triples, _VALIDATE_CHUNK)):
            n_triples += len(chunk)
            g, h, k = coded.encode(list(itertools.chain.from_iterable(chunk))).reshape(-1, 3).T
            # (g, h) then (h, k) of each triple
            left, right = np.stack([g, h], axis=1).ravel(), np.stack([h, k], axis=1).ravel()
            pairs.rows(coded.pair_keys(left, right), lambda at: [left[at], right[at]])
            gh, hk = coded.mul(g, h), coded.mul(h, k)
            ghk = coded.mul(gh, k)
            # cocycle rows at (g, h), (gh, k), (h, k), (g, hk); the action of g
            r_gh, r_ghk, r_hk, r_ghk2 = np.split(rows(np.concatenate([g, gh, h, g]), np.concatenate([h, k, k, hk]),
                                                      np.concatenate([gh, ghk, hk, ghk])), 4)
            lhs = [np.matmul(x, y) for x, y in zip(sigma(r_gh), sigma(r_ghk))]
            acted = system.act_rows(g, np.arange(len(g)), sigma(r_hk))
            rhs = [np.matmul(x, y) for x, y in zip(acted, sigma(r_ghk2))]
            worst.update("cocycle", stacked_norms(minus(lhs, rhs)), lambda i: chunk[i])
        if not n_triples:
            raise ValueError("sample of triples must be nonempty")

        # per distinct pair (s, t): cocycle (s, t), (s, e), (e, s); action of st, t, s
        s, t = pairs.columns
        e = coded.identities(len(s))
        st = coded.mul(s, t)
        pair_sigmas = rows(np.concatenate([s, s, e]), np.concatenate([t, e, s]), np.concatenate([st, s, s]))
        pair_sigmas = pair_sigmas.reshape(3, -1).T

        def witness(i):
            return tuple(coded.decode(np.array([s[i], t[i]])))

        n_probes = len(probes)
        probe_table = stack_blocks(probes) if probes else []
        step = max(1, _VALIDATE_CHUNK // max(n_probes, 1))
        for lo in range(0, len(s), step):
            sig_st, sig_se, sig_es = pair_sigmas[lo:lo + step].T
            sig = sigma(sig_st)
            sig_star = [adjoints(y) for y in sig]
            defects = np.maximum(
                stacked_norms(minus([np.matmul(y, z) for y, z in zip(sig, sig_star)], unit)),
                stacked_norms(minus([np.matmul(z, y) for y, z in zip(sig, sig_star)], unit)),
            )
            worst.update("unitarity", defects, lambda i: witness(lo + i))
            defects = np.maximum(stacked_norms(minus(sigma(sig_se), unit)),
                                 stacked_norms(minus(sigma(sig_es), unit)))
            worst.update("normalization", defects, lambda i: witness(lo + i))
            if not probes:
                continue
            # pair-major, probe-minor rows: row i checks pair i // n_probes
            pair = np.repeat(np.arange(len(sig_st)), n_probes)
            xs = [b[np.tile(np.arange(n_probes), len(sig_st))] for b in probe_table]
            lhs = system.act_rows(s[lo:lo + step], pair, system.act_rows(t[lo:lo + step], pair, xs))
            # (sig a) sig^*, as sig * action(st)(x) * sig.star()
            rhs = [np.matmul(np.matmul(y, x), adjoints(y))
                   for y, x in zip(sigma(sig_st[pair]), system.act_rows(st[lo:lo + step], pair, xs))]
            worst.update("action", stacked_norms(minus(lhs, rhs)), lambda i: witness(lo + i // n_probes))

        if probes:
            acted = system.act_rows(e[:1], np.zeros(n_probes, dtype=np.int64), probe_table)
            worst.update("action", stacked_norms(minus(acted, probe_table)), lambda i: (system.group.identity(),) * 2)

    return SystemReport(
        worst.value["action"], worst.value["cocycle"], worst.value["normalization"],
        worst.value["unitarity"], n_triples, worst.witness,
    )

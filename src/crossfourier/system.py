"""Twisted C*-dynamical systems: an algebra, a group, an action and a cocycle.

A system packages an action rule g -> automorphism and a unitary cocycle rule
(g, h) -> element satisfying

    action(g) . action(h) = Ad(cocycle(g, h)) . action(gh)
    cocycle(g, h) cocycle(gh, k) = action(g)(cocycle(h, k)) cocycle(g, hk)
    cocycle(g, e) = cocycle(e, g) = 1.

Rules are closed-form and pure; on infinite groups they are never tables.
Validation is exhaustive on finite groups up to order 64 and sampled from
ball(3)^3 otherwise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .algebra import ALG_TOL, AlgAutomorphism, AlgElement, BlockAlgebra
from .groups import Group, Cyclic, FreeProductZ2Z3, Zd, ball, default_length


class TwistedSystem:
    """The quadruple (algebra, group, action, cocycle) with memoized rules."""

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
        self._action_cache: dict = {}
        self._cocycle_cache: dict = {}

    def __repr__(self):
        return f"TwistedSystem({self.algebra!r}, {self.group.name}, tag={self.tag})"

    def action(self, g) -> AlgAutomorphism:
        auto = self._action_cache.get(g)
        if auto is None:
            auto = self._action_rule(g)
            self._action_cache[g] = auto
        return auto

    def cocycle(self, g, h) -> AlgElement:
        key = (g, h)
        val = self._cocycle_cache.get(key)
        if val is None:
            val = self._cocycle_rule(g, h)
            self._cocycle_cache[key] = val
        return val

    def act(self, g, a: AlgElement) -> AlgElement:
        return self.action(g)(a)

    def act_inv(self, g, a: AlgElement) -> AlgElement:
        """Apply action(g)^{-1} (the inverse automorphism, not action(g^{-1}))."""
        return self.action(g).inverse()(a)


# -- action rules --------------------------------------------------------------


def trivial_action(algebra: BlockAlgebra) -> Callable:
    ident = AlgAutomorphism.identity(algebra)
    return lambda g: ident


def generator_action(group: Group, algebra: BlockAlgebra, images: Sequence[AlgAutomorphism]) -> Callable:
    """Action from generator images, evaluated along the normal form.

    The caller is responsible for the images satisfying the group's relations
    (with the chosen cocycle); validate_system checks this on samples.
    """
    if len(images) != len(group.generators()):
        raise ValueError("one automorphism per generator required")
    ident = AlgAutomorphism.identity(algebra)
    # powers[i][s][|k|] is images[i]^k for k of sign s, grown one compose at a
    # time in the order AlgAutomorphism.power uses, so the bits are the same
    powers = [([ident], [ident]) for _ in images]

    def power(i, k):
        table = powers[i][k < 0]
        base = images[i] if k >= 0 else images[i].inverse()
        while len(table) <= abs(k):
            table.append(base.compose(table[-1]))
        return table[abs(k)]

    def rule(g):
        auto = ident
        for i, k in group.decompose(g):
            auto = auto.compose(power(i, k))
        return auto

    return rule


# -- cocycle rules --------------------------------------------------------------


def trivial_cocycle(algebra: BlockAlgebra) -> Callable:
    one = algebra.unit()
    return lambda g, h: one


def _theta_value(theta) -> float:
    if isinstance(theta, str):
        theta = Fraction(theta)
    return float(theta)


def theta_cocycle(group: Group, algebra: BlockAlgebra, theta) -> Callable:
    """Bicharacter cocycle exp(2 pi i theta B(g, h)) times the unit.

    B is bilinear, so the cocycle identity holds exactly:
      Z^d, d >= 2:  B(m, n) = sum_{i<j} m_j n_i   (for d = 2 this is m_2 n_1)
      Z^1:          B(m, n) = m n
      Z_n:          B(j, k) = j k, which needs n * theta to be an integer.
    """
    th = _theta_value(theta)

    if isinstance(group, Zd):
        if group.d == 1:
            bform = lambda g, h: g[0] * h[0]
        else:
            def bform(g, h):
                return sum(g[j] * h[i] for i in range(group.d) for j in range(i + 1, group.d))
    elif isinstance(group, Cyclic):
        if abs(group.n * th - round(group.n * th)) > 1e-12:
            raise ValueError(f"theta = {theta} is not well-defined on Z_{group.n}: n*theta must be an integer")
        bform = lambda g, h: g * h
    else:
        raise ValueError(f"theta cocycles are shipped for Z^d and Z_n, not {group.name}")

    def rule(g, h):
        return cmath.exp(2j * cmath.pi * th * bform(g, h)) * algebra.unit()

    return rule


def table_cocycle(group: Group, table: dict) -> Callable:
    """Finite-group cocycle from an exhaustive table {(g, h): AlgElement}."""
    if not group.is_finite:
        raise ValueError("table cocycles are for finite groups only")

    def rule(g, h):
        return table[(g, h)]

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
    of z = center[k] are exp(2 pi i j k / |Z|).
    """

    group: Group
    lift: Callable = field(repr=False)
    kmul: Callable = field(repr=False)
    kinv: Callable = field(repr=False)
    center: tuple = ()

    def center_index(self, z) -> int:
        try:
            return self.center.index(z)
        except ValueError:
            raise ValueError(f"element {z!r} is not in the declared center") from None


def section_cocycle_system(ext: CentralExtension) -> TwistedSystem:
    """System on C*(Z) = C^{|Z|} with cocycle from the section defect.

    cocycle(g, h) is the canonical unitary of C*(Z) at z = s(g) s(h) s(gh)^{-1},
    realized through the characters of Z; the action is trivial since Z is central.
    """
    e = ext.group.identity()
    if ext.lift(e) != ext.center[0]:
        raise ValueError("section does not map the group identity to the identity")
    m = len(ext.center)
    algebra = BlockAlgebra([1] * m)

    def rule(g, h):
        z = ext.kmul(ext.kmul(ext.lift(g), ext.lift(h)), ext.kinv(ext.lift(ext.group.mul(g, h))))
        k = ext.center_index(z)
        return algebra.scalar([cmath.exp(2j * cmath.pi * j * k / m) for j in range(m)])

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
    """
    group = FreeProductZ2Z3()
    syllable_lift = {"s": _SL2_S, "t": _SL2_U, "T": _mat2_mul(_SL2_U, _SL2_U)}

    def lift(g):
        out = _SL2_I
        for syl in g:
            out = _mat2_mul(out, syllable_lift[syl])
        return out

    return CentralExtension(group, lift, _mat2_mul, _mat2_inv, center=(_SL2_I, _SL2_NEG_I))


def sl2z_system() -> TwistedSystem:
    """The SL(2,Z) model: C*(Z2)-coefficients over Z2 * Z3 with the section cocycle."""
    return section_cocycle_system(sl2z_extension())


# -- validation ------------------------------------------------------------------


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
            self.action_violation,
            self.cocycle_violation,
            self.normalization_violation,
            self.unitarity_violation,
        )

    @property
    def passed(self) -> bool:
        return self.max_violation <= ALG_TOL

    def as_dict(self) -> dict:
        return {
            "action_violation": self.action_violation,
            "cocycle_violation": self.cocycle_violation,
            "normalization_violation": self.normalization_violation,
            "unitarity_violation": self.unitarity_violation,
            "n_triples": self.n_triples,
            "passed": self.passed,
            "witness": {k: str(v) for k, v in self.witness.items()},
        }


def default_triples(system: TwistedSystem, rng=None, n_samples: int = 200) -> list:
    """Exhaustive triples for finite |G| <= 64, ball(3)^3 samples otherwise."""
    group = system.group
    if group.is_finite and len(group.elements()) <= 64:
        elts = group.elements()
        return [(g, h, k) for g in elts for h in elts for k in elts]
    pool = ball(3, default_length(group))
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(len(pool), size=(n_samples, 3))
    return [(pool[i], pool[j], pool[k]) for i, j, k in idx]


def validate_system(
    system: TwistedSystem,
    triples=None,
    probes=None,
    rng=None,
    n_samples: int = 200,
) -> SystemReport:
    """Max violations of the twisted-action axioms over the given samples.

    Violations are reported, never raised; the report passes iff every
    violation is at most 1e-10.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if triples is None:
        triples = default_triples(system, rng, n_samples)
    triples = list(triples)
    if not triples:
        raise ValueError("sample of triples must be nonempty")
    if probes is None:
        probes = system.algebra.basis() + [system.algebra.random_element(rng) for _ in range(3)]

    group, unit = system.group, system.algebra.unit()
    e = group.identity()
    worst = {"action": 0.0, "cocycle": 0.0, "normalization": 0.0, "unitarity": 0.0}
    witness: dict = {}

    seen_pairs = set()
    for g, h, k in triples:
        # 2-cocycle identity on (g, h, k)
        lhs = system.cocycle(g, h) * system.cocycle(group.mul(g, h), k)
        rhs = system.act(g, system.cocycle(h, k)) * system.cocycle(g, group.mul(h, k))
        v = (lhs - rhs).norm()
        if v > worst["cocycle"]:
            worst["cocycle"] = v
            witness["cocycle"] = (g, h, k)
        for pair in ((g, h), (h, k)):
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            s, t = pair
            sig = system.cocycle(s, t)
            v = max((sig * sig.star() - unit).norm(), (sig.star() * sig - unit).norm())
            if v > worst["unitarity"]:
                worst["unitarity"] = v
                witness["unitarity"] = pair
            v = max((system.cocycle(s, e) - unit).norm(), (system.cocycle(e, s) - unit).norm())
            if v > worst["normalization"]:
                worst["normalization"] = v
                witness["normalization"] = pair
            # action twist on probes: act(s) act(t) = Ad(cocycle(s,t)) act(st)
            act_st = system.action(group.mul(s, t))
            for x in probes:
                lhs_x = system.act(s, system.act(t, x))
                rhs_x = sig * act_st(x) * sig.star()
                v = (lhs_x - rhs_x).norm()
                if v > worst["action"]:
                    worst["action"] = v
                    witness["action"] = pair

    for x in probes:
        v = (system.act(e, x) - x).norm()
        if v > worst["action"]:
            worst["action"] = v
            witness["action"] = (e, e)

    return SystemReport(
        worst["action"], worst["cocycle"], worst["normalization"], worst["unitarity"],
        len(triples), witness,
    )

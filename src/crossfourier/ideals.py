"""Invariant ideals of the coefficient algebra and their crossed-product traces.

An ideal of a block algebra is a sub-sum of blocks; invariance means the
action's block permutations fix the block set.  All ideal computations stay
at the finitely supported level: the ideal a set of blocks generates is
tested blockwise on coefficients, the quotient system lives on the
complementary blocks, and expectation-invariance is probed on sampled
products.  Norm closures are represented by their dense algebraic cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgAutomorphism, AlgElement, BlockAlgebra
from .crossed import CcElement, cc_unit, random_cc
from .groups import ball, default_length
from .system import TwistedSystem

MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class InvariantIdeal:
    algebra: BlockAlgebra
    blocks: frozenset

    def __repr__(self):
        return f"InvariantIdeal(blocks={sorted(self.blocks)})"

    @property
    def is_zero(self):
        return not self.blocks

    @property
    def is_everything(self):
        return len(self.blocks) == len(self.algebra.dims)

    def contains(self, a: AlgElement, tol: float = MEMBERSHIP_TOL) -> bool:
        """Membership: the block components outside the ideal vanish."""
        return all(
            float(np.linalg.norm(m, 2) if m.shape[0] > 1 else abs(m[0, 0])) <= tol
            for j, m in enumerate(a.blocks)
            if j not in self.blocks
        )

    def element_from(self, a: AlgElement) -> AlgElement:
        """Compression of a onto the ideal blocks (the J-component)."""
        return self.algebra.element(
            [m if j in self.blocks else np.zeros_like(m) for j, m in enumerate(a.blocks)]
        )


def _action_permutations(system: TwistedSystem) -> list:
    grp = system.group
    if grp.is_finite:
        sources = grp.elements()
    else:
        gens = grp.generators()
        sources = gens + [grp.inv(s) for s in gens]
    return [system.action(g).perm for g in sources]


def block_orbits(system: TwistedSystem) -> list[frozenset]:
    """Orbits of the algebra blocks under the action's permutations."""
    n = len(system.algebra.dims)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in _action_permutations(system):
        for k, p in enumerate(perm):
            a, b = find(k), find(p)
            if a != b:
                parent[a] = b
    orbits: dict = {}
    for i in range(n):
        orbits.setdefault(find(i), set()).add(i)
    return sorted((frozenset(o) for o in orbits.values()), key=lambda o: sorted(o))


def enumerate_invariant_ideals(system: TwistedSystem) -> list[InvariantIdeal]:
    """All unions of block orbits, including {0} and the whole algebra."""
    orbits = block_orbits(system)
    out = []
    for mask in range(1 << len(orbits)):
        blocks: set = set()
        for i, orbit in enumerate(orbits):
            if mask >> i & 1:
                blocks |= orbit
        out.append(InvariantIdeal(system.algebra, frozenset(blocks)))
    return sorted(out, key=lambda J: (len(J.blocks), sorted(J.blocks)))


def orbit_closure(system: TwistedSystem, blocks: Iterable[int]) -> InvariantIdeal:
    """Smallest invariant ideal containing the given blocks."""
    want = set(blocks)
    out: set = set()
    for orbit in block_orbits(system):
        if orbit & want:
            out |= orbit
    return InvariantIdeal(system.algebra, frozenset(out))


def ideal_membership(f: CcElement, J: InvariantIdeal) -> bool:
    """Whether every coefficient of f lies in J.

    At the finitely supported level the algebraic-ideal test and the
    coefficientwise test are both this blockwise statement.
    """
    return all(J.contains(a) for _, a in f.items())


# -- quotients --------------------------------------------------------------------


@dataclass
class QuotientSystem:
    system: TwistedSystem      # the induced system on the complementary blocks
    kept_blocks: tuple         # original indices surviving the quotient
    source: TwistedSystem

    def q(self, a: AlgElement) -> AlgElement:
        """The quotient map on the coefficient algebra (drop the J blocks)."""
        return self.system.algebra.element([a.blocks[j] for j in self.kept_blocks])

    def q_cc(self, f: CcElement) -> CcElement:
        """The induced map on finitely supported elements, coefficientwise."""
        return CcElement(self.system, {g: self.q(a) for g, a in f.items()})


def quotient_system(system: TwistedSystem, J: InvariantIdeal) -> QuotientSystem:
    """The induced system on the blocks complementary to a proper invariant ideal."""
    if J.is_everything:
        raise ValueError("cannot quotient by the whole algebra")
    kept = tuple(j for j in range(len(system.algebra.dims)) if j not in J.blocks)
    new_index = {j: i for i, j in enumerate(kept)}
    quotient_alg = BlockAlgebra([system.algebra.dims[j] for j in kept])

    def action_rule(g):
        auto = system.action(g)
        perm = [new_index[auto.perm[j]] for j in kept]
        unitaries = [auto.unitaries[j] for j in kept]
        return AlgAutomorphism(quotient_alg, perm, unitaries)

    def cocycle_rule(g, h):
        sig = system.cocycle(g, h)
        return quotient_alg.element([sig.blocks[j] for j in kept])

    qsys = TwistedSystem(quotient_alg, system.group, action_rule, cocycle_rule,
                         tag=f"quotient({system.tag})")
    return QuotientSystem(qsys, kept, system)


# -- expectation invariance ------------------------------------------------------------


@dataclass
class EInvarianceReport:
    candidate_blocks: tuple
    n_samples: int
    violations: tuple  # (norm outside the candidate, support words of the witness)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self):
        return {
            "candidate_blocks": sorted(self.candidate_blocks),
            "n_samples": self.n_samples,
            "passed": self.passed,
            "violations": [{"norm_outside": v, "witness": w} for v, w in self.violations],
        }


def e_invariance_probe(
    system: TwistedSystem,
    generators: Sequence[CcElement],
    sample_budget: int = 40,
    rng=None,
    candidate_blocks: Iterable[int] | None = None,
) -> EInvarianceReport:
    """Probe whether expectations of sampled ideal elements stay in the ideal.

    Samples z = h1 * gen * h2 from the algebraic ideal the generators span
    and tests the coefficient of z at the identity against the candidate
    blocks (default: the orbit closure of the generators' identity
    coefficients, which is the induced ideal when the generators come from an
    invariant ideal of the algebra).  Violations are reported, not raised;
    only membership of finitely many images is ever tested.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    if rng is None:
        rng = np.random.default_rng(0)
    if candidate_blocks is None:
        touched: set = set()
        for gen in generators:
            e_coeff = gen.expectation()
            for j, m in enumerate(e_coeff.blocks):
                if float(np.linalg.norm(m)) > MEMBERSHIP_TOL:
                    touched.add(j)
        candidate = orbit_closure(system, touched)
    else:
        candidate = InvariantIdeal(system.algebra, frozenset(candidate_blocks))

    pool = (
        system.group.elements()
        if system.group.is_finite
        else ball(2, default_length(system.group))
    )
    violations = []
    for _ in range(sample_budget):
        gen = generators[int(rng.integers(len(generators)))]
        supp1 = [pool[i] for i in rng.choice(len(pool), size=2, replace=False)]
        supp2 = [pool[i] for i in rng.choice(len(pool), size=2, replace=False)]
        z = random_cc(system, supp1, rng) * gen * random_cc(system, supp2, rng)
        ez = z.expectation()
        outside = ez - candidate.element_from(ez)
        if outside.norm() > 1e-10:
            violations.append(
                (outside.norm(), [system.group.word(g) for g in z.support()])
            )
    return EInvarianceReport(tuple(sorted(candidate.blocks)), sample_budget, tuple(violations[:10]))


# -- central projections -----------------------------------------------------------------


@dataclass
class SplitReport:
    selfadjoint_residual: float
    unitary_residual: float
    commutation_residuals: tuple
    projection_residuals: dict

    @property
    def passed(self) -> bool:
        worst = max(
            [self.selfadjoint_residual, self.unitary_residual, *self.commutation_residuals]
            + list(self.projection_residuals.values())
        )
        return worst <= 1e-10

    def as_dict(self):
        return {
            "selfadjoint_residual": self.selfadjoint_residual,
            "unitary_residual": self.unitary_residual,
            "commutation_residuals": list(self.commutation_residuals),
            "projection_residuals": dict(self.projection_residuals),
            "passed": self.passed,
        }


def central_projection_split(
    s: CcElement, commutant_witnesses: Sequence[CcElement] = ()
) -> tuple[CcElement, CcElement, SplitReport]:
    """Split along a self-adjoint unitary commuting with the given witnesses.

    Returns p = (1 + s)/2 and q = (1 - s)/2 together with the verification
    residuals: p and q are projections, p + q = 1, p q = 0.  Centrality is
    only checked against the supplied finite witness list, since full-algebra
    centrality is not finitely checkable on infinite groups.
    """
    system = s.system
    one = cc_unit(system)
    sa = (s.star() - s).norm_l1()
    un = ((s * s) - one).norm_l1()
    comm = tuple(((s * x) - (x * s)).norm_l1() for x in commutant_witnesses)
    if sa > 1e-10 or un > 1e-10:
        raise ValueError(f"not a self-adjoint unitary: star residual {sa:.3e}, square residual {un:.3e}")
    if any(c > 1e-10 for c in comm):
        raise ValueError(f"fails to commute with a witness: residuals {comm}")
    p = 0.5 * (one + s)
    q = 0.5 * (one - s)
    residuals = {
        "p_idempotent": ((p * p) - p).norm_l1(),
        "p_selfadjoint": (p.star() - p).norm_l1(),
        "q_idempotent": ((q * q) - q).norm_l1(),
        "q_selfadjoint": (q.star() - q).norm_l1(),
        "pq_zero": (p * q).norm_l1(),
        "sum_is_one": ((p + q) - one).norm_l1(),
    }
    return p, q, SplitReport(sa, un, comm, residuals)

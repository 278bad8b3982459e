"""Multipliers of a twisted system: coefficientwise linear maps T = {T_g}.

A multiplier acts on finitely supported elements by (T . f)(g) = T_g(f(g)).
Shipped recipes:

  scalar          T_g(a) = phi(g) a            for phi: G -> C
  left / right    T_g(a) = psi(g) a / a psi(g) for psi: G -> A
  matrix-coeff    T_g(a) = <x, rho(a) v(g) y>  from an equivariant rep
  gilbert         left/right psi read off a factorization through a
                  representation pi and bounded eta_1, eta_2: G -> A^n
  endomorphism    T_g(a) = beta(a)             for beta commuting with the
                  action and fixing the cocycle

Norm claims are never computed as cb-norms; each recipe carries the
advertised bound of its construction, and the probe below reports certified
lower bounds only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .algebra import ALG_TOL, AlgElement
from .crossed import CcElement, cc_unit, default_radii, opnorm_bounds, random_ccs_in
from .groups import KeyedTable, ball, coded_group, default_length
from .modules import EquivariantRep, ModuleVector
from .system import TwistedSystem


class Multiplier:
    """Immutable recipe; application is pure."""

    def __init__(
        self,
        system: TwistedSystem,
        recipe: str,
        apply_at: Callable,
        bound: float | None = None,
        g_support=None,
        scalar_kernel: Callable | None = None,
        preserves_ideals: bool = False,
    ):
        self.system = system
        self.recipe = recipe
        self._apply_at = apply_at
        self.bound = bound
        self.g_support = None if g_support is None else frozenset(g_support)
        self.scalar_kernel = scalar_kernel
        self.preserves_ideals = preserves_ideals

    def __repr__(self):
        return f"Multiplier({self.recipe}, bound={self.bound})"

    def apply_at(self, g, a: AlgElement) -> AlgElement:
        if self.g_support is not None and g not in self.g_support:
            return self.system.algebra.zero()
        return self._apply_at(g, a)


def apply_multiplier(T: Multiplier, f: CcElement) -> CcElement:
    """(T . f)(g) = T_g(f(g)); the support can only shrink."""
    if T.system is not f.system:
        raise ValueError("multiplier and element live over different systems")
    return CcElement(f.system, {g: T.apply_at(g, a) for g, a in f.items()})


def identity_multiplier(system: TwistedSystem) -> Multiplier:
    return Multiplier(system, "scalar", lambda g, a: a, bound=1.0,
                      scalar_kernel=lambda g: 1.0, preserves_ideals=True)


def scalar_multiplier(system: TwistedSystem, phi: Callable, bound: float | None = None,
                      g_support=None) -> Multiplier:
    def apply_at(g, a):
        return complex(phi(g)) * a

    return Multiplier(system, "scalar", apply_at, bound=bound, g_support=g_support,
                      scalar_kernel=phi, preserves_ideals=True)


def expectation_multiplier(system: TwistedSystem) -> Multiplier:
    """The delta-at-identity kernel: f -> f(e) at e (expectation then inclusion)."""
    e = system.group.identity()
    return scalar_multiplier(system, lambda g: 1.0 if g == e else 0.0, bound=1.0, g_support=[e])


def left_multiplier(system: TwistedSystem, psi: Callable) -> Multiplier:
    return Multiplier(system, "left", lambda g, a: psi(g) * a, preserves_ideals=True)


def right_multiplier(system: TwistedSystem, psi: Callable) -> Multiplier:
    return Multiplier(system, "right", lambda g, a: a * psi(g), preserves_ideals=True)


# -- positive definiteness ------------------------------------------------------


# Entries per step of the Gram fill and of the in-place checks of pd_check,
# which bounds their temporaries whatever the size of S.
_GRAM_CHUNK = 1 << 15


def gram_matrix(phi: Callable, S: list, group) -> np.ndarray:
    """[phi(g_i^{-1} g_j)] over the points g_i of S, as a complex array.

    The entries g_i^{-1} g_j are formed on codes (groups.coded_group) a
    block of rows at a time.  phi is evaluated once per distinct
    g_i^{-1} g_j, in first-seen row-major order, and its values scattered
    into the matrix.
    """
    n = len(S)
    coded = coded_group(group)
    codes = coded.encode(S)
    inverses = coded.inv(codes)
    values = KeyedTable()  # code of g_i^{-1} g_j -> phi there
    gram = np.empty((n, n), dtype=complex)
    step = max(1, _GRAM_CHUNK // n)
    for lo in range(0, n, step):
        rows = inverses[lo:lo + step]
        entries = coded.mul(np.repeat(rows, n), np.tile(codes, len(rows)))
        numbers = values.rows(entries, lambda at: [np.array([complex(phi(k)) for k in coded.decode(entries[at])])])
        gram[lo:lo + step] = values.columns[0][numbers].reshape(len(rows), n)
    return gram


def pd_check(phi: Callable, S: Iterable, group) -> tuple[bool, float]:
    """Gram matrix [phi(g_i^{-1} g_j)] check over the finite subset S.

    Raises if the Gram matrix is not Hermitian to 1e-10 (which signals
    phi(g^{-1}) != conj(phi(g))); otherwise returns (pd flag, min eigenvalue)
    with pd meaning min eigenvalue >= -1e-10.  The eigenvalues are those of
    (G + G^*) / 2; eigvalsh reads only its lower triangle, which is formed
    in place, so neither check holds a second n x n array.
    """
    S = list(S)
    if not S:
        raise ValueError("subset must be nonempty")
    gram = gram_matrix(phi, S, group)
    n = len(S)
    step = max(1, _GRAM_CHUNK // n)
    # a NaN anywhere makes the maximum NaN, as one np.max over the matrix does
    defect = np.max([np.max(np.abs(gram[lo:lo + step] - gram[:, lo:lo + step].conj().T)) for lo in range(0, n, step)])
    if defect > ALG_TOL:
        raise ValueError("Gram matrix is not Hermitian: phi(g^-1) != conj(phi(g))")
    for lo in range(0, n, step):
        # entries (i, j), j <= i, of rows lo..hi-1; they read only entries on or above the diagonal
        hi = min(lo + step, n)
        block = gram[lo:hi, :hi]
        np.copyto(block, 0.5 * (block + gram[:hi, lo:hi].conj().T), where=np.tri(hi - lo, hi, lo, dtype=bool))
    mineig = float(np.min(np.linalg.eigvalsh(gram)))
    return mineig >= -ALG_TOL, mineig


# -- matrix-coefficient recipe ----------------------------------------------------


def is_central_vector(rep: EquivariantRep, z: ModuleVector) -> bool:
    return all((rep.rho(a)(z) - z.right(a)).norm() <= ALG_TOL for a in rep.system.algebra.basis())


def make_matrix_coeff_multiplier(rep: EquivariantRep, x: ModuleVector, y: ModuleVector) -> Multiplier:
    """T_g(a) = <x, rho(a) v(g) y>; advertised bound ||x|| ||y||.

    If x or y is central the recipe degenerates to a one-sided A-valued
    kernel, which preserves every ideal of A; the flag records that.
    """
    if x.rank != rep.rank or y.rank != rep.rank:
        raise ValueError("vector rank does not match the representation")

    def apply_at(g, a):
        return x.inner(rep.rho(a)(rep.v_apply(g, y)))

    one_sided = is_central_vector(rep, x) or is_central_vector(rep, y)
    return Multiplier(
        rep.system, "matrix-coeff", apply_at,
        bound=x.norm() * y.norm(),
        preserves_ideals=one_sided,
    )


# -- gilbert factorization recipe ---------------------------------------------------


def _as_eta(system, rank, eta) -> tuple[Callable, float]:
    """Accept a finite table {g: ModuleVector} or a (callable, sup_norm) pair.

    Anything else is rejected: bounded data on infinite groups must be
    finitely supported or closed-form with a declared sup norm.
    """
    if isinstance(eta, Mapping):
        if not eta:
            raise ValueError("eta table must be nonempty")
        sup = max(v.norm() for v in eta.values())
        zero = ModuleVector(system.algebra, tuple(system.algebra.zero() for _ in range(rank)))
        return (lambda g: eta.get(g, zero)), sup
    try:
        fn, sup = eta
    except (TypeError, ValueError):
        raise ValueError(
            "eta must be a finite table {g: vector} or a (callable, sup_norm) pair"
        ) from None
    if not callable(fn):
        raise ValueError("closed-form eta data needs a callable first component")
    return fn, float(sup)


def make_gilbert_multiplier(
    rep_pi: Callable,
    system: TwistedSystem,
    rank: int,
    eta1,
    eta2,
    side: str = "left",
) -> Multiplier:
    """One-sided multiplier from a factorization through a representation pi.

    side = "left":  requires pi(a) eta2(t) = eta2(t) . a and
                    psi(s t^{-1}) = action(s)(<eta1(s), eta2(t)>);
    side = "right": requires pi(a) eta1(t) = eta1(t) . a and
                    psi(s t^{-1}) = Ad(cocycle(s, s t^{-1})) action(s)(<eta1(s), eta2(t)>).

    Both conditions are validated to 1e-10 on the pairs of a finite group of
    order <= 24, of ball(2) otherwise; a violation rejects the construction
    and reports the witness pair.  The advertised bound is the product of the
    sup norms.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    grp = system.group
    e = grp.identity()
    f1, sup1 = _as_eta(system, rank, eta1)
    f2, sup2 = _as_eta(system, rank, eta2)

    pool = grp.elements() if grp.is_finite and grp.order <= 24 else ball(2, default_length(grp))

    def factor_value(s, t):
        inner = f1(s).inner(f2(t))
        val = system.act(s, inner)
        if side == "right":
            sig = system.cocycle(s, grp.mul(s, grp.inv(t)))
            val = sig * val * sig.star()
        return val

    def psi(g):
        return factor_value(g, e)

    centered = f2 if side == "left" else f1
    basis = system.algebra.basis()
    for s, t in itertools.product(pool, repeat=2):
        for a in basis:
            lhs = rep_pi(a)(centered(t))
            rhs = centered(t).right(a)
            v = (lhs - rhs).norm()
            if v > ALG_TOL:
                raise ValueError(
                    f"centrality condition fails at t={grp.word(t)} with violation {v:.3e}"
                )
        v = (factor_value(s, t) - psi(grp.mul(s, grp.inv(t)))).norm()
        if v > ALG_TOL:
            raise ValueError(
                f"factorization condition fails at pair ({grp.word(s)}, {grp.word(t)}) "
                f"with violation {v:.3e}"
            )

    base = left_multiplier(system, psi) if side == "left" else right_multiplier(system, psi)
    return Multiplier(system, f"gilbert-{side}", base._apply_at, bound=sup1 * sup2,
                      preserves_ideals=True)


# -- endomorphism recipe --------------------------------------------------------------


def make_endo_multiplier(system: TwistedSystem, beta: Callable) -> Multiplier:
    """Constant-in-g multiplier T_g(a) = beta(a).

    Requires beta to commute with every action automorphism and to fix every
    cocycle value; both are validated on 40 samples (fixed seed) and a
    violation rejects the construction.  The applied map is then
    multiplicative on finitely supported elements, which is spot-checked on
    sampled products.
    """
    rng = np.random.default_rng(0)
    grp, A = system.group, system.algebra
    probes = A.basis() + [A.random_element(rng) for _ in range(3)]
    for _ in range(40):
        g = grp.random_element(rng)
        h = grp.random_element(rng)
        for x in probes:
            v = (beta(system.act(g, x)) - system.act(g, beta(x))).norm()
            if v > ALG_TOL:
                raise ValueError(f"beta does not commute with the action at g={grp.word(g)} ({v:.3e})")
        v = (beta(system.cocycle(g, h)) - system.cocycle(g, h)).norm()
        if v > ALG_TOL:
            raise ValueError(f"beta does not fix the cocycle at ({grp.word(g)}, {grp.word(h)}) ({v:.3e})")
    T = Multiplier(system, "endomorphism", lambda g, a: beta(a), bound=None)
    for _ in range(5):
        f1 = CcElement(system, {grp.random_element(rng): A.random_element(rng)})
        f2 = CcElement(system, {grp.random_element(rng): A.random_element(rng)})
        v = (apply_multiplier(T, f1 * f2) - apply_multiplier(T, f1) * apply_multiplier(T, f2)).norm_l1()
        if v > 1e-9:
            raise ValueError(f"beta is not multiplicative on products ({v:.3e})")
    return T


# -- norm probing -----------------------------------------------------------------------


@dataclass
class NormProbe:
    ratio_max: float
    witnesses: list  # (ratio, support words)


def multiplier_norm_probe(T: Multiplier, sample_budget: int = 20) -> NormProbe:
    """Max over sampled f of opnorm_lower(T . f, R) / opnorm_upper(f).

    f is drawn (fixed seed) on ball(min(2, R)), R = 4 or the full radius of a
    finite group.  This is a certified lower bound for the multiplier norm
    (the denominator is the l1 upper bound of f); it is reported strictly as
    a lower bound and never claimed to be the norm itself.
    """
    system = T.system
    rng = np.random.default_rng(0)
    grp = system.group
    length = default_length(grp)
    R = default_radii(system, [4], length)[0]
    pool = ball(min(2, R), length)
    samples = [cc_unit(system)] + random_ccs_in(system, pool, 3, rng, sample_budget)
    best, witnesses = 0.0, []
    for f in samples:
        upper = f.norm_l1()
        if upper < 1e-14:
            continue
        lower = opnorm_bounds(apply_multiplier(T, f), [R], length).lower
        ratio = lower / upper
        witnesses.append((ratio, [grp.word(g) for g in f.support()]))
        best = max(best, ratio)
    witnesses.sort(key=lambda t: -t[0])
    return NormProbe(best, witnesses[:5])

"""Weights, decay-constant and content probes, tail profiles, and the
commutative-case convolution inequality.

Weights are rules kappa: G -> [1, oo).  The decay-constant and content
probes are documented lower-bound searches (random starts plus local ascent,
fixed seed): the quantities they chase are suprema over unit balls, which are
nonconvex, so certified exact values are only claimed on finite groups where
the known upper bounds pin them down.

The commutative-case check computes both sides of

    || |Lambda(f) xi|_omega ||_2  <=  || |f|_omega * |xi|_omega ||_2

exactly over finite supports (A commutative, f valued in the fixed-point
algebra of the action, omega a point evaluation) and reports the residual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import state_norm, state_root
from .crossed import (
    CcBatch, CcElement, Pairs, default_radii, delta, opnorm_bounds, pair_sum, random_cc, random_ccs_in, regrouped,
    sample_chunks,
)
from .groups import (
    FreeF2,
    FreeProductZ2Z3,
    LengthFunction,
    Zd,
    ball,
    ball_size,
    default_length,
    free_shell_sum,
    one_norm,
    one_norm_shell_floor,
    shell_series,
    shell_sizes,
)
from .system import TwistedSystem

# ball points one Z^d bracket may enumerate; past it the bracket stays
# certified and only its tightness stops improving
_BRACKET_POINTS = 1 << 20


# -- weights -----------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """kappa: G -> [1, oo); tags: constant | power(s) | exponential(r) | exp(t).

    power:        (1 + L)^s          with s > 0
    exponential:  r^{-L}             with 0 < r < 1
    exp:          exp(t L)           with t > 0
    """

    tag: str
    param: float
    length: LengthFunction | None
    summable_inverse: bool | None  # kappa^{-1} in l2(G), when decidable

    def __call__(self, g) -> float:
        if self.tag == "constant":
            return 1.0
        L = self.length(g)
        if self.tag == "power":
            return (1.0 + L) ** self.param
        if self.tag == "exponential":
            return self.param ** (-L)
        if self.tag == "exp":
            return math.exp(self.param * L)
        raise ValueError(f"unknown weight tag {self.tag!r}")

    def inv_sq(self, g) -> float:
        """kappa(g)^{-2}, from L(g) without forming kappa(g), which overflows first."""
        return 1.0 if self.tag == "constant" else _inv_sq(self.tag, self.param, self.length(g))


def _inv_sq(tag: str, param: float, L: float) -> float:
    """kappa^{-2} at length L for the power, exponential and exp weights."""
    if tag == "power":
        return (1.0 + L) ** (-2 * param)
    if tag == "exponential":
        return param ** (2 * L)
    return math.exp(-2 * param * L)


def _power_tail(length: LengthFunction, s: float) -> tuple[float, float] | None:
    """(expo, const) with sum_{|g|_1 = m} (1 + L(g))^{-2s} <= const (1 + m)^{d - 1 - expo} on Z^d.

    The 1-norm shell m has at most 2^d (m + 1)^{d - 1} points, and on it
    1 + L >= 1 + m for the 1-norm, >= (1 + m) / sqrt(d) for the 2-norm and
    >= (1 + m)^2 / (2d) for the squared 2-norm.  None for other lengths.
    """
    d = length.group.d
    if length.tag in ("one-norm", "word"):
        return 2 * s, 2.0 ** d
    if length.tag == "two-norm":
        return 2 * s, 2.0 ** d * d ** s
    if length.tag == "squared-two-norm":
        return 4 * s, 2.0 ** d * (2.0 * d) ** (2 * s)
    return None


def _summable_flag(tag: str, param: float, length: LengthFunction | None) -> bool | None:
    if length is None:
        return None
    group = length.group
    if group.is_finite:
        return True
    if tag == "constant":
        return False
    if isinstance(group, Zd):
        if tag == "power":
            growth = _power_tail(length, param)
            return None if growth is None else growth[0] > group.d
        return True  # exponential and exp decay beat polynomial growth
    # free families: shells grow geometrically, so power weights never suffice
    total = free_shell_sum(_inv_sq(tag, param, 1), length)
    if total is None:
        return None
    return tag != "power" and math.isfinite(total)


def make_weight(tag: str, param: float = 0.0, length: LengthFunction | None = None) -> Weight:
    if tag == "power" and not param > 0:
        raise ValueError("power weights need s > 0")
    if tag == "exponential" and not 0.0 < param < 1.0:
        raise ValueError("exponential weights need 0 < r < 1")
    if tag == "exp" and not param > 0:
        raise ValueError("exp weights need t > 0")
    if tag != "constant" and length is None:
        raise ValueError(f"{tag} weights need a length function")
    if tag not in ("constant", "power", "exponential", "exp"):
        raise ValueError(f"unknown weight tag {tag!r}")
    return Weight(tag, float(param), length, _summable_flag(tag, float(param), length))


def inv_l2_bracket(w: Weight) -> tuple[float, float]:
    """A bracket [lo, hi] for ||kappa^{-1}||_2.

    lo is a rigorous partial sum; hi adds a certified tail bound (integral
    comparison for power weights, geometric-ratio remainder otherwise).  The
    free families sum their shells in closed form, so lo == hi there.
    Raises when the inverse is not square-summable or not decidable.
    """
    if w.summable_inverse is not True:
        raise ValueError("kappa^{-1} is not (known to be) square-summable")
    group = w.length.group if w.length is not None else None
    if group is not None and group.is_finite:
        total = sum(w.inv_sq(g) for g in group.elements())
        v = math.sqrt(total)
        return v, v
    if isinstance(group, Zd):
        return _zd_inv_l2_bracket(w)
    if isinstance(group, (FreeF2, FreeProductZ2Z3)):
        v = math.sqrt(free_shell_sum(_inv_sq(w.tag, w.param, 1), w.length))
        return v, v
    raise ValueError(f"no l2 bracket for {group}")


def _zd_inv_l2_bracket(w: Weight) -> tuple[float, float]:
    """Exact sum over the 1-norm ball(M) plus a shell-by-shell tail bound past M.

    M doubles from 32 until the tail is below 1e-3 of the sum, M reaches 4096,
    or the next ball would pass _BRACKET_POINTS.  ball(M/2) is a prefix of
    ball(M), so each doubling adds the new points to the running sum, in the
    order and with the bits of a sum over all of ball(M).
    """
    d = w.length.group.d
    L1 = one_norm(w.length.group)
    M = 32
    while M > 1 and ball_size(M, L1) > _BRACKET_POINTS:
        M //= 2
    partial, done = 0, 0
    shells = shell_sizes(L1)
    while True:
        points = ball(M, L1)
        partial, done = sum(map(w.inv_sq, points[done:]), partial), len(points)
        if w.tag == "power":
            # per-shell bounds const (1 + m)^{d-1-expo} decrease in m: compare with the integral
            expo, const = _power_tail(w.length, w.param)
            tail = const * (M + 1.0) ** (d - expo) / (expo - d)
        else:
            terms, remainder = shell_series(
                lambda m: shells(m) * _inv_sq(w.tag, w.param, one_norm_shell_floor(m, w.length)),
                M + 1,
                1e-16 * max(partial, 1.0),
            )
            tail = sum(terms) + remainder
        if tail < 1e-3 * partial or M >= 4096 or ball_size(2 * M, L1) > _BRACKET_POINTS:
            return math.sqrt(partial), math.sqrt(partial + tail)
        M *= 2


# -- decay constant probe --------------------------------------------------------------


@dataclass
class DecayProbe:
    constant_lower: float
    witness: CcElement
    samples: tuple  # (ratio, support words)
    witness_lower: float  # compression norm of the witness at the probe's radius; not reported

    def as_dict(self):
        return {
            "constant_lower": self.constant_lower,
            "witness_support": [self.witness.system.group.word(g) for g in self.witness.support()],
            "samples": [{"ratio": r, "support": s} for r, s in self.samples],
        }


def decay_constant_probe(
    system: TwistedSystem,
    weight: Weight,
    R: float = 2,
    sample_budget: int = 30,
    rng=None,
) -> DecayProbe:
    """Certified lower bound for any valid decay constant of the system.

    Maximizes opnorm_lower(f, 2R) / ||f||_{module, kappa} over sampled f
    supported in ball(R).  Every reported ratio is a true lower bound since
    the numerator is a compression norm.  The samples are drawn one chunk
    at a time (random_ccs_in), and evaluation draws nothing, so the draws
    are those of a per-sample loop; only a chunk, the best sample and the
    rows of the ten best ratios are kept.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    length = default_length(system.group)
    R_prime = default_radii(system, [2 * R], length)[0]  # counts ball(2R) before ball(R) is built
    pool = ball(R, length)
    best, best_f, best_lower, rows = 0.0, delta(system), None, []
    drawn = (random_ccs_in(system, pool, 4, rng, size) for size in sample_chunks(sample_budget))
    samples = itertools.chain([best_f], itertools.chain.from_iterable(drawn))
    for f in samples:
        denom = f.weighted_module_norm(weight)
        if denom < 1e-14:
            continue
        lower = opnorm_bounds(f, [R_prime], length).lower
        ratio = lower / denom
        rows.append((ratio, [system.group.word(g) for g in f.support()]))
        rows.sort(key=lambda t: -t[0])  # the ten best so far; the stable sort keeps ties in sample order
        del rows[10:]
        if ratio > best:
            best, best_f, best_lower = ratio, f, lower
    if best_lower is None:  # no ratio passed 0 (every denominator may be below 1e-14): the first sample stays
        best_lower = opnorm_bounds(best_f, [R_prime], length).lower
    return DecayProbe(best, best_f, tuple(rows), best_lower)


# -- content probe ------------------------------------------------------------------------


@dataclass
class ContentEstimate:
    subset: tuple
    lower: float
    upper: float                 # |E|, always valid
    upper_scalar: float | None   # |E|^{1/2}, valid when A = C
    witness: CcElement

    def as_dict(self):
        grp = self.witness.system.group
        return {
            "subset": [grp.word(g) for g in self.subset],
            "lower": self.lower,
            "upper": self.upper,
            "upper_scalar": self.upper_scalar,
            "witness_support": [grp.word(g) for g in self.witness.support()],
        }


def content_probe(
    system: TwistedSystem,
    E: Iterable,
    sample_budget: int = 40,
    rng=None,
    warm_start: CcElement | None = None,
) -> ContentEstimate:
    """Lower-bound search for the content of E: sup of the operator norm over
    elements supported in E with module norm one.

    Random starts plus local ascent with decaying step size, fixed seed.  The
    search reuses the warm-start witness, so nested subsets keep monotone
    estimates.  Upper bounds attached: |E| always, |E|^{1/2} for scalar
    coefficients.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    E = sorted(set(E), key=system.group.sort_key)
    if not E:
        raise ValueError("subset must be nonempty")
    length = default_length(system.group)
    R = default_radii(system, [2 * max(length(g) for g in E) + 2], length)[0]

    def objective(f: CcElement) -> float:
        denom = f.module_norm()
        if denom < 1e-14:
            return 0.0
        return opnorm_bounds(f, [R], length).lower / denom

    candidates = [delta(system, g) for g in E]
    if warm_start is not None:
        candidates.append(CcElement(system, {g: warm_start.coeff(g) for g in E if warm_start.coeff(g).norm() > 0}))
    n_random = max(sample_budget // 2, 1)
    # each random candidate is drawn when it is scored; scoring draws nothing
    candidates = itertools.chain(candidates, (random_cc(system, E, rng) for _ in range(n_random)))
    best, best_f = max(((objective(f), f) for f in candidates), key=lambda scored: scored[0])
    # local ascent: shrinking random perturbations, keep improvements
    scale = 0.5
    for _ in range(sample_budget - n_random):
        trial = best_f + scale * random_cc(system, E, rng)
        v = objective(trial)
        if v > best:
            best, best_f = v, trial
        else:
            scale *= 0.9
    norm = best_f.module_norm()
    witness = (1.0 / norm) * best_f if norm > 0 else best_f
    scalar = math.sqrt(len(E)) if system.algebra.dims == (1,) else None
    return ContentEstimate(tuple(E), best, float(len(E)), scalar, witness)


# -- tail profiles ----------------------------------------------------------------------


_SHELL_NORMS = {"l1": CcElement.norm_l1, "linf": CcElement.norm_linf, "module": CcElement.module_norm}


def tail_profile(f: CcElement, norm_tag: str = "l1") -> list:
    """Per-shell norms of f under the default length L: shell m collects m-1 < L(g) <= m (shell 0 is L = 0).

    Exhibits vanishing at infinity of coefficient families; finitely
    supported data is zero beyond the largest support radius.
    """
    length = default_length(f.system.group)
    if norm_tag not in _SHELL_NORMS:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    norm = _SHELL_NORMS[norm_tag]
    if len(f) == 0:
        return [(0, 0.0)]
    # shell m, in support order, holds the g with ceil L(g) = m (m - 1 < L(g) <= m); all are taken in one pass
    shell_of = [math.ceil(length(g)) for g in f.support()]
    shells = regrouped(f, np.argsort(shell_of, kind="stable"), np.bincount(shell_of).tolist())
    return [(m, norm(shell)) for m, shell in enumerate(shells)]


# -- commutative-case inequality ----------------------------------------------------------


def regular_apply(f: CcElement, xi: CcElement) -> CcElement:
    """Lambda(f) xi in the A^G picture: finitely supported result.

    (Lambda(f) xi)(h) = sum_g action(h)^{-1}( f(g) cocycle(g, g^{-1}h) ) xi(g^{-1}h),
    summed over the pairs of both supports in support order (pair_sum).
    """
    return regular_applies([f], [xi])[0]


def regular_applies(fs, xis) -> CcBatch:
    """The CcBatch of regular_apply(fs[c], xis[c]) for each c (each side a CcBatch or a list), in one pair_sum pass."""
    return pair_sum(fs, xis, _regular_terms, support_order=True)


def _regular_terms(pairs: Pairs) -> list:
    """action(gh)^{-1}(f(g) cocycle(g, h)) xi(h) for each pair."""
    y = [np.matmul(a, s) for a, s in zip(pairs.a, pairs.sigma)]
    acted = pairs.system.act_rows(pairs.codes, pairs.at, y, inverse=True)
    return [np.matmul(u, x) for u, x in zip(acted, pairs.b)]


def state_profile(v: CcElement, omega) -> dict:
    """|v|_omega: g -> omega(v(g)* v(g))^{1/2}, a scalar function on the support."""
    return {g: state_norm(a, omega) for g, a in v.items()}


def scalar_convolve(u: dict, w: dict, group) -> dict:
    out: dict = {}
    for g, ug in u.items():
        for h, wh in w.items():
            k = group.mul(g, h)
            out[k] = out.get(k, 0.0) + ug * wh
    return out


def _l2(profile: dict) -> float:
    return math.sqrt(sum(v * v for v in profile.values()))


@dataclass
class CommutativeInequalityResult:
    residual: float   # rhs - lhs; the inequality holds iff >= -1e-12
    lhs: float        # || |Lambda(f) xi|_omega ||_2
    rhs: float        # || |f|_omega * |xi|_omega ||_2


def commutative_inequality_check(
    system: TwistedSystem, f: CcElement, xi: CcElement, omega
) -> CommutativeInequalityResult:
    """Both sides of the pointwise-collapse inequality, computed exactly.

    Requires commutative coefficients, f valued in the fixed-point algebra of
    the action (checked on the generators to 1e-10), and a point evaluation.
    """
    check_fixed_point(system, f)
    return collapse_residuals(system, regular_apply(f, xi), f, xi, [omega])[0]


def check_fixed_point(system: TwistedSystem, f: CcElement):
    """ValueError unless the algebra is commutative and f is valued in the fixed-point
    algebra of the action, checked on the generators to 1e-10."""
    _check_commutative(system)
    for s in system.group.generators():
        for g, a in f.items():
            v = (system.act(s, a) - a).norm()
            if v > 1e-10:
                raise ValueError(
                    f"f is not valued in the fixed-point algebra: moved by {system.group.word(s)} ({v:.3e})"
                )


def _check_commutative(system: TwistedSystem):
    if not system.algebra.is_commutative:
        raise ValueError("the inequality check needs a commutative algebra")


def collapse_residuals(system: TwistedSystem, applied: CcElement, f: CcElement, xi: CcElement, states) -> list:
    """Both sides of the collapse inequality at each state, given applied = Lambda(f) xi (regular_apply).

    f is the element whose profile is collapsed (the twisted one in the
    experiment).  The squares v(g)* v(g) of the three elements are formed
    once; each state's profiles are then state_profile's, bit for bit.
    """
    squares = [[(g, a.star() * a) for g, a in v.items()] for v in (applied, f, xi)]
    out = []
    for omega in states:
        lhs_profile, f_profile, xi_profile = ({g: state_root(omega(s)) for g, s in sq} for sq in squares)
        lhs = _l2(lhs_profile)
        rhs = _l2(scalar_convolve(f_profile, xi_profile, system.group))
        out.append(CommutativeInequalityResult(rhs - lhs, lhs, rhs))
    return out


def twisted_inequality_experiment(
    system: TwistedSystem, f: CcElement, xi: CcElement, omega
) -> CommutativeInequalityResult:
    """EXPERIMENTAL: the conjectured variant for f not fixed by the action.

    The right side collapses the action-twisted profile g -> action(g)^{-1}(f(g))
    instead of f itself.  A negative residual here is a recorded observation,
    never a test failure: the general inequality is not established.
    """
    _check_commutative(system)
    twisted = CcElement(system, {g: system.act_inv(g, a) for g, a in f.items()})
    return collapse_residuals(system, regular_apply(f, xi), twisted, xi, [omega])[0]

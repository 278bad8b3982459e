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

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import state_norm
from .crossed import CcElement, compression_matrix, default_radii, delta, opnorm_bounds, random_cc, random_cc_in
from .groups import (
    FreeF2,
    FreeProductZ2Z3,
    LengthFunction,
    Zd,
    ball,
    default_length,
)
from .summation import _one_norm_shell_count
from .system import TwistedSystem


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
        v = self(g)
        return 1.0 / (v * v)


def _summable_flag(tag: str, param: float, length: LengthFunction | None) -> bool | None:
    if length is None:
        return None
    group = length.group
    if group.is_finite:
        return True
    if tag == "constant":
        return False
    if isinstance(group, Zd):
        d = group.d
        if tag == "power":
            if length.tag in ("one-norm", "two-norm", "word"):
                return 2 * param > d
            if length.tag == "squared-two-norm":
                return 4 * param > d
            return None
        return True  # exponential and exp decay beat polynomial growth
    # free families: shells grow geometrically (rate 3 for F2, sqrt(2) for Z2*Z3)
    rate = None
    if isinstance(group, FreeF2) and length.tag == "word":
        rate = 3.0
    if isinstance(group, FreeProductZ2Z3) and length.tag == "block":
        rate = math.sqrt(2.0)
    if rate is None:
        return None
    if tag == "power":
        return False
    q = param ** 2 if tag == "exponential" else math.exp(-2 * param)
    return rate * q < 1.0


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


def _shell_inv_sq_bound(w: Weight, m: int) -> float:
    """Upper bound for kappa(g)^{-2} over the 1-norm shell |g|_1 = m on Z^d."""
    d = w.length.group.d
    if w.length.tag == "one-norm" or w.length.tag == "word":
        L_min = float(m)
    elif w.length.tag == "two-norm":
        L_min = m / math.sqrt(d)
    elif w.length.tag == "squared-two-norm":
        L_min = m * m / d
    else:
        raise ValueError(f"unsupported length tag {w.length.tag!r}")
    if w.tag == "power":
        return (1.0 + L_min) ** (-2 * w.param)
    if w.tag == "exponential":
        return w.param ** (2 * L_min)
    return math.exp(-2 * w.param * L_min)


def inv_l2_bracket(w: Weight, max_shell: int = 4096) -> tuple[float, float]:
    """A bracket [lo, hi] for ||kappa^{-1}||_2.

    lo is a rigorous partial sum; hi adds a certified tail bound (integral
    comparison for power weights, geometric-ratio remainder otherwise).
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
        return _zd_inv_l2_bracket(w, max_shell)
    if isinstance(group, (FreeF2, FreeProductZ2Z3)):
        return _free_inv_l2_bracket(w)
    raise ValueError(f"no l2 bracket for {group}")


def _zd_inv_l2_bracket(w: Weight, max_shell: int) -> tuple[float, float]:
    d = w.length.group.d
    from .groups import one_norm

    L1 = one_norm(w.length.group)
    M = 32
    while True:
        partial = sum(w.inv_sq(g) for g in ball(M, L1))
        if w.tag == "power":
            # c_d(m) <= 2^d (m+1)^{d-1}; per-shell bound is monotone in m, so
            # compare with the integral of 2^d (x+1)^{d-1} * bound(x)
            if w.length.tag in ("one-norm", "word"):
                expo = 2 * w.param
            elif w.length.tag == "two-norm":
                expo = 2 * w.param  # absorb sqrt(d) into the constant
            else:
                expo = 4 * w.param  # (1 + m^2/d)^{-2s} <= (2d)^{2s} (1+m)^{-4s}
            const = 2.0 ** d
            if w.length.tag == "two-norm":
                const *= d ** w.param
            if w.length.tag == "squared-two-norm":
                const *= (2.0 * d) ** (2 * w.param)
            if expo <= d:
                raise ValueError("tail bound exponent not integrable")
            tail = const * (M + 1.0) ** (d - expo) / (expo - d)
        else:
            tail, m, t_prev = 0.0, M, None
            while True:
                m += 1
                t = _one_norm_shell_count(d, m) * _shell_inv_sq_bound(w, m)
                tail += t
                if t_prev is not None and t < t_prev:
                    ratio = t / t_prev
                    if ratio < 1 and t * ratio / (1 - ratio) < 1e-16 * max(partial, 1.0):
                        tail += t * ratio / (1 - ratio)
                        break
                t_prev = t
                if m > M + 500_000:
                    raise ValueError("tail sum did not converge")
        if tail < 1e-3 * partial or M >= max_shell:
            return math.sqrt(partial), math.sqrt(partial + tail)
        M *= 2


def _free_inv_l2_bracket(w: Weight) -> tuple[float, float]:
    group = w.length.group
    if w.tag == "power":
        raise ValueError("power weights are not square-summable on free families")
    q = w.param ** 2 if w.tag == "exponential" else math.exp(-2 * w.param)
    if isinstance(group, FreeF2):
        # shells 4 * 3^{m-1}: exact geometric series
        total = 1.0 + 4.0 * q / (1.0 - 3.0 * q)
        v = math.sqrt(total)
        return v, v
    # Z2 * Z3: shell counts 2^{floor(m/2)} + 2^{ceil(m/2)}
    total, m = 1.0, 0
    while True:
        m += 1
        c = 2 ** (m // 2) + 2 ** ((m + 1) // 2)
        t = c * q ** m
        total += t
        if m > 8 and t < 1e-17 * total:
            break
        if m > 10_000:
            raise ValueError("shell sum did not converge")
    v = math.sqrt(total)
    return v, v * (1 + 1e-12)


# -- decay constant probe --------------------------------------------------------------


@dataclass
class DecayProbe:
    constant_lower: float
    witness: CcElement
    samples: tuple  # (ratio, support words)

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
    length: LengthFunction | None = None,
) -> DecayProbe:
    """Certified lower bound for any valid decay constant of the system.

    Maximizes opnorm_lower(f, 2R) / ||f||_{module, kappa} over sampled f
    supported in ball(R).  Every reported ratio is a true lower bound since
    the numerator is a compression norm.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if length is None:
        length = default_length(system.group)
    pool = ball(R, length)
    R_prime = default_radii(system, [2 * R], length)[0]
    samples = [delta(system)]
    for _ in range(sample_budget):
        samples.append(random_cc_in(system, pool, 4, rng))
    best, best_f, rows = 0.0, samples[0], []
    for f in samples:
        denom = f.weighted_module_norm(weight)
        if denom < 1e-14:
            continue
        ratio = opnorm_bounds(f, [R_prime], length).lower / denom
        rows.append((ratio, [system.group.word(g) for g in f.support()]))
        if ratio > best:
            best, best_f = ratio, f
    rows.sort(key=lambda t: -t[0])
    return DecayProbe(best, best_f, tuple(rows[:10]))


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
    R: float | None = None,
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
    if R is None:
        R = default_radii(system, [2 * max(length(g) for g in E) + 2], length)[0]

    def objective(f: CcElement) -> float:
        denom = f.module_norm()
        if denom < 1e-14:
            return 0.0
        return compression_matrix(f, R, length).largest_singular_value() / denom

    candidates = [delta(system, g) for g in E]
    if warm_start is not None:
        candidates.append(CcElement(system, {g: warm_start.coeff(g) for g in E if warm_start.coeff(g).norm() > 0}))
    n_random = max(sample_budget // 2, 1)
    for _ in range(n_random):
        candidates.append(random_cc(system, E, rng))
    best_f = max(candidates, key=objective)
    best = objective(best_f)
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


def tail_profile(f: CcElement, length: LengthFunction | None = None, norm_tag: str = "l1") -> list:
    """Per-shell norms of f: shell m collects m-1 < L(g) <= m (shell 0 is L = 0).

    Exhibits vanishing at infinity of coefficient families; finitely
    supported data is zero beyond the largest support radius.
    """
    if length is None:
        length = default_length(f.system.group)
    if norm_tag not in _SHELL_NORMS:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    norm = _SHELL_NORMS[norm_tag]
    if len(f) == 0:
        return [(0, 0.0)]
    max_m = int(math.ceil(max(length(g) for g in f.support())))
    out = []
    for m in range(max_m + 1):
        shell = {
            g: f.coeff(g)
            for g in f.support()
            if (length(g) == 0 if m == 0 else m - 1 < length(g) <= m)
        }
        out.append((m, norm(CcElement(f.system, shell))))
    return out


# -- commutative-case inequality ----------------------------------------------------------


def regular_apply(f: CcElement, xi: CcElement) -> CcElement:
    """Lambda(f) xi in the A^G picture: finitely supported result.

    (Lambda(f) xi)(h) = sum_g action(h)^{-1}( f(g) cocycle(g, g^{-1}h) ) xi(g^{-1}h).
    """
    system = f.system
    grp = system.group
    out: dict = {}
    for g, a in f.items():
        for h2, x in xi.items():
            h = grp.mul(g, h2)
            term = system.act_inv(h, a * system.cocycle(g, h2)) * x
            out[h] = out[h] + term if h in out else term
    return CcElement(system, out)


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

    @property
    def passed(self) -> bool:
        return self.residual >= -1e-12

    def as_dict(self):
        return {"residual": self.residual, "lhs": self.lhs, "rhs": self.rhs, "passed": self.passed}


def commutative_inequality_check(
    system: TwistedSystem, f: CcElement, xi: CcElement, omega
) -> CommutativeInequalityResult:
    """Both sides of the pointwise-collapse inequality, computed exactly.

    Requires commutative coefficients, f valued in the fixed-point algebra of
    the action (checked on the generators to 1e-10), and a point evaluation.
    """
    if not system.algebra.is_commutative:
        raise ValueError("the inequality check needs a commutative algebra")
    for s in system.group.generators():
        for g, a in f.items():
            v = (system.act(s, a) - a).norm()
            if v > 1e-10:
                raise ValueError(
                    f"f is not valued in the fixed-point algebra: moved by {system.group.word(s)} ({v:.3e})"
                )
    lhs_vec = regular_apply(f, xi)
    lhs = _l2(state_profile(lhs_vec, omega))
    rhs = _l2(scalar_convolve(state_profile(f, omega), state_profile(xi, omega), system.group))
    return CommutativeInequalityResult(rhs - lhs, lhs, rhs)


def twisted_inequality_experiment(
    system: TwistedSystem, f: CcElement, xi: CcElement, omega
) -> CommutativeInequalityResult:
    """EXPERIMENTAL: the conjectured variant for f not fixed by the action.

    The right side collapses the action-twisted profile g -> action(g)^{-1}(f(g))
    instead of f itself.  A negative residual here is a recorded observation,
    never a test failure: the general inequality is not established.
    """
    if not system.algebra.is_commutative:
        raise ValueError("the inequality check needs a commutative algebra")
    twisted = CcElement(system, {g: system.act_inv(g, a) for g, a in f.items()})
    lhs = _l2(state_profile(regular_apply(f, xi), omega))
    rhs = _l2(scalar_convolve(state_profile(twisted, omega), state_profile(xi, omega), system.group))
    return CommutativeInequalityResult(rhs - lhs, lhs, rhs)

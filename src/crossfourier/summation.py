"""Fourier summing nets: Fejer, Abel-Poisson, and approximation-data kernels.

A summing net is a finite schedule of multipliers with declared bounds.  The
shipped nets have normalized positive definite scalar kernels converging
pointwise to 1 (bound 1); the approximation-data net carries the bound
||xi_i|| ||eta_i|| of its construction.

Convergence runs report per-index l1, module-norm and compressed-operator-
norm errors for a fixed element, plus the pointwise surrogate of the summing
criterion: max over sampled (g, a) of ||T^i_g(a) - a||.  The last scheduled
index must meet the configured target, otherwise the report is marked
non-converged (never an exception: net schedules are finite by design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .crossed import CcElement, default_radii, opnorm_bounds
from .groups import (
    FolnerSequence,
    LengthFunction,
    Zd,
    ball,
    default_length,
    folner_sequence,
    one_norm,
    one_norm_shell_floor,
    shell_series,
    shell_sizes,
)
from .modules import EquivariantRep, ModuleVector
from .multipliers import Multiplier, apply_multiplier, scalar_multiplier
from .system import TwistedSystem


@dataclass
class SummingNet:
    system: TwistedSystem
    kind: str
    indices: tuple
    multipliers: tuple
    truncation: dict = field(default_factory=dict)  # index -> (radius, accounted tail bound)

    def __post_init__(self):
        if not all(math.isfinite(b) for b in self.bounds):
            raise ValueError("declared bounds must be finite")

    @property
    def bounds(self) -> tuple:
        return tuple(T.bound for T in self.multipliers)


# -- Fejer ------------------------------------------------------------------------


def fejer_net(system: TwistedSystem, indices: Sequence[int]) -> SummingNet:
    """Scalar kernels phi_i(g) = |g F_i n F_i| / |F_i| from the group's Folner sequence.

    Each kernel is normalized positive definite with finite support inside
    F_i F_i^{-1}, so the declared bound is 1.  Indices start at 1.
    """
    folner = folner_sequence(system.group)
    if any(int(i) < 1 for i in indices):
        raise ValueError("Folner index must be >= 1")
    mults = []
    for i in indices:
        phi = _fejer_kernel(folner, int(i))
        mults.append(scalar_multiplier(system, phi, bound=1.0))
    return SummingNet(system, "fejer", tuple(indices), tuple(mults))


def _fejer_kernel(folner: FolnerSequence, i: int):
    return lambda g: folner.ratio(g, i)


# -- Abel-Poisson ------------------------------------------------------------------


def truncation_radius(length: LengthFunction, r: float, eps: float) -> tuple[int, float]:
    """Smallest integer R with a certified bound sum_{L(g) > R} r^{L(g)} < eps.

    The tail is grouped by 1-norm shells; for the 1-norm the per-shell sums
    are exact, for the 2-norm and squared-2-norm they are rigorous upper
    bounds (the exact tails have no workable closed form), so R is
    conservative.  Returns (R, certified tail bound at R).
    """
    group = length.group
    if not isinstance(group, Zd):
        raise ValueError("truncation radii are computed for Z^d lengths")
    shells = shell_sizes(one_norm(group))
    # shell m sums r^{L(g)} over |g|_1 = m, at most shell_size * r^{least L on the shell}
    terms, remainder = shell_series(
        lambda m: shells(m) * r ** one_norm_shell_floor(m, length), 0, eps * 1e-9
    )
    suffix = remainder
    tail_at = {}
    for mm in range(len(terms) - 1, -1, -1):
        suffix += terms[mm]
        tail_at[mm] = suffix  # bound for shells >= mm
    # smallest shell threshold m0 with tail(shells >= m0) < eps
    m0 = next(mm for mm in range(len(terms) + 1) if tail_at.get(mm, remainder) < eps)
    if length.tag == "squared-two-norm":
        # shells >= m0 are exactly the region L(g) > R for R = (m0 - 1)^2
        R = (m0 - 1) ** 2
    else:
        R = m0 - 1
    return R, tail_at.get(m0, remainder)


def abel_poisson_net(
    system: TwistedSystem,
    length: LengthFunction,
    r_schedule: Sequence[float],
    eps: float = 1e-8,
) -> SummingNet:
    """Scalar kernels r^{L(g)} on Z^d for L the 1-norm, 2-norm or squared 2-norm.

    The infinite-support kernel is truncated at the certified radius R(eps, r);
    the accounted tail bound is recorded per index so reports can carry it
    into their error bars.
    """
    if not isinstance(system.group, Zd):
        raise ValueError("Abel-Poisson nets are shipped on Z^d")
    if length.tag not in ("one-norm", "two-norm", "squared-two-norm"):
        raise ValueError(f"unsupported length tag {length.tag!r}")
    mults, truncation = [], {}
    for r in r_schedule:
        r = float(r)
        if not 0.0 < r < 1.0:
            raise ValueError("Abel-Poisson parameters must lie in (0, 1)")
        R, tail = truncation_radius(length, r, eps)
        phi = _abel_kernel(length, r, R)
        mults.append(scalar_multiplier(system, phi, bound=1.0))
        truncation[r] = (R, tail)
    return SummingNet(system, "abel-poisson", tuple(float(r) for r in r_schedule), tuple(mults), truncation)


def _abel_kernel(length: LengthFunction, r: float, R: int):
    return lambda g: r ** length(g) if length(g) <= R else 0.0


# -- approximation-data nets ---------------------------------------------------------


def _xg_norm(table: dict) -> float:
    """Norm of a finitely supported map into the module: ||sum_h <x(h), x(h)>||^{1/2}."""
    vals = list(table.values())
    if not vals:
        return 0.0
    total = vals[0].algebra.zero()
    for v in vals:
        total = total + v.inner(v)
    return float(np.sqrt(total.norm()))


def approx_data_net(rep: EquivariantRep, data: Sequence[tuple[dict, dict]]) -> SummingNet:
    """Multipliers T^i(g, a) = sum_h <xi_i(h), rho(a) v(g) eta_i(g^{-1} h)>.

    xi_i and eta_i are finitely supported maps from the group into the module;
    each index has finite G-support supp(xi_i) . supp(eta_i)^{-1} and declared
    bound ||xi_i|| ||eta_i||.
    """
    system = rep.system
    grp, coded = system.group, system.coded
    mults = []
    for xi, eta in data:
        # the codes of h k^{-1}, one h of supp(xi) at a time against all of supp(eta)
        inverses, codes = coded.inv(coded.encode(list(eta))), set()
        for h in coded.encode(list(xi)).tolist():
            codes.update(coded.mul(np.full(len(inverses), h), inverses).tolist())
        support = frozenset(coded.decode(np.fromiter(codes, dtype=np.int64, count=len(codes))))

        def apply_at(g, a, xi=xi, eta=eta):
            acc = system.algebra.zero()
            rho_a = rep.rho(a)
            ginv = grp.inv(g)
            for h, xh in xi.items():
                ek = eta.get(grp.mul(ginv, h))
                if ek is None:
                    continue
                acc = acc + xh.inner(rho_a(rep.v_apply(g, ek)))
            return acc

        one_sided = rep.tag == "trivial"
        mults.append(Multiplier(system, "approx-data", apply_at,
                                bound=_xg_norm(xi) * _xg_norm(eta),
                                g_support=support, preserves_ideals=one_sided))
    return SummingNet(system, "approx-data", tuple(range(len(data))), tuple(mults))


def folner_approx_data(rep: EquivariantRep, folner: FolnerSequence, indices: Sequence[int]) -> list:
    """Normalized Folner indicators as approximation data: xi = eta = |F|^{-1/2} 1_F.

    With the trivial representation these reproduce the Fejer kernels.
    """
    A = rep.system.algebra
    out = []
    for i in indices:
        F = folner.set_at(int(i))
        w = 1.0 / math.sqrt(len(F))
        vec = ModuleVector(A, (w * A.unit(),))
        out.append(({h: vec for h in F}, {h: vec for h in F}))
    return out


# -- convergence runs ------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    kind: str
    indices: tuple
    rows: tuple            # one dict per index
    target_error: float
    converged: bool        # pointwise surrogate met at the last index
    columns: tuple

    def csv_rows(self):
        yield ["index"] + list(self.columns)
        for i, row in zip(self.indices, self.rows):
            yield [i] + [row[c] for c in self.columns]

    def as_dict(self):
        return {
            "kind": self.kind,
            "target_error": self.target_error,
            "converged": self.converged,
            "rows": [dict(zip(["index"], [i])) | row for i, row in zip(self.indices, self.rows)],
        }


def run_convergence(
    net: SummingNet,
    f: CcElement,
    R_schedule: Iterable[float] | None = None,
    target_error: float = 1e-6,
    rng=None,
) -> ConvergenceReport:
    """Per-index error metrics for T^i . f against f, plus the pointwise surrogate.

    The surrogate is taken at supp f and 8 points drawn from ball(3).

    Compressed-operator-norm errors are reported at every scheduled radius;
    they are dominated by the l1 error since the operator norm is.  For
    truncated kernels the accounted tail enters as an extra l1 term bounded
    by (tail bound) * ||f||_inf.
    """
    system = net.system
    if rng is None:
        rng = np.random.default_rng(0)
    length = default_length(system.group)
    if R_schedule is None:
        R_schedule = default_radii(system, [4, 8], length)
    R_schedule = [float(R) for R in R_schedule]

    pool = ball(3, length)
    picks = list(rng.choice(len(pool), size=min(8, len(pool)), replace=False))
    point_gs = sorted({pool[i] for i in picks} | set(f.support()), key=system.group.sort_key)
    probes = system.algebra.basis()[:4] + [system.algebra.random_element(rng)]

    rows = []
    columns = ["l1_error", "l1_error_with_truncation", "module_error", "pointwise_error"] + [
        f"opnorm_error_R{R:g}" for R in R_schedule
    ]
    for i, T in zip(net.indices, net.multipliers):
        h = apply_multiplier(T, f) - f
        l1 = h.norm_l1()
        tail = net.truncation.get(i, (None, 0.0))[1]
        row = {
            "l1_error": l1,
            "l1_error_with_truncation": l1 + tail * f.norm_linf(),
            "module_error": h.module_norm(),
            "pointwise_error": max(
                (T.apply_at(g, a) - a).norm() for g in point_gs for a in probes
            ),
        }
        errors = opnorm_bounds(h, R_schedule, length).trace if len(h) and R_schedule else [(R, 0.0) for R in R_schedule]
        row.update({f"opnorm_error_R{R:g}": s for R, s in errors})
        rows.append(row)
    converged = bool(rows and rows[-1]["pointwise_error"] < target_error)
    return ConvergenceReport(net.kind, net.indices, tuple(rows), target_error, converged, tuple(columns))

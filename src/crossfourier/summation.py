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

from .crossed import CcElement, compression_matrix, default_radii
from .groups import FolnerSequence, LengthFunction, Zd, ball, default_length, folner_sequence
from .modules import EquivariantRep
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

    def __len__(self):
        return len(self.indices)


# -- Fejer ------------------------------------------------------------------------


def fejer_net(system: TwistedSystem, indices: Sequence[int], folner: FolnerSequence | None = None) -> SummingNet:
    """Scalar kernels phi_i(g) = |g F_i n F_i| / |F_i| from a Folner sequence.

    Each kernel is normalized positive definite with finite support inside
    F_i F_i^{-1}, so the declared bound is 1.
    """
    if folner is None:
        folner = folner_sequence(system.group)
    mults = []
    for i in indices:
        phi = _fejer_kernel(folner, int(i))
        mults.append(scalar_multiplier(system, phi, bound=1.0))
    return SummingNet(system, "fejer", tuple(indices), tuple(mults))


def _fejer_kernel(folner: FolnerSequence, i: int):
    return lambda g: folner.ratio(g, i)


# -- Abel-Poisson ------------------------------------------------------------------


def _one_norm_shell_count(d: int, m: int) -> int:
    """Number of lattice points in Z^d with |g|_1 = m."""
    if m == 0:
        return 1
    return sum(2 ** k * math.comb(d, k) * math.comb(m - 1, k - 1) for k in range(1, min(d, m) + 1))


def _shell_term_bound(tag: str, d: int, r: float, m: int) -> float:
    """Upper bound for sum over the 1-norm shell m of r^{L(g)}."""
    c = _one_norm_shell_count(d, m)
    if tag == "one-norm":
        return c * r ** m
    if tag == "two-norm":
        return c * r ** (m / math.sqrt(d))  # |g|_2 >= |g|_1 / sqrt(d)
    if tag == "squared-two-norm":
        return c * r ** (m * m / d)  # |g|_2^2 >= |g|_1^2 / d
    raise ValueError(f"unsupported length tag {tag!r}")


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
    d, tag = group.d, length.tag
    terms = [_shell_term_bound(tag, d, r, 0)]
    m = 0
    # grow until the certified remainder past m is negligible against eps
    while True:
        m += 1
        t = _shell_term_bound(tag, d, r, m)
        terms.append(t)
        if m < 8 or t == 0.0:
            if t == 0.0 and m > 8:
                remainder = 0.0
                break
            continue
        ratio = _shell_term_bound(tag, d, r, m + 1) / t if t > 0 else 0.0
        if ratio < 1.0 and t * ratio / (1.0 - ratio) < eps * 1e-9:
            remainder = t * ratio / (1.0 - ratio)
            break
        if m > 2_000_000:
            raise ValueError("truncation radius search did not converge")
    suffix = remainder
    tail_at = {}
    for mm in range(len(terms) - 1, -1, -1):
        suffix += terms[mm]
        tail_at[mm] = suffix  # bound for shells >= mm
    # smallest shell threshold m0 with tail(shells >= m0) < eps
    m0 = next(mm for mm in range(len(terms) + 1) if tail_at.get(mm, remainder) < eps)
    if tag == "squared-two-norm":
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
    grp = system.group
    mults = []
    for xi, eta in data:
        support = frozenset(grp.mul(h, grp.inv(k)) for h in xi for k in eta)

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
    from .modules import ModuleVector

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
    n_pointwise: int = 8,
) -> ConvergenceReport:
    """Per-index error metrics for T^i . f against f, plus the pointwise surrogate.

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
    picks = list(rng.choice(len(pool), size=min(n_pointwise, len(pool)), replace=False))
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
        for R in R_schedule:
            if len(h) == 0:
                row[f"opnorm_error_R{R:g}"] = 0.0
            else:
                row[f"opnorm_error_R{R:g}"] = compression_matrix(h, R, length).largest_singular_value()
        rows.append(row)
    converged = bool(rows and rows[-1]["pointwise_error"] < target_error)
    return ConvergenceReport(net.kind, net.indices, tuple(rows), target_error, converged, tuple(columns))

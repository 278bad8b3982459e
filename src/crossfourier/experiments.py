"""Named experiments: one experiment per invocation, machine-readable reports.

Every experiment returns (results dict, optional CSV rows, passed flag) and
embeds the module-level invariant checks it touches; a violated invariant
flips the flag (the CLI maps it to exit code 2).  All randomness flows from
the single seeded generator, so equal configs give equal numeric payloads.
"""

from __future__ import annotations

import numpy as np

from .algebra import pure_states
from .config import ConfigError, build_element, build_length, element_to_wire
from .crossed import (
    CcElement,
    compression_matrix,
    default_radii,
    delta,
    opnorm_bounds,
    random_cc_in,
)
from .decay import (
    commutative_inequality_check,
    content_probe,
    decay_constant_probe,
    inv_l2_bracket,
    make_weight,
    tail_profile,
)
from .groups import ball, default_length, folner_sequence
from .ideals import (
    block_orbits,
    central_projection_split,
    e_invariance_probe,
    enumerate_invariant_ideals,
    ideal_membership,
    orbit_closure,
)
from .modules import trivial_rep
from .multipliers import apply_multiplier, pd_check
from .summation import abel_poisson_net, approx_data_net, fejer_net, folner_approx_data, run_convergence
from .system import sl2z_system, validate_system


def run_validate(system, params, rng):
    report = validate_system(system, n_samples=int(params.get("n_samples", 200)), rng=rng)
    return report.as_dict(), None, report.passed


def run_arithmetic_suite(system, params, rng):
    # no timing in the payload: reports must be byte-identical under a seed
    n = int(params.get("n_triples", 200))
    pool = ball(1, default_length(system.group))
    worst = {"associativity": 0.0, "distributivity": 0.0, "involution": 0.0}
    for _ in range(n):
        f1 = random_cc_in(system, pool, 3, rng)
        f2 = random_cc_in(system, pool, 3, rng)
        f3 = random_cc_in(system, pool, 3, rng)
        worst["associativity"] = max(worst["associativity"], (((f1 * f2) * f3) - (f1 * (f2 * f3))).norm_l1())
        worst["distributivity"] = max(worst["distributivity"], ((f1 * (f2 + f3)) - (f1 * f2 + f1 * f3)).norm_l1())
        worst["involution"] = max(worst["involution"], ((f1 * f2).star() - f2.star() * f1.star()).norm_l1())
        worst["involution"] = max(worst["involution"], (f1.star().star() - f1).norm_l1())
    passed = max(worst.values()) <= 1e-10
    return {"max_violations": worst, "n_triples": n}, None, passed


def run_norms(system, params, rng):
    f = build_element(system, params.get("element"), rng)
    radii = params.get("radii")
    bounds = opnorm_bounds(f, radii)
    results = {
        "element": element_to_wire(f),
        "l1": f.norm_l1(),
        "linf": f.norm_linf(),
        "module": f.module_norm(),
        "opnorm": bounds.as_dict(),
    }
    weight_spec = params.get("weight")
    if weight_spec:
        length = build_length(weight_spec.get("length", "default"), system.group)
        w = make_weight(weight_spec["tag"], weight_spec.get("param", 0.0), length)
        results["weighted_l2"] = f.weighted_l2_norm(w)
        results["weighted_module"] = f.weighted_module_norm(w)
    passed = (
        results["linf"] <= results["module"] + 1e-9
        and results["module"] <= results["l1"] + 1e-9
        and bounds.lower <= bounds.upper + 1e-9
    )
    profile = tail_profile(f)
    csv_rows = [["shell", "l1"]] + [[m, v] for m, v in profile]
    results["shell_profile"] = [{"shell": m, "l1": v} for m, v in profile]
    dump_radius = params.get("dump_compression")
    if dump_radius is not None:
        from .config import compression_to_wire

        results["compression"] = compression_to_wire(compression_matrix(f, float(dump_radius)))
    return results, csv_rows, passed


def _net_report(system, net, params, rng):
    f = build_element(system, params.get("element"), rng)
    radii = params.get("radii", None)
    target = float(params.get("target_error", 1e-6))
    report = run_convergence(net, f, radii, target, rng)
    pd_radius = float(params.get("pd_radius", 4))
    length = default_length(system.group)
    pd_results = []
    pd_ok = True
    for i, T in zip(net.indices, net.multipliers):
        if T.scalar_kernel is None:
            continue
        S = system.group.elements() if system.group.is_finite else ball(pd_radius, length)
        is_pd, mineig = pd_check(T.scalar_kernel, S, system.group)
        pd_results.append({"index": i, "pd": is_pd, "min_eigenvalue": mineig})
        pd_ok = pd_ok and is_pd
    domination_ok = all(
        row[c] <= row["l1_error"] + 1e-9
        for row in report.rows
        for c in report.columns
        if c.startswith("opnorm_error")
    )
    results = {
        "element": element_to_wire(f),
        "convergence": report.as_dict(),
        "pd_checks": pd_results,
        "bounds": list(net.bounds),
        "truncation": {str(k): {"radius": v[0], "tail_bound": v[1]} for k, v in net.truncation.items()},
    }
    return results, list(report.csv_rows()), pd_ok and domination_ok


def run_fejer(system, params, rng):
    indices = params.get("indices", [2, 4, 8, 16])
    net = fejer_net(system, indices)
    return _net_report(system, net, params, rng)


def run_abel_poisson(system, params, rng):
    length = build_length(params.get("length", "one-norm"), system.group)
    net = abel_poisson_net(system, length, params.get("r_schedule", [0.5, 0.9, 0.99]),
                           float(params.get("eps", 1e-8)))
    return _net_report(system, net, params, rng)


def run_approx_net(system, params, rng):
    from .config import build_rep
    from .modules import validate_equivariant

    rep_spec = params.get("rep")
    rep = build_rep(system, rep_spec) if rep_spec else trivial_rep(system)
    vreport = validate_equivariant(rep, rng=np.random.default_rng(0))
    if not vreport.passed:
        raise ConfigError(f"equivariant representation fails validation: {vreport.axiom_violations}")
    kind = params.get("data", "folner-indicator")
    if kind == "folner-indicator":
        indices = params.get("indices", [2, 4, 8])
        data = folner_approx_data(rep, folner_sequence(system.group), indices)
    elif kind == "delta":
        from .modules import basis_vector

        one = basis_vector(system.algebra, rep.rank, 0)
        e = system.group.identity()
        data = [({e: one}, {e: one})]
    else:
        raise ConfigError(f"unknown approximation data kind {kind!r}")
    net = approx_data_net(rep, data)
    results, csv_rows, passed = _net_report(system, net, params, rng)
    results["rep_validation"] = vreport.as_dict()
    return results, csv_rows, passed


def run_decay_probe(system, params, rng):
    wspec = params.get("weight", {"tag": "constant"})
    length = build_length(wspec.get("length", "default"), system.group) if wspec.get("tag") != "constant" else None
    w = make_weight(wspec["tag"], wspec.get("param", 0.0), length)
    probe = decay_constant_probe(
        system, w,
        R=float(params.get("radius", 2)),
        sample_budget=int(params.get("sample_budget", 30)),
        rng=rng,
    )
    results = probe.as_dict()
    results["weight"] = {"tag": w.tag, "param": w.param, "summable_inverse": w.summable_inverse}
    passed = True
    if w.summable_inverse:
        lo, hi = inv_l2_bracket(w)
        results["inv_l2_bracket"] = [lo, hi]
        # the l1 route is a theorem: the witness respects it
        f = probe.witness
        lower = opnorm_bounds(f, default_radii(system, [2 * float(params.get("radius", 2))])).lower
        passed = lower <= hi * f.weighted_l2_norm(w) + 1e-9
    return results, None, passed


def run_content_probe(system, params, rng):
    subset = [system.group.normal_form(w) for w in params["subset"]]
    est = content_probe(system, subset, int(params.get("sample_budget", 40)), rng)
    results = est.as_dict()
    passed = est.lower <= est.upper + 1e-9
    if est.upper_scalar is not None:
        passed = passed and est.lower <= est.upper_scalar + 1e-9
    return results, None, passed


def run_commutative_inequality(system, params, rng):
    if not system.algebra.is_commutative:
        raise ConfigError("the commutative-inequality experiment needs all-1 blocks")
    n = int(params.get("n_samples", 200))
    states = pure_states(system.algebra)
    min_residual, rows = np.inf, []
    twisted_min, twisted_negatives = np.inf, 0
    record_twisted = bool(params.get("record_twisted_experiment", False))
    from .decay import twisted_inequality_experiment

    pool = ball(2, default_length(system.group))
    for _ in range(n):
        f = random_cc_in(system, pool, 3, rng)
        xi = random_cc_in(system, pool, 3, rng)
        for omega in states:
            res = commutative_inequality_check(system, f, xi, omega)
            min_residual = min(min_residual, res.residual)
            rows.append(res.residual)
            if record_twisted:
                exp = twisted_inequality_experiment(system, f, xi, omega)
                twisted_min = min(twisted_min, exp.residual)
                if exp.residual < -1e-12:
                    twisted_negatives += 1
    results = {"n_samples": n, "min_residual": float(min_residual),
               "n_checks": len(rows)}
    if record_twisted:
        # observations only: a negative residual here is recorded, not failed
        results["twisted_experiment"] = {
            "min_residual": float(twisted_min),
            "counterexamples": twisted_negatives,
        }
    return results, None, min_residual >= -1e-12


def run_ideals(system, params, rng):
    ideals = enumerate_invariant_ideals(system)
    results = {
        "orbits": [sorted(o) for o in block_orbits(system)],
        "ideals": [sorted(J.blocks) for J in ideals],
        "count": len(ideals),
    }
    passed = True
    espec = params.get("e_invariance")
    if espec:
        J = orbit_closure(system, espec["blocks"])
        gens = [delta(system, None, J.element_from(system.algebra.unit()))]
        report = e_invariance_probe(system, gens, int(params.get("sample_budget", 40)), rng)
        results["e_invariance"] = report.as_dict()
        passed = passed and report.passed
    return results, None, passed


def run_psl_preset(system, params, rng):
    """The SL(2,Z) model end to end; the configured system block is ignored."""
    sys_ = sl2z_system()
    from .groups import block_length

    L = block_length(sys_.group)
    pool = ball(3, L)
    triples = [(g, h, k) for g in pool for h in pool for k in pool]
    vreport = validate_system(sys_, triples=triples)

    A = sys_.algebra
    s = delta(sys_, None, A.scalar([1, -1]))
    gens = [
        delta(sys_, sys_.group.normal_form("s")),
        delta(sys_, sys_.group.normal_form("t")),
        delta(sys_, None, A.random_element(rng)),
    ]
    p, q, split = central_projection_split(s, gens)

    ideals = enumerate_invariant_ideals(sys_)
    Jp, Jq = orbit_closure(sys_, [0]), orbit_closure(sys_, [1])

    # every shipped net on this system is scalar, hence ideal-preserving;
    # spot-check on random J-valued elements through a Fejer net of Z (via
    # the finite-support kernels of the approximation data on the identity)
    rep = trivial_rep(sys_)
    from .modules import ModuleVector

    one = ModuleVector(A, (A.unit(),))
    e = sys_.group.identity()
    net = approx_data_net(rep, [({e: one}, {e: one})])
    preserved = True
    for _ in range(int(params.get("n_samples", 100))):
        support = [pool[i] for i in rng.choice(len(pool), size=2, replace=False)]
        f = CcElement(sys_, {g: Jp.element_from(A.random_element(rng)) for g in support})
        for T in net.multipliers:
            preserved = preserved and ideal_membership(apply_multiplier(T, f), Jp)

    results = {
        "validation": vreport.as_dict(),
        "split": split.as_dict(),
        "p": element_to_wire(p),
        "q": element_to_wire(q),
        "ideal_count": len(ideals),
        "induced_ideals_disjoint": not (Jp.blocks & Jq.blocks),
        "net_preserves_induced_ideal": preserved,
    }
    passed = (
        vreport.passed
        and split.passed
        and len(ideals) == 4
        and results["induced_ideals_disjoint"]
        and preserved
    )
    return results, None, passed


EXPERIMENTS = {
    "validate": run_validate,
    "arithmetic-suite": run_arithmetic_suite,
    "norms": run_norms,
    "fejer": run_fejer,
    "abel-poisson": run_abel_poisson,
    "approx-net": run_approx_net,
    "decay-probe": run_decay_probe,
    "content-probe": run_content_probe,
    "commutative-inequality": run_commutative_inequality,
    "ideals": run_ideals,
    "psl-preset": run_psl_preset,
}

"""Named experiments: one experiment per invocation, machine-readable reports.

Every experiment returns (results dict, optional CSV rows, passed flag) and
embeds the module-level invariant checks it touches; a violated invariant
flips the flag (the CLI maps it to exit code 2).  All randomness flows from
the single seeded generator, so equal configs give equal numeric payloads.
"""

from __future__ import annotations

import numpy as np

from .algebra import pure_states
from .config import (
    BALL_POINT_BUDGET, ConfigError, build_element, build_length, build_rep, check_ball_budget, compression_to_wire,
    element_to_wire,
)
from .crossed import (
    _DEFAULT_DENSE_BYTES,
    CcElement,
    compression_bytes,
    compression_matrix,
    delta,
    differences,
    opnorm_bounds,
    products,
    random_cc_in,
    stars,
    sums,
)
from .decay import (
    check_fixed_point,
    collapse_residuals,
    content_probe,
    decay_constant_probe,
    inv_l2_bracket,
    make_weight,
    regular_applies,
    tail_profile,
    twisted_inequality_experiment,
)
from .groups import ball, block_length, default_length, folner_sequence
from .ideals import (
    block_orbits,
    central_projection_split,
    e_invariance_probe,
    enumerate_invariant_ideals,
    ideal_membership,
    orbit_closure,
)
from .modules import ModuleVector, basis_vector, trivial_rep, validate_equivariant
from .multipliers import apply_multiplier, pd_check
from .summation import abel_poisson_net, approx_data_net, fejer_net, folner_approx_data, run_convergence
from .system import sl2z_system, validate_system


def run_validate(system, params, rng):
    report = validate_system(system, n_samples=int(params.get("n_samples", 200)), rng=rng)
    return report.as_dict(), None, report.passed


# The sampling experiments draw and check their samples one chunk at a time,
# each stage of a chunk one batched call (crossed.products, stars, sums,
# differences, decay.regular_applies): memory stays O(chunk) whatever the
# sample count, and a call's pairs (at most 27 per triple, on supports of at
# most 3 points) stay well within the room groups.PAIR_MEMO leaves.
_CHUNK = 64


def _chunks(n: int):
    """The sizes of the chunks of n samples."""
    for start in range(0, n, _CHUNK):
        yield min(_CHUNK, n - start)


def run_arithmetic_suite(system, params, rng):
    # no timing in the payload: reports must be byte-identical under a seed
    n = int(params.get("n_triples", 200))
    pool = ball(1, default_length(system.group))
    worst = {"associativity": 0.0, "distributivity": 0.0, "involution": 0.0}
    for size in _chunks(n):
        # the arithmetic draws nothing, so drawing a chunk first keeps the draws in order
        f1, f2, f3 = [], [], []
        for _ in range(size):
            for fs in (f1, f2, f3):
                fs.append(random_cc_in(system, pool, 3, rng))
        # the product is deterministic, so f1 f2 and f1* are formed once per triple
        f12, f1_star = products(f1, f2), stars(f1)
        associativity = differences(products(f12, f3), products(f1, products(f2, f3)))
        distributivity = differences(products(f1, sums(f2, f3)), sums(f12, products(f1, f3)))
        antihomomorphism = differences(stars(f12), products(stars(f2), f1_star))
        involution = differences(stars(f1_star), f1)
        for defects in zip(associativity, distributivity, antihomomorphism, involution):
            # the maxima run in the triple order, as max() keeps an earlier value over a NaN
            for key, defect in zip(("associativity", "distributivity", "involution", "involution"), defects):
                worst[key] = max(worst[key], defect.norm_l1())
    passed = max(worst.values()) <= 1e-10
    return {"max_violations": worst, "n_triples": n}, None, passed


def _check_compression_budget(f, radii):
    """ConfigError if compressing f to the ball of one of the radii could pass
    _DEFAULT_DENSE_BYTES; compression_bytes counts the balls, so none is built.

    The bound also covers the nets, which compress T f - f, supported in supp f.
    """
    for R in radii:
        nbytes = compression_bytes(f, float(R))
        if nbytes > _DEFAULT_DENSE_BYTES:
            raise ConfigError(
                f"the compression at radius {R} could store {nbytes} bytes, "
                f"past the budget of {_DEFAULT_DENSE_BYTES}; choose smaller radii"
            )


def run_norms(system, params, rng):
    f = build_element(system, params.get("element"), rng)
    radii = params.get("radii")
    dump_radius = params.get("dump_compression")
    _check_compression_budget(f, list(radii or []) + ([] if dump_radius is None else [dump_radius]))
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
        try:
            results["weighted_l2"] = f.weighted_l2_norm(w)
            results["weighted_module"] = f.weighted_module_norm(w)
        except ValueError as exc:
            raise ConfigError(f"weighted norms: {exc}") from None
    passed = (
        results["linf"] <= results["module"] + 1e-9
        and results["module"] <= results["l1"] + 1e-9
        and bounds.lower <= bounds.upper + 1e-9
    )
    profile = tail_profile(f)
    csv_rows = [["shell", "l1"]] + [[m, v] for m, v in profile]
    results["shell_profile"] = [{"shell": m, "l1": v} for m, v in profile]
    if dump_radius is not None:
        results["compression"] = compression_to_wire(compression_matrix(f, float(dump_radius)))
    return results, csv_rows, passed


def _net_report(system, net, params, rng):
    f = build_element(system, params.get("element"), rng)
    radii = params.get("radii", None)
    _check_compression_budget(f, list(radii or []))
    pd_radius = float(params.get("pd_radius", 4))
    length = default_length(system.group)
    if any(T.scalar_kernel is not None for T in net.multipliers):
        # pd_check builds a |S|^2 Gram matrix over the finite group or ball(pd_radius)
        if system.group.is_finite:
            S = system.group.elements()
            if len(S) > BALL_POINT_BUDGET:
                raise ConfigError(
                    f"the pd set, all of {system.group.name}, has {len(S)} points, past the budget of "
                    f"{BALL_POINT_BUDGET}; choose a smaller group"
                )
        else:
            check_ball_budget(pd_radius, length, "pd_radius")
            S = ball(pd_radius, length)
    target = float(params.get("target_error", 1e-6))
    report = run_convergence(net, f, radii, target, rng)
    pd_results = []
    pd_ok = True
    for i, T in zip(net.indices, net.multipliers):
        if T.scalar_kernel is None:
            continue
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
    try:
        probe = decay_constant_probe(
            system, w,
            R=float(params.get("radius", 2)),
            sample_budget=int(params.get("sample_budget", 30)),
            rng=rng,
        )
    except ValueError as exc:  # a weight that overflows on the sampled supports
        raise ConfigError(f"decay probe: {exc}") from None
    results = probe.as_dict()
    results["weight"] = {"tag": w.tag, "param": w.param, "summable_inverse": w.summable_inverse}
    passed = True
    if w.summable_inverse:
        lo, hi = inv_l2_bracket(w)
        results["inv_l2_bracket"] = [lo, hi]
        # the l1 route is a theorem: the witness respects it
        passed = probe.witness_lower <= hi * probe.witness.weighted_l2_norm(w) + 1e-9
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
    pool = ball(2, default_length(system.group))
    for size in _chunks(n):
        fs, xis = [], []
        for _ in range(size):
            fs.append(random_cc_in(system, pool, 3, rng))
            xis.append(random_cc_in(system, pool, 3, rng))
        for f in fs:
            check_fixed_point(system, f)
        # neither Lambda(f) xi nor the fixed-point test depends on the state
        for f, xi, applied in zip(fs, xis, regular_applies(fs, xis)):
            for omega, res in zip(states, collapse_residuals(system, applied, f, xi, states)):
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

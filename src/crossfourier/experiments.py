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
    ConfigError, build_element, build_length, build_rep, compression_to_wire, element_to_wire, require,
)
from .crossed import (
    ccs_at,
    check_budget,
    compression_matrix,
    delta,
    differences,
    opnorm_bounds,
    products,
    random_ccs_in,
    sample_chunks,
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
from .groups import ball, ball_size, block_length, default_length, folner_sequence
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


def _count(params, key: str, default: int) -> int:
    """The sample count params[key] (default if absent); ConfigError naming the key below 1."""
    n = int(params.get(key, default))
    if n < 1:
        raise ConfigError(f"{key} must be at least 1, got {n}")
    return n


# The work budget of the experiments whose time is linear in a sample count:
# commutative-inequality's and psl-preset's n_samples, arithmetic-suite's
# n_triples and the sample_budget of decay-probe, content-probe and ideals'
# e_invariance.  Each counts its checks in closed form before it draws a
# sample, and a count past this many is refused.  One check took 50-600 us
# on a 2-vCPU Xeon, so an accepted count runs there for 40 minutes at most.
_BUDGET_CHECKS = 1 << 22


def _check_work(n: int, per_sample: int, key: str):
    """ValueError naming key if n samples of per_sample checks each pass _BUDGET_CHECKS."""
    if n * per_sample > _BUDGET_CHECKS:
        raise ValueError(f"{key}: {n} samples of {per_sample} checks each would make {n * per_sample} checks, "
                         f"past the budget of {_BUDGET_CHECKS}")


def run_validate(system, params, rng):
    report = validate_system(system, n_samples=_count(params, "n_samples", 200), rng=rng)
    return report.as_dict(), None, report.passed


def run_arithmetic_suite(system, params, rng):
    # no timing in the payload: reports must be byte-identical under a seed
    n = _count(params, "n_triples", 200)
    _check_work(n, 4, "n_triples")  # associativity, distributivity, antihomomorphism, involution
    pool = ball(1, default_length(system.group))
    worst = {"associativity": 0.0, "distributivity": 0.0, "involution": 0.0}
    for size in sample_chunks(n):
        # the arithmetic draws nothing, so drawing a chunk first keeps the draws in order
        drawn = random_ccs_in(system, pool, 3, rng, 3 * size)
        f1, f2, f3 = drawn[0::3], drawn[1::3], drawn[2::3]
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


# Peak bytes per entry of a dense compression put in a report (its wire lists,
# their rounding and the indented JSON): 677-716 measured on Z, 0.04-0.36 M entries.
_WIRE_ENTRY_BYTES = 700

# Bytes per pair of xi x eta as point tuples (74-86 measured on Z, Z^2, Z^3).
# approx_data_net holds one row of pairs at a time, as codes (0.1 us a pair on
# Z^3), so this caps an index's time: Z^3 passes index 15 and refuses 16.
_PAIR_BYTES = 80


def _check_radii(f, radii):
    """check_budget on compressing f at each radius, the ball counted by ball_size, so none is built.

    A compression stores at most |ball(R)| |supp f| sum_j d_j^2 complex values;
    the nets compress T f - f, supported in supp f, so the count covers them.
    """
    length = default_length(f.system.group)
    for R in radii or []:
        check_budget(16 * ball_size(float(R), length) * len(f) * f.system.algebra.total_dim,
                     f"radii: the compression at radius {R}")


def run_norms(system, params, rng):
    f = build_element(system, params.get("element"), rng)
    radii = params.get("radii")
    dump_radius = params.get("dump_compression")
    _check_radii(f, radii)
    if dump_radius is not None:
        dim = ball_size(float(dump_radius), default_length(system.group)) * system.algebra.rep_dim
        check_budget(_WIRE_ENTRY_BYTES * dim * dim, f"dump_compression: the {dim} x {dim} compression in the report")
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
        w = make_weight(require(weight_spec, "tag", "the weight"), weight_spec.get("param", 0.0), length)
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
    _check_radii(f, radii)
    pd_radius = float(params.get("pd_radius", 4))
    length = default_length(system.group)
    if any(T.scalar_kernel is not None for T in net.multipliers):
        # pd_check builds a |S|^2 complex Gram matrix over the finite group or ball(pd_radius)
        finite = system.group.is_finite
        n = len(system.group.elements()) if finite else ball_size(pd_radius, length)
        key = "system.group" if finite else "pd_radius"
        check_budget(16 * n * n, f"{key}: the {n} x {n} Gram matrix of the pd check")
        S = system.group.elements() if finite else ball(pd_radius, length)
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
        folner = folner_sequence(system.group)
        for i in indices:
            n = len(system.group.elements()) if system.group.is_finite else int(i) ** system.group.d
            check_budget(_PAIR_BYTES * n * n, f"indices: the {n} x {n} pair table of index {i}")
        data = folner_approx_data(rep, folner, indices)
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
    budget = _count(params, "sample_budget", 30)
    _check_work(budget, 1, "sample_budget")  # one compression per sample
    wspec = params.get("weight", {"tag": "constant"})
    length = build_length(wspec.get("length", "default"), system.group) if wspec.get("tag") != "constant" else None
    w = make_weight(require(wspec, "tag", "the weight"), wspec.get("param", 0.0), length)
    try:
        probe = decay_constant_probe(
            system, w,
            R=float(params.get("radius", 2)),
            sample_budget=budget,
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
    budget = _count(params, "sample_budget", 40)
    _check_work(budget, 1, "sample_budget")  # one SVD per random or ascent candidate
    subset = [system.group.normal_form(w) for w in require(params, "subset", "content-probe")]
    try:
        est = content_probe(system, subset, budget, rng)
    except ValueError as exc:  # an empty subset, or one so long that its compression passes the budget
        raise ConfigError(f"subset: {exc}") from None
    results = est.as_dict()
    passed = est.lower <= est.upper + 1e-9
    if est.upper_scalar is not None:
        passed = passed and est.lower <= est.upper_scalar + 1e-9
    return results, None, passed


def run_commutative_inequality(system, params, rng):
    if not system.algebra.is_commutative:
        raise ConfigError("the commutative-inequality experiment needs all-1 blocks")
    n = _count(params, "n_samples", 200)
    states = pure_states(system.algebra)
    record_twisted = bool(params.get("record_twisted_experiment", False))
    _check_work(n, len(states) * (2 if record_twisted else 1), "n_samples")  # per state, and per twisted variant
    min_residual, n_checks = np.inf, 0
    twisted_min, twisted_negatives = np.inf, 0
    pool = ball(2, default_length(system.group))
    for size in sample_chunks(n):
        drawn = random_ccs_in(system, pool, 3, rng, 2 * size)
        fs, xis = drawn[0::2], drawn[1::2]
        for f in fs:
            check_fixed_point(system, f)
        # neither Lambda(f) xi nor the fixed-point test depends on the state
        for f, xi, applied in zip(fs, xis, regular_applies(fs, xis)):
            for omega, res in zip(states, collapse_residuals(system, applied, f, xi, states)):
                min_residual = min(min_residual, res.residual)
                n_checks += 1
                if record_twisted:
                    exp = twisted_inequality_experiment(system, f, xi, omega)
                    twisted_min = min(twisted_min, exp.residual)
                    if exp.residual < -1e-12:
                        twisted_negatives += 1
    results = {"n_samples": n, "min_residual": float(min_residual), "n_checks": n_checks}
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
        J = orbit_closure(system, require(espec, "blocks", "e_invariance"))
        gens = [delta(system, None, J.element_from(system.algebra.unit()))]
        budget = _count(params, "sample_budget", 40)
        _check_work(budget, 1, "sample_budget")  # one product pair h1 * gen * h2 per sample
        report = e_invariance_probe(system, gens, budget, rng)
        results["e_invariance"] = report.as_dict()
        passed = passed and report.passed
    return results, None, passed


def run_psl_preset(system, params, rng):
    """The SL(2,Z) model end to end; the configured system block is ignored."""
    n_samples = _count(params, "n_samples", 100)
    _check_work(n_samples, 1, "n_samples")  # one membership check per sample by the one-multiplier net below
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
    preserved, width = True, 2 * A.total_dim
    for size in sample_chunks(n_samples):
        # a chunk's draws first, in a loop's order: two points, then one random_element per point
        picks, draws = [], []
        for _ in range(size):
            picks.append(rng.choice(len(pool), size=2, replace=False))
            draws.append(rng.normal(size=(2, width)))
        drawn = A.from_normals(np.concatenate(draws))
        blocks = [b if j in Jp.blocks else np.zeros_like(b) for j, b in enumerate(drawn)]  # Jp.element_from
        for f in ccs_at(sys_, [pool[i] for i in np.concatenate(picks).tolist()], blocks, [2] * size):
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

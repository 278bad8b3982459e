"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here; nothing is deferred to later calibration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from crossfourier import crossed
from crossfourier.algebra import AlgAutomorphism, BlockAlgebra, pure_states
from crossfourier.crossed import (
    CcElement,
    cc_unit,
    compression_matrix,
    delta,
    exact_norm_finite,
    full_radius,
    opnorm_bounds,
    random_cc,
)
from crossfourier.decay import (
    commutative_inequality_check,
    content_probe,
    scalar_convolve,
    state_profile,
    make_weight,
)
from crossfourier.groups import (
    Cyclic,
    FreeF2,
    Zd,
    ball,
    one_norm,
    squared_two_norm,
    two_norm,
    word_length,
)
from crossfourier.ideals import (
    central_projection_split,
    enumerate_invariant_ideals,
    ideal_membership,
    orbit_closure,
)
from crossfourier.modules import ModuleVector, random_vector, trivial_rep, unitary_tensor_rep, validate_equivariant
from crossfourier.multipliers import apply_multiplier, make_matrix_coeff_multiplier, pd_check, scalar_multiplier
from crossfourier.summation import abel_poisson_net, approx_data_net, fejer_net, run_convergence
from crossfourier.system import (
    TwistedSystem,
    generator_action,
    sl2z_system,
    theta_system,
    trivial_system,
    validate_system,
)
from crossfourier.groups import block_length


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def rotation_system():
    """Z acting on M2 + C through powers of a rotation, untwisted cocycle."""
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    return TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")


THREE_SYSTEMS = {
    "Z-M2+C": rotation_system,
    "Z2-torus-1/5": lambda: theta_system(Zd(2), "1/5"),
    "Z12-theta-1/12": lambda: theta_system(Cyclic(12), "1/12"),
}


def _supports(system, rng, size=3):
    from crossfourier.groups import default_length

    pool = ball(2, default_length(system.group))
    idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
    return [pool[i] for i in idx]


def test_c01_algebra_suite():
    with criterion(1, "ring axioms on 200 random triples per system, < 10 s"):
        t0 = time.perf_counter()
        for make in THREE_SYSTEMS.values():
            sys_ = make()
            rng = np.random.default_rng(101)
            for _ in range(200):
                f1 = random_cc(sys_, _supports(sys_, rng), rng)
                f2 = random_cc(sys_, _supports(sys_, rng), rng)
                f3 = random_cc(sys_, _supports(sys_, rng), rng)
                assert (((f1 * f2) * f3) - (f1 * (f2 * f3))).norm_l1() <= 1e-10
                assert ((f1 * (f2 + f3)) - (f1 * f2 + f1 * f3)).norm_l1() <= 1e-10
                assert (((f1 + f2) * f3) - (f1 * f3 + f2 * f3)).norm_l1() <= 1e-10
                assert ((f1 * f2).star() - f2.star() * f1.star()).norm_l1() <= 1e-10
                assert (f1.star().star() - f1).norm_l1() <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"algebra suite took {elapsed:.1f} s"


def finite_oracle_systems():
    A2 = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A2, [1, 0])
    G4 = Cyclic(4)
    swap_sys = TwistedSystem(A2, G4, generator_action(G4, A2, [swap]), lambda g, h: A2.unit(), tag="swap")
    return [
        theta_system(Cyclic(12), "1/12"),
        swap_sys,
        trivial_system(BlockAlgebra([2, 1]), Cyclic(6)),
    ]


def test_c02_regular_representation_oracle():
    with criterion(2, "matrix(f1*f2) = matrix(f1) matrix(f2), matrix(f*) = matrix(f)^H on 100 pairs"):
        rng = np.random.default_rng(202)
        systems = finite_oracle_systems()
        for i in range(100):
            sys_ = systems[i % len(systems)]
            assert len(sys_.group.elements()) <= 24
            R = full_radius(sys_)
            f1 = random_cc(sys_, _supports(sys_, rng), rng)
            f2 = random_cc(sys_, _supports(sys_, rng), rng)
            m1 = compression_matrix(f1, R).matrix
            m2 = compression_matrix(f2, R).matrix
            m12 = compression_matrix(f1 * f2, R).matrix
            assert np.linalg.norm(m12 - m1 @ m2, 2) <= 1e-10
            assert np.linalg.norm(compression_matrix(f1.star(), R).matrix - m1.conj().T, 2) <= 1e-10


def test_c03_expectation_identities():
    with criterion(3, "E(f* x f) = <f,f> and E(u_g f u_g*) = action(g)(E(f)) on 100 f per system"):
        for make in THREE_SYSTEMS.values():
            sys_ = make()
            rng = np.random.default_rng(303)
            for _ in range(100):
                f = random_cc(sys_, _supports(sys_, rng), rng)
                e = (f.star() * f).expectation()
                assert (e - f.gram()).norm() <= 1e-10
                assert abs(e.norm() - f.module_norm() ** 2) <= 1e-10 * max(1.0, e.norm())
                g = sys_.group.random_element(rng)
                dg = delta(sys_, g)
                lhs = (dg * f * dg.star()).expectation()
                assert (lhs - sys_.act(g, f.expectation())).norm() <= 1e-10


def test_c04_norm_sandwich_and_compression_convergence():
    with criterion(4, "path-graph lower bounds 2cos(pi/(2R+2)); > 1.999 at R=100; norm chain"):
        sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
        A = sys_.algebra
        f = CcElement(sys_, {(1,): A.unit(), (-1,): A.unit()})
        for R in (1, 4, 16, 64):
            b = opnorm_bounds(f, [R])
            assert abs(b.lower - 2 * math.cos(math.pi / (2 * R + 2))) <= 1e-8
            assert f.norm_linf() <= f.module_norm() + 1e-12
            assert f.module_norm() <= b.upper + 1e-12
            assert b.lower <= b.upper + 1e-9
        b100 = opnorm_bounds(f, [100])
        assert b100.lower > 1.999
        assert b100.upper == pytest.approx(2.0)


def test_c05_fejer():
    with criterion(5, "Fejer kernels pd; contraction on Z12; closed-form l1 errors, < 1e-2 at N=256; < 30 s"):
        t0 = time.perf_counter()
        Z = Zd(1)
        net = fejer_net(trivial_system(BlockAlgebra([1]), Z), list(range(1, 17)))
        for N, T in zip(net.indices, net.multipliers):
            S = [(k,) for k in range(-N, N + 1)]
            is_pd, mineig = pd_check(T.scalar_kernel, S, Z)
            assert is_pd and mineig >= -1e-10

        # box kernels F_N = {0..N-1} inside Z12: normalized pd, contractive on
        # the full regular representation
        sys12 = theta_system(Cyclic(12), "1/12")
        rng = np.random.default_rng(505)
        for N in (2, 4, 8, 12):
            F = list(range(N))
            phi = lambda g, F=F: sum(1 for x in F if (g + x) % 12 in F) / len(F)
            is_pd, _ = pd_check(phi, sys12.group.elements(), sys12.group)
            assert is_pd
            T = scalar_multiplier(sys12, phi, bound=1.0)
            for _ in range(10):
                f = random_cc(sys12, [int(k) for k in rng.choice(12, size=3, replace=False)], rng)
                assert exact_norm_finite(apply_multiplier(T, f)) <= exact_norm_finite(f) + 1e-9

        # closed-form l1 convergence on Z for a fixed element with pinned
        # coefficient norms: the error at index N is exactly 2.5 / N
        sysZ = trivial_system(BlockAlgebra([2, 1]), Z)
        rngf = np.random.default_rng(506)
        f = CcElement(sysZ, {
            (-3,): 0.5 * sysZ.algebra.random_unitary(rngf),
            (0,): sysZ.algebra.random_unitary(rngf),
            (2,): 0.5 * sysZ.algebra.random_unitary(rngf),
        })
        netZ = fejer_net(sysZ, [2, 4, 8, 16, 64, 256])
        report = run_convergence(netZ, f, R_schedule=[4], target_error=1.0)
        for N, row in zip(netZ.indices, report.rows):
            closed = sum((1 - max(0.0, 1 - abs(g[0]) / N)) * f.coeff(g).norm() for g in f.support())
            assert abs(row["l1_error"] - closed) <= 1e-12
        assert report.rows[-1]["l1_error"] < 1e-2
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"Fejer criterion took {elapsed:.1f} s"


def test_c06_abel_poisson():
    with criterion(6, "Abel-Poisson kernels pd on ball(4); l1 error < 1e-3 at r=0.999 with truncation accounted"):
        Z2 = Zd(2)
        sys_ = theta_system(Z2, "1/5")
        for length in (one_norm(Z2), two_norm(Z2), squared_two_norm(Z2)):
            net = abel_poisson_net(sys_, length, [0.5, 0.9, 0.99])
            for T in net.multipliers:
                is_pd, mineig = pd_check(T.scalar_kernel, ball(4, length), Z2)
                assert is_pd and mineig >= -1e-10
            support = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
            f = CcElement(sys_, {g: sys_.algebra.scalar(0.2) for g in support})
            fine = abel_poisson_net(sys_, length, [0.999], eps=1e-8)
            report = run_convergence(fine, f, R_schedule=[2], target_error=1.0)
            assert report.rows[-1]["l1_error_with_truncation"] < 1e-3


def test_c07_multiplier_bounds():
    with criterion(7, "pd contraction and matrix-coefficient bound ||x|| ||y|| on Z12; T_e(1) = <x,y>"):
        sys_ = theta_system(Cyclic(12), "1/12")
        rng = np.random.default_rng(707)

        # normalized pd scalar kernel: per-element contraction
        F = list(range(4))
        phi = lambda g: sum(1 for x in F if (g + x) % 12 in F) / len(F)
        T = scalar_multiplier(sys_, phi, bound=1.0)
        for _ in range(25):
            f = random_cc(sys_, [int(k) for k in rng.choice(12, size=3, replace=False)], rng)
            assert exact_norm_finite(apply_multiplier(T, f)) <= exact_norm_finite(f) + 1e-9

        # matrix coefficients of a validated equivariant representation on A^2
        def urep(j):
            w = np.exp(2j * np.pi * j / 12)
            return np.diag([w, w ** 5])

        rep = unitary_tensor_rep(sys_, urep, 2)
        assert validate_equivariant(rep, rng=np.random.default_rng(7)).passed
        x = random_vector(sys_.algebra, 2, rng)
        y = random_vector(sys_.algebra, 2, rng)
        Txy = make_matrix_coeff_multiplier(rep, x, y)
        assert (Txy.apply_at(0, sys_.algebra.unit()) - x.inner(y)).norm() == 0.0
        for _ in range(50):
            f = random_cc(sys_, [int(k) for k in rng.choice(12, size=3, replace=False)], rng)
            lhs = exact_norm_finite(apply_multiplier(Txy, f))
            assert lhs <= x.norm() * y.norm() * exact_norm_finite(f) + 1e-9


def _collapse_vector(vec, index, n_blocks, block):
    """Point-state profile of a compressed-picture vector over the ball index."""
    return {g: abs(vec[i * n_blocks + block]) for i, g in enumerate(index)}


def test_c08_commutative_inequality_and_chain():
    with criterion(8, "collapse inequality residual >= -1e-12 on 200 configs; scalar-constant chain"):
        rng = np.random.default_rng(808)
        thetas = [0.0, 0.2, 0.37, 1 / 3]
        systems = [
            theta_system(Zd(1), thetas[k % 4], algebra=BlockAlgebra([1] * (2 + k % 3)))
            for k in range(6)
        ]
        for trial in range(200):
            sys_ = systems[trial % len(systems)]
            f = random_cc(sys_, [(int(j),) for j in rng.integers(-2, 3, size=2)], rng)
            xi = random_cc(sys_, [(int(j),) for j in rng.integers(-2, 3, size=2)], rng)
            for omega in pure_states(sys_.algebra):
                res = commutative_inequality_check(sys_, f, xi, omega)
                assert res.residual >= -1e-12

        # chain check: compression lower bounds against the measured scalar
        # convolution constant on the collapsed samples
        sys_ = theta_system(Zd(1), 0.37, algebra=BlockAlgebra([1, 1, 1]))
        L = one_norm(Zd(1))
        kappa = make_weight("power", 1.0, L)
        R_prime = 6
        n_blocks = len(sys_.algebra.dims)
        samples = []
        for _ in range(20):
            f = random_cc(sys_, [(int(j),) for j in rng.integers(-2, 3, size=2)], rng)
            comp = compression_matrix(f, R_prime, L)
            lower = crossed.largest_singular_value(comp)
            top = crossed._top_singular(comp, vectors=True)[1]
            samples.append((f, comp, lower, top))
        c_grp = 0.0
        for f, comp, lower, top in samples:
            for j in range(n_blocks):
                u = {g: abs(a.blocks[j][0, 0]) for g, a in f.items()}
                w = _collapse_vector(top, comp.index, n_blocks, j)
                wn = math.sqrt(sum(v * v for v in w.values()))
                un_k = math.sqrt(sum((val * kappa(g)) ** 2 for g, val in u.items()))
                if wn < 1e-12 or un_k < 1e-12:
                    continue
                conv = scalar_convolve(u, w, sys_.group)
                ratio = math.sqrt(sum(v * v for v in conv.values())) / (un_k * wn)
                c_grp = max(c_grp, ratio)
        for f, comp, lower, top in samples:
            assert lower <= c_grp * f.weighted_module_norm(kappa) + 1e-9


def test_c09_content_bounds():
    with criterion(9, "singleton content 1 +- 1e-9; sqrt(|E|) bound on F2 ball(2); all <= |E|"):
        sys_ = theta_system(Zd(2), "1/5")
        est = content_probe(sys_, [(1, 1)], sample_budget=10)
        assert abs(est.lower - 1.0) <= 1e-9

        F2sys = trivial_system(BlockAlgebra([1]), FreeF2())
        L = word_length(FreeF2())
        pool = ball(2, L)
        rng = np.random.default_rng(909)
        for _ in range(50):
            idx = rng.choice(len(pool), size=4, replace=False)
            f = random_cc(F2sys, [pool[i] for i in idx], rng)
            E = f.support()
            lower = opnorm_bounds(f, [4], L).lower
            assert lower <= math.sqrt(len(E)) * f.module_norm() + 1e-9
        for E in ([(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (0, 1)]):
            est = content_probe(sys_, E, sample_budget=20)
            assert est.lower <= est.upper + 1e-9
            assert est.lower <= est.upper_scalar + 1e-9


def test_c10_ideals_and_psl_preset():
    with criterion(10, "4 invariant ideals on C^2; PSL projections and section cocycle; nets preserve ideals"):
        # invariant ideal enumeration
        assert len(enumerate_invariant_ideals(trivial_system(BlockAlgebra([1, 1]), Cyclic(3)))) == 4

        # the SL(2,Z) model
        psl = sl2z_system()
        pool = ball(3, block_length(psl.group))
        triples = [(g, h, k) for g in pool for h in pool for k in pool]
        assert validate_system(psl, triples=triples).passed
        A = psl.algebra
        s = delta(psl, None, A.scalar([1, -1]))
        gens = [delta(psl, psl.group.normal_form("s")), delta(psl, psl.group.normal_form("t"))]
        p, q, report = central_projection_split(s, gens)
        assert report.passed
        assert max(report.projection_residuals.values()) <= 1e-10
        one = cc_unit(psl)
        assert ((p + q) - one).norm_l1() <= 1e-10
        assert (p * q).norm_l1() <= 1e-10
        assert ((p * p) - p).norm_l1() <= 1e-10 and (p.star() - p).norm_l1() <= 1e-10

        # induced-ideal preservation under every shipped net kind, 100 samples
        rng = np.random.default_rng(1010)
        A2 = BlockAlgebra([1, 1])
        zsys = theta_system(Zd(1), 0.3, algebra=A2)
        J = orbit_closure(zsys, [1])
        nets = [
            ("fejer", zsys, fejer_net(zsys, [2, 4, 8]), J),
            ("abel", zsys, abel_poisson_net(zsys, one_norm(Zd(1)), [0.5, 0.9]), J),
        ]
        rep = trivial_rep(psl)
        one_vec = ModuleVector(A, (A.unit(),))
        e = psl.group.identity()
        psl_net = approx_data_net(rep, [({e: one_vec}, {e: one_vec, psl.group.normal_form("s"): one_vec})])
        nets.append(("approx-data", psl, psl_net, orbit_closure(psl, [0])))
        count = 0
        while count < 100:
            for kind, sys_, net, Jn in nets:
                pool_n = ball(2, block_length(sys_.group)) if sys_ is psl else [(k,) for k in range(-2, 3)]
                support = [pool_n[i] for i in rng.choice(len(pool_n), size=2, replace=False)]
                f = CcElement(sys_, {g: Jn.element_from(sys_.algebra.random_element(rng)) for g in support})
                for T in net.multipliers:
                    assert ideal_membership(apply_multiplier(T, f), Jn)
                count += 1


def test_c11_determinism():
    with criterion(11, "byte-identical reports under a fixed seed (timestamp aside)"):
        from crossfourier.cli import canonical_json, run_config

        for tag, experiment in [
            ("arithmetic-suite", {"tag": "arithmetic-suite", "n_triples": 25}),
            ("norms", {"tag": "norms", "element": {"random": {"radius": 1, "count": 3}}}),
            ("content-probe", {"tag": "content-probe", "subset": ["0", "1"], "sample_budget": 10}),
        ]:
            config = {
                "seed": 42,
                "system": {
                    "algebra": [1],
                    "group": {"family": "finite-cyclic", "n": 12},
                    "cocycle": {"kind": "theta", "theta": "1/12"},
                },
                "experiment": experiment,
            }
            _, r1 = run_config(config)
            _, r2 = run_config(config)
            strip = lambda rep: canonical_json({k: v for k, v in rep.items() if k != "timestamp"})
            assert strip(r1) == strip(r2), f"report for {tag} is not deterministic"

import numpy as np
import pytest

from families import FAMILIES, make_system
from crossfourier.algebra import BlockAlgebra
from crossfourier.crossed import CcElement, delta, exact_norm_finite, random_cc
from crossfourier.groups import (
    Cyclic,
    Zd,
    ball,
    default_length,
    folner_sequence,
    one_norm,
    squared_two_norm,
    two_norm,
)
from crossfourier.modules import ModuleVector, trivial_rep
from crossfourier.multipliers import apply_multiplier, pd_check
from crossfourier.summation import (
    abel_poisson_net,
    approx_data_net,
    fejer_net,
    folner_approx_data,
    run_convergence,
    truncation_radius,
)
from crossfourier.system import theta_system, trivial_system


def test_fejer_net_rejects_an_index_below_one():
    for group in (Zd(1), Cyclic(4)):
        with pytest.raises(ValueError, match="Folner index must be >= 1"):
            fejer_net(trivial_system(BlockAlgebra([1]), group), [2, 0])


def test_fejer_kernel_closed_form_on_z():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    net = fejer_net(sys_, [1, 2, 4, 8])
    for N, T in zip(net.indices, net.multipliers):
        for g in range(-10, 11):
            expect = max(0.0, 1 - abs(g) / N)
            assert T.scalar_kernel((g,)) == pytest.approx(expect)
    assert all(b == 1.0 for b in net.bounds)


def test_fejer_kernel_normalized_and_pd():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(2))
    net = fejer_net(sys_, [2, 3])
    Z2 = sys_.group
    for T in net.multipliers:
        assert T.scalar_kernel(Z2.identity()) == pytest.approx(1.0)
        is_pd, _ = pd_check(T.scalar_kernel, ball(3, one_norm(Z2)), Z2)
        assert is_pd


def test_fejer_on_finite_group_is_identity_net():
    sys_ = theta_system(Cyclic(12), "1/12")
    net = fejer_net(sys_, [1, 2])
    rng = np.random.default_rng(0)
    f = random_cc(sys_, [0, 5, 7], rng)
    for T in net.multipliers:
        assert (apply_multiplier(T, f) - f).norm_l1() < 1e-14


def test_fejer_l1_error_closed_form():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    rng = np.random.default_rng(1)
    f = random_cc(sys_, [(-3,), (0,), (2,)], rng)
    net = fejer_net(sys_, [2, 4, 8, 16])
    report = run_convergence(net, f, R_schedule=[4])
    for N, row in zip(net.indices, report.rows):
        closed = sum((1 - max(0.0, 1 - abs(g[0]) / N)) * f.coeff(g).norm() for g in f.support())
        assert row["l1_error"] == pytest.approx(closed, abs=1e-12)
    # 1/N rate: doubling N halves the error once the kernel covers the support
    errs = [row["l1_error"] for row in report.rows[1:]]
    assert errs[1] == pytest.approx(errs[0] / 2, rel=1e-9)
    assert errs[2] == pytest.approx(errs[1] / 2, rel=1e-9)


def test_identity_net_all_errors_zero():
    sys_ = theta_system(Cyclic(12), "1/12")
    net = fejer_net(sys_, [1])  # full group: kernel is constantly 1
    rng = np.random.default_rng(2)
    f = random_cc(sys_, [0, 4], rng)
    report = run_convergence(net, f)
    row = report.rows[0]
    assert row["l1_error"] == 0
    assert row["module_error"] == 0
    assert row["pointwise_error"] == 0
    assert report.converged


def test_error_domination_by_l1():
    sys_ = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(3)
    f = random_cc(sys_, [(0, 0), (1, 0), (0, 1), (2, -1)], rng)
    net = fejer_net(sys_, [2, 4, 8])
    report = run_convergence(net, f, R_schedule=[2, 4])
    for row in report.rows:
        for key in ("opnorm_error_R2", "opnorm_error_R4"):
            assert row[key] <= row["l1_error"] + 1e-9
        assert row["module_error"] <= row["l1_error"] + 1e-9


def test_fejer_pointwise_criterion_on_z():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    f = delta(sys_, (1,))
    # kernel evaluation is closed-form cheap, so indices can grow arbitrarily
    net = fejer_net(sys_, [4, 64, 4096, 8_000_000])
    report = run_convergence(net, f, R_schedule=[2], target_error=1e-6)
    errs = [row["pointwise_error"] for row in report.rows]
    assert errs == sorted(errs, reverse=True)
    assert report.converged


# -- Abel-Poisson ----------------------------------------------------------------


def test_truncation_radius_one_norm_exact_tail():
    Z = Zd(1)
    L = one_norm(Z)
    r, eps = 0.5, 1e-8
    R, tail = truncation_radius(L, r, eps)
    assert tail < eps
    # exact tail on Z: 2 * r^{R+1} / (1 - r); R is the smallest integer below eps
    exact = lambda R_: 2 * r ** (R_ + 1) / (1 - r)
    assert exact(R) < eps <= exact(R - 1)


def test_truncation_radius_certified_for_other_norms():
    Z2 = Zd(2)
    for L in (two_norm(Z2), squared_two_norm(Z2)):
        R, tail = truncation_radius(L, 0.9, 1e-8)
        assert tail < 1e-8
        # brute force: the actual tail inside a big window is below the bound
        window = ball(min(4 * R, 60), one_norm(Z2))
        actual_inside = sum(0.9 ** L(g) for g in window if L(g) > R)
        assert actual_inside < 1e-8


def _truncation_radius_by_shells(length, r, eps):
    """truncation_radius with each shell counted as shell_size, two ball sizes per shell."""
    from crossfourier.groups import one_norm_shell_floor, shell_series, shell_size

    L1 = one_norm(length.group)
    terms, remainder = shell_series(
        lambda m: shell_size(m, L1) * r ** one_norm_shell_floor(m, length), 0, eps * 1e-9)
    tails = np.cumsum([remainder] + terms[::-1])[::-1].tolist()  # tails[m] bounds shells >= m
    m0 = next(m for m in range(len(terms) + 1) if (tails[m] if m < len(terms) else remainder) < eps)
    R = (m0 - 1) ** 2 if length.tag == "squared-two-norm" else m0 - 1
    return R, (tails[m0] if m0 < len(terms) else remainder)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_truncation_radius_carries_ball_sizes_forward_to_the_same_bits(d):
    Z = Zd(d)
    for length in (one_norm(Z), two_norm(Z), squared_two_norm(Z)):
        for r in (0.3, 0.5, 0.9, 0.99):
            for eps in (1e-4, 1e-8):
                got, want = truncation_radius(length, r, eps), _truncation_radius_by_shells(length, r, eps)
                assert got[0] == want[0] and got[1].hex() == want[1].hex()


def test_abel_poisson_kernel_values():
    sys_ = theta_system(Zd(2), "1/5")
    net = abel_poisson_net(sys_, one_norm(Zd(2)), [0.5])
    T = net.multipliers[0]
    assert T.scalar_kernel((0, 0)) == pytest.approx(1.0)
    assert T.scalar_kernel((1, 1)) == pytest.approx(0.25)


def test_abel_poisson_kernels_pd_on_ball4():
    sys_ = theta_system(Zd(2), "1/5")
    Z2 = sys_.group
    for length in (one_norm(Zd(2)), two_norm(Zd(2)), squared_two_norm(Zd(2))):
        net = abel_poisson_net(sys_, length, [0.5, 0.9, 0.99])
        for T in net.multipliers:
            is_pd, mineig = pd_check(T.scalar_kernel, ball(4, length), Z2)
            assert is_pd, (length.tag, mineig)


def test_abel_poisson_rejects_bad_r():
    sys_ = theta_system(Zd(2), "1/5")
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        abel_poisson_net(sys_, one_norm(Zd(2)), [1.5])


def test_abel_poisson_convergence_with_truncation_accounting():
    sys_ = theta_system(Zd(2), "1/5")
    rng = np.random.default_rng(4)
    support = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
    f = CcElement(sys_, {g: sys_.algebra.scalar(0.2) for g in support})
    net = abel_poisson_net(sys_, one_norm(Zd(2)), [0.9, 0.99, 0.999], eps=1e-8)
    report = run_convergence(net, f, R_schedule=[2], target_error=1e-2)
    errs = [row["l1_error_with_truncation"] for row in report.rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3
    # geometric tail bound: final l1 error is 4 * 0.2 * (1 - 0.999)
    assert report.rows[-1]["l1_error"] == pytest.approx(0.8 * (1 - 0.999), rel=1e-9)


# -- approximation data -----------------------------------------------------------


def test_approx_data_delta_pair_is_expectation_kernel():
    # xi = eta = unit at the identity: the only nonzero value is at g = e,
    # where the single term <1, a 1> = a survives; the G-support is {e}
    sys_ = theta_system(Cyclic(12), "1/12")
    rep = trivial_rep(sys_)
    A = sys_.algebra
    one = ModuleVector(A, (A.unit(),))
    net = approx_data_net(rep, [({0: one}, {0: one})])
    T = net.multipliers[0]
    assert T.g_support == frozenset([0])
    rng = np.random.default_rng(5)
    a = A.random_element(rng)
    assert (T.apply_at(0, a) - a).norm() < 1e-12
    assert T.apply_at(3, a).norm() == 0
    assert net.bounds[0] == pytest.approx(1.0)


def test_approx_data_g_support_is_difference_set():
    sys_ = theta_system(Zd(1), 0.3)
    rep = trivial_rep(sys_)
    A = sys_.algebra
    one = ModuleVector(A, (A.unit(),))
    xi = {(0,): one, (1,): one}
    eta = {(0,): one, (2,): one}
    net = approx_data_net(rep, [(xi, eta)])
    expect = {(0,), (1,), (-2,), (-1,)}
    assert net.multipliers[0].g_support == frozenset(expect)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_approx_data_g_support_is_the_pair_loop_on_every_family(family):
    # the support is formed on codes, one point of supp(xi) at a time; the
    # pair loop through group.mul and group.inv is the oracle
    sys_ = make_system(family, (1,))
    grp = sys_.group
    rep = trivial_rep(sys_)
    one = ModuleVector(sys_.algebra, (sys_.algebra.unit(),))
    pool = ball(3, default_length(grp))
    rng = np.random.default_rng(len(family))
    draw = lambda size: {pool[i]: one for i in rng.choice(len(pool), min(size, len(pool)), replace=False)}
    data = [(draw(size), draw(7)) for size in (1, 9)]
    data.append((data[1][0], {}))
    net = approx_data_net(rep, data)
    for (xi, eta), T in zip(data, net.multipliers):
        assert T.g_support == frozenset(grp.mul(h, grp.inv(k)) for h in xi for k in eta)


def test_folner_indicator_data_reproduces_fejer_kernel():
    sys_ = trivial_system(BlockAlgebra([1]), Zd(1))
    rep = trivial_rep(sys_)
    folner = folner_sequence(sys_.group)
    data = folner_approx_data(rep, folner, [4])
    net = approx_data_net(rep, data)
    T = net.multipliers[0]
    A = sys_.algebra
    for g in range(-5, 6):
        expect = max(0.0, 1 - abs(g) / 4)
        got = T.apply_at((g,), A.unit())
        assert got.norm() == pytest.approx(expect, abs=1e-12)
    assert net.bounds[0] == pytest.approx(1.0)


def test_approx_data_bound_check_on_finite_group():
    sys_ = theta_system(Cyclic(12), "1/12")
    rep = trivial_rep(sys_)
    A = sys_.algebra
    rng = np.random.default_rng(6)
    xi = {g: ModuleVector(A, (A.random_element(rng),)) for g in (0, 1, 2)}
    eta = {g: ModuleVector(A, (A.random_element(rng),)) for g in (0, 5)}
    net = approx_data_net(rep, [(xi, eta)])
    T = net.multipliers[0]
    for _ in range(15):
        f = random_cc(sys_, [int(k) for k in rng.choice(12, size=3, replace=False)], rng)
        assert exact_norm_finite(apply_multiplier(T, f)) <= net.bounds[0] * exact_norm_finite(f) + 1e-9


def test_approx_data_preserves_ideals_for_trivial_rep():
    sys_ = theta_system(Cyclic(12), "1/12")
    rep = trivial_rep(sys_)
    A = sys_.algebra
    one = ModuleVector(A, (A.unit(),))
    net = approx_data_net(rep, [({0: one, 1: one}, {0: one})])
    assert net.multipliers[0].preserves_ideals

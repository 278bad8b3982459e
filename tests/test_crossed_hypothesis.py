"""Randomized twisted-convolution identities over every group family.

A draw is a group family, block dimensions, three support sizes and a seed;
the system over the family is the perturbed one of families.py, whose
action is inner and whose cocycle is not central.  The ring axioms hold to
1e-10, and the packed product, star, sum, scalar multiples, regular_apply
and the norms are bit for bit (float.hex) the per-pair AlgElement loop kept
here as the oracle, insertion order included, one operation at a time and
in batches (crossed.products, stars, sums, differences and
decay.regular_applies).  Each system is shared by
every draw, so its coded tables are warm with pairs seen before when new
ones come in.  At full radius on the finite families the compression is a
*-homomorphism, and every compression norm lies between 0 and the exact
norm, itself at most the l1 norm.  Past the dense cutoff, on every infinite
family, Lanczos converges without the dense fallback, and its value pins the
top singular value of a dense SVD and is the ratio ||M v|| / ||v|| of the
vector it returns.  The screen of its convergence tests never skips a test
that LAPACK would pass.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from families import DIMS, FAMILIES, make_system, rotation_system, system_for
from test_crossed import _tridiagonals
from crossfourier import crossed
from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.crossed import (
    _DENSE_SVD_LIMIT, SUPPORT_TOL, CcElement, compression_matrix, differences, exact_norm_finite, full_radius,
    opnorm_bounds, products, stars, sums,
)
from crossfourier.decay import regular_applies, regular_apply
from crossfourier.groups import FreeF2, Zd, ball, default_length
from crossfourier.system import (
    TwistedSystem, generator_action, sl2z_system, theta_system, trivial_cocycle, trivial_system, validate_system,
)

TOL = 1e-10


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_drawn_systems_are_twisted_systems(family, dims):
    report = validate_system(system_for(family, dims), n_samples=40)
    assert report.passed, report.as_dict()


# -- the per-pair loop, as every operation ran before the packed layout ------------


def loop_pruned(coeffs: dict) -> dict:
    return {g: a for g, a in coeffs.items() if not a.norm() < SUPPORT_TOL}


def loop_mul(system, c1: dict, c2: dict) -> dict:
    out: dict = {}
    for g, a in c1.items():
        act_g = system.action(g)
        for h, b in c2.items():
            k = system.group.mul(g, h)
            term = a * act_g(b) * system.cocycle(g, h)
            out[k] = out[k] + term if k in out else term
    return loop_pruned(out)


def loop_star(system, c: dict) -> dict:
    out = {}
    for g, a in c.items():
        ginv = system.group.inv(g)
        out[ginv] = system.act(ginv, system.cocycle(g, ginv).star() * a.star())
    return loop_pruned(out)


def loop_add(c1: dict, c2: dict) -> dict:
    out = dict(c1)
    for g, a in c2.items():
        out[g] = out[g] + a if g in out else a
    return loop_pruned(out)


def loop_scale(scalar, c: dict) -> dict:
    return loop_pruned({g: scalar * a for g, a in c.items()})


def loop_regular_apply(system, f: dict, xi: dict) -> dict:
    key = system.group.sort_key
    out: dict = {}
    for g, a in sorted(f.items(), key=lambda item: key(item[0])):
        for h2, x in sorted(xi.items(), key=lambda item: key(item[0])):
            h = system.group.mul(g, h2)
            term = system.act_inv(h, a * system.cocycle(g, h2)) * x
            out[h] = out[h] + term if h in out else term
    return loop_pruned(out)


def loop_norms(system, c: dict) -> list:
    total = system.algebra.zero()
    for g, a in c.items():
        total = total + system.act_inv(g, a.star() * a)
    return [sum(a.norm() for a in c.values()), max((a.norm() for a in c.values()), default=0.0),
            float(np.sqrt(total.norm()))]


def hexes(points, coeffs) -> list:
    """The points in order, then float.hex of every real and imaginary part."""
    out = [repr(g) for g in points]
    for a in coeffs:
        for m in a.blocks:
            for z in m.reshape(-1):
                out += [float(z.real).hex(), float(z.imag).hex()]
    return out


def packed_hexes(f: CcElement) -> list:
    points = f._points  # insertion order, which the arithmetic follows
    return hexes(points, [f.coeff(g) for g in points])


def loop_hexes(c: dict) -> list:
    return hexes(list(c), list(c.values()))


def norm_hexes(values) -> list:
    return [float(v).hex() for v in values]


def nonfinite(system, c: dict) -> dict:
    """c with an inf entry in the coefficient at its first point and a NaN entry in the one at its last."""
    out = dict(c)
    points = list(c)
    for g, bad in ((points[0], np.inf), (points[-1], np.nan)):
        blocks = [np.array(x) for x in c[g].blocks]
        blocks[-1][0, 0] = complex(bad, 1.0)
        out[g] = system.algebra.element(blocks)
    return out


def batch_cases(system, named: list, couples: list, other=None) -> list:
    """(packed, loop) for every batched operation on the couples (i, j) of the (element, map) pairs named;
    with another system, the regular_applies also run with each xi moved over to it."""
    firsts, seconds = ([named[k][0] for k in ks] for ks in zip(*couples))
    maps = [(named[i][1], named[j][1]) for i, j in couples]
    cases = list(zip(products(firsts, seconds), [loop_mul(system, x, y) for x, y in maps]))
    cases += zip(sums(firsts, seconds), [loop_add(x, y) for x, y in maps])
    cases += zip(differences(firsts, seconds), [loop_add(x, loop_scale(-1.0, y)) for x, y in maps])
    cases += zip(stars([f for f, _ in named]), [loop_star(system, c) for _, c in named])
    cases += zip(regular_applies(firsts, seconds), [loop_regular_apply(system, x, y) for x, y in maps])
    if other is not None:
        moved = [CcElement(other, y) for _, y in maps]
        cases += zip(regular_applies(firsts, moved), [loop_regular_apply(system, x, y) for x, y in maps])
    return cases


def assert_cases(system, cases):
    """Points and coefficients bit for bit; the norms too where every coefficient is finite
    (norm_linf is NaN where a coefficient norm is, the loop's max() is not)."""
    for packed, loop in cases:
        assert packed_hexes(packed) == loop_hexes(loop)
        if all(np.isfinite(m).all() for a in loop.values() for m in a.blocks):
            assert norm_hexes([packed.norm_l1(), packed.norm_linf(), packed.module_norm()]) == \
                norm_hexes(loop_norms(system, loop))


# -- draws -----------------------------------------------------------------------------

draws = given(
    family=st.sampled_from(sorted(FAMILIES)),
    dims=st.sampled_from(DIMS),
    sizes=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    seed=st.integers(0, 2**32 - 1),
)
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _draw(family, dims, sizes, seed, radius=2):
    """The system and three coefficient maps, each on distinct points of ball(radius)."""
    system = system_for(family, dims)
    rng = np.random.default_rng(seed)
    pool = ball(radius, default_length(system.group))
    coeffs = []
    for size in sizes:
        idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
        coeffs.append({pool[i]: system.algebra.random_element(rng) for i in idx})
    return system, coeffs


def _swap_system():
    """Z on C + C by powers of the block swap, untwisted: the action is exactly
    the identity at the even points only, and every value is real."""
    A, Z = BlockAlgebra([1, 1]), Zd(1)
    return TwistedSystem(A, Z, generator_action(Z, A, [AlgAutomorphism.block_permutation(A, [1, 0])]),
                         trivial_cocycle(A), tag="swap")


SWAP = _swap_system()


def _real_draw(sizes, seed):
    """Three real coefficient maps on SWAP, the first on even points only, so
    that calls whose points all act as the identity and calls mixing both
    kinds of point meet the same warm system."""
    rng = np.random.default_rng(seed)
    coeffs = []
    for k, size in enumerate(sizes):
        points = rng.choice(np.arange(-6, 7, 2 if k == 0 else 1), size=min(size, 7), replace=False)
        coeffs.append({(int(g),): SWAP.algebra.scalar(rng.normal(size=2)) for g in points})
    return coeffs


@fixed
@draws
def test_ring_axioms(family, dims, sizes, seed):
    system, coeffs = _draw(family, dims, sizes, seed)
    f1, f2, f3 = (CcElement(system, c) for c in coeffs)
    defects = {
        "associativity": ((f1 * f2) * f3) - (f1 * (f2 * f3)),
        "left_distributivity": (f1 * (f2 + f3)) - (f1 * f2 + f1 * f3),
        "right_distributivity": ((f1 + f2) * f3) - (f1 * f3 + f2 * f3),
        "star_antihomomorphism": (f1 * f2).star() - f2.star() * f1.star(),
        "star_involution": f1.star().star() - f1,
    }
    for name, defect in defects.items():
        assert defect.norm_l1() <= TOL, (name, defect.norm_l1())


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the inf and NaN entries
@fixed
@draws
def test_packed_arithmetic_is_the_pair_loop(family, dims, sizes, seed):
    system, (c1, c2, c3) = _draw(family, dims, sizes, seed)
    f1, f2, f3 = (CcElement(system, c) for c in (c1, c2, c3))
    scalar = complex(*np.random.default_rng(seed).normal(size=2))
    c12 = loop_mul(system, c1, c2)
    cases = [
        (f1 * f2, c12),
        ((f1 * f2) * f3, loop_mul(system, c12, c3)),
        (f1.star(), loop_star(system, c1)),
        ((f1 * f2).star(), loop_star(system, c12)),
        (f1 + f2, loop_add(c1, c2)),
        (f1 - f2, loop_add(c1, loop_scale(-1.0, c2))),
        (scalar * f1, loop_scale(scalar, c1)),
        ((f1 + f3) * f2.star(), loop_mul(system, loop_add(c1, c3), loop_star(system, c2))),
        (regular_apply(f1, f2), loop_regular_apply(system, c1, c2)),
        # the other factor orders, pairs met above and before, and pairs with
        # points of ball(3) that the system may not have coded yet
        (f2 * f1, loop_mul(system, c2, c1)),
        (f1 * f1, loop_mul(system, c1, c1)),
        ((f3 * f2) * f1, loop_mul(system, loop_mul(system, c3, c2), c1)),
    ]
    _, (c4, _, _) = _draw(family, dims, sizes, seed + 1, radius=3)
    f4 = CcElement(system, c4)
    cases += [(f4 * f1, loop_mul(system, c4, c1)), (f2 * f4, loop_mul(system, c2, c4)),
              (f4.star(), loop_star(system, c4))]
    r1, r2, r3 = _real_draw(sizes, seed)
    n1, n2, n3 = (loop_scale(-1.0, r) for r in (r1, r2, r3))  # imaginary parts -0.0, real parts of both signs
    e1, e3, m1, m2, m3 = (CcElement(SWAP, c) for c in (r1, r3, n1, n2, n3))
    swap_cases = [
        (e1 * m2, loop_mul(SWAP, r1, n2)),  # left points even: identity actions, applied
        (e3 * m1, loop_mul(SWAP, r3, n1)),  # left points of both parities: applied
        (m1.star(), loop_star(SWAP, n1)),
        (m3.star(), loop_star(SWAP, n3)),
        (regular_apply(m1, m1), loop_regular_apply(SWAP, n1, n1)),
        (regular_apply(m3, m2), loop_regular_apply(SWAP, n3, n2)),
    ]
    # the same operations in batches: couples of different sizes, empty elements,
    # coefficients with inf and NaN entries and xi over another system on the same group
    c5 = nonfinite(system, c3)
    named = [(f1, c1), (f2, c2), (f3, c3), (f4, c4), (CcElement(system, c5), c5), (CcElement(system, {}), {})]
    couples = [(0, 1), (1, 0), (5, 2), (2, 5), (3, 0), (4, 1), (0, 4), (5, 5), (0, 0), (2, 3)]
    cases += batch_cases(system, named, couples, other=make_system(family, dims))
    for sys_, pairs in ((system, cases), (SWAP, swap_cases)):
        assert_cases(sys_, pairs)


def test_an_element_has_the_same_bits_alone_and_in_a_batch():
    # whether the actions are applied is decided per system, never per batch: on the
    # rotation system the identity action at e is applied alone as beside (1,), so an
    # inf entry spreads its NaN over the block both ways, as in the AlgElement loop
    system = rotation_system()
    A = system.algebra
    c = {(0,): A.element([[[np.inf, 1.0], [2.0, 3.0]], [[1.0]]])}
    d = {(1,): A.element([[[0.5, -1.0], [2.0, 0.25]], [[3.0]]])}
    f, g = CcElement(system, c), CcElement(system, d)
    with np.errstate(invalid="ignore"):
        star, mul, regular = loop_star(system, c), loop_mul(system, c, c), loop_regular_apply(system, c, c)
        cases = [
            (stars([f])[0], star), (stars([f, g])[0], star),
            (products([f], [f])[0], mul), (products([f, g], [f, g])[0], mul),
            (regular_applies([f], [f])[0], regular), (regular_applies([f, g], [f, g])[0], regular),
        ]
    for packed, loop in cases:
        assert packed_hexes(packed) == loop_hexes(loop)


@pytest.mark.parametrize("d, far", [(1, 2**40), (2, 2**28), (3, 300000), (5, 3**45)])
def test_points_past_the_linear_codes_are_the_pair_loop(d, far):
    # Z^d codes points linearly only near 0; farther ones, up to past int64,
    # and products leaving that range are exact, theta cocycle included
    system = theta_system(Zd(d), "1/7", BlockAlgebra([2, 1]))
    rng = np.random.default_rng(d)
    unit = lambda k: tuple(far * k if i == d - 1 else 1 - i for i in range(d))
    c1 = {g: system.algebra.random_element(rng) for g in [unit(1), unit(-2), (0,) * d, unit(4)]}
    c2 = {g: system.algebra.random_element(rng) for g in [unit(3), (1,) * d, unit(-1)]}
    f1, f2 = CcElement(system, c1), CcElement(system, c2)
    c12 = loop_mul(system, c1, c2)
    cases = [(f1 * f2, c12), ((f1 * f2) * f1, loop_mul(system, c12, c1)), (f1.star(), loop_star(system, c1)),
             (f2 * f2.star(), loop_mul(system, c2, loop_star(system, c2))),
             (regular_apply(f1, f2), loop_regular_apply(system, c1, c2))]
    # xi over another system on an equal group object: its points are what count
    other = theta_system(Zd(d), "1/7", BlockAlgebra([2, 1]))
    cases.append((regular_apply(f1, CcElement(other, c2)), loop_regular_apply(system, c1, c2)))
    # in one batch, far points included
    cases += batch_cases(system, [(f1, c1), (f2, c2)], [(0, 1), (1, 0), (1, 1)], other=other)
    for packed, loop in cases:
        assert packed_hexes(packed) == loop_hexes(loop)


def test_cocycle_pairs_past_the_memo_bound_are_the_pair_loop():
    # the section cocycle is keyed by its sign: each value is evaluated once,
    # at its key's first pair, so repeating the products evaluates the rule
    # no more times
    system = sl2z_system()
    rng = np.random.default_rng(5)
    pool = ball(3, default_length(system.group))
    c1, c2 = ({pool[i]: system.algebra.random_element(rng) for i in rng.choice(len(pool), 7, replace=False)}
              for _ in range(2))
    f1, f2 = CcElement(system, c1), CcElement(system, c2)
    small = {g: c1[g] for g in list(c1)[:4]}
    c12 = loop_mul(system, c1, c2)
    loops = [loop_mul(system, small, small), c12, loop_star(system, c1), loop_mul(system, c12, c1)]
    calls = []
    cocycle = system.cocycle

    def counting(g, h):
        calls.append((g, h))
        return cocycle(g, h)

    system.cocycle = counting

    def packed():
        return [CcElement(system, small) * CcElement(system, small), f1 * f2, f1.star(), (f1 * f2) * f1]

    first = packed()
    evaluated = len(calls)
    for elements in (first, packed()):
        for element, loop in zip(elements, loops):
            assert packed_hexes(element) == loop_hexes(loop)
    assert evaluated and len(calls) == evaluated == len(system._cocycle_cache)


# -- the compression on the finite families ------------------------------------------

FINITE = sorted(name for name, (group, _, _) in FAMILIES.items() if group.is_finite)
finite_draw = dict(
    family=st.sampled_from(FINITE),
    dims=st.sampled_from(DIMS),
    sizes=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    seed=st.integers(0, 2**32 - 1),
)


@fixed
@given(**finite_draw)
def test_full_radius_compression_is_a_star_homomorphism(family, dims, sizes, seed):
    system, (c1, c2, _) = _draw(family, dims, sizes, seed)
    f1, f2 = CcElement(system, c1), CcElement(system, c2)
    R = full_radius(system)
    m1, m2 = (compression_matrix(f, R).matrix for f in (f1, f2))
    scale = 1.0 + f1.norm_l1() * (1.0 + f2.norm_l1())
    assert np.abs(compression_matrix(f1 * f2, R).matrix - m1 @ m2).max() <= TOL * scale
    assert np.abs(compression_matrix(f1.star(), R).matrix - m1.conj().T).max() <= TOL * scale


@fixed
@given(**finite_draw, radius=st.integers(0, 4))
def test_compression_norms_lie_below_the_exact_norm(family, dims, sizes, seed, radius):
    system, (c1, _, _) = _draw(family, dims, sizes, seed)
    f = CcElement(system, c1)
    exact = exact_norm_finite(f)
    scale = TOL * (1.0 + f.norm_l1())
    assert opnorm_bounds(f, [radius]).lower <= exact + scale
    assert exact <= f.norm_l1() + scale


# -- the Lanczos path on the infinite families -------------------------------------

# family -> (system, radii whose compressions lie past the dense cutoff, element kind)
LANCZOS_FAMILIES = {
    "Z-path": (trivial_system(BlockAlgebra([1]), Zd(1)), (151, 450), "path"),  # 303 to 901 dimensions
    "Z2-theta": (theta_system(Zd(2), "1/5"), (13, 16), "random"),  # 365 to 545
    "F2": (trivial_system(BlockAlgebra([1]), FreeF2()), (5, 5), "random"),  # 485
    "Z2*Z3-section": (sl2z_system(), (10, 11), "random"),  # 436 and 628
    "Z-M2+C": (rotation_system(), (51, 120), "random"),  # 309 to 723
}


@pytest.mark.parametrize("family", sorted(LANCZOS_FAMILIES))
@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(data=st.data(), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lanczos_value_pins_the_top_singular_value_with_its_own_witness(family, data, size, seed):
    system, (lo, hi), kind = LANCZOS_FAMILIES[family]
    R = data.draw(st.integers(lo, hi), label="radius")
    if kind == "path":
        e = system.algebra.unit()
        f = CcElement(system, {(1,): e, (-1,): e})
    else:
        rng = np.random.default_rng(seed)
        pool = ball(2, default_length(system.group))
        f = CcElement(system, {pool[i]: system.algebra.random_element(rng)
                               for i in rng.choice(len(pool), size=min(size, len(pool)), replace=False)})
    comp = compression_matrix(f, R)
    assert comp.sparse.shape[0] > _DENSE_SVD_LIMIT
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("the dense fallback ran")):
        value = crossed.largest_singular_value(comp)
        v = crossed._top_singular(comp, vectors=True)[1]
    assert np.linalg.norm(comp.sparse @ v) / np.linalg.norm(v) == pytest.approx(value, rel=1e-15)
    top = np.linalg.svd(comp.matrix, compute_uv=False)[0]
    assert top * (1 - 1e-12) <= value <= top * (1 + 1e-14)


# every shape of test_crossed._tridiagonals from j = 2: random, near splits at
# 1e-9, 1e-17 and 1e-300 (one just below the top), and a top cluster 1e-12 apart
TRIDIAGONALS = [(np.array(a), np.array(b)) for a, b in _tridiagonals() if len(a) > 1]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(shape=st.integers(0, len(TRIDIAGONALS) - 1), boundary=st.floats(-3.0, 3.0), below=st.floats(0.01, 17.0),
       delta=st.floats(-13.0, 0.0))
def test_the_ritz_screen_proves_only_tests_that_lapack_fails(shape, boundary, below, delta):
    # beta_j within three decades of where the test |beta_j s_j| <= tol theta
    # turns, and a floor from just below theta down to 0.023 theta; a proof
    # keeps the screen's factor 2 of room for rounding, up to 1e-6 relative
    alphas, betas = TRIDIAGONALS[shape]
    theta, s = crossed._top_ritz(alphas, betas)
    assume(s is not None and s[-1] != 0.0)
    beta = crossed._LANCZOS_TOL * theta / abs(s[-1]) * 10.0 ** boundary
    assume(np.isfinite(beta))
    proved, floor, _ = crossed._fails_surely(alphas, betas, beta, theta * (1 - 10.0 ** -below), 10.0 ** delta)
    if proved:
        assert abs(beta * s[-1]) > 2 * crossed._LANCZOS_TOL * theta * (1 - 1e-6)
    assert floor <= theta * (1 + 1e-13)  # a shift that did not factor is a floor for every later test

import cmath
import json
import math

import numpy as np
import pytest

from crossfourier import system as system_module
from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.cli import canonical_json
from crossfourier.groups import Cyclic, Dihedral, DirectProduct, FreeF2, Zd, ball, block_length, default_length
from crossfourier.system import (
    CentralExtension,
    SystemReport,
    TwistedSystem,
    default_triples,
    generator_action,
    section_cocycle_system,
    sl2z_extension,
    sl2z_system,
    theta_cocycle,
    theta_system,
    trivial_system,
    validate_system,
)


def test_trivial_system_validates():
    sys_ = trivial_system(BlockAlgebra([2, 1]), Cyclic(5))
    assert validate_system(sys_).passed


def test_theta_bicharacter_on_z2_validates():
    sys_ = theta_system(Zd(2), "1/5")
    report = validate_system(sys_)
    assert report.passed
    # the defining convention: cocycle(m, n) = exp(2 pi i theta m_2 n_1)
    val = sys_.cocycle((0, 1), (1, 0)).blocks[0][0, 0]
    assert val == pytest.approx(cmath.exp(2j * cmath.pi / 5))
    assert sys_.cocycle((1, 0), (0, 1)).blocks[0][0, 0] == pytest.approx(1.0)


def test_theta_on_finite_cyclic():
    sys_ = theta_system(Cyclic(12), "1/12")
    assert validate_system(sys_).passed  # exhaustive: 12^3 triples
    with pytest.raises(ValueError, match="well-defined"):
        theta_system(Cyclic(12), "1/5")


def test_unparseable_theta_is_a_value_error():
    for theta in ("1/0", "one fifth", None):
        with pytest.raises(ValueError, match="cannot parse theta"):
            theta_system(Zd(2), theta)


def test_action_system_with_nontrivial_action():
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    sys_ = TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")
    assert validate_system(sys_, n_samples=100).passed
    rng = np.random.default_rng(0)
    a = A.random_element(rng)
    assert (sys_.act((3,), a) - theta.power(3)(a)).norm() < 1e-12
    # generator powers are memoized; filling the tables from +-5 first and
    # reading them back must give AlgAutomorphism.power's matrices exactly
    for k in (5, -5, *range(-5, 6)):
        got, want = sys_.action((k,)), theta.power(k)
        assert got.perm == want.perm
        assert all(np.array_equal(x, y) for x, y in zip(got.unitaries, want.unitaries))


def test_block_swap_action():
    A = BlockAlgebra([1, 1])
    swap = AlgAutomorphism.block_permutation(A, [1, 0])
    G = Cyclic(2)
    sys_ = TwistedSystem(A, G, generator_action(G, A, [swap]), lambda g, h: A.unit(), tag="swap")
    assert validate_system(sys_).passed
    assert (sys_.act(1, A.scalar([1, 2])) - A.scalar([2, 1])).norm() == 0


def test_perturbed_cocycle_fails_with_expected_violation():
    base = theta_system(Zd(2), 0.3)
    witness_pair = ((1, 0), (0, 1))

    def bad_cocycle(g, h):
        val = base.cocycle(g, h)
        if (g, h) == witness_pair:
            return cmath.exp(0.1j) * val
        return val

    bad = TwistedSystem(base.algebra, base.group, base._action_rule, bad_cocycle, tag="perturbed")
    # evaluate the cocycle identity at triples containing the perturbed pair
    triples = [((1, 0), (0, 1), k) for k in [(1, 0), (0, 1), (1, 1), (2, 0)]]
    report = validate_system(bad, triples=triples)
    assert not report.passed
    expected = abs(cmath.exp(0.1j) - 1)
    assert report.cocycle_violation == pytest.approx(expected, rel=1e-9)


def test_section_cocycle_homomorphic_section_is_trivial():
    # K = Z2 x Z2, Z = first factor, G = Z2, split section s(j) = (0, j)
    K = DirectProduct([Cyclic(2), Cyclic(2)])
    G = Cyclic(2)
    ext = CentralExtension(
        group=G,
        lift=lambda g: (0, g),
        kmul=K.mul,
        kinv=K.inv,
        center=((0, 0), (1, 0)),
    )
    sys_ = section_cocycle_system(ext)
    assert validate_system(sys_).passed
    for g in (0, 1):
        for h in (0, 1):
            assert (sys_.cocycle(g, h) - sys_.algebra.unit()).norm() == 0


def test_section_must_fix_identity():
    K = DirectProduct([Cyclic(2), Cyclic(2)])
    ext = CentralExtension(
        group=Cyclic(2),
        lift=lambda g: (1, g),
        kmul=K.mul,
        kinv=K.inv,
        center=((0, 0), (1, 0)),
    )
    with pytest.raises(ValueError, match="identity"):
        section_cocycle_system(ext)


def test_sl2z_section_signs():
    # oracle: multiply the section matrices by hand (2x2 integer arithmetic)
    def mat(rows):
        return tuple(tuple(r) for r in rows)

    def mm(x, y):
        return mat(
            [
                [sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
        )

    S = mat([[0, -1], [1, 0]])
    U = mat([[0, -1], [1, -1]])
    I = mat([[1, 0], [0, 1]])
    negI = mat([[-1, 0], [0, -1]])
    assert mm(S, S) == negI
    assert mm(U, mm(U, U)) == I

    sys_ = sl2z_system()
    G = sys_.group
    s, t = G.normal_form("s"), G.normal_form("t")
    # cocycle(s, s): defect of S^2 = -I against the lift of e
    val = sys_.cocycle(s, s)
    assert (val - sys_.algebra.scalar([1, -1])).norm() < 1e-12
    # cocycle(t, t): U^2 is the lift of t^2, no defect
    assert (sys_.cocycle(t, t) - sys_.algebra.unit()).norm() < 1e-12
    # all values are +-1 vectors
    ext = sl2z_extension()
    for g in ball(2, block_length(G)):
        for h in ball(2, block_length(G)):
            v = sys_.cocycle(g, h)
            assert (v - sys_.algebra.scalar([1, 1])).norm() < 1e-12 or (
                v - sys_.algebra.scalar([1, -1])
            ).norm() < 1e-12


def test_sl2z_system_validates_exhaustively_on_ball3():
    sys_ = sl2z_system()
    pool = ball(3, block_length(sys_.group))
    triples = [(g, h, k) for g in pool for h in pool for k in pool]
    assert validate_system(sys_, triples=triples).passed


@pytest.mark.parametrize(
    "make",
    [
        lambda: trivial_system(BlockAlgebra([2, 1]), Cyclic(5)),
        lambda: theta_system(Zd(2), "1/5"),
        lambda: theta_system(Cyclic(12), "1/12"),
        lambda: sl2z_system(),
    ],
)
def test_cocycle_inverse_identity(make):
    # cocycle(g, g^-1) = action(g)(cocycle(g^-1, g)), specialization at (g, g^-1, g)
    sys_ = make()
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = sys_.group.random_element(rng)
        ginv = sys_.group.inv(g)
        lhs = sys_.cocycle(g, ginv)
        rhs = sys_.act(g, sys_.cocycle(ginv, g))
        assert (lhs - rhs).norm() < 1e-10


# -- the batched validator against the per-triple loop it replaced ----------------


def loop_validate(system, triples=None, probes=None, rng=None, n_samples=200):
    """validate_system as a loop of AlgElement operations over the samples (oracle)."""
    if rng is None:
        rng = np.random.default_rng(0)
    if triples is None:
        triples = default_triples(system, rng, n_samples)
    triples = list(triples)
    if probes is None:
        probes = system.algebra.basis() + [system.algebra.random_element(rng) for _ in range(3)]

    group, unit = system.group, system.algebra.unit()
    e = group.identity()
    worst = {"action": 0.0, "cocycle": 0.0, "normalization": 0.0, "unitarity": 0.0}
    witness: dict = {}

    seen_pairs = set()
    for g, h, k in triples:
        lhs = system.cocycle(g, h) * system.cocycle(group.mul(g, h), k)
        rhs = system.act(g, system.cocycle(h, k)) * system.cocycle(g, group.mul(h, k))
        v = (lhs - rhs).norm()
        if v > worst["cocycle"]:
            worst["cocycle"] = v
            witness["cocycle"] = (g, h, k)
        for pair in ((g, h), (h, k)):
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            s, t = pair
            sig = system.cocycle(s, t)
            v = max((sig * sig.star() - unit).norm(), (sig.star() * sig - unit).norm())
            if v > worst["unitarity"]:
                worst["unitarity"] = v
                witness["unitarity"] = pair
            v = max((system.cocycle(s, e) - unit).norm(), (system.cocycle(e, s) - unit).norm())
            if v > worst["normalization"]:
                worst["normalization"] = v
                witness["normalization"] = pair
            act_st = system.action(group.mul(s, t))
            for x in probes:
                lhs_x = system.act(s, system.act(t, x))
                rhs_x = sig * act_st(x) * sig.star()
                v = (lhs_x - rhs_x).norm()
                if v > worst["action"]:
                    worst["action"] = v
                    witness["action"] = pair

    for x in probes:
        v = (system.act(e, x) - x).norm()
        if v > worst["action"]:
            worst["action"] = v
            witness["action"] = (e, e)

    return SystemReport(
        worst["action"], worst["cocycle"], worst["normalization"], worst["unitarity"],
        len(triples), witness,
    )


def _rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def _f2_on_m2m2c():
    """F2 on M2 + M2 + C: a swaps the 2x2 blocks and conjugates, b conjugates."""
    A = BlockAlgebra([2, 2, 1])
    a = AlgAutomorphism(A, [1, 0, 2], [_rotation(0.3), _rotation(-1.1), np.eye(1)])
    b = AlgAutomorphism.conjugation(A, [_rotation(0.7), np.array([[0, 1j], [1j, 0]]), np.exp(0.2j) * np.eye(1)])
    G = FreeF2()
    return TwistedSystem(A, G, generator_action(G, A, [a, b]), lambda g, h: A.unit(), tag="f2-swap")


def _dihedral_swap():
    """D5 on C + C + M3: s swaps the points, the rotation conjugates M3 by an order-5 unitary."""
    A = BlockAlgebra([1, 1, 3])
    w = np.diag(np.exp(2j * np.pi * np.array([1, 2, 4]) / 5))
    r = AlgAutomorphism.conjugation(A, [np.eye(1), np.eye(1), w])
    s = AlgAutomorphism(A, [1, 0, 2], [np.eye(1), np.eye(1), np.eye(3)])
    G = Dihedral(5)
    return TwistedSystem(A, G, generator_action(G, A, [r, s]), lambda g, h: A.unit(), tag="d5")


def _rotation_on_z():
    A = BlockAlgebra([2, 1])
    Z = Zd(1)
    theta = AlgAutomorphism.conjugation(A, [_rotation(np.pi / 7), np.eye(1)])
    return TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")


def _wrong_order_action():
    """Z3 whose generator acts by an order-4 rotation: the action twist fails."""
    A = BlockAlgebra([2, 1])
    G = Cyclic(3)
    theta = AlgAutomorphism.conjugation(A, [_rotation(np.pi / 4), np.eye(1)])
    return TwistedSystem(A, G, generator_action(G, A, [theta]), lambda g, h: A.unit(), tag="wrong-order")


def _broken_cocycle(base, phase):
    """base with its cocycle rotated by exp(i phase(g, h))."""
    def rule(g, h):
        val = base.cocycle(g, h)
        return cmath.exp(1j * phase(g, h)) * val if phase(g, h) else val

    return TwistedSystem(base.algebra, base.group, base._action_rule, rule, tag="broken")


def _section_ext():
    K = DirectProduct([Cyclic(2), Cyclic(4)])
    return section_cocycle_system(CentralExtension(
        group=Cyclic(4), lift=lambda g: (0, g) if g < 2 else (1, g - 2), kmul=K.mul, kinv=K.inv,
        center=((0, 0), (1, 2)),
    ))


ORACLE_SYSTEMS = {
    "cyclic-trivial-M2+C": lambda: trivial_system(BlockAlgebra([2, 1]), Cyclic(5)),
    "cyclic-theta": lambda: theta_system(Cyclic(12), "1/12"),
    "dihedral-swap-M3": _dihedral_swap,
    "product-trivial-M3": lambda: trivial_system(BlockAlgebra([3]), DirectProduct([Cyclic(2), Cyclic(3)])),
    "Z2-theta": lambda: theta_system(Zd(2), "1/5"),
    "Z-rotation-M2+C": _rotation_on_z,
    "F2-swap-M2+M2+C": _f2_on_m2m2c,
    "Z2*Z3-sl2z-section": sl2z_system,
    "Z4-section": _section_ext,
    "Z3-wrong-order-action": _wrong_order_action,
    # few distinct phases, so each maximum is reached by many samples
    "Z4-broken-cocycle": lambda: _broken_cocycle(theta_system(Cyclic(4), "1/4"), lambda g, h: 0.1 * (g * h % 3)),
    "Z2-broken-cocycle": lambda: _broken_cocycle(theta_system(Zd(2), 0.3), lambda g, h: 0.2 * (g[0] == 1)),
}


def _fingerprint(report):
    values = (report.action_violation, report.cocycle_violation, report.normalization_violation,
              report.unitarity_violation)
    return [float(v).hex() for v in values], report.n_triples, report.witness


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_batched_validator_matches_loop_bit_for_bit(name):
    make = ORACLE_SYSTEMS[name]
    got = validate_system(make(), rng=np.random.default_rng(3), n_samples=150)
    want = loop_validate(make(), rng=np.random.default_rng(3), n_samples=150)
    assert _fingerprint(got) == _fingerprint(want)


def test_oracle_systems_exercise_every_axiom():
    broken = {
        name: validate_system(ORACLE_SYSTEMS[name](), rng=np.random.default_rng(3), n_samples=150)
        for name in ("Z3-wrong-order-action", "Z4-broken-cocycle", "Z2-broken-cocycle")
    }
    assert broken["Z3-wrong-order-action"].action_violation > 0.1
    assert broken["Z4-broken-cocycle"].cocycle_violation > 0.01
    assert broken["Z2-broken-cocycle"].cocycle_violation > 0.01
    assert all(not r.passed for r in broken.values())


def test_chunk_boundaries_keep_the_first_witness(monkeypatch):
    # defects that reach their maximum at several samples, cut into chunks of 7
    monkeypatch.setattr(system_module, "_VALIDATE_CHUNK", 7)
    for name in ("Z4-broken-cocycle", "Z3-wrong-order-action", "F2-swap-M2+M2+C", "Z2-broken-cocycle"):
        make = ORACLE_SYSTEMS[name]
        got = validate_system(make(), rng=np.random.default_rng(5), n_samples=60)
        want = loop_validate(make(), rng=np.random.default_rng(5), n_samples=60)
        assert _fingerprint(got) == _fingerprint(want), name


def test_explicit_triples_and_probes_match_loop():
    sys_ = _f2_on_m2m2c()
    pool = ball(1, default_length(sys_.group))
    triples = [(g, h, k) for g in pool for h in pool for k in pool]
    probes = [sys_.algebra.random_element(np.random.default_rng(i)) for i in range(2)]
    got = validate_system(sys_, triples=triples, probes=probes)
    want = loop_validate(_f2_on_m2m2c(), triples=triples, probes=probes)
    assert _fingerprint(got) == _fingerprint(want)
    assert _fingerprint(validate_system(sys_, triples=triples, probes=[])) == _fingerprint(
        loop_validate(sys_, triples=triples, probes=[]))


def _nan_cocycle_system():
    """Z4 with cocycle(1, 1) = NaN * 1, trivial elsewhere."""
    A = BlockAlgebra([1])
    nan = A.scalar([float("nan")])
    return TwistedSystem(A, Cyclic(4), generator_action(Cyclic(4), A, [AlgAutomorphism.identity(A)]),
                         lambda g, h: nan if (g, h) == (1, 1) else A.unit(), tag="nan")


def test_non_finite_defect_fails_and_names_its_witness():
    report = validate_system(_nan_cocycle_system())
    assert not report.passed
    assert math.isnan(report.cocycle_violation) and math.isnan(report.unitarity_violation)
    # the first triple / pair in sample order that touches cocycle(1, 1)
    assert report.witness["unitarity"] == (1, 1)
    assert report.witness["cocycle"] == (0, 1, 1)
    out = report.as_dict()
    assert out["passed"] is False and out["cocycle_violation"] == "nan"
    json.loads(canonical_json(out))


def test_non_finite_defect_in_a_matrix_block_fails():
    # a 2x2 block: the SVD of a NaN matrix does not converge, the report still comes back
    A = BlockAlgebra([2])
    big = A.scalar([1e200])
    sys_ = TwistedSystem(A, Cyclic(2), generator_action(Cyclic(2), A, [AlgAutomorphism.identity(A)]),
                         lambda g, h: big if (g, h) == (1, 1) else A.unit(), tag="overflow")
    report = validate_system(sys_)
    assert not report.passed
    assert math.isinf(report.unitarity_violation)
    assert report.witness["unitarity"] == (1, 1)
    json.loads(canonical_json(report.as_dict()))


# -- the keyed section cocycle and the stacked generator actions ----------------------


def test_junction_sign_key_is_the_matrix_rule_on_ball9():
    ext = sl2z_extension()
    group = ext.group
    system = section_cocycle_system(ext)
    points = ball(9, block_length(group))
    codes = system.coded.encode(points)
    g, h = np.repeat(codes, len(codes)), np.tile(codes, len(codes))
    gh = system.coded.mul(g, h)
    want = [ext.center_index(ext.kmul(ext.kmul(ext.lift(x), ext.lift(y)), ext.kinv(ext.lift(group.mul(x, y)))))
            for x in points for y in points]
    assert len(want) == 23716 and set(want) == {0, 1}
    assert ext.center_keys(system.coded, g, h, gh).tolist() == want
    # one value per sign, each the rule's value, bit for bit
    table = system.cocycle_blocks(system.cocycle_rows(g, h, gh))
    assert len(system._cocycle_cache) == 2
    for i, (x, y) in enumerate(zip(system.coded.decode(g), system.coded.decode(h))):
        assert all(t[i].tobytes() == b.tobytes() for t, b in zip(table, system.cocycle(x, y).blocks))


def _images_rotation():
    A = BlockAlgebra([2, 1])
    return Zd(1), A, [AlgAutomorphism.conjugation(A, [_rotation(np.pi / 7), np.eye(1)])], 40


def _images_f2_swap():
    A = BlockAlgebra([2, 2, 1])
    a = AlgAutomorphism(A, [1, 0, 2], [_rotation(0.3), _rotation(-1.1), np.eye(1)])
    b = AlgAutomorphism.conjugation(A, [_rotation(0.7), np.array([[0, 1j], [1j, 0]]), np.exp(0.2j) * np.eye(1)])
    return FreeF2(), A, [a, b], 3


def _images_block_swap():
    A = BlockAlgebra([1, 1])
    return Zd(1), A, [AlgAutomorphism.block_permutation(A, [1, 0])], 9


def _images_dihedral():
    A = BlockAlgebra([1, 1, 3])
    w = np.diag(np.exp(2j * np.pi * np.array([1, 2, 4]) / 5))
    r = AlgAutomorphism.conjugation(A, [np.eye(1), np.eye(1), w])
    s = AlgAutomorphism(A, [1, 0, 2], [np.eye(1), np.eye(1), np.eye(3)])
    return Dihedral(5), A, [r, s], 10


def _power_chain(group, algebra, images, g):
    """The action of g along its normal form, one AlgAutomorphism at a time."""
    factors = [images[i].power(k) for i, k in group.decompose(g)]
    out = factors[0] if factors else AlgAutomorphism.identity(algebra)
    for f in factors[1:]:
        out = out.compose(f)
    return out


def _same_bits(auto, perm, unitaries):
    return tuple(auto.perm) == tuple(perm) and all(
        u.tobytes() == v.tobytes() for u, v in zip(auto.unitaries, unitaries))


@pytest.mark.parametrize("images", [_images_rotation, _images_f2_swap, _images_block_swap, _images_dihedral])
def test_stacked_generator_actions_are_the_automorphisms_bit_for_bit(images):
    group, A, gens, radius = images()
    base, calls = generator_action(group, A, gens), []

    def rule(g):
        calls.append(g)
        return base(g)

    rule.stack = lambda points: calls.append(len(points)) or base.stack(points)
    system = TwistedSystem(A, group, rule, lambda g, h: A.unit(), tag="stacked")
    points = ball(radius, default_length(group))
    codes = system.coded.encode(points)
    none = [np.zeros((0, d, d), dtype=complex) for d in A.dims]
    # filled in two batches, the second growing the power tables further
    for batch in (codes[::3], codes):
        system.act_rows(batch, np.zeros(0, dtype=np.int64), none)
    rows, half = system._action_cache.many(codes), 1 + len(A.dims)
    columns = system._action_cache.columns
    for g, row in zip(points, rows.tolist()):
        want = _power_chain(group, A, gens, g)
        stacked = [c[row] for c in columns]
        assert _same_bits(want, stacked[0], stacked[1:half])
        assert _same_bits(want.inverse(), stacked[half], stacked[half + 1:])
        got = system.action(g)
        assert _same_bits(got, want.perm, want.unitaries)
        assert _same_bits(got.inverse(), want.inverse().perm, want.inverse().unitaries)
        x = A.random_element(np.random.default_rng(row))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(system.act_inv(g, x).blocks, want.inverse()(x).blocks))
    # action() and act_inv() read the rows the two fills stacked, calling neither rule.stack nor the rule
    assert calls == [len(codes[::3]), len(codes) - len(codes[::3])]


def _first_failing_power(image, sign):
    for k in range(1, 10_000):
        try:
            image.power(sign * k)
        except ValueError as exc:
            assert "unitary" in str(exc)
            return k
    raise AssertionError("the powers never drift past the tolerance")


def test_drifting_generator_powers_raise_at_the_same_power():
    A = BlockAlgebra([2, 1])
    image = AlgAutomorphism.conjugation(A, [(1 + 1e-12) * _rotation(0.3), np.eye(1)])
    Z = Zd(1)
    system = TwistedSystem(A, Z, generator_action(Z, A, [image]), lambda g, h: A.unit(), tag="drift")
    none = [np.zeros((0, d, d), dtype=complex) for d in A.dims]
    for sign in (1, -1):
        bad = _first_failing_power(image, sign)
        assert 10 < bad < 1000
        # a batch of one
        system.action((sign * (bad - 1),))
        with pytest.raises(ValueError, match="not unitary"):
            system.action((sign * bad,))
        # stacked: a batch reaching the failing power raises and leaves the
        # table as it was, and one below it still fills and applies
        known = len(system._action_cache)
        with pytest.raises(ValueError, match="not unitary"):
            system.act_rows(system.coded.encode([(sign * k,) for k in range(bad + 3)]), np.zeros(0, dtype=np.int64),
                            none)
        assert len(system._action_cache) == known
        codes = system.coded.encode([(sign * k,) for k in range(bad)])
        x = A.random_element(np.random.default_rng(bad))
        acted = system.act_rows(codes, np.arange(bad), [np.repeat(b[None], bad, axis=0) for b in x.blocks])
        for k in (0, bad - 1):
            want = image.power(sign * k)(x)
            assert all(a[k].tobytes() == b.tobytes() for a, b in zip(acted, want.blocks))
        with pytest.raises(ValueError, match="not unitary"):
            system.action((sign * (bad + 7),))


def test_a_section_without_center_keys_keeps_the_code_pairs_and_the_same_bits():
    from dataclasses import replace

    from crossfourier.crossed import random_cc

    keyed = sl2z_system()
    plain = section_cocycle_system(replace(sl2z_extension(), center_keys=None))
    pool = ball(3, block_length(keyed.group))
    draws = [np.random.default_rng(7), np.random.default_rng(7)]
    out = []
    for system, rng in zip((keyed, plain), draws):
        f1, f2 = (random_cc(system, pool, rng) for _ in range(2))
        out.append([f1 * f2, f1.star(), (f1 * f2) * f1])
    for x, y in zip(*out):
        assert x.support() == y.support()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(x._blocks, y._blocks))
    assert len(keyed._cocycle_cache) == 2 < len(plain._cocycle_cache)

import math

import numpy as np
import pytest

from crossfourier.groups import (
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeF2,
    FreeProductZ2Z3,
    Zd,
    ball,
    ball_size,
    block_length,
    folner_sequence,
    one_norm,
    squared_two_norm,
    two_norm,
    word_length,
)

ALL_GROUPS = [
    Cyclic(5),
    Cyclic(12),
    Dihedral(4),
    DirectProduct([Cyclic(2), Cyclic(3)]),
    Zd(1),
    Zd(2),
    FreeF2(),
    FreeProductZ2Z3(),
]


def test_normal_form_free_reduction():
    F2 = FreeF2()
    assert F2.normal_form("a a^-1 b") == F2.normal_form("b")
    assert F2.normal_form("a a⁻¹ b") == ("b",)
    assert F2.normal_form("a b b^-1 a") == ("a", "a")


def test_normal_form_relator_collapse():
    G = FreeProductZ2Z3()
    assert G.normal_form("s t t t s") == G.identity()
    assert G.normal_form("t t") == ("T",)
    assert G.normal_form("t^2 t") == ()
    assert G.normal_form("s t^2 s") == ("s", "T", "s")


def test_normal_form_abelian_addition():
    Z2 = Zd(2)
    assert Z2.normal_form("(1,0)+(0,1)") == (1, 1)
    assert Z2.normal_form("e") == (0, 0)


def test_normal_form_unknown_symbol():
    with pytest.raises(ValueError, match="unknown generator"):
        FreeF2().normal_form("a c")
    with pytest.raises(ValueError, match="unknown generator"):
        FreeProductZ2Z3().normal_form("x")


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_group_axioms_on_random_triples(group):
    rng = np.random.default_rng(11)
    e = group.identity()
    for _ in range(50):
        g = group.random_element(rng)
        h = group.random_element(rng)
        k = group.random_element(rng)
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, e) == g and group.mul(e, g) == g
        assert group.mul(g, group.inv(g)) == e
        assert group.mul(group.inv(g), g) == e


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_normal_form_roundtrip(group):
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = group.random_element(rng)
        assert group.normal_form(group.word(g)) == g


def test_length_values():
    Z2 = Zd(2)
    assert one_norm(Z2)((2, -1)) == 3
    assert squared_two_norm(Z2)((2, -1)) == 5
    assert two_norm(Z2)((2, -1)) == pytest.approx(math.sqrt(5))
    G = FreeProductZ2Z3()
    assert block_length(G)(G.normal_form("s t s t^2")) == 4


@pytest.mark.parametrize(
    "group,length",
    [
        (Zd(2), one_norm(Zd(2))),
        (Zd(2), two_norm(Zd(2))),
        (Zd(2), squared_two_norm(Zd(2))),
        (FreeF2(), word_length(FreeF2())),
        (FreeProductZ2Z3(), block_length(FreeProductZ2Z3())),
        (Cyclic(12), word_length(Cyclic(12))),
        (Dihedral(4), word_length(Dihedral(4))),
    ],
    ids=lambda x: getattr(x, "name", None) or x.tag,
)
def test_length_symmetry_and_identity(group, length):
    rng = np.random.default_rng(5)
    assert length(group.identity()) == 0
    for _ in range(30):
        g = group.random_element(rng)
        assert length(g) == pytest.approx(length(group.inv(g)))


def test_ball_counts():
    Z2 = Zd(2)
    assert len(ball(1, one_norm(Z2))) == 5
    F2 = FreeF2()
    L = word_length(F2)
    assert len(ball(1, L)) == 5
    assert len(ball(2, L)) == 17  # breadth-first: 1 + 4 + 12
    assert set(ball(1, L)) == {(), ("a",), ("A",), ("b",), ("B",)}


def test_ball_brute_force_oracle_on_z2():
    # independent enumeration over a large box
    Z2 = Zd(2)
    for length in (one_norm(Z2), two_norm(Z2), squared_two_norm(Z2)):
        for R in (0, 1, 2.5, 4):
            expect = sorted(
                (g for g in [(x, y) for x in range(-8, 9) for y in range(-8, 9)] if length(g) <= R),
                key=Z2.sort_key,
            )
            assert sorted(ball(R, length), key=Z2.sort_key) == expect


def test_ball_monotone_and_deterministic():
    F2 = FreeF2()
    L = word_length(F2)
    b2, b3 = ball(2, L), ball(3, L)
    assert set(b2) <= set(b3)
    assert ball(3, L) == b3  # identical order on re-enumeration
    lengths = [L(g) for g in b3]
    assert lengths == sorted(lengths)


def test_ball_negative_radius():
    with pytest.raises(ValueError, match="nonnegative"):
        ball(-1, one_norm(Zd(1)))


def test_folner_box_on_z():
    Z = Zd(1)
    F = folner_sequence(Z)
    assert F.set_at(4) == [(0,), (1,), (2,), (3,)]
    assert F.ratio((1,), 4) == pytest.approx(3 / 4)
    # closed form agrees with raw set intersection
    class Raw(type(F)):
        ratio = None
    for g in [(-2,), (0,), (3,)]:
        Fi = F.set_at(6)
        Fset = set(Fi)
        raw = sum(1 for x in Fi if Z.mul(g, x) in Fset) / len(Fi)
        assert F.ratio(g, 6) == pytest.approx(raw)


def test_folner_finite_group():
    F = folner_sequence(Cyclic(5))
    assert len(F.set_at(1)) == 5
    assert F.ratio(3, 2) == 1.0


def test_folner_unavailable_on_free_families():
    with pytest.raises(ValueError, match="Folner"):
        folner_sequence(FreeF2())
    with pytest.raises(ValueError, match="Folner"):
        folner_sequence(FreeProductZ2Z3())


def test_folner_ratio_tends_to_one():
    Z2 = Zd(2)
    F = folner_sequence(Z2)
    for g in [(1, 0), (2, -1)]:
        ratios = [F.ratio(g, i) for i in range(1, 65)]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert ratios[-1] > 0.95
        assert ratios == sorted(ratios)


@pytest.mark.parametrize(
    "length",
    [one_norm(Zd(1)), one_norm(Zd(2)), one_norm(Zd(3)), word_length(Zd(2)), word_length(FreeF2()),
     block_length(FreeProductZ2Z3()), two_norm(Zd(2))],
    ids=lambda L: f"{L.group.name}-{L.tag}",
)
def test_ball_size_equals_enumerated_size(length):
    # closed forms for the first six; the two-norm falls back to enumeration
    for R in (0, 1, 2, 2.5, 3, 4, 5, 6):
        assert ball_size(R, length) == len(ball(R, length))

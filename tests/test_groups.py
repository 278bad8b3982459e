import copy
import itertools
import math

import numpy as np
import pytest

from crossfourier import groups
from crossfourier.groups import (
    KeyedTable,
    coded_group,
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeF2,
    FreeProductZ2Z3,
    Zd,
    ball,
    ball_size,
    block_length,
    default_length,
    folner_sequence,
    one_norm,
    shell_series,
    shell_size,
    shell_sizes,
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


def _letter_by_letter(group, g, h):
    """The product reduced one letter of h at a time, as normal_form reduces a word."""
    if isinstance(group, FreeF2):
        return group._reduce_concat(g, h)
    stack = list(g)
    for syl in h:
        group._push(stack, syl)
    return tuple(stack)


@pytest.mark.parametrize("group, radius", [(FreeF2(), 5), (FreeProductZ2Z3(), 11)], ids=["F2", "Z2*Z3"])
def test_free_products_reduce_where_the_words_meet(group, radius):
    points = ball(radius, default_length(group))
    for g, h in itertools.product(points, repeat=2):
        assert group.mul(g, h) == _letter_by_letter(group, g, h)


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zd_ball_is_the_box_scan_in_order(d):
    # the (2 floor(R) + 1)^d box scan, the length called once per point and a
    # sort by (length(g), g), kept as the oracle of the enumeration on
    # coordinate arrays: same points, same order and the same coordinate
    # array, under all four lengths (sqrt(2) and 5 sit on two-norm values)
    G = Zd(d)
    for length in (word_length(G), one_norm(G), two_norm(G), squared_two_norm(G)):
        for R in (0, 0.0, 0.5, 1, math.sqrt(2), 2, 2.5, 3, 4.99, 5, 6, 7.3, 9):
            b = math.isqrt(int(math.floor(R))) if length.tag == "squared-two-norm" else int(math.floor(R))
            box = itertools.product(range(-b, b + 1), repeat=d)
            expect = sorted((g for g in box if length(g) <= R), key=lambda g: (length(g), G.sort_key(g)))
            got = ball(R, length)
            assert got == expect, (length.tag, R)
            assert got._coordinates.tolist() == [list(g) for g in expect]


@pytest.mark.parametrize("length", [make(Zd(d)) for d in (1, 2, 3, 6) for make in (one_norm, two_norm)]
                         + [word_length(FreeF2()), block_length(FreeProductZ2Z3())]
                         + [word_length(G) for G in ALL_GROUPS if G.is_finite],
                         ids=lambda L: f"{L.group.name}-{L.tag}")
def test_ball_codes_are_the_encoded_points(length):
    # a ball encodes its points once, in its group's coded view; over an
    # equal group object it takes that object's codes
    group = length.group
    b = ball(3, length)
    assert b.codes.tolist() == coded_group(group).encode(list(b)).tolist()
    assert b.codes is b.codes
    twin = copy.copy(group)  # an equal group object with a coded view of its own
    del twin._coded
    coded_group(twin).encode([b[-1]])  # the numbered views number points as they appear
    moved = b.over(twin)
    assert moved == b and moved.group is twin and b.over(group) is b
    assert moved.codes.tolist() == coded_group(twin).encode(list(b)).tolist()


def test_zd_ball_refuses_a_length_it_cannot_enumerate():
    with pytest.raises(ValueError, match="no ball enumeration"):
        ball(2, block_length(Zd(2)))


def test_ball_monotone_and_deterministic():
    F2 = FreeF2()
    L = word_length(F2)
    b2, b3 = ball(2, L), ball(3, L)
    assert set(b2) <= set(b3)
    assert ball(3, L) == b3  # identical order on re-enumeration
    lengths = [L(g) for g in b3]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize(
    "length",
    [make(Zd(d)) for d in (1, 2, 3) for make in (word_length, one_norm, two_norm, squared_two_norm)]
    + [word_length(FreeF2()), block_length(FreeProductZ2Z3())]
    + [word_length(G) for G in ALL_GROUPS if G.is_finite],
    ids=lambda L: f"{L.group.name}-{L.tag}",
)
def test_ball_order_is_length_then_sort_key(length):
    # the compression index order: strictly increasing (L(g), sort_key(g))
    group = length.group
    for R in (0, 1, 2.5, 4):
        points = ball(R, length)
        keys = [(length(g), group.sort_key(g)) for g in points]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(L <= R for L, _ in keys)


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
    for m in range(7):
        assert shell_size(m, length) == sum(1 for g in ball(m, length) if length(g) > m - 1)
    # carried forward shell to shell, and from any shell asked first
    for first in (0, 3):
        shells = shell_sizes(length)
        assert [shells(m) for m in range(first, 7)] == [shell_size(m, length) for m in range(first, 7)]


def test_shell_series_bounds_a_geometric_tail():
    terms, remainder = shell_series(lambda m: 0.5 ** m, 3, 1e-12)
    assert terms[0] == 0.125 and len(terms) >= 9
    assert remainder < 1e-12
    assert sum(terms) + remainder == pytest.approx(0.25, rel=1e-15)
    # a zero term stops the series once it is past the 8th
    terms, remainder = shell_series(lambda m: 1.0 if m < 8 else 0.0, 0, 1e-12)
    assert (len(terms), remainder) == (10, 0.0)


# a geometric tail, a slow polynomial one, and a zero term at start + 8 that the series passes
@pytest.mark.parametrize("term", [lambda m: 0.5 ** m, lambda m: 1.0 / (m + 1) ** 4,
                                  lambda m: 0.0 if m == 8 else 0.9 ** m])
def test_shell_series_forms_each_term_once(term):
    seen = []

    def counted(m):
        seen.append(m)
        return term(m)

    terms, _ = shell_series(counted, 0, 1e-9)
    assert len(seen) == len(set(seen)) and terms == list(map(term, range(len(terms))))


# -- coded elements ---------------------------------------------------------------


@pytest.mark.parametrize("group", ALL_GROUPS + [Zd(3), Zd(6)], ids=lambda G: G.name)
def test_coded_products_and_inverses_are_the_group_operations(group):
    # every pair of ball(3) (past 256 pairs: the np.unique numbering), cold and then from the tables
    coded = coded_group(group)
    points = ball(3, default_length(group))
    codes = coded.encode(points)
    a, b = np.repeat(codes, len(codes)), np.tile(codes, len(codes))
    want = [group.mul(g, h) for g in points for h in points]
    for _ in range(2):
        assert coded.decode(coded.mul(a, b)) == want
        assert coded.decode(coded.inv(codes)) == [group.inv(g) for g in points]
        assert coded.decode(coded.encode(points)) == list(points)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_zd_codes_take_points_past_the_linear_range(d):
    # linear codes cover [-R, R) per coordinate; past it, up to beyond int64, points are numbered
    group = Zd(d)
    coded = coded_group(group)
    R, huge = coded.range, 3 ** 50
    points = [(R - 1,) * d, (-R,) * d, (R,) + (0,) * (d - 1), (0,) * (d - 1) + (-R - 1,),
              (huge,) * d, (-huge,) + (1,) * (d - 1), (2 ** 63,) * d, group.identity()]
    codes = coded.encode(points)
    assert coded.decode(codes) == points
    assert (codes[[0, 1, 7]] >= 0).all() and (codes[2:7] < 0).all()
    assert list(coded.encode(points)) == list(codes)  # one code per point
    a, b = np.repeat(codes, len(codes)), np.tile(codes, len(codes))
    assert coded.decode(coded.mul(a, b)) == [group.mul(g, h) for g in points for h in points]
    assert coded.decode(coded.inv(codes)) == [group.inv(g) for g in points]
    # a product that leaves the range of two linear codes gets the code of its point
    twice = coded.mul(codes[:1], codes[:1])
    assert twice[0] < 0 and twice[0] == coded.encode([group.mul(points[0], points[0])])[0]


def test_a_large_finite_group_numbers_only_the_elements_it_meets():
    group = Cyclic(5000)
    coded = coded_group(group)
    a, b = coded.encode([3, 7]), coded.encode([10, 4999])
    assert coded.decode(coded.mul(a, b)) == [13, 6]
    assert coded.decode(coded.inv(a)) == [4997, 4993]
    assert coded._numbering.items == [3, 7, 10, 4999, 13, 6, 4997, 4993] and coded._table is None


def test_the_pair_memo_stops_at_its_bound(monkeypatch):
    monkeypatch.setattr(groups, "PAIR_MEMO", 50)
    group = FreeF2()
    coded = coded_group(group)
    points = ball(2, default_length(group))
    codes = coded.encode(points)
    assert coded.decode(coded.mul(codes[:5], codes[:5])) == [group.mul(g, g) for g in points[:5]]
    a, b = np.repeat(codes, len(codes)), np.tile(codes, len(codes))  # 289 pairs: past the bound
    assert coded.decode(coded.mul(a, b)) == [group.mul(g, h) for g in points for h in points]
    assert len(coded._products) == 5


# -- keyed tables -------------------------------------------------------------------


def _fill(table, keys, seen):
    """Rows of keys, each new key valued by (its key, a 2 x 2 block of it), recording what values() sees."""
    def values(at):
        seen.append(at)
        return [keys[at], keys[at, None, None] * np.array([[1.0, 2j], [-2j, 0.5]])]

    return table.rows(keys, values)


@pytest.mark.parametrize("keys", [np.array([5, 3, 5, 9, 3, 1, 9, 7, 5, 2, 2, 8]), np.arange(300) % 257 * 7])
def test_a_keyed_table_holds_the_same_bits_whatever_chunks_fill_it(keys):
    whole = KeyedTable()
    want = _fill(whole, keys, [])
    for chunks in ([1] * len(keys), [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 300]):
        table, seen, numbers, lo = KeyedTable(), [], [], 0
        for size in chunks:
            part, calls = keys[lo:lo + size].tolist(), len(seen)
            if part:
                numbers.append(_fill(table, keys[lo:lo + size], seen))
                # values is called once per fill with new keys, at the first entry of each, in number order
                new = list(dict.fromkeys(k for k in part if k not in keys[:lo].tolist()))
                assert len(seen) == calls + bool(new)
                assert not new or seen[-1].tolist() == [part.index(k) for k in new]
                assert len(table._arrays[0]) < 2 * len(table)
            lo += size
        assert np.array_equal(np.concatenate(numbers), want) and table.items == whole.items
        for c, w in zip(table.columns, whole.columns):
            assert c.dtype == w.dtype and c.tobytes() == w.tobytes()
    assert whole.columns[0].tolist() == whole.items

"""Moves: formulas, the frozen move order, inverse laws, word identities."""

import pytest

from nielsen.errors import ResourceCapError, UsageError
from nielsen.groups import InfiniteDihedral, Integers
from nielsen.moves import (
    I,
    L,
    R,
    apply_move,
    eval_word,
    move_inverse,
    move_set,
    parse_move,
    word_to_text,
)
from nielsen.covering import random_generating_tuples

from conftest import seeded


def test_move_set_sizes_and_order():
    assert len(move_set(1)) == 1
    assert len(move_set(2)) == 10
    assert len(move_set(3)) == 27
    assert word_to_text(move_set(2)) == [
        "R+:1,2", "R-:1,2", "R+:2,1", "R-:2,1",
        "L+:1,2", "L-:1,2", "L+:2,1", "L-:2,1",
        "I:1", "I:2",
    ]
    assert move_set(1) == (I(1),)


def test_move_sets_past_the_cap_are_refused_before_they_are_built():
    # 4n(n-1) + n moves: 4,996,342 at n = 1118, 5,005,287 at n = 1119
    with pytest.raises(ResourceCapError, match="move set at n = 1119 exceeds cap"):
        move_set(1119)
    with pytest.raises(ResourceCapError, match="move set at n = 100000000 exceeds cap"):
        move_set(10**8)


def test_move_text_round_trip():
    for m in move_set(3):
        assert parse_move(m.text()) == m
    with pytest.raises(UsageError):
        parse_move("R:1,2")
    with pytest.raises(UsageError):
        parse_move("I:1,2")


def test_move_construction_validation():
    with pytest.raises(UsageError):
        R(1, 1, 1)
    with pytest.raises(UsageError):
        R(0, 1, 1)
    with pytest.raises(UsageError):
        parse_move("R+:1,1")


def test_apply_move_examples():
    Z = Integers()
    assert apply_move(Z, (2, 3), R(1, 2, 1)) == (5, 3)
    assert apply_move(Z, (1,), I(1)) == (-1,)
    D = InfiniteDihedral()
    assert apply_move(D, ((0, 1), (1, 0)), L(1, 2, -1)) == ((-1, 1), (1, 0))
    with pytest.raises(UsageError):
        apply_move(Z, (1, 2), R(1, 3, 1))


def test_move_inverse_laws():
    assert move_inverse(R(1, 2, 1)) == R(1, 2, -1)
    assert move_inverse(I(2)) == I(2)
    assert move_inverse(L(2, 1, -1)) == L(2, 1, 1)
    for grp, n in ((Integers(), 3), (InfiniteDihedral(), 3)):
        rng = seeded(0x1212)
        for n_ in range(1, 5):
            moves = move_set(n_)
            for _ in range(250):
                t = tuple(grp.random_element(rng, 9) for _ in range(n_))
                for s in moves:
                    assert eval_word(grp, t, (s, move_inverse(s))) == t


def test_generation_preservation(all_groups):
    from nielsen.groups import FreeGroup

    for group, n in all_groups:
        rng = seeded(0x6E6)
        moves = move_set(n)
        for _ in range(10_000):
            if isinstance(group, FreeGroup):
                t = group.standard_generators()
                for _ in range(rng.randint(0, 6)):
                    t = apply_move(group, t, rng.choice(moves))
            else:
                t = random_generating_tuples(group, n, rng, 1, size=6)[0]
            s = rng.choice(moves)
            assert group.is_generating(apply_move(group, t, s))


def test_abelian_left_right_coincide():
    Z = Integers()
    rng = seeded(7)
    for _ in range(200):
        t = (rng.randint(-9, 9), rng.randint(-9, 9))
        for i, j in ((1, 2), (2, 1)):
            for s in (1, -1):
                assert apply_move(Z, t, R(i, j, s)) == apply_move(Z, t, L(i, j, s))
    assert R(1, 2, 1) != L(1, 2, 1)  # labels stay distinct


def test_eval_word_basics():
    Z = Integers()
    assert eval_word(Z, (2, 3), ()) == (2, 3)
    assert eval_word(Z, (2, 3), (R(1, 2, 1), R(1, 2, -1))) == (2, 3)
    with pytest.raises(UsageError):
        eval_word(Z, (2, 3), (R(1, 3, 1),))


# ---------------------------------------------------------------------------
# the eight dihedral move-word identities, with a = (0,1) a reflection and
# b = (1,0) the translation, so that a*a = 1 and a*b*a = b^-1. Compositions
# are right-to-left, so a word list applies the rightmost symbol first.

A = (0, 1)
B = (1, 0)


def _blk12():
    return (I(2), R(1, 2, 1), I(2))


def _blk21():
    return (I(1), R(2, 1, 1), I(1))


def identity_pairs(n):
    r12, r21 = R(1, 2, 1), R(2, 1, 1)
    yield ((A, B), (r12,) * n + (r21, r12)), ((B, A), (r21,) * n + (I(1), r21))
    yield ((B, A), (r21,) * n + (I(1), r21, r12, r21)), ((A, B), (r12,) * n)
    yield ((A, B), (r12,) * n + (I(2), r12)), ((B, A), (r21,) * n + (r12, r21))
    # the fourth identity is the 1<->2 mirror of the second, so the inversion
    # acts on slot 2 here (with I(1) instead the two sides differ by I(1))
    yield ((B, A), (r21,) * n), ((A, B), (r12,) * n + (I(2), r12, r21, r12))
    yield ((A, B), _blk12() * n + (r21, r12)), ((B, A), _blk21() * n + (I(1), r21))
    yield ((B, A), _blk21() * n + (I(1), r21, r12, r21)), ((A, B), _blk12() * n)
    yield ((A, B), _blk12() * n + (I(2), r12)), ((B, A), _blk21() * n + (r12, r21))
    if n >= 1:
        yield ((B, A), _blk21() * n), ((A, B), _blk12() * (n - 1) + (r21, r12, I(1)))


@pytest.mark.parametrize("n", range(0, 21))
def test_dihedral_word_identities(n):
    D = InfiniteDihedral()
    for (lhs_root, lhs_word), (rhs_root, rhs_word) in identity_pairs(n):
        assert eval_word(D, lhs_root, lhs_word) == eval_word(D, rhs_root, rhs_word)


def test_dihedral_identities_fixed_points_have_loops():
    # the distance-1 vertices carry I_1 and I_2 loops: both entries are involutions
    D = InfiniteDihedral()
    r12, r21 = R(1, 2, 1), R(2, 1, 1)
    for n in range(0, 10):
        for root, word in (
            ((A, B), (r12,) * n + (r21,)),
            ((B, A), (r21,) * n + (r12,)),
            ((A, B), _blk12() * n + (r21,)),
            ((B, A), _blk21() * n + (r12,)),
        ):
            v = eval_word(D, root, word)
            assert apply_move(D, v, I(1)) == v
            assert apply_move(D, v, I(2)) == v

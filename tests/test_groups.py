"""Group kernel: laws, normal forms, serialization, generation tests."""

import functools
import json
import math
import operator
import time
import tracemalloc
from itertools import product as iproduct

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nielsen.covering import epimorphism_from_json
from nielsen.errors import ResourceCapError, UsageError
from nielsen.explore import components
from nielsen.groups import (
    DEFAULT_VERTEX_CAP,
    BurnsideB23,
    FiniteAbelianExp,
    FiniteCayley,
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    Heisenberg,
    InfiniteDihedral,
    Integers,
    IntVectorGroup,
    _firsts,
    _fold,
    group_from_json,
    lattice_is_full,
)
from nielsen.layers import _bounds
from nielsen.tame import verify_component_structure

from conftest import (
    cyclic_table,
    dihedral_table,
    direct_product_table,
    elementary_abelian_table,
    quaternion_table,
    relabelled_table,
    seeded,
)
from oracles import (
    associative_by_triples,
    element_closure,
    first_generating_tuple,
    free_generation_by_core,
    generation_by_lattice,
    table_by_pairs,
)

ints = st.integers(min_value=-50, max_value=50)


# ---------------------------------------------------------------------------
# infinite dihedral: the normal form must agree with composing affine maps
# x -> (-1)**eps * x + t, which is an independent model of Z x| Z/2


def affine_of(el):
    t, e = el
    return lambda x: (-x if e else x) + t


@given(st.tuples(ints, st.integers(0, 1)), st.tuples(ints, st.integers(0, 1)))
def test_dihedral_mul_matches_affine_composition(a, b):
    D = InfiniteDihedral()
    prod = D.mul(a, b)
    f = affine_of(a)
    g = affine_of(b)
    for x in (-7, 0, 1, 13):
        assert affine_of(prod)(x) == f(g(x))


def test_dihedral_examples_and_relators():
    D = InfiniteDihedral()
    assert D.mul((0, 1), (1, 0)) == (-1, 1)
    a, b = (0, 1), (1, 0)
    assert D.mul(a, a) == D.identity()
    # a b a = b^-1
    assert D.mul(D.mul(a, b), a) == D.inv(b)
    # the two-reflection presentation: x^2 = y^2 = 1
    x, y = (0, 1), (1, 1)
    assert D.mul(x, x) == D.identity() and D.mul(y, y) == D.identity()
    assert D.is_generating((x, y))


def test_dihedral_law_is_the_branch_law_on_scalars_and_arrays():
    # the law before it became arithmetic in the reflection bit
    def branch_mul(a, b):
        return (a[0] + b[0] if a[1] == 0 else a[0] - b[0], a[1] ^ b[1])

    def branch_inv(a):
        return (-a[0], 0) if a[1] == 0 else a

    D = InfiniteDihedral()
    elems = [(t, e) for t in (-5, -1, 0, 1, 7) for e in (0, 1)]
    for a in elems:
        assert D.inv(a) == branch_inv(a)
        for b in elems:
            assert D.mul(a, b) == branch_mul(a, b)
    # on coordinate arrays (axis 0 the coordinate) it is the same law entrywise
    A = np.array([[a[0] for a in elems], [a[1] for a in elems]])
    prod = np.asarray(D.mul(A[:, :, None], A[:, None, :]))
    inv = np.asarray(D.inv(A))
    for i, a in enumerate(elems):
        assert tuple(inv[:, i].tolist()) == branch_inv(a)
        for j, b in enumerate(elems):
            assert tuple(prod[:, i, j].tolist()) == branch_mul(a, b)


@pytest.mark.parametrize("table", [quaternion_table(), dihedral_table(4), cyclic_table(3)], ids=["Q8", "D4", "Z3"])
def test_finite_cayley_law_on_index_arrays_is_the_scalar_law(table):
    G = FiniteCayley(table, 0)
    # on a stack of index arrays (axis 0 the one coordinate), as the BFS layers call it
    A = np.arange(G.order)[None]
    prod, inv = G.mul(A[:, :, None], A[:, None, :]), G.inv(A)
    assert prod.shape == (1, G.order, G.order) and inv.shape == (1, G.order)
    for a in range(G.order):
        assert type(G.inv(a)) is int and G.inv(a) == inv[0, a]
        for b in range(G.order):
            assert type(G.mul(a, b)) is int and G.mul(a, b) == prod[0, a, b] == table[a][b]


def test_heisenberg_product_example():
    H = Heisenberg()
    assert H.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert H.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 0)


@pytest.mark.parametrize("count", [1000])
def test_group_laws_random(all_groups, count):
    for group, _ in all_groups:
        rng = seeded(0xA11CE)
        e = group.identity()
        for _ in range(count):
            a = group.random_element(rng, 8)
            b = group.random_element(rng, 8)
            c = group.random_element(rng, 8)
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
            assert group.mul(a, group.inv(a)) == e
            assert group.mul(group.inv(a), a) == e
            assert group.mul(e, a) == a == group.mul(a, e)


def test_serialization_round_trip(all_groups):
    # keys are compared, never parsed: the encoding must be injective and
    # prefix-free; a blob that is a prefix of any later blob in sorted order
    # is a prefix of the next one, so adjacent pairs suffice
    for group, _ in all_groups:
        rng = seeded(0xB0B)
        blobs = {}
        for _ in range(500):
            g = group.random_element(rng, 30)
            blobs.setdefault(group.encode_element(g), set()).add(g)
            assert group.element_from_json(group.element_to_json(g)) == g
        assert all(len(gs) == 1 for gs in blobs.values())  # injectivity
        ordered = sorted(blobs)
        assert not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))


@given(st.integers(min_value=-(10**40), max_value=10**40))
def test_integer_encoding_handles_big_values(v):
    # a 4-byte little-endian size, then the minimal signed little-endian payload
    blob = Integers().encode_element(v)
    size = int.from_bytes(blob[:4], "little")
    assert len(blob) == 4 + size and size >= 1
    assert int.from_bytes(blob[4:], "little", signed=True) == v
    if size > 1:
        half = 1 << (8 * (size - 1) - 1)
        assert not -half <= v < half  # one byte fewer would not hold v


# ---------------------------------------------------------------------------
# generation tests against brute-force closure oracles


def capped_closure(group, entries, cap):
    """Subgroup closure keeping only elements with measure <= cap."""
    seen = set(e for e in entries if group.measure(e) <= cap) | {group.identity()}
    frontier = list(seen)
    gens = list(entries) + [group.inv(e) for e in entries]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                w = group.mul(g, h)
                if group.measure(w) <= cap and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_integers_generation_examples():
    Z = Integers()
    assert Z.is_generating((2, 3))
    assert not Z.is_generating((2, 4))
    assert Z.is_generating((1,)) and Z.is_generating((-1,))
    assert not Z.is_generating((2,))
    with pytest.raises(UsageError):
        Z.is_generating(())


def test_integers_generation_matches_windowed_closure():
    Z = Integers()
    for x in range(-20, 21):
        for y in range(-20, 21):
            if x == 0 and y == 0:
                continue
            closure = capped_closure(Z, (x, y), 20)
            assert Z.is_generating((x, y)) == (1 in closure)


def test_dihedral_generation_matches_windowed_closure():
    D = InfiniteDihedral()
    span = [(t, e) for t in range(-3, 4) for e in (0, 1)]
    for a in span:
        for b in span:
            closure = capped_closure(D, (a, b), 40)
            oracle = (1, 0) in closure and (0, 1) in closure
            assert D.is_generating((a, b)) == oracle, (a, b)


def test_dihedral_generation_examples():
    D = InfiniteDihedral()
    assert not D.is_generating(((1, 0), (2, 0)))  # no reflection
    assert D.is_generating(((1, 0), (0, 1)))
    assert not D.is_generating(((0, 1), (2, 1)))  # difference 2
    assert not D.is_generating(((0, 1),))


def test_heisenberg_generation_matches_windowed_closure():
    H = Heisenberg()
    span = [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
    basis = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for a in span:
        for b in span:
            closure = capped_closure(H, (a, b), 4)
            assert H.is_generating((a, b)) == (basis <= closure), (a, b)


def test_free_abelian_generation():
    G = FreeAbelian(2)
    assert G.is_generating(((1, 0), (0, 1)))
    assert G.is_generating(((1, 1), (1, 0)))
    assert G.is_generating(((2, 1), (1, 1)))
    assert not G.is_generating(((2, 0), (0, 1)))
    assert G.is_generating(((2, 0), (3, 0), (0, 1)))
    assert not G.is_generating(((2, 0), (4, 0), (0, 1)))


@given(st.lists(st.tuples(ints, ints), min_size=2, max_size=4))
def test_free_abelian_rank2_matches_determinant_oracle(rows):
    # for 2x2 the unit-lattice test is |det| == 1; for more rows compare with
    # the gcd of all 2x2 minors
    minors = []
    for p in range(len(rows)):
        for q in range(p + 1, len(rows)):
            minors.append(rows[p][0] * rows[q][1] - rows[p][1] * rows[q][0])
    oracle = math.gcd(*minors) == 1 if minors else False
    assert lattice_is_full(rows, 2) == oracle


_huge = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
# the four kinds whose abelianization has rank 2, (Z/m)^2 at small and huge m
_rank2_groups = st.one_of(
    st.sampled_from([FreeAbelian(2), Heisenberg(), BurnsideB23()]),
    st.one_of(st.integers(2, 12), st.integers(2, 2**70)).map(lambda m: FiniteAbelianExp(m, 2)),
)


@st.composite
def rank2_tuples(draw):
    """A rank-2 kind and 1 to 5 of its elements, with zero and repeated rows."""
    group = draw(_rank2_groups)
    coord = [_huge if m is None else st.integers(0, m - 1) for m in group.moduli]
    element = st.tuples(*coord)
    pool = draw(st.lists(element, min_size=1, max_size=3))
    entries = draw(st.lists(st.one_of(element, st.just(group.identity()), st.sampled_from(pool)),
                            min_size=1, max_size=5))
    return group, tuple(entries)


@settings(max_examples=400)
@given(rank2_tuples())
def test_rank2_generation_matches_the_lattice_oracle(case):
    group, entries = case
    assert group.is_generating(entries) == generation_by_lattice(group, entries)


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


@given(st.lists(st.tuples(ints, ints, ints), min_size=3, max_size=5))
def test_free_abelian_rank3_matches_minor_gcd_oracle(rows):
    from itertools import combinations

    minors = [_det3(*tri) for tri in combinations(rows, 3)]
    oracle = math.gcd(*minors) == 1
    assert lattice_is_full(rows, 3) == oracle


def test_finite_abelian_exp_generation():
    G = FiniteAbelianExp(3, 2)
    assert G.is_generating(((1, 0), (0, 1)))
    assert not G.is_generating(((1, 0), (2, 0)))
    count = sum(G.is_generating((a, b)) for a in G.elements() for b in G.elements())
    assert count == 48  # |GL_2(F_3)| = (9-1)(9-3)


def test_finite_cayley_cyclic_matches_unit_criterion():
    G = FiniteCayley(cyclic_table(6), 0)
    for k in range(6):
        assert G.is_generating((k,)) == (math.gcd(k, 6) == 1)


def test_finite_cayley_generation_matches_closure_exhaustively():
    G = FiniteCayley(dihedral_table(3), 0)  # S_3
    for a in G.elements():
        for b in G.elements():
            assert G.is_generating((a, b)) == (len(capped_closure(G, (a, b), 0)) == 6)


@pytest.mark.parametrize("table", [quaternion_table(), dihedral_table(4), cyclic_table(300)], ids=["Q8", "D4", "Z300"])
def test_finite_cayley_block_verdict_matches_the_element_closure(table):
    # Z/300 decides its block in chunks of 218 rows, the others in one
    G = FiniteCayley(table, 0)
    picks = range(0, G.order, max(1, G.order // 20))
    block = np.array(list(iproduct(picks, repeat=2)), dtype=np.int64)
    verdict = G.is_generating_each(block)
    assert verdict.dtype == bool and len(verdict) == len(block)
    assert verdict.tolist() == [len(element_closure(G, tuple(t))) == G.order for t in block.tolist()]
    assert G.is_generating_each(block[:0]).shape == (0,)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["S3", "Q8", "D4"]), st.integers(1, 4), st.data())
def test_lattice_walk_matches_the_closure_on_relabelled_tables(name, n, data):
    # every n-tuple, as explicit index columns
    table = {"S3": dihedral_table(3), "Q8": quaternion_table(), "D4": dihedral_table(4)}[name]
    perm = data.draw(st.permutations(range(len(table))))
    tab = FiniteTable.of(FiniteCayley(relabelled_table(table, perm), perm[0]))
    tuples = np.array(list(iproduct(range(tab.order), repeat=n)), dtype=np.intp)
    assert tab.generating(tuples.T).tolist() == tab.closure(tuples).all(axis=1).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_walk_matches_the_closure_on_random_columns(n):
    # (Z/13)^2: half the rows drawn from all 169 elements, half from the
    # cyclic subgroup of one element, so that both verdicts occur from n = 2
    tab = FiniteTable.of(FiniteAbelianExp(13, 2))
    rng = np.random.default_rng(n)
    powers = np.empty((tab.order, 13), dtype=np.intp)
    powers[:, 0] = tab.id_idx
    for k in range(1, 13):
        powers[:, k] = tab.table[powers[:, k - 1], np.arange(tab.order)]
    cols = rng.integers(0, tab.order, size=(n, 2000))
    cols[:, 1000:] = powers[rng.integers(0, tab.order, size=1000), rng.integers(0, 13, size=(n, 1000))]
    verdict = tab.generating(cols)
    assert verdict.tolist() == tab.closure(cols.T).all(axis=1).tolist()
    assert not verdict.any() if n == 1 else 0 < verdict.sum() < len(verdict)


def test_burnside_invariants():
    B = BurnsideB23()
    elems = list(B.elements())
    assert len(elems) == 27
    for g in elems:
        assert B.mul(B.mul(g, g), g) == B.identity()
        assert B.inv(g) == B.mul(g, g)
    assert B.is_generating(B.standard_generators())
    # generation agrees with the mod-3 abelianization criterion
    for a in elems:
        for b in elems:
            oracle = (a[0] * b[1] - a[1] * b[0]) % 3 != 0
            assert B.is_generating((a, b)) == oracle


GENERATION_GRID = [(FiniteAbelianExp(m, d), n) for m, d in ((2, 1), (4, 2), (6, 1), (2, 3), (9, 1), (6, 2))
                   for n in (1, 2, 3)]
GENERATION_GRID += [(BurnsideB23(), n) for n in (1, 2, 3)]
GENERATION_GRID += [(FiniteCayley(dihedral_table(3), 0), 2), (FiniteCayley(quaternion_table(), 0), 2)]


@pytest.mark.parametrize("group, n", GENERATION_GRID,
                         ids=[f"{g.kind}{g.order}-n{n}" for g, n in GENERATION_GRID])
def test_generation_matches_element_closure(group, n):
    generates = {}  # the generated subgroup depends only on the set of entries
    for t in iproduct(group.elements(), repeat=n):
        entries = frozenset(t)
        if entries not in generates:
            generates[entries] = len(element_closure(group, t)) == group.order
        assert group.is_generating(t) == generates[entries], t


def test_free_group_words():
    F = FreeGroup(2)
    ab = F.word_from_str("ab")
    assert F.inv(ab) == F.word_from_str("BA")
    assert F.mul(ab, F.inv(ab)) == ()
    assert F.word_from_str("aA") == ()
    assert F.word_to_str(F.word_from_str("abA")) == "abA"
    with pytest.raises(UsageError):
        F.check_element((1, -1))
    with pytest.raises(UsageError):
        F.word_from_str("xyz")


def test_free_group_generation_examples():
    F = FreeGroup(2)
    w = F.word_from_str
    assert F.is_generating((w("a"), w("b")))
    # <b, aba^-1> misses a: the conjugator is not available
    assert not F.is_generating((w("b"), w("abA")))
    # ... but <a, aba^-1> contains b = a^-1 (aba^-1) a, hence is everything
    assert F.is_generating((w("a"), w("abA")))
    assert F.is_generating((w("ab"), w("b")))
    assert not F.is_generating((w("a"), w("bb")))
    assert F.is_generating((w("a"), w("b"), w("ab")))
    assert not F.is_generating((w("aa"), w("bb"), w("abAB")))
    assert FreeGroup(1).is_generating((FreeGroup(1).word_from_str("a"),))
    assert not FreeGroup(1).is_generating(((1, 1),))


def test_free_group_move_images_always_generate():
    # tuples produced from the basis by moves must fold back to the rose
    from nielsen.moves import apply_move, move_set

    F = FreeGroup(2)
    rng = seeded(0xF01D)
    moves = move_set(2)
    for _ in range(300):
        t = F.standard_generators()
        for _ in range(rng.randint(0, 10)):
            t = apply_move(F, t, rng.choice(moves))
        assert F.is_generating(t)


@st.composite
def free_tuples(draw):
    """A rank d <= 3 and n <= 4 reduced words: random words, or a move image
    of the basis padded with identities with one entry then multiplied by a
    random word, which often keeps it generating."""
    from nielsen.moves import apply_move, move_set

    d = draw(st.integers(1, 3))
    F = FreeGroup(d)
    letters = st.sampled_from([s * k for k in range(1, d + 1) for s in (1, -1)])

    def word():
        out = ()
        for x in draw(st.lists(letters, max_size=8)):
            out = F.mul(out, (x,))
        return out

    n = draw(st.integers(d, 4))
    if draw(st.booleans()):
        return F, tuple(word() for _ in range(draw(st.integers(1, 4))))
    t = F.standard_generators() + ((),) * (n - d)
    for mv in draw(st.lists(st.sampled_from(move_set(n)), max_size=10)):
        t = apply_move(F, t, mv)
    k = draw(st.integers(0, n - 1))
    return F, t[:k] + (F.mul(t[k], word()),) + t[k + 1 :]


@settings(max_examples=300)
@given(free_tuples())
def test_free_generation_matches_the_core_oracle(case):
    F, words = case
    assert F.is_generating(words) == free_generation_by_core(F.d, words)


def test_free_group_folding_respects_abelianization():
    # folding-true implies the abelianized vectors span Z^2
    F = FreeGroup(2)
    rng = seeded(0xAB)
    for _ in range(300):
        t = tuple(F.random_element(rng, 6) for _ in range(2))
        if F.is_generating(t):
            rows = []
            for word in t:
                vec = [0, 0]
                for letter in word:
                    vec[abs(letter) - 1] += 1 if letter > 0 else -1
                rows.append(tuple(vec))
            assert lattice_is_full(rows, 2)


# ---------------------------------------------------------------------------
# construction validation


def test_finite_cayley_rejects_bad_tables():
    with pytest.raises(UsageError):
        FiniteCayley([[0, 0], [1, 1]], 0)  # not a Latin square
    with pytest.raises(UsageError):
        FiniteCayley([[0, 1], [1, 0]], 1)  # wrong identity
    # Latin square that is not associative: a quasigroup on 5 points
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(UsageError):
        FiniteCayley(t, 0)


def test_a_rank_above_the_vertex_cap_is_refused_before_its_coordinates():
    # refused before (m,) * d is built: a d past the index range, or one
    # whose coordinate tuple would take gigabytes, raises the same way
    for d in (DEFAULT_VERTEX_CAP + 1, 10**20):
        with pytest.raises(UsageError, match="FreeAbelian rank d must be at most the vertex cap"):
            FreeAbelian(d)
        with pytest.raises(UsageError, match="FiniteAbelianExp rank d must be at most the vertex cap"):
            FiniteAbelianExp(2, d)


def test_associativity_is_checked_through_the_last_row():
    # a loop of order 8 whose associative rows, its left nucleus, are 0..3.
    # The left nucleus of a Latin square with identity is a subloop, so at
    # most half the rows are free of failures: no table fails in its last
    # row only, and this one fails in the last four.
    t = [[0, 1, 2, 3, 4, 5, 6, 7],
         [1, 2, 3, 0, 5, 6, 7, 4],
         [2, 3, 0, 1, 6, 7, 4, 5],
         [3, 0, 1, 2, 7, 4, 5, 6],
         [4, 7, 6, 5, 1, 2, 3, 0],
         [5, 4, 7, 6, 2, 3, 0, 1],
         [6, 5, 4, 7, 3, 0, 1, 2],
         [7, 6, 5, 4, 0, 1, 2, 3]]
    failing = [a for a in range(8) if any(t[t[a][b]][c] != t[a][t[b][c]] for b in range(8) for c in range(8))]
    assert failing == [4, 5, 6, 7]
    with pytest.raises(UsageError, match="not associative"):
        FiniteCayley(t, 0)


def reduced_latin_squares(k: int):
    """Every Latin square on 0..k-1 whose first row and column are 0..k-1."""
    rows = [list(range(k))] + [[r] + [-1] * (k - 1) for r in range(1, k)]
    cells = [(r, c) for r in range(1, k) for c in range(1, k)]

    def fill(i):
        if i == len(cells):
            yield [row[:] for row in rows]
            return
        r, c = cells[i]
        used = set(rows[r][:c]) | {rows[x][c] for x in range(r)}
        for s in range(k):
            if s not in used:
                rows[r][c] = s
                yield from fill(i + 1)
        rows[r][c] = -1

    yield from fill(0)


def test_light_associativity_test_matches_all_triples():
    # a reduced Latin square has identity 0 and, when it is associative, is
    # a group; Light's test on generators must agree with every triple
    counts, disagreements = [], []
    for k in range(1, 7):
        squares = list(reduced_latin_squares(k))
        counts.append(len(squares))
        for t in squares:
            try:
                FiniteCayley(t, 0)
                accepted = True
            except UsageError as e:
                assert "not associative" in str(e)
                accepted = False
            if accepted != associative_by_triples(t):
                disagreements.append(t)
    assert counts == [1, 1, 1, 4, 56, 9408]
    assert disagreements == []


def test_table_validation_peak_memory_is_quadratic():
    table = cyclic_table(181)
    tracemalloc.start()
    try:
        FiniteCayley(table, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two k^3 int64 arrays would take 94 MB; the table itself is 262 KB
    assert peak < 8 * 2**20


def test_finite_abelian_exp_builds_no_d_by_d_rows_up_front():
    # the d rows m * e_k of the generation test would take d^2 ints
    tracemalloc.start()
    try:
        FiniteAbelianExp(2, 1500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_group_json_round_trip(all_groups):
    for group, _ in all_groups:
        assert group_from_json(group.spec_json()) == group
    with pytest.raises(UsageError):
        group_from_json({"kind": "FreeAbelian", "d": 2, "bogus": 1})
    with pytest.raises(UsageError):
        group_from_json({"kind": "Nope"})
    with pytest.raises(UsageError):
        group_from_json({"kind": "FreeAbelian"})


def test_bool_is_not_an_int():
    # JSON true must not pass as 1, neither in a spec nor inside an element
    for spec in ({"kind": "FreeAbelian", "d": True}, {"kind": "FiniteAbelianExp", "m": True, "d": 1},
                 {"kind": "FiniteAbelianExp", "m": 3, "d": True}, {"kind": "FreeGroup", "d": True},
                 {"kind": "FiniteCayley", "table": [[0, 1], [1, 0]], "identity": False},
                 {"kind": "FiniteCayley", "table": [[False, True], [True, False]], "identity": 0}):
        with pytest.raises(UsageError):
            group_from_json(spec)
    for group, elem in ((FreeAbelian(2), (True, 0)), (InfiniteDihedral(), (True, 0)),
                        (InfiniteDihedral(), (0, True)), (Heisenberg(), (1, 0, False)),
                        (FiniteAbelianExp(3, 2), (True, 0)), (BurnsideB23(), (0, 0, True)),
                        (FiniteCayley(cyclic_table(2), 0), True), (FreeGroup(2), (True,))):
        with pytest.raises(UsageError):
            group.check_element(elem)


JSON_LEAVES = st.one_of(st.booleans(), st.none(), st.integers(-4, 12), st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
INT_VECTOR_GROUPS = (FreeAbelian(2), FreeAbelian(3), FiniteAbelianExp(3, 2), FiniteAbelianExp(2, 3),
                     Heisenberg(), BurnsideB23(), InfiniteDihedral())


@given(
    st.one_of(st.sampled_from([g.kind for g in INT_VECTOR_GROUPS]), JSON_VALUES),
    st.dictionaries(st.sampled_from(["m", "d", "table"]), JSON_VALUES, max_size=3),
    st.sampled_from(INT_VECTOR_GROUPS),
    st.one_of(JSON_VALUES, st.lists(st.integers(-4, 12), max_size=4)),
)
def test_spec_and_element_parsers_raise_only_usage_errors(kind, params, group, element):
    # bools, floats, strings, None, nested lists, wrong lengths, residues out
    # of range and reflection bits outside {0, 1} are rejected, never crash
    try:
        group = group_from_json({"kind": kind, **params})
    except UsageError:
        pass
    try:
        g = group.element_from_json(element)
    except UsageError:
        return
    assert group.check_element(g) == g
    assert group.element_from_json(json.loads(json.dumps(group.element_to_json(g)))) == g


INTEGER_DOMAINS = [{"kind": "Integers"}, {"kind": "FreeAbelian", "d": 2}, {"kind": "FreeAbelian", "d": 3}]
TABLE_DOMAINS = [FiniteCayley(dihedral_table(3), 0).spec_json(), FiniteCayley(cyclic_table(6), 0).spec_json()]
RULE_CASES = (  # each rule with the domains it accepts, and its one field
    [("project", g, "e") for g in INTEGER_DOMAINS] + [("mod", g, "m") for g in INTEGER_DOMAINS]
    + [("finite_quotient", g, "normal") for g in TABLE_DOMAINS]
    + [("identity", {"kind": "Heisenberg"}, None), ("reflection", {"kind": "InfiniteDihedral"}, None),
       ("abelianize", {"kind": "Heisenberg"}, None)]
)
FIELD_VALUES = st.one_of(st.booleans(), st.floats(), st.integers(-4, 12), st.none(), st.text(max_size=2),
                         st.lists(st.integers(-1, 6), max_size=6), JSON_VALUES)


@settings(max_examples=300)
@given(
    st.one_of(st.sampled_from(RULE_CASES), st.tuples(JSON_VALUES, JSON_VALUES, st.sampled_from(["e", "m", None]))),
    FIELD_VALUES,
    st.dictionaries(st.sampled_from(["e", "m", "normal"]), JSON_VALUES, max_size=1),
)
def test_epimorphism_parser_raises_only_usage_errors(case, value, extra):
    # a non-list or nested 'normal', a bool or float 'e' or 'm', a subset
    # that is no normal subgroup, a mismatched domain: each a usage error,
    # never a crash
    rule, domain, key = case
    obj = {"rule": rule, "domain": domain, **({key: value} if key else {}), **extra}
    try:
        epi = epimorphism_from_json(obj)
    except UsageError:
        return
    for param in epi.params.values():  # echoed as parsed: no bool or float passes as an int
        assert all(type(x) is int for x in (param if isinstance(param, list) else [param]))
    assert epimorphism_from_json(epi.to_json()).to_json() == epi.to_json()


def test_table_builders_are_groups():
    for table in (cyclic_table(7), dihedral_table(4), quaternion_table(),
                  direct_product_table(cyclic_table(2), cyclic_table(4))):
        FiniteCayley(table, 0)  # constructor validates everything


def test_rank_brute_force():
    assert FiniteCayley(cyclic_table(8), 0).rank() == 1
    assert FiniteCayley(quaternion_table(), 0).rank() == 2
    assert FiniteCayley(direct_product_table(cyclic_table(2), cyclic_table(2)), 0).rank() == 2
    assert FiniteAbelianExp(3, 2).rank() == 2
    assert BurnsideB23().rank() == 2


RANK_BATTERY = {
    "S3": dihedral_table(3),
    "D4": dihedral_table(4),
    "Q8": quaternion_table(),
    "C8": cyclic_table(8),
    "Z2xZ4": direct_product_table(cyclic_table(2), cyclic_table(4)),
    "Z3xZ3": direct_product_table(cyclic_table(3), cyclic_table(3)),
    "D6xZ2": direct_product_table(dihedral_table(6), cyclic_table(2)),
    "Z2^3": elementary_abelian_table(3),
    "Z2^4": elementary_abelian_table(4),
}


@pytest.mark.parametrize("name", sorted(RANK_BATTERY))
def test_rank_search_matches_brute_force(name):
    # seeded relabellings renumber the inverse pairs, whose least members
    # the search reads
    table, rng = RANK_BATTERY[name], seeded(sorted(RANK_BATTERY).index(name))
    perm = list(range(len(table)))
    for _ in range(4):
        group = FiniteCayley(relabelled_table(table, perm), perm[0])
        assert group.standard_generators() == first_generating_tuple(group)
        rng.shuffle(perm)


@pytest.mark.parametrize("d", [5, 6])
def test_rank_search_stops_at_the_cap(d):
    group = FiniteCayley(elementary_abelian_table(d), 0)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="rank search"):
        group.rank()
    assert time.perf_counter() - start < 20


# ---------------------------------------------------------------------------
# the index form: FiniteTable.of against the pair-by-pair reference


def assert_table_matches_reference(group):
    tab, ref = FiniteTable.of(group), table_by_pairs(group)
    assert tab.table.dtype == tab.inverses.dtype == np.intp
    assert tab.table.tolist() == ref.table and tab.inverses.tolist() == ref.inverses
    assert tab.elements == ref.elements and tab.index == ref.index and tab.id_idx == ref.id_idx


@pytest.mark.parametrize("m, d", [(2, 1), (2, 3), (2, 6), (3, 2), (4, 2), (5, 1), (6, 2), (7, 2), (9, 1), (4, 3)])
def test_finite_abelian_table_matches_pair_reference(m, d):
    assert_table_matches_reference(FiniteAbelianExp(m, d))


def test_burnside_table_matches_pair_reference():
    assert_table_matches_reference(BurnsideB23())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["S3", "Q8", "D4"]), st.data())
def test_relabelled_cayley_table_matches_pair_reference(name, data):
    table = {"S3": dihedral_table(3), "Q8": quaternion_table(), "D4": dihedral_table(4)}[name]
    perm = data.draw(st.permutations(range(len(table))))
    relabelled = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            relabelled[perm[a]][perm[b]] = perm[c]
    assert_table_matches_reference(FiniteCayley(relabelled, perm[0]))


def test_each_group_builds_its_table_once(monkeypatch):
    group = FiniteCayley(quaternion_table(), 0)
    assert FiniteTable.of(group).table is group.table
    assert type(group.mul(2, 4)) is int and type(group.inv(2)) is int
    builds = []
    build = IntVectorGroup._build_table

    def counted(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(IntVectorGroup, "_build_table", counted)
    b23 = BurnsideB23()
    components(b23, 2)
    verify_component_structure(b23, 2)
    assert builds == [b23]


# ---------------------------------------------------------------------------
# column folds: the row and column reductions of the BFS and its consumers,
# against plain Python on the rows as lists

# ints small enough that eight of them sum without wrapping
_FOLD_DTYPES = {np.int32: st.integers(-(2**27), 2**27), np.int64: st.integers(-(2**59), 2**59), np.bool_: st.booleans()}
# the ufunc, its Python fold, and the dtype it folds bool columns into
_FOLDS = [
    (np.logical_or, lambda a, b: bool(a or b), None),
    (np.maximum, max, None),
    (np.add, operator.add, np.int64),
    (np.gcd, math.gcd, np.int64),
]


@st.composite
def _tables(draw):
    """An int32, int64 or bool array of 0 to 60 rows and 1 to 8 columns,
    its rows drawn from at most five distinct ones, so many repeat."""
    dtype = draw(st.sampled_from(list(_FOLD_DTYPES)))
    k = draw(st.integers(1, 8))
    pool = draw(st.lists(st.lists(_FOLD_DTYPES[dtype], min_size=k, max_size=k), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), max_size=60))
    return np.array(rows, dtype=dtype).reshape(len(rows), k)


@given(_tables())
def test_the_column_fold_is_the_row_reduction(a):
    for ufunc, fold, bool_dtype in _FOLDS:
        dtype = bool_dtype if a.dtype == bool else None
        got = _fold(ufunc, a, dtype)
        assert got.shape == (len(a),) and got.dtype == (a.dtype if dtype is None else dtype), ufunc
        assert got.tolist() == [functools.reduce(fold, row) for row in a.tolist()], ufunc


@given(_tables().filter(len))
def test_the_column_bounds_are_the_least_and_greatest_of_each_column(a):
    lo, hi = _bounds(a)
    assert lo.dtype == hi.dtype == a.dtype
    assert lo.tolist() == [min(c) for c in a.T.tolist()] and hi.tolist() == [max(c) for c in a.T.tolist()]


@given(_tables())
def test_firsts_marks_the_rows_that_differ_from_the_row_before(a):
    rows = sorted(a.tolist())
    expected = [i == 0 or rows[i] != rows[i - 1] for i in range(len(rows))]
    assert _firsts(np.array(rows, dtype=a.dtype).reshape(a.shape)).tolist() == expected

"""Explorer: balls, windows, exports, components, Euclid certificates."""

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nielsen.errors import ResourceCapError, UsageError, VerificationError
from nielsen import serialize
from nielsen.explore import (
    ball,
    components,
    euclid_reduce,
    fragment_from_jsonl,
    growth_profile,
    state_key,
)
from nielsen.groups import (
    DEFAULT_VERTEX_CAP,
    BurnsideB23,
    FiniteAbelianExp,
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    Heisenberg,
    InfiniteDihedral,
    Integers,
    IntVectorGroup,
    encode_int,
)
from nielsen.moves import I, R, apply_move, eval_word, move_set

from conftest import cyclic_table, dihedral_table, pak_battery, quaternion_table, relabelled_table, seeded
from oracles import (
    ball_by_keys,
    components_by_tensor,
    components_unionfind,
    content_equal,
    dot_by_darts,
    fragment_from_jsonl_by_records,
    fragment_lists,
    index_tuples,
    jsonl_by_records,
)

Z = Integers()
D = InfiniteDihedral()


def test_one_generator_integer_graph():
    frag = ball(Z, (1,), 5)
    assert len(frag) == 2
    assert set(frag.states) == {(1,), (-1,)}
    assert all(frag.expanded)
    assert frag.moves == (I(1),)


def test_radius_zero():
    frag = ball(Z, (2, 3), 0)
    assert len(frag) == 1 and sum(frag.expanded) == 0


def test_unit_ball_at_ones():
    frag = ball(Z, (1, 1), 1)
    assert set(frag.states) == {(1, 1), (2, 1), (0, 1), (1, 2), (1, 0), (-1, 1), (1, -1)}
    assert len(frag) == 7


def test_ball_rejects_bad_roots():
    with pytest.raises(UsageError):
        ball(Z, (2, 4), 2)
    with pytest.raises(UsageError):
        ball(Z, (1, 1), -1)
    with pytest.raises(ResourceCapError):
        ball(Z, (1, 1), 6, cap=10)


def test_ball_determinism_and_validation():
    f1 = ball(Z, (2, 3), 4)
    f2 = ball(Z, (2, 3), 4)
    assert f1.to_jsonl() == f2.to_jsonl()
    assert f1.to_dot() == f2.to_dot()
    f1.validate()
    frag = ball(D, ((0, 1), (1, 1)), 5)
    frag.validate()


def test_window_retains_frontier_unexpanded():
    frag = ball(Z, (1, 1), 4, window=2)
    outside = [v for v in range(len(frag)) if max(abs(x) for x in frag.states[v]) > 2]
    assert outside, "window should be exceeded by some discovered vertices"
    assert all(not frag.expanded[v] for v in outside)
    assert frag.truncated
    with pytest.raises(UsageError):
        growth_profile(frag)


@pytest.mark.parametrize("group, root, window", [(Heisenberg(), ((1, 0, 0), (0, 1, 0)), 3), (Z, (1, 1), 5),
                                                   (D, ((0, 1), (1, 1)), 3), (FiniteAbelianExp(5, 1), ((1,), (2,)), 0)],
                         ids=["Heisenberg-w3", "N2(Z)-w5", "D_inf-w3", "Z5-w0"])
def test_window_measure_matches_a_python_max(group, root, window):
    # the coordinate law folds across the unbounded columns of each row;
    # plain Python takes the largest ``group.measure`` of its entries, on a
    # windowed ball's rows and on rows with coordinates up to 2^30
    from nielsen import layers

    law, n, w = layers._Coordinates(group), len(root), group.width
    frag = ball(group, root, 6, window=window)
    rows = np.array([law.row(s) for s in frag.states], dtype=np.int32)
    wild = np.random.default_rng(3).integers(-(2**30), 2**30, size=(40, n * w), dtype=np.int32)
    for block in (rows, wild):
        entries = [[tuple(r[i * w : (i + 1) * w]) if isinstance(group, IntVectorGroup) else r[i * w]
                    for i in range(n)] for r in block.tolist()]
        expected = [max(group.measure(g) for g in t) for t in entries]
        assert law.measure(block, n).tolist() == expected
    assert law.measure(rows[:0], n).shape == (0,)


def test_growth_profiles():
    # once the graph is exhausted the profile stays constant up to the radius
    prof = growth_profile(ball(Z, (1,), 4))
    assert prof == [(0, 1), (1, 2), (2, 2), (3, 2), (4, 2)]
    prof = dict(growth_profile(ball(D, ((0, 1), (1, 1)), 12)))
    assert all(prof[r] <= 40 * r for r in range(1, 13))
    prof = dict(growth_profile(ball(Z, (1, 1), 8)))
    for r in range(4, 8):
        assert prof[r] / prof[r - 1] >= 1.3


def test_free_group_ball_with_word_window():
    F = FreeGroup(2)
    frag = ball(F, F.standard_generators(), 3, window=4)
    assert len(frag) > 10
    frag.validate()


ORACLE_CASES = {
    "Z_n2": (Z, (1, 1), 6, {}),
    "Z_n3": (Z, (1, 0, 0), 3, {}),
    "Z_window": (Z, (1, 1), 4, {"window": 2}),
    "Z2": (FreeAbelian(2), ((1, 0), (0, 1)), 3, {}),
    "D_inf": (D, ((0, 1), (1, 1)), 8, {}),
    "Heisenberg": (Heisenberg(), ((1, 0, 0), (0, 1, 0)), 3, {}),
    "F2_window": (FreeGroup(2), ((1,), (2,)), 4, {"window": 3}),
    "FiniteCayley_D4": (FiniteCayley(dihedral_table(4), 0), None, 12, {}),
    "B23": (BurnsideB23(), None, 8, {}),
    "Z5_squared": (FiniteAbelianExp(5, 2), None, 6, {}),
    "custom_moves": (Z, (1, 0, 0), 5, {"moves": (R(1, 2), R(1, 2, -1), R(3, 1), R(3, 1, -1), I(2))}),
    "radius_0": (Z, (2, 3), 0, {}),
    # coordinates: ints of one to four bytes, and a ball that reaches the
    # 2^30 guard part way and is grown again on element ids
    "Z_guard_root": (Z, (2**62 + 1, 2**62), 3, {}),
    "Z_four_byte_ints": (Z, (2**30 - 2, 1), 1, {}),
    "Heisenberg_wide_ints": (Heisenberg(), ((1, 0, -(2**23) - 1), (0, 1, 2**23 - 1)), 3, {}),
    "Heisenberg_past_guard": (Heisenberg(), ((1, 0, 2**30 - 5), (0, 1, 0)), 3, {}),
    "Z_n3_window": (Z, (1, 0, 0), 5, {"window": 2}),
    "D_inf_window": (D, ((0, 1), (1, 1)), 12, {"window": 3}),
    # darts into window-blocked vertices at depth < d - 1
    "Heisenberg_window": (Heisenberg(), ((2, -1, 3), (1, -1, -3)), 6, {"window": 3}),
    "D_inf_r40": (D, ((0, 1), (1, 1)), 40, {}),
    # thin layers of a dozen rows: on element ids past the guard, and in a window
    "D_inf_past_guard": (D, ((2**30, 1), (2**30 + 1, 1)), 40, {}),
    "D_inf_deep_window": (D, ((0, 1), (1, 1)), 80, {"window": 30}),
    "Z3": (FreeAbelian(3), None, 3, {}),
    # element ids: kinds with no coordinates, and coordinates past the guard
    "F2": (FreeGroup(2), ((1,), (2,)), 4, {}),
    "F3_n3": (FreeGroup(3), None, 3, {}),
    "Q8": (FiniteCayley(quaternion_table(), 0), None, 6, {}),
    "Z_mod_3_n3": (FiniteCayley(cyclic_table(3), 0), (1, 0, 0), 8, {}),
    "Z2_guard_root": (FreeAbelian(2), ((2**40 + 1, 2**40), (1, 1)), 3, {}),
    # a modulus past int64, whose residues no int64 coordinate array holds
    "Z2_mod_past_int64": (FiniteAbelianExp(10**30, 2), None, 3, {}),
    # a table whose identity is element 3, not 0, and a window no finite kind can leave
    "S3_relabelled": (FiniteCayley(relabelled_table(dihedral_table(3), [3, 5, 0, 4, 1, 2]), 3), None, 8, {}),
    "Q8_window_0": (FiniteCayley(quaternion_table(), 0), None, 5, {"window": 0}),
}
INTERNED = {"F2_window", "Z_guard_root", "Heisenberg_past_guard", "D_inf_past_guard", "F2", "F3_n3", "Z2_guard_root",
            "Z2_mod_past_int64"}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_ball_matches_per_dart_key_oracle(case):
    group, root, radius, kwargs = case
    root = group.standard_generators() if root is None else root
    fast, slow = ball(group, root, radius, **kwargs), ball_by_keys(group, root, radius, **kwargs)
    got = fragment_lists(fast)
    assert got.keys == slow.keys
    assert got.states == slow.states
    assert got.depths == slow.depths
    assert got.expanded == slow.expanded
    assert got.darts == slow.darts
    assert got.truncated_at == slow.truncated_at
    assert fast.index == {s: v for v, s in enumerate(fast.states)}


def test_the_group_and_the_guard_pick_the_law():
    from nielsen import layers

    for name, (group, root, radius, kwargs) in ORACLE_CASES.items():
        frag = ball(group, group.standard_generators() if root is None else root, radius, **kwargs)
        law = layers._Interned if name in INTERNED else layers._Coordinates
        assert type(frag.law) is law, name
        assert frag.rows.dtype == np.int32 and len(frag.rows) == len(frag), name


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_a_modulus_past_int64_grows_the_ball_of_free_abelian_rank_2(radius):
    # no coordinate of Z^2's ball wraps mod 10^30, so reducing its tuples is
    # an isomorphism onto the ball of (Z/10^30)^2, in another vertex order
    m = 10**30
    big = ball(FiniteAbelianExp(m, 2), ((1, 0), (0, 1)), radius)
    free = ball(FreeAbelian(2), ((1, 0), (0, 1)), radius)
    at = np.array([big.index[tuple(tuple(x % m for x in g) for g in s)] for s in free.states])
    assert len(big) == len(free) and sorted(at.tolist()) == list(range(len(big)))
    assert np.array_equal(big.depths[at], free.depths) and np.array_equal(big.expanded[at], free.expanded)
    assert np.array_equal(big.darts[at], np.where(free.darts < 0, -1, at[free.darts]))


def test_the_interned_law_multiplies_each_distinct_pair_once(monkeypatch):
    # at (a, b) the eight R/L moves make six products: R+:1,2 and L+:2,1 are
    # both a*b, R+:2,1 and L+:1,2 both b*a
    F = FreeGroup(2)
    calls = []
    monkeypatch.setattr(F, "mul", lambda a, b: calls.append((a, b)) or FreeGroup.mul(F, a, b))
    assert len(ball(F, ((1,), (2,)), 1)) == 11
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 6


@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize("group,root", [(Z, (1, 0)), (FreeGroup(2), ((1,), (2,)))], ids=["Z", "F2"])
def test_custom_moves_past_n_are_refused_up_front(group, root, radius):
    with pytest.raises(UsageError, match="move I:3 out of range for tuple length 2"):
        ball(group, root, radius, moves=(R(1, 2), R(1, 2, -1), I(3)))


def test_window_case_has_darts_into_blocked_vertices_two_layers_up():
    group, root, radius, kwargs = ORACLE_CASES["Heisenberg_window"]
    frag = ball(group, root, radius, **kwargs)
    rows = frag.darts[frag.expanded]
    source = frag.depths[frag.expanded][:, None]
    assert ((~frag.expanded[rows]) & (frag.depths[rows] < source - 1)).any()


def test_grow_clamps_its_cap_to_int32_vertex_ids(monkeypatch):
    from nielsen import layers

    caps, bfs = [], layers._bfs
    monkeypatch.setattr(layers, "_bfs", lambda frag, law, cap, only: bfs(frag, law, caps.append(cap) or cap, only))
    sizes = [len(ball(Integers(), (1, 1), 2, cap=cap)) for cap in (2**40, 2**31, 2**31 - 1, 1000)]
    assert caps == [2**31 - 1, 2**31 - 1, 2**31 - 1, 1000]
    assert sizes == [len(ball(Integers(), (1, 1), 2))] * 4


@pytest.mark.parametrize(
    "name",
    ["Z_n2", "Z_n3_window", "D_inf_window", "Heisenberg_window", "Z3", "B23", "F2_window", "FiniteCayley_D4",
     "Z_guard_root"],
)
@pytest.mark.parametrize("chunk", [1, 7])
def test_layers_in_chunks_match_the_oracle(monkeypatch, name, chunk):
    from nielsen import layers

    monkeypatch.setattr(layers, "_CHUNK", chunk)
    paths = _spy_on_paths(monkeypatch)
    group, root, radius, kwargs = ORACLE_CASES[name]
    root = group.standard_generators() if root is None else root
    frag = ball(group, root, radius, **kwargs)
    assert fragment_lists(frag) == ball_by_keys(group, root, radius, **kwargs)
    # the marks of each layer, sorted as one chunk or in packed chunks, are taken as they stand
    text = frag.to_jsonl()
    assert _same_arrays(serialize._marked_import(group, len(root), text),
                        serialize._parsed_import(group, len(root), text))
    # every layer took the packed path, so the oracle has checked it on this case
    assert paths["small"] == 0 and paths["radix"] > 0


def _spy_on_paths(monkeypatch) -> dict:
    """Count the layers that take the one-sort path and the packed path."""
    from nielsen import layers

    paths = {"small": 0, "radix": 0}

    def counted(path, f):
        def spy(*args):
            paths[path] += 1
            return f(*args)

        return spy

    # the packed path, and no other, sorts its new rows with _canonical_order
    monkeypatch.setattr(layers, "_expand_small", counted("small", layers._expand_small))
    monkeypatch.setattr(layers, "_canonical_order", counted("radix", layers._canonical_order))
    return paths


def test_thin_layers_take_one_sort_and_thick_ones_the_packed_path(monkeypatch):
    paths = _spy_on_paths(monkeypatch)
    assert len(ball(Z, (1, 1), 12)) == 9 * 2**11
    # 1, 8, 24, ... rows: the first layers fit one chunk with their known
    # rows and targets, the last ones (up to 9,216 rows) do not
    assert paths["small"] > 0 and paths["radix"] > 0 and paths["small"] + paths["radix"] == 12


def test_the_one_sort_path_takes_the_marks_of_a_thin_export(monkeypatch):
    text = ball(D, ((0, 1), (1, 1)), 40).to_jsonl()
    paths = _spy_on_paths(monkeypatch)
    fast = serialize._marked_import(D, 2, text)
    assert paths["small"] == 40 and paths["radix"] == 0
    assert _same_arrays(fast, serialize._parsed_import(D, 2, text))


@st.composite
def _thin_or_thick_balls(draw):
    """A ball (group, generating root, radius, window) of ``Integers`` at
    n = 2 or 3 or of ``InfiniteDihedral``: a generating tuple of ints below
    or past the guard, moved by a few Nielsen moves, and no window or one
    that holds the root."""
    a = draw(st.integers(-(2**31), 2**31))
    group, root, radius = draw(st.sampled_from([(Z, (a, 1), 4), (Z, (a, 1, 0), 2), (D, ((a, 1), (a + 1, 1)), 30)]))
    for move in draw(st.lists(st.sampled_from(move_set(len(root))), max_size=6)):
        root = apply_move(group, root, move)
    radius = draw(st.integers(0, radius))
    window = draw(st.none() | st.integers(0, 40).map(max(map(group.measure, root)).__add__))
    return group, root, radius, window


@settings(max_examples=60, deadline=None)
@given(_thin_or_thick_balls())
def test_one_sort_and_packed_layers_grow_the_same_ball(case):
    from unittest import mock

    from nielsen import layers

    group, root, radius, window = case
    fast = ball(group, root, radius, window=window)
    with mock.patch.object(layers, "_CHUNK", 1):
        packed = ball(group, root, radius, window=window)
    assert type(fast.law) is type(packed.law) and fast.truncated_at == packed.truncated_at
    # the tuples, not the rows: an interned id is numbered when the law first meets its element
    assert fast.states == packed.states
    for field in ("darts", "depths", "expanded"):
        assert np.array_equal(getattr(fast, field), getattr(packed, field)), field


@given(st.lists(st.integers(-(2**30), 2**30 - 1), min_size=1, max_size=60))
def test_int_ranks_follow_the_byte_order_of_the_encoding(xs):
    from nielsen.layers import int_ranks

    order = np.argsort(int_ranks(np.array(xs, dtype=np.int64)), kind="stable")
    assert [xs[i] for i in order] == sorted(xs, key=encode_int)


def test_validate_rejects_a_corrupted_dart():
    frag = ball(Z, (1, 1), 3)
    frag.validate()
    inner = int(np.flatnonzero(frag.expanded)[1])
    for value, message in ((frag.darts[inner, 0] + 1, "symmetry"), (len(frag), "target"), (-1, "target")):
        bad = ball(Z, (1, 1), 3)
        bad.darts[inner, 0] = value
        with pytest.raises(VerificationError, match=message):
            bad.validate()
    bad = ball(Z, (1, 1), 3)
    bad.darts[-1, 0] = 0
    with pytest.raises(VerificationError, match="unexpanded"):
        bad.validate()


def test_vertex_index_by_tuple():
    frag = ball(Z, (1, 1), 2)
    assert frag.vertex_index([1, 0]) == frag.states.index((1, 0))
    for absent in ((5, 5), ([1], 1)):
        with pytest.raises(UsageError):
            frag.vertex_index(absent)


# ---------------------------------------------------------------------------
# exports


def test_jsonl_round_trip():
    frag = ball(Z, (2, 3), 3)
    clone = fragment_from_jsonl(Z, 2, frag.to_jsonl())
    assert content_equal(frag, clone)
    assert clone.to_jsonl() == frag.to_jsonl()


ROUND_TRIP_CASES = {
    "Z_window": (Z, (1, 1), 4, {"window": 2}),
    "Z5_exhausted": (FiniteCayley(cyclic_table(5), 0), (1, 0), 12, {}),
    "D4_exhausted": (FiniteCayley(dihedral_table(4), 0), None, 12, {}),
    "B23": (BurnsideB23(), None, 3, {}),
    "F2_window": (FreeGroup(2), ((1,), (2,)), 4, {"window": 3}),
    "D_inf": (D, ((0, 1), (1, 1)), 6, {}),
    "Q8": (FiniteCayley(quaternion_table(), 0), None, 2, {}),
    "F2": (FreeGroup(2), ((1,), (2,)), 3, {}),
}


@pytest.mark.parametrize("name", ROUND_TRIP_CASES)
def test_jsonl_import_regrows_the_export(name):
    group, root, radius, kwargs = ROUND_TRIP_CASES[name]
    root = group.standard_generators() if root is None else root
    frag = ball(group, root, radius, **kwargs)
    assert frag.truncated == ("window" in kwargs)
    assert all(frag.expanded) == name.endswith("_exhausted")
    text = frag.to_jsonl()
    clone = fragment_from_jsonl(group, len(root), text)
    assert content_equal(clone, frag) and clone.root == frag.root
    again = fragment_from_jsonl(group, len(root), clone.to_jsonl())
    for f in (clone, again):
        assert f.to_jsonl() == text
        assert (f.radius, f.window, f.truncated_at) == (max(frag.depths), None, None)


WRITER_CASES = {
    **ROUND_TRIP_CASES,
    # entries past the 2^30 guard: the ball grows, and is written, on interned element ids
    "Z_past_guard": (Z, (2**40 + 1, 2**40), 3, {}),
    "Heisenberg_past_guard": (Heisenberg(), ((2**30 + 1, 1, 0), (2**30, 1, 0)), 2, {}),
    "Z_radius_0": (Z, (2, 3), 0, {}),
    "F2_radius_0": (FreeGroup(2), ((1,), (2,)), 0, {}),
    "Heisenberg": (Heisenberg(), ((1, 0, 0), (0, 1, 0)), 3, {}),
    "Z3_1": (FiniteAbelianExp(3, 1), ((1,), (0,)), 4, {}),
}


@pytest.mark.parametrize("name", WRITER_CASES)
def test_writers_match_the_record_oracle(name):
    group, root, radius, kwargs = WRITER_CASES[name]
    root = group.standard_generators() if root is None else root
    frag = ball(group, root, radius, **kwargs)
    assert type(frag.law).__name__ == ("_Interned" if "past_guard" in name or "F2" in name else "_Coordinates")
    text = jsonl_by_records(frag)
    assert "".join(frag.jsonl_lines()) == frag.to_jsonl() == text
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in frag.jsonl_lines())
    assert frag.to_dot() == dot_by_darts(frag)
    assert list(frag.dot_lines()) == frag.to_dot().splitlines(keepends=True)
    # a canonical export is read on its root and marks alone, to the fragment the parsed checks give
    fast = serialize._marked_import(group, len(root), text)
    assert _same_arrays(fast, serialize._parsed_import(group, len(root), text)) and content_equal(fast, frag)


def _reordered(row: dict) -> dict:
    """The record with its fields, and those of its darts, in reverse order."""
    adj = row["adj"] and [dict(reversed(dart.items())) for dart in row["adj"]]
    return {"v": row["v"], "tuple": row["tuple"], "depth": row["depth"], "adj": adj}


@pytest.mark.parametrize("name", ["Z_window", "F2", "B23", "Z_past_guard"])
@pytest.mark.parametrize("dump", [lambda row: json.dumps(_reordered(row)),
                                  lambda row: json.dumps(row, separators=(",", ":")),
                                  lambda row: " " + json.dumps(row, sort_keys=True) + "  \n"],
                         ids=["reordered", "compact", "padded"])
def test_jsonl_import_accepts_other_serializations(name, dump):
    group, root, radius, kwargs = WRITER_CASES[name]
    root = group.standard_generators() if root is None else root
    frag = ball(group, root, radius, **kwargs)
    text = frag.to_jsonl()
    other = "".join(dump(json.loads(line)) + "\n" for line in text.splitlines())
    assert other != text and serialize._marked_import(group, len(root), other) is None
    clone = fragment_from_jsonl(group, len(root), other)
    assert content_equal(clone, frag) and clone.to_jsonl() == text


def test_jsonl_import_names_a_wrong_last_dart():
    frag = ball(Z, (1, 1), 3)
    lines = frag.to_jsonl().splitlines()
    last = max(v for v in range(len(lines)) if frag.expanded[v])
    row = json.loads(lines[last])
    move, to = row["adj"][-1]["move"], row["adj"][-1]["to"]
    wrong = json.loads(lines[0])["v"]
    assert wrong != to
    lines[last] = lines[last].replace(f'"to": "{to}"}}]', f'"to": "{wrong}"}}]')
    message = f"fragment dart {move} of vertex {row['v']} does not lead to vertex {wrong}"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        fragment_from_jsonl(Z, 2, "\n".join(lines) + "\n")


_MUTATED = {
    "Z": (Z, (1, 1), 2, {}),
    "Z_window": (Z, (1, 1), 3, {"window": 2}),
    "F2": (FreeGroup(2), ((1,), (2,)), 1, {}),
    "Z5": (FiniteCayley(cyclic_table(5), 0), (1, 0), 3, {}),
}


def _outcome(read, group, n, text):
    try:
        frag = read(group, n, text)
    except (UsageError, ResourceCapError) as e:
        return type(e).__name__, str(e)
    return fragment_lists(frag), frag.root, frag.radius, frag.truncated_at


@st.composite
def _mutated_exports(draw):
    name = draw(st.sampled_from(sorted(_MUTATED)))
    group, root, radius, kwargs = _MUTATED[name]
    lines = ball(group, root, radius, **kwargs).to_jsonl().splitlines()
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["edit", "swap", "drop", "copy", "compact", "blank"]))
        if kind == "edit":  # replace a span of one line
            line = lines[k]
            i = draw(st.integers(0, len(line)))
            j = draw(st.integers(i, min(len(line), i + 4)))
            lines[k] = line[:i] + draw(st.text('0123456789abcdef-[]{}",: nul', max_size=4)) + line[j:]
        elif kind == "swap":
            h = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[h] = lines[h], lines[k]
        elif kind == "drop" and len(lines) > 1:
            del lines[k]
        elif kind == "copy":
            lines.insert(k, lines[k])
        elif kind == "compact":
            try:
                lines[k] = json.dumps(json.loads(lines[k]), separators=(",", ":"))
            except ValueError:
                pass
        elif kind == "blank":
            lines.insert(k, " ")
    end = draw(st.sampled_from(["\n", "", "\r\n"]))
    return group, len(root), end.join(lines) + end


@settings(max_examples=300, deadline=None)
@given(_mutated_exports())
def test_jsonl_import_matches_the_record_oracle_on_mutated_exports(case):
    # every file is accepted, or refused with the same message, as by the
    # import that parses each line twice and compares record dicts
    group, n, text = case
    assert _outcome(fragment_from_jsonl, group, n, text) == _outcome(fragment_from_jsonl_by_records, group, n, text)


def test_jsonl_import_rejects_lines_out_of_canonical_order():
    lines = ball(Z, (1, 1), 2).to_jsonl().splitlines()
    swapped = [lines[0], lines[2], lines[1]] + lines[3:]  # two depth-1 vertices
    key = json.loads(lines[2])["v"]
    with pytest.raises(UsageError, match=f"line 2: vertex {key} is out of canonical order"):
        fragment_from_jsonl(Z, 2, "\n".join(swapped) + "\n")
    for seed in range(5):
        shuffled = lines[:]
        seeded(seed).shuffle(shuffled)
        assert shuffled != lines
        with pytest.raises(UsageError):
            fragment_from_jsonl(Z, 2, "\n".join(shuffled) + "\n")


def test_jsonl_import_rejects_darts_out_of_move_order():
    rows = [json.loads(line) for line in ball(Z, (1, 1), 2).to_jsonl().splitlines()]
    adj = rows[1]["adj"]
    adj[0], adj[1] = adj[1], adj[0]
    with pytest.raises(UsageError, match=r"line 2: dart \{'move': 'R-:1,2', .*\} stands where move R\+:1,2 belongs"):
        fragment_from_jsonl(Z, 2, "".join(json.dumps(row) + "\n" for row in rows))


def test_jsonl_import_rejects_a_missing_vertex_and_upper_case_keys():
    rows = [json.loads(line) for line in ball(Z, (1, 1), 2).to_jsonl().splitlines()]
    gone = rows.pop(10)
    with pytest.raises(UsageError, match=f"fragment lacks vertex {gone['v']} at distance {gone['depth']}"):
        fragment_from_jsonl(Z, 2, "".join(json.dumps(row) + "\n" for row in rows))
    rows.insert(10, gone)
    loud = next(row for row in rows if row["v"] != row["v"].upper())
    loud["v"] = loud["v"].upper()
    with pytest.raises(UsageError, match=f"vertex {loud['v']} does not encode its tuple"):
        fragment_from_jsonl(Z, 2, "".join(json.dumps(row) + "\n" for row in rows))


def test_jsonl_import_rejects_repeated_tuple():
    lines = ball(Z, (1, 1), 1).to_jsonl().splitlines()
    # a second vertex under a fresh key that repeats the root's tuple
    twin = lines[0].replace('"depth": 0', '"depth": 1').replace('"v": "', '"v": "00')
    with pytest.raises(UsageError, match="share a tuple"):
        fragment_from_jsonl(Z, 2, "\n".join(lines + [twin]) + "\n")


def test_jsonl_import_recomputes_keys():
    text = ball(Z, (1, 1), 2).to_jsonl()
    for old in [json.loads(line)["v"] for line in text.splitlines()]:
        # a fresh key, under which every dart still finds the vertex
        new = "ff" + old
        with pytest.raises(UsageError, match=f"vertex {new} does not encode its tuple"):
            fragment_from_jsonl(Z, 2, text.replace(f'"{old}"', f'"{new}"'))


def test_jsonl_import_checks_depths():
    rows = [json.loads(line) for line in ball(Z, (1, 1), 2).to_jsonl().splitlines()]
    leaf = rows[-1]
    leaf["depth"] = 7
    with pytest.raises(UsageError, match=f"vertex {leaf['v']} has depth 7 but is at distance 2"):
        fragment_from_jsonl(Z, 2, "".join(json.dumps(row) + "\n" for row in rows))
    leaf["depth"] = 2
    # a depth-1 vertex claimed at depth 2
    rows[1]["depth"] = 2
    with pytest.raises(UsageError, match=f"vertex {rows[1]['v']} has depth 2 but is at distance 1"):
        fragment_from_jsonl(Z, 2, "".join(json.dumps(row) + "\n" for row in rows))
    rows[1]["depth"] = 1
    # a well-formed vertex that no dart of an expanded vertex reaches
    stray = (5, 7)
    rows.append({"v": state_key(Z, stray).hex(), "tuple": list(stray), "depth": 3, "adj": None})
    with pytest.raises(UsageError, match=f"vertex {rows[-1]['v']} has depth 3 but is unreachable"):
        fragment_from_jsonl(Z, 2, "".join(json.dumps(row) + "\n" for row in rows))


BALL_IMPORT_CASES = {
    "Z_n2": (Z, (1, 1), 5),
    "Z_n3": (Z, (1, 0, 0), 3),
    "Z2": (FreeAbelian(2), ((1, 0), (0, 1)), 3),
    "Heisenberg": (Heisenberg(), ((1, 0, 0), (0, 1, 0)), 3),
    "F2": (FreeGroup(2), ((1,), (2,)), 3),
    "D_inf": (D, ((0, 1), (1, 1)), 5),
    # the whole component: the last line is expanded, and the ball is grown one layer past it
    "Z5_exhausted": (FiniteCayley(cyclic_table(5), 0), (1, 0), 12),
    "D4": (FiniteCayley(dihedral_table(4), 0), None, 2),
}


def _same_arrays(fast, slow) -> bool:
    """Did the marked import take the file, to the arrays of the parsed import?"""
    return fast is not None and all(
        np.array_equal(getattr(fast, field), getattr(slow, field)) for field in ("rows", "darts", "depths", "expanded")
    )


@pytest.mark.parametrize("name", BALL_IMPORT_CASES)
def test_ball_import_matches_the_canonical_import(name):
    group, root, radius = BALL_IMPORT_CASES[name]
    root = group.standard_generators() if root is None else root
    text = ball(group, root, radius).to_jsonl()
    assert _same_arrays(serialize._marked_import(group, len(root), text),
                        serialize._parsed_import(group, len(root), text))
    assert fragment_from_jsonl(group, len(root), text).to_jsonl() == text


def test_ball_import_falls_back_on_a_late_line():
    lines = ball(Z, (1, 1), 4).to_jsonl().splitlines(keepends=True)
    last = json.loads(lines[-1])
    lines[-1] = lines[-1].replace(f'"v": "{last["v"]}"', f'"v": "ff{last["v"]}"')
    text = "".join(lines)
    assert serialize._marked_import(Z, 2, text) is None
    with pytest.raises(UsageError, match=f"^fragment vertex ff{last['v']} does not encode its tuple$"):
        fragment_from_jsonl(Z, 2, text)
    assert _outcome(fragment_from_jsonl, Z, 2, text) == _outcome(fragment_from_jsonl_by_records, Z, 2, text)


WINDOWED_CASES = {
    "Z": (Z, (1, 1), 8, 5),
    "Z2": (FreeAbelian(2), ((1, 0), (0, 1)), 5, 3),
    "D_inf": (D, ((0, 1), (1, 1)), 8, 4),
    "Heisenberg": (Heisenberg(), ((1, 0, 0), (0, 1, 0)), 4, 2),
    "F2": (FreeGroup(2), ((1,), (2,)), 5, 3),
    "Z_past_guard": (Z, (2**40 + 1, 2**40), 4, 2**40 + 3),
}


@pytest.mark.parametrize("name", WINDOWED_CASES)
def test_marked_import_takes_windowed_exports(name):
    group, root, radius, window = WINDOWED_CASES[name]
    frag = ball(group, root, radius, window=window)
    text = frag.to_jsonl()
    # some layer holds expanded and unexpanded vertices, so its marks need its canonical order
    assert frag.truncated and any(0 < frag.expanded[frag.depths == d].sum() < (frag.depths == d).sum()
                                  for d in range(radius))
    assert type(frag.law).__name__ == ("_Interned" if name in ("F2", "Z_past_guard") else "_Coordinates")
    fast = serialize._marked_import(group, len(root), text)
    assert _same_arrays(fast, serialize._parsed_import(group, len(root), text))
    assert content_equal(fast, fragment_from_jsonl_by_records(group, len(root), text)) and content_equal(fast, frag)
    assert _outcome(fragment_from_jsonl, group, len(root), text) == _outcome(
        fragment_from_jsonl_by_records, group, len(root), text)


def _deep_tail(lines: list[str]) -> str:
    """The root's line and a depth-1 line that claims depth 10^6."""
    return lines[0] + lines[1].replace('"depth": 1,', '"depth": 1000000,')


@pytest.mark.parametrize("cut", [
    lambda lines: "".join(lines)[:-1],  # no trailing newline
    lambda lines: lines[0],  # one line
    _deep_tail,
], ids=["no_newline", "one_line", "deep_tail"])
def test_ball_import_falls_back_without_a_long_bfs(cut):
    text = cut(ball(Z, (1, 1), 6).to_jsonl().splitlines(keepends=True))
    start = time.perf_counter()
    assert serialize._marked_import(Z, 2, text) is None
    got = _outcome(fragment_from_jsonl, Z, 2, text)
    assert time.perf_counter() - start < 1.0
    assert got == _outcome(fragment_from_jsonl_by_records, Z, 2, text)
    assert got[0] != "ResourceCapError"


def test_dot_output_shape():
    frag = ball(Z, (1,), 2)
    dot = frag.to_dot()
    assert dot.startswith("graph nielsen {")
    assert '[label="I:1"]' in dot
    assert '// group: {"kind": "Integers"}' in dot
    assert dot.count(" -- ") == 2  # one line per dart


def test_dot_single_vertex():
    frag = ball(Z, (2, 3), 0)
    dot = frag.to_dot()
    assert dot.count(" -- ") == 0
    assert dot.count("[label=") == 1


# ---------------------------------------------------------------------------
# components of finite groups


def test_components_cyclic5():
    rep = components(FiniteCayley(cyclic_table(5), 0), 1)
    assert rep.sizes == [2, 2]
    sets = [set(rep.members(k)) for k in range(2)]
    assert {frozenset(s) for s in sets} == {frozenset({(1,), (4,)}), frozenset({(2,), (3,)})}


def test_components_elementary_abelian():
    rep = components(FiniteAbelianExp(3, 2), 2)
    assert rep.num_components == 1 and rep.sizes == [48]
    assert rep.generating_count == 48


def test_components_z2():
    rep = components(FiniteCayley(cyclic_table(2), 0), 1)
    assert rep.sizes == [1]
    assert rep.representatives == [(1,)]


def test_components_sizes_sum_to_generating_count():
    for group, n in ((FiniteCayley(cyclic_table(8), 0), 2), (BurnsideB23(), 2)):
        rep = components(group, n)
        direct = 0
        elems = list(group.elements())
        from itertools import product as iproduct

        for t in iproduct(elems, repeat=n):
            if group.is_generating(t):
                direct += 1
        assert sum(rep.sizes) == rep.generating_count == direct


def assert_components_match_oracle(group, n):
    rep = components(group, n)
    count, classes = components_unionfind(group, n)
    assert rep.generating_count == count
    assert rep.sizes == [len(c) for c in classes]
    assert rep.representatives == [c[0] for c in classes]
    assert [rep.members(k) for k in range(rep.num_components)] == classes


def test_components_match_unionfind_oracle():
    cases = [(FiniteCayley(cyclic_table(6), 0), 1), (FiniteCayley(cyclic_table(6), 0), 2)]
    cases += [(g, 2) for g in (FiniteCayley(dihedral_table(3), 0), FiniteCayley(quaternion_table(), 0),
                               BurnsideB23(), FiniteAbelianExp(3, 2))]
    cases += [(FiniteCayley([[0]], 0), 3), (FiniteAbelianExp(4, 2), 2)]
    # from n = 4 on, entries 1 and 3 are not cyclically adjacent: components
    # reaches R(1,3,+) only through a word in its generators
    cases += [(FiniteCayley(dihedral_table(3), 0), 4), (FiniteCayley(cyclic_table(6), 0), 4),
              (FiniteAbelianExp(2, 2), 4)]
    for group, n in cases:
        assert_components_match_oracle(group, n)


SMALL_NONABELIAN = {"S3": dihedral_table(3), "Q8": quaternion_table(), "D4": dihedral_table(4)}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SMALL_NONABELIAN)), st.integers(min_value=1, max_value=3), st.data())
def test_components_match_oracle_on_relabelled_tables(name, n, data):
    # a random numbering of the elements moves the identity off 0 and
    # changes the permutation that each face of each move applies
    table = SMALL_NONABELIAN[name]
    perm = data.draw(st.permutations(range(len(table))))
    relabelled = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            relabelled[perm[a]][perm[b]] = perm[ab]
    assert_components_match_oracle(FiniteCayley(relabelled, perm[0]), n)


def _tensor_cases():
    cases = []
    for name, table in pak_battery():
        group = FiniteCayley(table, 0)
        cases.append((name, group, group.rank() + (group.order - 1).bit_length()))  # criterion 10's n
    cases += [("S3", FiniteCayley(dihedral_table(3), 0), 3), ("Q8", FiniteCayley(quaternion_table(), 0), 3),
              ("B(2,3)", BurnsideB23(), 2), ("B(2,3)", BurnsideB23(), 3), ("Z/9", FiniteAbelianExp(9, 1), 6),
              ("(Z/13)^2", FiniteAbelianExp(13, 2), 2), ("(Z/13)^2", FiniteAbelianExp(13, 2), 1),
              ("Z/13", FiniteAbelianExp(13, 1), 1)]
    return [pytest.param(group, n, id=f"{name}-n{n}") for name, group, n in cases]


@pytest.mark.parametrize("group, n", _tensor_cases())
def test_components_match_the_tensor_oracle(group, n):
    count, sizes, representatives, positions = components_by_tensor(group, n)
    rep = components(group, n)
    assert rep.generating_count == count
    assert rep.sizes == sizes and rep.representatives == representatives
    assert np.array_equal(rep.positions, positions)
    tab = rep.table
    starts = np.cumsum([0, *sizes])
    for k in range(rep.num_components):
        cls = index_tuples(tab, positions[starts[k] : starts[k + 1]], n)
        assert rep.members(k) == [tuple(tab.elements[x] for x in t) for t in cls]


def _generating_count(m: int, d: int, n: int) -> int:
    """Generating n-tuples of (Z/m)^d: a tuple generates iff it spans mod
    each prime p | m, and n vectors span (Z/p)^d with probability
    prod_{i<d} (1 - p^(i-n))."""
    count = m ** (d * n)
    for p in (p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))):
        for i in range(d):
            count = count // p**n * (p**n - p**i)
    return count


def test_components_diaconis_graham_grid():
    # Diaconis-Graham: a generating d-tuple of (Z/m)^d is a matrix in
    # GL_d(Z/m), moves change its determinant only by sign, and the classes
    # are the sets det in {u, -u}: max(phi(m)/2, 1) classes of equal size.
    # One more entry makes N_n connected. Every case whose orbit edges fit
    # the default cap runs: (Z/m)^d has (m^d + gcd(2, m)^d) / 2 inverse pairs.
    checked = 0
    for m in range(2, 10):
        phi = sum(1 for u in range(1, m) if math.gcd(u, m) == 1)
        for d in (1, 2, 3):
            pairs = (m**d + math.gcd(2, m) ** d) // 2
            for n in (d, d + 1):
                if math.comb(pairs + n - 1, n) * 4 * n * (n - 1) > DEFAULT_VERTEX_CAP:
                    continue
                rep = components(FiniteAbelianExp(m, d), n)
                expected = max(phi // 2, 1) if n == d else 1
                assert rep.num_components == expected, (m, d, n)
                assert len(set(rep.sizes)) == 1, (m, d, n)
                assert rep.generating_count == _generating_count(m, d, n), (m, d, n)
                checked += 1
    assert checked == 39


@pytest.mark.parametrize("m, d, n, generating, least", [
    (16, 1, 8, 2**32 - 2**24, ((0,),) * 7 + ((1,),)),
    (5, 2, 6, 244046880, ((0, 0),) * 4 + ((0, 1), (1, 0))),
])
def test_components_past_the_tuple_tensor(m, d, n, generating, least):
    # 2^32 and 5^12 tuples on 12,870 and 18,564 orbits: one class (n > d)
    rep = components(FiniteAbelianExp(m, d), n)
    assert rep.num_components == 1 and rep.sizes == [generating] and rep.representatives == [least]
    assert rep.generating_count == generating == _generating_count(m, d, n)
    assert rep.total_tuples == m ** (d * n)


def test_components_requires_finite_group():
    with pytest.raises(UsageError):
        components(Z, 2)
    # the cap bounds the orbit edges, orbits x 4n(n-1), not the 16^5 tuples
    with pytest.raises(ResourceCapError, match="orbit edges of 1287 orbits x 80 moves exceed cap 1000"):
        components(FiniteCayley(cyclic_table(16), 0), 5, cap=1000)
    with pytest.raises(ResourceCapError, match="15992000 moves per orbit exceed cap"):
        components(FiniteCayley([[0]], 0), 2000)
    # one orbit of the trivial group at n = 70, and Z/3 at n = 40, whose
    # sizes are summed past int64
    rep = components(FiniteCayley([[0]], 0), 70)
    assert rep.sizes == [1] and rep.members(0) == [(0,) * 70] and rep.positions.tolist() == [0]
    rep = components(FiniteAbelianExp(3, 1), 40)
    assert rep.sizes == [3**40 - 1] and rep.total_tuples == 3**40


# ---------------------------------------------------------------------------
# Euclid reduction


def test_euclid_examples():
    assert euclid_reduce((1,)) == ()
    w = euclid_reduce((2, 3))
    assert eval_word(Z, (2, 3), w) == (1, 0)
    w = euclid_reduce((6, 10, 15))
    assert eval_word(Z, (6, 10, 15), w) == (1, 0, 0)
    assert euclid_reduce((-1,)) == (I(1),)


def test_euclid_word_is_capped_before_it_is_built(monkeypatch):
    from nielsen import explore
    from nielsen.groups import DEFAULT_VERTEX_CAP

    # one quotient of cap + 2 moves: refused before any of them is emitted
    with pytest.raises(ResourceCapError, match=f"more than {DEFAULT_VERTEX_CAP} moves"):
        euclid_reduce((DEFAULT_VERTEX_CAP + 2, 1))
    # (k, 1) takes k moves and two more: a word of exactly the cap is allowed
    monkeypatch.setattr(explore, "DEFAULT_VERTEX_CAP", 10)
    assert len(euclid_reduce((8, 1))) == 10
    with pytest.raises(ResourceCapError, match="more than 10 moves"):
        euclid_reduce((9, 1))


def test_euclid_rejects_non_generating():
    with pytest.raises(UsageError):
        euclid_reduce((2, 4))
    with pytest.raises(UsageError):
        euclid_reduce(())


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=-(10**4), max_value=10**4), min_size=2, max_size=4))
def test_euclid_certificate(entries):
    t = tuple(entries)
    if math.gcd(*t) != 1:
        t = t[:-1] + (1,)
    w = euclid_reduce(t)
    assert eval_word(Z, t, w) == (1,) + (0,) * (len(t) - 1)


def test_euclid_certificate_bulk():
    rng = seeded(0xE0C11D)
    for n in (2, 3, 4):
        for _ in range(350):
            t = tuple(rng.randint(-(10**4), 10**4) for _ in range(n))
            if math.gcd(*t) != 1:
                continue
            w = euclid_reduce(t)
            assert eval_word(Z, t, w) == (1,) + (0,) * (n - 1)

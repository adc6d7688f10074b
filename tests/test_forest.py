"""Forest construction in N_n(Z): sign components, edge rules, window checks."""

import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nielsen import forest
from nielsen.cli import main
from nielsen.errors import ResourceCapError, UsageError, VerificationError
from nielsen.forest import (
    ForestSpec,
    component_dot,
    component_dot_lines,
    component_of,
    edge_status,
    kept_out_edges,
    parent_edge,
    pattern_spec,
    verify_forest,
)
from nielsen.groups import Integers
from nielsen.moves import R
import oracles
from oracles import verify_forest_reference


def forest_degree(spec: ForestSpec, state: tuple[int, ...]) -> int:
    """Exact forest degree: one parent edge (off the root) plus kept out-edges."""
    return len(kept_out_edges(spec, state)) + (parent_edge(spec, state) is not None)


def test_component_classification():
    assert component_of((1, 1)) == (frozenset(), frozenset())
    assert component_of((1, 0)) is None
    assert component_of((0, 1)) is None
    assert component_of((-3, 2, 0)) == (frozenset({1}), frozenset({3}))
    assert component_of((0, -1, 0)) is None
    with pytest.raises(UsageError):
        component_of((2, 4))


def test_forest_spec_validation():
    with pytest.raises(UsageError):
        ForestSpec(2, frozenset({1}), frozenset({1}), 10)  # overlap
    with pytest.raises(UsageError):
        ForestSpec(2, frozenset(), frozenset({1}), 10)  # |zero| > n-2
    with pytest.raises(UsageError):
        pattern_spec("+?", 10)
    spec = pattern_spec("-+0", 12)
    assert spec.neg == {1} and spec.zero == {3}
    assert spec.root() == (-1, 1, 0)
    assert spec.pattern() == "-+0"


def test_roots_and_distinguished_pairs():
    assert pattern_spec("++", 10).root() == (1, 1)
    assert pattern_spec("-++", 10).root() == (-1, 1, 1)
    assert pattern_spec("++", 10).distinguished_pair() == (1, 2)
    assert pattern_spec("0++", 10).distinguished_pair() == (2, 3)
    assert pattern_spec("+0+", 10).distinguished_pair() == (1, 3)


def test_distinguished_edges_always_kept():
    spec = pattern_spec("++", 30)
    for v in ((1, 1), (2, 3), (7, 2), (30, 1)):
        assert edge_status(spec, v, 1, 2).in_forest
        assert edge_status(spec, v, 2, 1).in_forest
    spec3 = pattern_spec("+++", 30)
    for v in ((1, 1, 1), (2, 3, 5), (1, 1, 9)):
        assert edge_status(spec3, v, 1, 2).in_forest
        assert edge_status(spec3, v, 2, 1).in_forest


def test_distinct_targets_at_root():
    Z = Integers()
    from nielsen.moves import apply_move

    assert apply_move(Z, (1, 1), R(1, 2, 1)) != apply_move(Z, (1, 1), R(2, 1, 1))


def test_deletion_reasons_hand_cases():
    spec = pattern_spec("+++", 30)
    # target (3,2,1): the (1,2)-edge from (1,2,1) wins; other in-edges lose to it
    assert edge_status(spec, (1, 2, 1), 1, 2).reason == "kept"
    assert edge_status(spec, (2, 2, 1), 1, 3).reason == "dup_of_12"
    assert edge_status(spec, (3, 1, 1), 2, 3).reason == "dup_of_12"
    # target (2,3,1): the (2,1)-edge from (2,1,1) wins
    assert edge_status(spec, (2, 1, 1), 2, 1).reason == "kept"
    assert edge_status(spec, (2, 2, 1), 2, 3).reason == "dup_of_21"
    assert edge_status(spec, (1, 3, 1), 1, 3).reason == "dup_of_21"
    # target (2,2,1): in-edges (1,3) and (2,3) only; lex max (2,3) survives
    assert edge_status(spec, (2, 1, 1), 2, 3).reason == "kept"
    assert edge_status(spec, (1, 2, 1), 1, 3).reason == "lex_loser"


def test_edge_status_errors_and_loops():
    spec = pattern_spec("+0+", 20)
    assert edge_status(spec, (1, 0, 1), 1, 2).reason == "none"  # loop on the zero slot
    with pytest.raises(UsageError):
        edge_status(spec, (1, 0, 1), 2, 1)  # leaves the component
    with pytest.raises(UsageError):
        edge_status(spec, (1, 1, 1), 1, 3)  # vertex not in this component
    with pytest.raises(UsageError):
        edge_status(spec, (1, 0, 1), 1, 1)


def test_parent_and_descent():
    spec = pattern_spec("++", 40)
    assert parent_edge(spec, (1, 1)) is None
    v = (8, 5)
    seen = []
    while True:
        hit = parent_edge(spec, v)
        if hit is None:
            break
        parent, pair = hit
        assert sum(parent) < sum(v)
        seen.append(pair)
        v = parent
    assert v == (1, 1)
    # (8,5) -> (3,5) -> (3,2) -> (1,2) -> (1,1): the subtractive Euclid chain
    assert len(seen) == 4


def test_degrees_on_binary_tree_component():
    # for n = 2 both distinguished edges are always kept: the component is a
    # binary tree, every non-root vertex has degree exactly 3
    spec = pattern_spec("++", 50)
    assert forest_degree(spec, (1, 1)) == 2
    for v in ((2, 1), (5, 3), (13, 50)):
        assert forest_degree(spec, v) == 3
    assert {(e.i, e.j) for e in kept_out_edges(spec, (3, 2))} == {(1, 2), (2, 1)}


def test_negative_component_edges_are_sign_conjugated():
    spec = pattern_spec("-+", 20)
    assert spec.contains((-2, 1))
    assert spec.ambient_move(1, 2) == R(1, 2, -1)
    assert spec.ambient_move(2, 1) == R(2, 1, -1)
    e = edge_status(spec, (-1, 1), 1, 2)
    assert e.in_forest
    # kept edges are realized by ambient moves between component vertices
    from nielsen.moves import apply_move

    tgt = apply_move(Integers(), (-1, 1), spec.ambient_move(1, 2))
    assert tgt == (-2, 1) and spec.contains(tgt)


def test_forest_edges_are_ambient_darts():
    # every kept edge is an R^+ dart of N_n(Z) based at one of its endpoints
    Z = Integers()
    from nielsen.moves import apply_move

    spec = pattern_spec("-+", 20)
    for v in ((-1, 1), (-3, 2), (-2, 5)):
        for e in kept_out_edges(spec, v):
            mv = spec.ambient_move(e.i, e.j)
            tgt = apply_move(Z, v, mv)
            if mv.sign > 0:
                continue  # already an R+ dart at v
            # an R- dart from v is the R+ dart at the target
            assert apply_move(Z, tgt, R(e.i, e.j, 1)) == v


@pytest.mark.parametrize("n,window", [(2, 10), (2, 20), (2, 30), (3, 10), (3, 20), (3, 30)])
def test_verify_forest_windows(n, window):
    rep = verify_forest(n, window)
    assert rep.acyclic and rep.coverage_ok and rep.descent_ok
    assert rep.min_interior_degree >= 3
    assert all(deg >= 2 for deg in rep.root_degrees.values())


def test_verify_forest_component_count():
    rep = verify_forest(3, 6)
    # patterns: 8 with no zeros plus 3 * 4 with one zero
    assert rep.components_checked == 20
    signs = ["".join(p) for p in product("+-", repeat=2)]
    no_zero = [s + t for s in signs for t in "+-"]
    one_zero = [s[:i] + "0" + s[i:] for i in range(3) for s in signs]
    assert len(set(no_zero)) == 8 and len(set(one_zero)) == 12
    assert {p: rep.root_degrees[p] for p in no_zero} == dict.fromkeys(no_zero, 3)
    assert {p: rep.root_degrees[p] for p in one_zero} == dict.fromkeys(one_zero, 2)


def test_verify_forest_rejects_bad_input():
    with pytest.raises(UsageError):
        verify_forest(4, 5)
    with pytest.raises(UsageError):
        verify_forest(2, 1)


def test_forest_interior_sets_have_boundary_at_least_size():
    # a finite set in a forest of min degree 3 (root 2) has |dS| >= |S| + 1
    spec = pattern_spec("++", 60)
    members = [(1, 1)]
    seen = {(1, 1)}
    for _ in range(4):  # forest ball of radius 4
        nxt = []
        for v in members:
            for e in kept_out_edges(spec, v):
                t = v[: e.i - 1] + (v[e.i - 1] + v[e.j - 1],) + v[e.i :]
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        members = nxt
    degsum = sum(forest_degree(spec, v) for v in seen)
    internal = 0
    for v in seen:
        for e in kept_out_edges(spec, v):
            t = v[: e.i - 1] + (v[e.i - 1] + v[e.j - 1],) + v[e.i :]
            if t in seen:
                internal += 1
    boundary = degsum - 2 * internal
    assert Fraction(boundary, len(seen)) >= 1


def test_component_dot_export():
    dot = component_dot(pattern_spec("++", 6))
    assert dot.startswith("graph forest_component {")
    assert "peripheries=2" in dot  # root highlighted
    assert '"1,1"' in dot
    dot_neg = component_dot(pattern_spec("-+", 6))
    assert '"-1,1"' in dot_neg and 'label="R-:1,2"' in dot_neg


def test_component_dot_lines_are_checked_then_streamed():
    for pattern, window in (("++", 6), ("-+0", 5), ("+-", 1)):
        lines = component_dot_lines(pattern_spec(pattern, window))
        text = list(lines)
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in text)
        assert "".join(text) == component_dot(pattern_spec(pattern, window))
    # the window cap is checked when the lines are asked for, not when the first is read
    with pytest.raises(ResourceCapError):
        component_dot_lines(pattern_spec("++", 10**8))


@pytest.mark.parametrize("n,windows", [(2, (1, 2, 7, 40)), (3, (1, 5, 12)), (4, (1, 3))])
def test_component_dot_matches_the_vertex_oracle(n, windows):
    # n=2 at window 40 and n=3 at window 12 read more than one block of rows
    assert 40**2 > forest._ROWS and 12**3 > forest._ROWS
    for pattern in ("".join(p) for p in product("+-0", repeat=n) if p.count("0") <= n - 2):
        for window in windows:
            spec = pattern_spec(pattern, window)
            assert "".join(component_dot_lines(spec)) == oracles.component_dot_by_vertices(spec), (pattern, window)


@pytest.mark.parametrize("pattern,state", [
    ("++", (2**64 + 1, 2**63)),
    ("-+", (-(2**62) - 1, 2**62)),  # entries from 2^62: object rows, as one step passes 2^63
    ("++", (2**62 - 1, 2**62 - 2)),  # the largest int64 rows: a step reaches 2^63 - 3
    ("+++", (2**62 + 1, 2**62 + 1, 2**62)),  # tied, and the step (3, 1) passes 2^63
    ("+-+", (2**70, -(2**70 + 1), 3)),
    ("0+-", (0, 3**45, -(2**64))),
    ("+-0+", (5, -(2**80), 0, 2**80 + 3)),
])
def test_per_vertex_rules_match_the_scalar_oracle(pattern, state):
    spec = pattern_spec(pattern, 1)
    x = spec.to_image(state)
    for i, j in spec.pairs:
        want = oracles._keeper(spec, oracles._step(x, i, j, 1)) == (i, j)
        assert edge_status(spec, state, i, j).in_forest == want, (i, j)
    assert [(e.i, e.j) for e in kept_out_edges(spec, state)] == oracles._kept_pairs(spec, x)
    src, pair = oracles._image_parent(spec, x)
    assert parent_edge(spec, state) == (spec.from_image(src), pair)
    assert parent_edge(spec, spec.root()) is None


def test_component_dot_lines_hold_no_window():
    # the lines come from two ordered walks of the window; 25^3 vertices as
    # tuples, sorted, would take several MiB
    tracemalloc.start()
    try:
        count = sum(1 for _ in component_dot_lines(pattern_spec("+++", 25)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 * 13_297 - 1 + 4  # nodes, tree edges, three header lines and the brace
    assert peak < 1 << 20


def _literal_deletion_oracle(n, zero, window):
    """Re-implement the deletion rules by brute-force scans over sources.

    Sources are scanned over a doubled window so that every edge whose
    source lies in the window is decided by the full collision set of its
    target; returns {(source, i, j): kept} for in-window sources.
    """
    import math as _math
    from itertools import product as _prod

    free = [k for k in range(1, n + 1) if k not in zero]
    i1, j1 = free[0], free[1]

    def vertices(bound):
        out = []
        for vals in _prod(range(1, bound + 1), repeat=len(free)):
            if _math.gcd(*vals) != 1:
                continue
            x = [0] * n
            for k, v in zip(free, vals):
                x[k - 1] = v
            out.append(tuple(x))
        return out

    def target(x, i, j):
        return x[: i - 1] + (x[i - 1] + x[j - 1],) + x[i :]

    wide = vertices(2 * window)
    edges = [(x, i, j) for x in wide for i in free for j in free if i != j]
    by_target = {}
    for x, i, j in edges:
        by_target.setdefault(target(x, i, j), []).append((i, j, x))

    kept = {}
    for x in vertices(window):
        for i in free:
            for j in free:
                if i == j:
                    continue
                z = target(x, i, j)
                pairs_into_z = {(a, b) for a, b, _ in by_target[z]}
                if (i, j) in ((i1, j1), (j1, i1)):
                    kept[(x, i, j)] = True
                elif (i1, j1) in pairs_into_z or (j1, i1) in pairs_into_z:
                    kept[(x, i, j)] = False
                else:
                    kept[(x, i, j)] = (i, j) == max(pairs_into_z)
    return kept


@pytest.mark.parametrize("n,zero,window", [(2, frozenset(), 12), (3, frozenset(), 6), (3, frozenset({2}), 10)])
def test_edge_rules_match_literal_oracle(n, zero, window):
    spec = ForestSpec(n=n, neg=frozenset(), zero=zero, window=window)
    oracle = _literal_deletion_oracle(n, zero, window)
    for (src, i, j), expect in oracle.items():
        assert edge_status(spec, src, i, j).in_forest == expect, (src, i, j)


# sha256 of stdout recorded before the forest became one parent map
GOLDEN_FOREST = {
    ("verify", "--n", "2", "--window", "30"):
        "d3835ad0f9204d1d7b4b5a3f7438b729e831d9b813f1721fbd6b06fdb061dc95",
    ("verify", "--n", "3", "--window", "12"):
        "66b7a16d879840a5cec57c258e9d4b96ba0be31e9cc64d82bb98ac2c9b4be19b",
    ("--n", "2", "--window", "12", "--pattern=++"):
        "7441c61316cb72ab965425542ea8b698f4c4e3537c8670e2c66d4352abf09e6f",
    ("--n", "3", "--window", "9", "--pattern=+-0"):
        "b8849a866dc2ff2c3a2dbe1118b8e137b0aea8dfee5d407d708bb616891019a0",
    ("--n", "3", "--window", "6", "--pattern=-++"):
        "e1bf5695f2090e8a5fb2df4b8b888c0b61e99b08962ab3fc1443fc9ec5434e80",
    ("--n", "3", "--window", "14", "--pattern=+++"):
        "9fef314bfdbc327cb6b799856a13c22eb7fda9f85d46e3dfc2b7427d70a99f7d",
}


@pytest.mark.parametrize("args", GOLDEN_FOREST, ids=" ".join)
def test_golden_forest_outputs(capsys, args):
    assert main(["forest", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FOREST[args]


@pytest.mark.parametrize(
    "n,window", [(2, 2), (2, 3), (2, 5), (2, 12), (2, 40), (2, 100), (3, 2), (3, 3), (3, 6), (3, 12)]
)
def test_verify_forest_matches_reference(n, window):
    assert verify_forest(n, window).to_json() == verify_forest_reference(n, window).to_json()


def test_blocked_coverage_scan_matches_reference():
    # at n=3 window 20 the coverage scan runs in two blocks of first coordinates
    assert (2 * 20 + 1) ** 3 > 1 << 16
    assert verify_forest(3, 20).to_json() == verify_forest_reference(3, 20).to_json()


@pytest.mark.parametrize(
    "child,parent,acyclic",
    [
        ((2, 1), (2, 3), False),  # (2,3) is the true child of (2,1): a 2-cycle
        ((3, 1), (1, 3), True),  # equal coordinate sums, still a tree
    ],
)
def test_verify_forest_on_patched_parents(monkeypatch, child, parent, acyclic):
    real, real_rows = oracles._image_parent, forest._image_parents

    def patched(spec, z):
        hit = real(spec, z)
        return (parent, hit[1]) if z == child else hit

    def patched_rows(spec, rows):
        parents, keep = real_rows(spec, rows)
        parents[(rows == child).all(axis=1)] = parent
        return parents, keep

    monkeypatch.setattr(oracles, "_image_parent", patched)
    monkeypatch.setattr(forest, "_image_parents", patched_rows)
    rep = verify_forest(2, 5)
    assert rep.acyclic is acyclic and rep.descent_ok is False
    assert rep.to_json() == verify_forest_reference(2, 5).to_json()


def test_forest_pattern_window_is_capped(capsys):
    start = time.perf_counter()
    code = main(["forest", "--n", "2", "--window", "100000000", "--pattern", "++"])
    err = capsys.readouterr().err
    assert code == 3 and "exceeds cap" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


def _keeper_rows(n, zero, window):
    """Positive window rows of one zero set, their one-step targets (past
    the window) and rows whose distinguished coordinates tie."""
    spec = ForestSpec(n=n, neg=frozenset(), zero=zero, window=window)
    free = [k - 1 for k in spec.free]
    grid = np.indices((window,) * len(free)).reshape(len(free), -1).T + 1
    rows = np.zeros((len(grid), n), dtype=np.int32)
    rows[:, free] = grid
    rows = rows[np.gcd.reduce(rows, axis=1) == 1]
    steps = []
    for i, j in spec.pairs:
        stepped = rows.copy()
        stepped[:, i - 1] += rows[:, j - 1]
        steps.append(stepped)
    i1, j1 = spec.distinguished_pair()
    tied = rows.copy()
    tied[:, j1 - 1] = tied[:, i1 - 1]
    return spec, np.concatenate([rows, *steps, tied])


@pytest.mark.parametrize("n,zero", [(n, zero) for n in (2, 3) for zero in forest._zero_sets(n)])
def test_array_keeper_matches_scalar_keeper(n, zero):
    spec, rows = _keeper_rows(n, zero, 9)
    keep = forest._keepers(spec, rows)
    assert (keep == -1).any() and (keep >= 0).any()
    for row, k in zip(rows.tolist(), keep.tolist()):
        assert oracles._keeper(spec, tuple(row)) == (None if k < 0 else spec.pairs[k]), row


def _patch_parent_rule(monkeypatch, case):
    """Patch the scalar parent rule of the reference and the array rule of
    ``verify_forest`` together at one vertex of N_2(Z)'s one zero set."""
    real, real_rows = oracles._image_parent, forest._image_parents
    at = {"root": (1, 1), "orphan": (2, 1), "escape": (3, 2)}[case]

    def patched(spec, z):
        hit = real(spec, z)
        if z != at:
            return hit
        if case == "root":
            return (1, 0), (1, 2)
        return None if case == "orphan" else ((spec.window + 1, 1), hit[1])

    def patched_rows(spec, rows):
        parents, keep = real_rows(spec, rows)
        hit = (rows == at).all(axis=1)
        if case == "root":
            parents[hit], keep[hit] = (1, 0), 0
        elif case == "orphan":
            keep[hit] = -1
        else:
            parents[hit] = (spec.window + 1, 1)
        return parents, keep

    monkeypatch.setattr(oracles, "_image_parent", patched)
    monkeypatch.setattr(forest, "_image_parents", patched_rows)


@pytest.mark.parametrize("case", ["root", "orphan", "escape"])
def test_verify_forest_errors_match_reference(monkeypatch, case):
    _patch_parent_rule(monkeypatch, case)
    with pytest.raises(Exception) as got:
        verify_forest(2, 5)
    with pytest.raises(Exception) as want:
        verify_forest_reference(2, 5)
    assert type(got.value) is type(want.value) is VerificationError
    assert str(got.value) == str(want.value)

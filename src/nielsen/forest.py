"""Rooted spanning subforests of the integer Nielsen graphs N_n(Z), n >= 2.

The forest is a disjoint union of trees, one per sign pattern: a component
is indexed by disjoint sets ``neg`` (coordinates forced negative) and
``zero`` (coordinates forced zero, at most n-2 of them), all remaining
coordinates positive. Its vertices are the gcd-1 tuples with that sign
pattern; the only excluded generating tuples are the 2n signed standard
basis vectors. Negating the ``neg`` coordinates maps a component onto the
all-positive component with the same zero set, so edge rules are stated on
that positive image and transported back through the bijection.

In the positive image the candidate edges at a vertex are the addition
moves x_i <- x_i + x_j with i, j outside the zero set (j in the zero set
gives a loop, i in the zero set leaves the component). An edge INTO a
vertex z exists for each ordered pair (i, j) with z_i > z_j; the deletion
rules keep exactly one of them:

* the distinguished pair (i1, j1) -- the lexicographically least ordered
  pair avoiding the zero set -- and its transpose (j1, i1) are always kept;
* any other edge into z is deleted when a (i1, j1)- or (j1, i1)-edge into z
  exists (reasons ``dup_of_12`` / ``dup_of_21``);
* otherwise the lexicographically largest (i, j) into z survives and the
  rest are deleted (reason ``lex_loser``). Two distinct edges into z never
  share (i, j), so the source never has to break ties.

The kept edges therefore form a parent map: each non-root vertex has exactly
one parent (``parent_edge``), and the root has none. The rule is stated once,
on arrays of image rows (``_keepers``, ``_image_parents``): ``verify_forest``
and ``component_dot_lines`` apply it to a window's rows, the per-vertex
functions to one-row arrays; ``tests/oracles.py`` states it on one tuple.

Since every in-edge source of an in-window target is itself in-window, all
decisions here are exact, never approximations; in particular the forest
degree of every in-window vertex is exactly computable even when some kept
edges point outside the window.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ResourceCapError, UsageError, VerificationError, count_text
from .groups import _fold
from .moves import Move, R

Reason = str  # 'kept' | 'dup_of_12' | 'dup_of_21' | 'lex_loser' | 'none'

# bound on the tuples one window scan (verify_forest, component_dot_lines) enumerates
STATE_CAP = 2_000_000
# flat window positions that one block of component_dot_lines holds
_ROWS = 1 << 9


@dataclass(frozen=True)
class ForestSpec:
    """One component: sign pattern (1-based coordinate sets) plus a window."""

    n: int
    neg: frozenset[int]
    zero: frozenset[int]
    window: int

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("forest components need n >= 2")
        coords = set(range(1, self.n + 1))
        if not (set(self.neg) <= coords and set(self.zero) <= coords):
            raise UsageError("neg/zero sets must contain coordinates in 1..n")
        if self.neg & self.zero:
            raise UsageError("neg and zero sets must be disjoint")
        if len(self.zero) > self.n - 2:
            raise UsageError(f"at most n-2 = {self.n - 2} zero coordinates allowed")
        if self.window < 1:
            raise UsageError("window must be >= 1")

    def pattern(self) -> str:
        return "".join("-" if k in self.neg else "0" if k in self.zero else "+" for k in range(1, self.n + 1))

    def root(self) -> tuple[int, ...]:
        return tuple(-1 if k in self.neg else 0 if k in self.zero else 1 for k in range(1, self.n + 1))

    @cached_property
    def free(self) -> tuple[int, ...]:
        """Coordinates outside the zero set, increasing."""
        return tuple(k for k in range(1, self.n + 1) if k not in self.zero)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Ordered pairs (i, j) of distinct free coordinates, lexicographic."""
        return tuple((i, j) for i in self.free for j in self.free if i != j)

    def distinguished_pair(self) -> tuple[int, int]:
        return self.free[:2]

    def to_image(self, state: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-x if k + 1 in self.neg else x for k, x in enumerate(state))

    from_image = to_image  # negation is an involution

    def contains(self, state: tuple[int, ...]) -> bool:
        """gcd 1 and the root's signs."""
        return math.gcd(*state) == 1 and tuple((x > 0) - (x < 0) for x in state) == self.root()

    def ambient_move(self, i: int, j: int) -> Move:
        """The N_n(Z) move realizing image edge (i, j) on real coordinates."""
        sign = 1 if ((i in self.neg) == (j in self.neg)) else -1
        return R(i, j, sign)


def pattern_spec(pattern: str, window: int) -> ForestSpec:
    """Parse a sign pattern like '+-0' into a ForestSpec."""
    if not pattern or any(c not in "+-0" for c in pattern):
        raise UsageError(f"pattern {pattern!r} must consist of '+', '-', '0'")
    neg = frozenset(k for k, c in enumerate(pattern, start=1) if c == "-")
    zero = frozenset(k for k, c in enumerate(pattern, start=1) if c == "0")
    return ForestSpec(n=len(pattern), neg=neg, zero=zero, window=window)


def component_of(state: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int]] | None:
    """Sign pattern (neg, zero) of a gcd-1 tuple; None for the excluded
    signed standard basis vectors."""
    n = len(state)
    if n == 0:
        raise UsageError("component_of requires a nonempty tuple")
    for x in state:
        if not isinstance(x, int) or isinstance(x, bool):
            raise UsageError("component_of operates on integer tuples")
    if math.gcd(*state) != 1:
        raise UsageError(f"gcd of {state!r} is not 1: not a vertex of N_n(Z)")
    neg = frozenset(k for k, x in enumerate(state, start=1) if x < 0)
    zero = frozenset(k for k, x in enumerate(state, start=1) if x == 0)
    if len(zero) > n - 2:
        return None
    return neg, zero


@dataclass(frozen=True)
class ForestEdge:
    source: tuple[int, ...]  # real coordinates
    i: int
    j: int
    in_forest: bool
    reason: Reason


def _stepped(rows: np.ndarray, i: int, j: int) -> np.ndarray:
    """A copy of the (N, n) image rows with x_i <- x_i + x_j (1-based i, j)."""
    out = rows.copy()
    out[:, i - 1] += rows[:, j - 1]
    return out


def _keepers(spec: ForestSpec, rows: np.ndarray) -> np.ndarray:
    """The one in-edge the rules keep at every row of an (N, n) image array,
    as an index into ``spec.pairs``, or -1 at a root: the distinguished
    pair's larger side where its coordinates differ, else the last pair with
    z_i > z_j. ``tests/oracles.py`` states this rule on one tuple."""
    pairs = spec.pairs
    i1, j1 = spec.distinguished_pair()
    gap = rows[:, i1 - 1] - rows[:, j1 - 1]
    keep = np.where(gap > 0, pairs.index((i1, j1)), pairs.index((j1, i1))).astype(np.int32)
    tie = np.flatnonzero(gap == 0)
    tied, best = rows[tie], np.full(len(tie), -1, dtype=np.int32)
    for p, (i, j) in enumerate(pairs):
        best[tied[:, i - 1] > tied[:, j - 1]] = p
    keep[tie] = best
    return keep


def _image_parents(spec: ForestSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parent of every row: (parent rows, ``_keepers``); a row with no
    kept in-edge is its own parent."""
    keep = _keepers(spec, rows)
    ij = np.array(spec.pairs, dtype=np.intp) - 1
    has = np.flatnonzero(keep >= 0)
    parents = rows.copy()
    parents[has, ij[keep[has], 0]] -= rows[has, ij[keep[has], 1]]
    return parents, keep


def _image_row(spec: ForestSpec, state: tuple[int, ...]) -> np.ndarray:
    """The positive image of a real vertex as a one-row array: int64, or
    object once an entry reaches 2^62, where one step could leave int64."""
    if not spec.contains(state):
        raise UsageError(f"{state!r} is not a vertex of component {spec.pattern()}")
    x = spec.to_image(state)
    return np.array([x], dtype=np.int64 if max(x) < 1 << 62 else object)


def edge_status(spec: ForestSpec, source: tuple[int, ...], i: int, j: int) -> ForestEdge:
    """Kept/deleted status of the candidate image edge (i, j) at a real vertex.

    ``(i, j)`` is stated on the positive image; ``spec.ambient_move(i, j)``
    names the corresponding N_n(Z) move on real coordinates.
    """
    if not (1 <= i <= spec.n and 1 <= j <= spec.n) or i == j:
        raise UsageError(f"edge indices ({i},{j}) invalid for n={spec.n}")
    x = _image_row(spec, source)
    if j in spec.zero:
        # x_i <- x_i + 0 fixes the tuple: a loop, structurally excluded
        return ForestEdge(source, i, j, False, "none")
    if i in spec.zero:
        raise UsageError(
            f"edge ({i},{j}) leaves component {spec.pattern()}: endpoints lie in different components"
        )
    keep = spec.pairs[_keepers(spec, _stepped(x, i, j))[0]]  # a target is never the root
    i1, j1 = spec.distinguished_pair()
    reason = "kept" if keep == (i, j) else {(i1, j1): "dup_of_12", (j1, i1): "dup_of_21"}.get(keep, "lex_loser")
    return ForestEdge(source, i, j, reason == "kept", reason)


def parent_edge(spec: ForestSpec, state: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]] | None:
    """Kept in-edge of a real vertex: (parent real tuple, image (i, j)); None at the root."""
    parents, keep = _image_parents(spec, _image_row(spec, state))
    return None if keep[0] < 0 else (spec.from_image(tuple(parents[0].tolist())), spec.pairs[keep[0]])


def kept_out_edges(spec: ForestSpec, state: tuple[int, ...]) -> list[ForestEdge]:
    """All kept forest edges out of a real vertex (targets may exceed the window)."""
    x = _image_row(spec, state)
    keep = _keepers(spec, np.concatenate([_stepped(x, i, j) for i, j in spec.pairs]))
    return [ForestEdge(state, i, j, True, "kept") for p, (i, j) in enumerate(spec.pairs) if keep[p] == p]


@dataclass
class ForestReport:
    n: int
    window: int
    acyclic: bool
    coverage_ok: bool
    descent_ok: bool
    min_interior_degree: int | None
    root_degrees: dict[str, int]
    components_checked: int
    vertices_checked: int

    def to_json(self) -> dict:
        return {**asdict(self), "root_degrees": dict(sorted(self.root_degrees.items()))}


def _zero_sets(n: int):
    coords = list(range(1, n + 1))
    for size in range(0, n - 1):
        yield from (frozenset(c) for c in combinations(coords, size))


def _grid_blocks(low: np.ndarray, sizes: tuple[int, ...], block: int):
    """The gcd-1 rows ``low + d`` over the digit rows d < ``sizes`` in increasing
    order, as int32 arrays (callers cap the grid), one per ``block`` positions."""
    size = math.prod(sizes)
    for start in range(0, size, block):
        rest = np.arange(start, min(start + block, size), dtype=np.int32)
        rows = np.empty((len(rest), len(sizes)), dtype=np.int32)
        for k in reversed(range(len(sizes))):  # the last coordinate varies fastest
            rest, rows[:, k] = np.divmod(rest, sizes[k])
        rows += low
        yield rows[_fold(np.gcd, rows) == 1]


def verify_forest(n: int, window: int) -> ForestReport:
    """Exhaustive window verification of the forest construction.

    Over all vertices with max |coordinate| <= window this checks, per
    component: (a) the kept-edge graph is acyclic, (b) every non-root vertex
    has forest degree >= 3 and the root has none of its in-edges kept,
    (c) every gcd-1 tuple in the window belongs to a component or is a
    signed standard basis vector, (d) every parent step stays in the window
    and strictly decreases the coordinate sum.

    Edge rules depend only on the zero set, and sign components are carried
    onto the all-positive image by construction, so (a), (b), (d) are
    verified once per zero set on one int32 array of image vertices in
    increasing tuple order, root first: one ``_image_parents`` call, one
    ``_keepers`` call per move for the degrees. The kept edges form one
    parent map, so an undirected cycle of kept edges is a directed parent
    cycle: with the root its own parent, (a) holds iff ceil(log2 V)
    squarings of the parent indices send every row to the root. (c) scans
    [-w, w]^n in blocks of 2^16 tuples, so memory stays bounded. A failed
    check names the first offending vertex in (zero set, tuple) order.
    """
    if n not in (2, 3):
        raise UsageError("verify_forest supports n in {2, 3}")
    if window < 2:
        raise UsageError("window too small to contain any interior vertex; need window >= 2")
    if (2 * window + 1) ** n > STATE_CAP:
        raise ResourceCapError(f"window scan of {count_text((2 * window + 1) ** n)} states exceeds cap {STATE_CAP}")

    acyclic = descent_ok = True
    interior: list[int] = []
    vertices_checked = 0
    per_zero_root_degree: dict[frozenset[int], int] = {}
    for zero in _zero_sets(n):
        spec = ForestSpec(n=n, neg=frozenset(), zero=zero, window=window)
        free = [k - 1 for k in spec.free]
        shape = (window,) * len(free)
        grid = np.indices(shape, dtype=np.int32).reshape(len(free), -1).T + 1
        inside = _fold(np.gcd, grid) == 1
        index = np.cumsum(inside, dtype=np.int32) - 1  # gcd-1 grid position -> row
        rows = np.zeros((index[-1] + 1, n), dtype=np.int32)
        rows[:, free] = grid[inside]

        parents, keep = _image_parents(spec, rows)  # rows[0] is the root (all free coordinates 1)
        owned = ((_fold(np.gcd, parents) == 1) & (_fold(np.maximum, parents) <= window)
                 & _fold(np.logical_and, np.sign(parents) == np.sign(rows[0])))
        bad = np.flatnonzero(np.append(keep[0] >= 0, (keep[1:] < 0) | ~owned[1:]))
        if len(bad):
            v = tuple(rows[bad[0]].tolist())
            raise VerificationError(f"root {v} of {spec.pattern()} has a kept in-edge" if bad[0] == 0 else
                                    f"non-root {v} in {spec.pattern()} has no kept in-edge" if keep[bad[0]] < 0 else
                                    "in-window vertex with out-of-window parent")
        if (_fold(np.add, parents[1:], np.int64) >= _fold(np.add, rows[1:], np.int64)).any():
            descent_ok = False

        degree = np.zeros(len(rows), dtype=np.int32)
        for p, (i, j) in enumerate(spec.pairs):
            degree += _keepers(spec, _stepped(rows, i, j)) == p
        per_zero_root_degree[zero] = int(degree[0])
        interior.append(int(degree[1:].min()) + 1)  # window >= 2 holds a non-root
        vertices_checked += len(rows)

        up = index[np.ravel_multi_index(tuple((parents[:, free] - 1).T), shape)]
        for _ in range((len(rows) - 1).bit_length()):
            up = up[up]
        acyclic &= bool((up == 0).all())

    # coverage over real tuples in the window, a block at a time
    coverage_ok = True
    present = np.zeros(3**n, dtype=bool)  # by sign code: base 3, digit k the sign of x_k plus 1
    for x in _grid_blocks(np.full(n, -window), (2 * window + 1,) * n, 1 << 16):
        excluded = _fold(np.add, x == 0, np.int64) > n - 2  # component_of gives None
        if (excluded != (_fold(np.add, np.abs(x), np.int64) == 1)).any():
            coverage_ok = False
        code = np.zeros(len(x), dtype=np.int32)
        for k in reversed(range(n)):
            code = code * 3 + np.sign(x[:, k]) + 1
        present[code[~excluded]] = True
    seen = [pattern_spec("".join("-0+"[c // 3**k % 3] for k in range(n)), window)
            for c in np.flatnonzero(present).tolist()]
    seen.sort(key=lambda spec: (sorted(spec.zero), sorted(spec.neg)))

    return ForestReport(
        n=n,
        window=window,
        acyclic=acyclic,
        coverage_ok=coverage_ok,
        descent_ok=descent_ok,
        min_interior_degree=min(interior),
        root_degrees={spec.pattern(): per_zero_root_degree[spec.zero] for spec in seen},
        components_checked=len(seen),
        vertices_checked=vertices_checked,
    )


def component_dot_lines(spec: ForestSpec):
    """DOT rendering of one component restricted to the window, root doubled,
    as an iterator of lines.

    The edges drawn are the parent edges of the window's non-root vertices:
    a parent has no larger coordinates, so it is in the window too. The cap
    is checked before the iterator is returned. The window is then walked
    twice in increasing order, ``_ROWS`` flat positions at a time: once for
    the nodes, and once for the kept out-edges, one ``_keepers`` call on
    a block's rows stepped by every pair, in (vertex, lexicographic pair)
    order. Lines are joined from one text per coordinate value, so no more
    than a block is held.
    """
    from . import __version__
    from .serialize import _join_rows  # imported here, so that ``import nielsen`` does not compile it

    w, pairs = spec.window, spec.pairs
    states = w ** len(spec.free)
    if states > STATE_CAP:
        raise ResourceCapError(f"window scan of {count_text(states)} states exceeds cap {STATE_CAP}")
    texts = np.array([str(x) for x in range(-w, w + 1)], dtype=object)  # of value x at x + w
    labels = np.array([f'" [label="{spec.ambient_move(i, j).text()}"];\n' for i, j in pairs], dtype=object)
    ij, at = np.array(pairs, dtype=np.intp) - 1, np.arange(len(pairs))
    signs = np.array(spec.root(), dtype=np.int32)

    def joined(rows: np.ndarray, sep: str) -> list:
        """The parts of each row's coordinate texts joined by ``sep``."""
        parts = [sep] * (2 * spec.n - 1)
        parts[::2] = texts[(rows + w).T]
        return parts

    low = np.where(signs < 0, -w, signs)  # the window's ranges: -w..-1 on neg, 0 on zero, 1..w elsewhere
    sizes = tuple(1 if k in spec.zero else w for k in range(1, spec.n + 1))

    def lines():
        yield "graph forest_component {\n"
        yield f"  // pattern: {spec.pattern()}, window: {spec.window}, n: {spec.n}\n"
        yield f"  // tool: nielsen {__version__}\n"
        for rows in _grid_blocks(low, sizes, _ROWS):
            ends = np.full(len(rows), ')"];\n', dtype=object)
            ends[(rows == signs).all(axis=1)] = ')", peripheries=2];\n'
            yield from _join_rows(['  "', *joined(rows, ","), '" [label="(', *joined(rows, ", "), ends])
        for rows in _grid_blocks(low, sizes, _ROWS):
            img = np.abs(rows)  # the positive image: the neg coordinates negated
            z = np.stack([_stepped(img, i, j) for i, j in pairs])  # (pair, row, coordinate)
            keep = _keepers(spec, z.reshape(-1, spec.n)).reshape(len(pairs), -1)
            kept = (z[at, :, ij[:, 0]] <= w) & (keep == at[:, None])
            v, p = np.nonzero(kept.T)  # in (vertex, lexicographic pair) order
            targets = rows[v]
            targets[np.arange(len(v)), ij[p, 0]] += signs[ij[p, 0]] * img[v, ij[p, 1]]
            yield from _join_rows(['  "', *joined(rows[v], ","), '" -- "', *joined(targets, ","), labels[p]])
        yield "}\n"

    return lines()


def component_dot(spec: ForestSpec) -> str:
    """The text of ``component_dot_lines``."""
    return "".join(component_dot_lines(spec))

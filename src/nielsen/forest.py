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
one parent (``parent_edge``), and the root has none.

Since every in-edge source of an in-window target is itself in-window, all
decisions here are exact, never approximations; in particular the forest
degree of every in-window vertex is exactly computable even when some kept
edges point outside the window.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import combinations, product as iproduct

from .errors import ResourceCapError, UsageError, VerificationError, count_text
from .moves import Move, R

Reason = str  # 'kept' | 'dup_of_12' | 'dup_of_21' | 'lex_loser' | 'none'

# bound on the tuples one window scan (verify_forest, component_dot) enumerates
STATE_CAP = 2_000_000


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


def _step(x: tuple[int, ...], i: int, j: int, sign: int) -> tuple[int, ...]:
    """x with x_i <- x_i + sign * x_j (1-based i, j)."""
    return x[: i - 1] + (x[i - 1] + sign * x[j - 1],) + x[i:]


def _keeper(spec: ForestSpec, z_img: tuple[int, ...]) -> tuple[int, int] | None:
    """The one in-edge of an image vertex that the rules keep, or None at a root."""
    ins = [(i, j) for i in spec.free for j in spec.free if z_img[i - 1] > z_img[j - 1]]
    if not ins:
        return None
    i1, j1 = spec.distinguished_pair()
    if (i1, j1) in ins:
        return (i1, j1)
    if (j1, i1) in ins:
        return (j1, i1)
    return max(ins)


def _kept_pairs(spec: ForestSpec, x_img: tuple[int, ...]) -> list[tuple[int, int]]:
    """Image pairs (i, j) whose out-edge x_i <- x_i + x_j at x_img is kept."""
    return [
        (i, j)
        for i in spec.free
        for j in spec.free
        if i != j and _keeper(spec, _step(x_img, i, j, 1)) == (i, j)
    ]


def _image_of(spec: ForestSpec, state: tuple[int, ...]) -> tuple[int, ...]:
    if not spec.contains(state):
        raise UsageError(f"{state!r} is not a vertex of component {spec.pattern()}")
    return spec.to_image(state)


def edge_status(spec: ForestSpec, source: tuple[int, ...], i: int, j: int) -> ForestEdge:
    """Kept/deleted status of the candidate image edge (i, j) at a real vertex.

    ``(i, j)`` is stated on the positive image; ``spec.ambient_move(i, j)``
    names the corresponding N_n(Z) move on real coordinates.
    """
    if not (1 <= i <= spec.n and 1 <= j <= spec.n) or i == j:
        raise UsageError(f"edge indices ({i},{j}) invalid for n={spec.n}")
    x = _image_of(spec, source)
    if j in spec.zero:
        # x_i <- x_i + 0 fixes the tuple: a loop, structurally excluded
        return ForestEdge(source, i, j, False, "none")
    if i in spec.zero:
        raise UsageError(
            f"edge ({i},{j}) leaves component {spec.pattern()}: endpoints lie in different components"
        )
    keep = _keeper(spec, _step(x, i, j, 1))
    if keep == (i, j):
        return ForestEdge(source, i, j, True, "kept")
    i1, j1 = spec.distinguished_pair()
    if keep == (i1, j1):
        return ForestEdge(source, i, j, False, "dup_of_12")
    if keep == (j1, i1):
        return ForestEdge(source, i, j, False, "dup_of_21")
    return ForestEdge(source, i, j, False, "lex_loser")


def _image_parent(spec: ForestSpec, z_img: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]] | None:
    keep = _keeper(spec, z_img)
    if keep is None:
        return None
    return _step(z_img, *keep, -1), keep


def parent_edge(spec: ForestSpec, state: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]] | None:
    """Kept in-edge of a real vertex: (parent real tuple, image (i, j)); None at the root."""
    hit = _image_parent(spec, _image_of(spec, state))
    if hit is None:
        return None
    src, pair = hit
    return spec.from_image(src), pair


def kept_out_edges(spec: ForestSpec, state: tuple[int, ...]) -> list[ForestEdge]:
    """All kept forest edges out of a real vertex (targets may exceed the window)."""
    return [ForestEdge(state, i, j, True, "kept") for i, j in _kept_pairs(spec, _image_of(spec, state))]


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


def _image_vertices(spec: ForestSpec):
    """Positive-image vertices of the spec's zero set inside its window."""
    for vals in iproduct(range(1, spec.window + 1), repeat=len(spec.free)):
        if math.gcd(*vals) != 1:
            continue
        x = [0] * spec.n
        for k, v in zip(spec.free, vals):
            x[k - 1] = v
        yield tuple(x)


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
    verified once per zero set on image vertices. The kept edges there form
    one parent map (each non-root keeps exactly one in-edge), so an
    undirected cycle of kept edges is a directed parent cycle: (a) is one
    memoized walk along parents.
    """
    if n not in (2, 3):
        raise UsageError("verify_forest supports n in {2, 3}")
    if window < 2:
        raise UsageError("window too small to contain any interior vertex; need window >= 2")
    if (2 * window + 1) ** n > STATE_CAP:
        raise ResourceCapError(f"window scan of {count_text((2 * window + 1) ** n)} states exceeds cap {STATE_CAP}")

    acyclic = True
    descent_ok = True
    min_interior: int | None = None
    vertices_checked = 0

    per_zero_root_degree: dict[frozenset[int], int] = {}
    for zero in _zero_sets(n):
        spec = ForestSpec(n=n, neg=frozenset(), zero=zero, window=window)
        root = spec.root()
        parent: dict[tuple[int, ...], tuple[int, ...] | None] = {}
        for v in _image_vertices(spec):
            hit = _image_parent(spec, v)
            deg = len(_kept_pairs(spec, v))
            if v == root:
                if hit is not None:
                    raise VerificationError(f"root {root} of {spec.pattern()} has a kept in-edge")
                per_zero_root_degree[zero] = deg
                parent[v] = None
                continue
            if hit is None:
                raise VerificationError(f"non-root {v} in {spec.pattern()} has no kept in-edge")
            src = parent[v] = hit[0]
            if sum(src) >= sum(v):
                descent_ok = False
            if not (spec.contains(src) and max(src) <= window):
                raise VerificationError("in-window vertex with out-of-window parent")
            if min_interior is None or deg + 1 < min_interior:
                min_interior = deg + 1
        vertices_checked += len(parent)

        # walk each vertex up to a settled one; meeting the chain again is a cycle
        settled = {root}
        for v in parent:
            chain = set()
            while v not in settled and v not in chain:
                chain.add(v)
                v = parent[v]
            if v in chain:
                acyclic = False
            settled |= chain

    # coverage over real tuples in the window
    coverage_ok = True
    components_seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    basis = {tuple(s if p == k else 0 for p in range(n)) for k in range(n) for s in (1, -1)}
    for x in iproduct(range(-window, window + 1), repeat=n):
        if math.gcd(*x) != 1:
            continue
        comp = component_of(x)
        if (comp is None) != (x in basis):
            coverage_ok = False
        if comp is not None:
            components_seen.add(comp)

    root_degrees = {}
    for neg, zero in sorted(components_seen, key=lambda ab: (sorted(ab[1]), sorted(ab[0]))):
        spec = ForestSpec(n=n, neg=neg, zero=zero, window=window)
        root_degrees[spec.pattern()] = per_zero_root_degree[zero]

    return ForestReport(
        n=n,
        window=window,
        acyclic=acyclic,
        coverage_ok=coverage_ok,
        descent_ok=descent_ok,
        min_interior_degree=min_interior,
        root_degrees=root_degrees,
        components_checked=len(components_seen),
        vertices_checked=vertices_checked,
    )


def component_dot_lines(spec: ForestSpec):
    """DOT rendering of one component restricted to the window, root doubled,
    as an iterator of lines.

    The edges drawn are the parent edges of the window's non-root vertices:
    a parent has no larger coordinates, so it is in the window too. The
    window is scanned, and its cap checked, before the iterator is returned;
    each vertex's node id is formatted once.
    """
    from . import __version__

    states = spec.window ** len(spec.free)
    if states > STATE_CAP:
        raise ResourceCapError(f"window scan of {count_text(states)} states exceeds cap {STATE_CAP}")
    edges = []  # (parent, i, j, vertex); the root's parent is None
    for z in _image_vertices(spec):
        hit = _image_parent(spec, z)
        src, (i, j) = (spec.from_image(hit[0]), hit[1]) if hit else (None, (0, 0))
        edges.append((src, i, j, spec.from_image(z)))
    node_id = {v: '"' + ",".join(map(str, v)) + '"' for v in sorted(edge[3] for edge in edges)}
    edges = sorted(edge for edge in edges if edge[0] is not None)
    labels = {(i, j): spec.ambient_move(i, j).text() for _, i, j, _ in edges}
    root = spec.root()

    def lines():
        yield "graph forest_component {\n"
        yield f"  // pattern: {spec.pattern()}, window: {spec.window}, n: {spec.n}\n"
        yield f"  // tool: nielsen {__version__}\n"
        for v, name in node_id.items():
            extra = ", peripheries=2" if v == root else ""
            yield f'  {name} [label="{v}"{extra}];\n'
        for src, i, j, tgt in edges:
            yield f'  {node_id[src]} -- {node_id[tgt]} [label="{labels[i, j]}"];\n'
        yield "}\n"

    return lines()


def component_dot(spec: ForestSpec) -> str:
    """The text of ``component_dot_lines``."""
    return "".join(component_dot_lines(spec))

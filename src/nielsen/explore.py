"""BFS enumeration of Nielsen graphs: balls, components, growth, export.

A GraphFragment is a finitely explored piece of N_n(G). Vertices are stored
in canonical order (BFS depth, then byte key); every expanded vertex carries
one dart per element of the fragment's move list, as the index of the target
vertex. Frontier vertices (at the radius, or outside the window) are retained
unexpanded so that boundary counts over interior sets are exact.

Every element kind keeps its elements in a canonical normal form with an
injective encoding, so two tuples are equal exactly when their byte keys
are. The BFS therefore deduplicates on the tuples themselves and encodes
the key of each vertex once, when its layer is complete; the key fixes only
the order of the vertices within a layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, UsageError
from .groups import DEFAULT_VERTEX_CAP, FiniteTable, Group, State
from .moves import I, Move, R, apply_move, move_inverse, move_set

# components keeps one int32 label per tuple on a tensor with one axis per
# entry, and numpy arrays have at most 64 axes
_LABEL_LIMIT = 2**31
_MAX_AXES = 64


def state_key(group: Group, state: State) -> bytes:
    """Canonical byte key of a tuple: concatenated element encodings."""
    return b"".join(group.encode_element(g) for g in state)


def state_from_key(group: Group, n: int, key: bytes) -> State:
    out = []
    offset = 0
    for _ in range(n):
        g, offset = group.decode_element(key, offset)
        out.append(g)
    if offset != len(key):
        raise UsageError("trailing bytes in tuple key")
    return tuple(out)


@dataclass
class GraphFragment:
    group: Group
    n: int
    moves: tuple[Move, ...]
    root: State
    radius: int
    window: int | None
    keys: list[bytes] = field(default_factory=list)        # canonical byte key, one per vertex
    states: list[State] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    expanded: list[bool] = field(default_factory=list)
    darts: list[list[int] | None] = field(default_factory=list)
    index: dict[State, int] = field(default_factory=dict)   # tuple -> vertex
    truncated_at: int | None = None  # least depth where the window blocked expansion

    @property
    def truncated(self) -> bool:
        return self.truncated_at is not None

    def __len__(self) -> int:
        return len(self.keys)

    def vertex_index(self, state: State) -> int:
        try:
            return self.index[tuple(state)]
        except (KeyError, TypeError):
            raise UsageError(f"tuple {state!r} is not a vertex of this fragment") from None

    def ball_indices(self, r: int) -> list[int]:
        return [v for v in range(len(self)) if self.depths[v] <= r]

    def validate(self) -> None:
        """Assert dart symmetry and regular out-degree."""
        inv = [self._move_pos(move_inverse(m)) for m in self.moves]
        size = len(self)
        for v in range(size):
            out = self.darts[v]
            if not self.expanded[v]:
                assert out is None
                continue
            assert out is not None and len(out) == len(self.moves), "irregular out-degree"
            for k, w in enumerate(out):
                assert 0 <= w < size, "dart target missing"
                back = self.darts[w]
                if back is not None:
                    assert back[inv[k]] == v, "dart symmetry violated"

    def _move_pos(self, move: Move) -> int:
        return self.moves.index(move)

    # -- serialization ----------------------------------------------------

    def to_dot(self) -> str:
        from . import __version__

        lines = ["graph nielsen {"]
        meta = {
            "group": self.group.spec_json(),
            "n": self.n,
            "root": [self.group.element_to_json(g) for g in self.root],
            "radius": self.radius,
            "window": self.window,
        }
        for k in ("group", "n", "root", "radius", "window"):
            lines.append(f"  // {k}: {json.dumps(meta[k], sort_keys=True)}")
        lines.append(f"  // tool: nielsen {__version__}")
        for v in range(len(self)):
            label = ",".join(str(self.group.element_to_json(g)) for g in self.states[v])
            lines.append(f'  "{self.keys[v].hex()}" [label="({label})"];')
        for v in range(len(self)):
            out = self.darts[v]
            if out is None:
                continue
            for k, w in enumerate(out):
                lines.append(f'  "{self.keys[v].hex()}" -- "{self.keys[w].hex()}" [label="{self.moves[k].text()}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for v in range(len(self)):
            out = self.darts[v]
            adj = None
            if out is not None:
                adj = [{"move": self.moves[k].text(), "to": self.keys[w].hex()} for k, w in enumerate(out)]
            lines.append(
                json.dumps(
                    {
                        "v": self.keys[v].hex(),
                        "tuple": [self.group.element_to_json(g) for g in self.states[v]],
                        "depth": self.depths[v],
                        "adj": adj,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def content_equal(self, other: GraphFragment) -> bool:
        """Equality of vertex/dart/depth content (radius and window excluded)."""
        if (self.group != other.group or self.n != other.n or self.moves != other.moves):
            return False
        if self.keys != other.keys or self.depths != other.depths or self.expanded != other.expanded:
            return False
        return self.darts == other.darts


def _hex_key(obj, lineno: int) -> bytes:
    if isinstance(obj, str):
        try:
            return bytes.fromhex(obj)
        except ValueError:
            pass
    raise UsageError(f"fragment line {lineno}: vertex key {obj!r} is not a hex string")


def fragment_from_jsonl(group: Group, n: int, text: str, moves: tuple[Move, ...] | None = None) -> GraphFragment:
    """Read a fragment written by ``to_jsonl``; a malformed line is a UsageError.

    Every dart is checked by applying its move, so a dart that does not lead
    to the vertex of the moved tuple is a UsageError too.
    """
    moves = move_set(n) if moves is None else moves
    frag = GraphFragment(group=group, n=n, moves=moves, root=(), radius=0, window=None)
    move_pos = {m.text(): k for k, m in enumerate(moves)}
    by_key: dict[bytes, int] = {}   # resolves dart targets
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise UsageError(f"fragment line {lineno} is not JSON: {e}") from None
        if not (isinstance(row, dict) and {"v", "tuple", "depth", "adj"} <= row.keys()):
            raise UsageError(f"fragment line {lineno} must be an object with fields v, tuple, depth, adj")
        if not (isinstance(row["tuple"], list) and len(row["tuple"]) == n):
            raise UsageError(f"fragment line {lineno}: tuple must be a list of {n} elements")
        if not (isinstance(row["depth"], int) and not isinstance(row["depth"], bool) and row["depth"] >= 0):
            raise UsageError(f"fragment line {lineno}: depth must be an int >= 0")
        if not (row["adj"] is None or isinstance(row["adj"], list)):
            raise UsageError(f"fragment line {lineno}: adj must be a list or null")
        key = _hex_key(row["v"], lineno)
        if key in by_key:
            raise UsageError(f"fragment line {lineno} repeats vertex {row['v']}")
        by_key[key] = len(frag.keys)
        frag.keys.append(key)
        frag.states.append(tuple(group.element_from_json(e) for e in row["tuple"]))
        frag.depths.append(row["depth"])
        frag.expanded.append(row["adj"] is not None)
        frag.darts.append(None)
        rows.append((lineno, row["adj"]))
    for v, (lineno, adj) in enumerate(rows):
        if adj is None:
            continue
        out = [-1] * len(moves)
        for dart in adj:
            if not (isinstance(dart, dict) and dart.get("move") in move_pos and "to" in dart):
                raise UsageError(f"fragment line {lineno}: dart {dart!r} needs a known move and a target")
            target = by_key.get(_hex_key(dart["to"], lineno))
            if target is None:
                raise UsageError(f"fragment line {lineno}: dart target {dart['to']} is not a vertex")
            out[move_pos[dart["move"]]] = target
        if any(w < 0 for w in out):
            raise UsageError("expanded vertex with incomplete dart list")
        for k, w in enumerate(out):
            if apply_move(group, frag.states[v], moves[k], n) != frag.states[w]:
                raise UsageError(
                    f"fragment dart {moves[k].text()} of vertex {frag.keys[v].hex()} "
                    f"does not lead to vertex {frag.keys[w].hex()}"
                )
        frag.darts[v] = out
    del rows, by_key  # the tuple index is built once the parsed lines are freed, to keep the peak low
    for v, state in enumerate(frag.states):
        first = frag.index.setdefault(state, v)
        if first != v:
            raise UsageError(f"fragment vertices {frag.keys[first].hex()} and {frag.keys[v].hex()} share a tuple")
    roots = [v for v in range(len(frag)) if frag.depths[v] == 0]
    if len(roots) != 1:
        raise UsageError("fragment must contain exactly one depth-0 vertex")
    frag.root = frag.states[roots[0]]
    frag.radius = max(frag.depths, default=0)
    return frag


def ball(
    group: Group,
    root: State,
    radius: int,
    window: int | None = None,
    moves: tuple[Move, ...] | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> GraphFragment:
    """BFS ball of the Nielsen graph around a generating tuple.

    Vertices at BFS distance < radius and inside the window are expanded;
    vertices at the radius or outside the window are present but unexpanded.
    Deterministic: layers are processed in byte-key order, so identical
    inputs yield identical fragments.
    """
    if radius < 0:
        raise UsageError("radius must be >= 0")
    n = len(root)
    root = tuple(group.check_element(g) for g in root)
    if not group.is_generating(root):
        raise UsageError(f"root tuple {root!r} does not generate the group")
    if moves is None:
        moves = move_set(n)
    else:
        pool = set(moves)
        if any(move_inverse(m) not in pool for m in moves):
            raise UsageError("custom move list must be closed under inversion")
    in_window = (lambda s: True) if window is None else (
        lambda s: max(group.measure(g) for g in s) <= window
    )
    if window is not None and not in_window(root):
        raise UsageError(f"root lies outside the window {window}")

    if cap < 1:
        raise ResourceCapError(f"vertex cap {cap} exceeded while exploring")
    frag = GraphFragment(group=group, n=n, moves=moves, root=root, radius=radius, window=window)
    keys, states, index, darts = frag.keys, frag.states, frag.index, frag.darts
    keys.append(state_key(group, root))
    states.append(root)
    index[root] = 0
    frag.depths.append(0)
    frag.expanded.append(False)
    darts.append(None)
    start = 0
    for depth in range(radius):
        # New tuples get provisional indices base, base + 1, ... in discovery
        # order; once the layer is complete they are renumbered in byte-key order.
        base = len(states)
        layer_expanded = []
        for v in range(start, base):
            state = states[v]
            if not in_window(state):
                if frag.truncated_at is None or depth < frag.truncated_at:
                    frag.truncated_at = depth
                continue
            out = []
            for move in moves:
                w = apply_move(group, state, move, n)
                i = index.get(w)
                if i is None:
                    i = len(states)
                    if i >= cap:
                        raise ResourceCapError(f"vertex cap {cap} exceeded while exploring")
                    index[w] = i
                    states.append(w)
                out.append(i)
            darts[v] = out
            frag.expanded[v] = True
            layer_expanded.append(v)
        new_states = states[base:]
        if not new_states:
            break
        new_keys = [state_key(group, w) for w in new_states]
        # keys are distinct, so the stable sort orders by (key, provisional)
        order = sorted(range(len(new_states)), key=new_keys.__getitem__)
        final = [0] * len(order)
        for v, p in enumerate(order, base):
            final[p] = v
            index[new_states[p]] = v
        states[base:] = [new_states[p] for p in order]
        keys.extend(new_keys[p] for p in order)
        frag.depths.extend([depth + 1] * len(order))
        frag.expanded.extend([False] * len(order))
        darts.extend([None] * len(order))
        for v in layer_expanded:
            darts[v] = [w if w < base else final[w - base] for w in darts[v]]
        start = base
    frag.validate()
    return frag


def growth_profile(frag: GraphFragment) -> list[tuple[int, int]]:
    """Cumulative ball sizes (r, |B_r|) for r = 0..radius.

    When the graph is exhausted before the radius, the trailing balls
    repeat the final count (the whole graph has been found).
    """
    if frag.truncated:
        raise UsageError(
            f"growth profile is unreliable: window {frag.window} truncated expansion at depth {frag.truncated_at}"
        )
    counts = [0] * (max(frag.depths) + 1)
    for d in frag.depths:
        counts[d] += 1
    out = []
    total = 0
    for r, c in enumerate(counts):
        total += c
        out.append((r, total))
    if all(frag.expanded):  # graph exhausted before the radius
        out.extend((r, total) for r in range(len(counts), frag.radius + 1))
    return out


# ---------------------------------------------------------------------------
# components of N_n(G) for finite G


@dataclass
class ComponentsReport:
    group: Group
    n: int
    total_tuples: int
    generating_count: int
    sizes: list[int]                    # aligned with representatives
    representatives: list[State]
    table: FiniteTable
    positions: np.ndarray               # of the generating tuples, class by class, each class increasing

    @property
    def num_components(self) -> int:
        return len(self.sizes)

    def members(self, comp: int) -> list[State]:
        """The tuples of one class, in enumeration order."""
        start = sum(self.sizes[:comp])
        idx = self.table.index_tuples(self.positions[start : start + self.sizes[comp]], self.n)
        return [tuple(self.table.elements[k] for k in t) for t in idx]


def check_finite_sizes(order: int, n: int, cap: int) -> int:
    """The number |G|^n of n-tuples, once it fits int32 labels and the cap
    and the |G|^2 multiplication table fits the cap; ResourceCapError if not."""
    total = order**n
    if total >= _LABEL_LIMIT:
        raise ResourceCapError(f"state count {total} exceeds the int32 label limit {_LABEL_LIMIT - 1}")
    if total > cap:
        raise ResourceCapError(f"state count {total} exceeds cap {cap}")
    if order**2 > cap:
        raise ResourceCapError(f"multiplication table of {order}^2 entries exceeds cap {cap}")
    return total


def components(group: Group, n: int, cap: int = DEFAULT_VERTEX_CAP) -> ComponentsReport:
    """Partition all generating n-tuples of a finite group into Nielsen classes.

    Minimum-label propagation over the full tuple space, numbered in
    ``itertools.product`` order: every class is labelled by its least
    position, whose tuple is its representative. The labels are one int32
    array, viewed as a tensor with one axis per entry (axis p is entry
    p + 1); each round keeps one copy of it to detect the fixed point. No
    position arrays are built: ``I(j)`` is one take along axis j - 1, and an
    ``R``/``L`` move with entries (i, j) is |G| takes, one per face on which
    entry j is fixed to c, where it permutes entry i by a column (R) or row
    (L) of the multiplication table. Every label stays a position in its own
    class and the move set is closed under inverses, so the fixed point is
    the least position of each class whatever the update order. Moves
    preserve the generated subgroup, so labels never leak between the
    generating set and its complement; the restriction afterwards is exact.
    """
    if not group.is_finite:
        raise UsageError("components requires a finite group")
    if n < 1:
        raise UsageError("components requires n >= 1")
    if n > _MAX_AXES:
        raise UsageError(f"components supports n <= {_MAX_AXES}, one label axis per entry; got n = {n}")
    total = check_finite_sizes(group.order, n, cap)
    tab = FiniteTable.of(group)
    gen_idx = np.flatnonzero(tab.generating_mask(n))
    order, inv = tab.order, tab.inverses
    # row h of perms[kind] sends entry i from g to g*h (R) or h*g (L)
    perms = {"R": np.ascontiguousarray(tab.table.T), "L": tab.table}

    flat = np.arange(total, dtype=np.int32)
    cube = flat.reshape((order,) * n)
    moves = move_set(n)
    while True:
        before = flat.copy()
        for move in moves:
            if move.kind == "I":
                np.minimum(cube, np.take(cube, inv, axis=move.j - 1), out=cube)
                continue
            i, j = move.i - 1, move.j - 1
            axis = i if i < j else i - 1
            for c, h in enumerate(range(order) if move.sign > 0 else inv):
                face = cube[(slice(None),) * j + (c,)]
                np.minimum(face, np.take(face, perms[move.kind][h], axis=axis), out=face)
        np.minimum(flat, flat[flat], out=flat)
        if np.array_equal(flat, before):
            break

    uniq, inverse, counts = np.unique(flat[gen_idx], return_inverse=True, return_counts=True)
    return ComponentsReport(
        group=group,
        n=n,
        total_tuples=total,
        generating_count=len(gen_idx),
        sizes=counts.tolist(),
        representatives=[tuple(tab.elements[k] for k in t) for t in tab.index_tuples(uniq, n)],
        table=tab,
        positions=gen_idx[np.argsort(inverse, kind="stable")],
    )


# ---------------------------------------------------------------------------
# Euclid reduction over the integers


def euclid_reduce(state: State) -> tuple[Move, ...]:
    """A move word carrying a gcd-1 integer tuple to (1, 0, ..., 0).

    Classic division-based reduction; each division step with quotient q is
    emitted as |q| single moves, so the word length is the quotient sum plus
    O(n) bookkeeping. The certificate eval_word(state, word) == (1, 0, ..., 0)
    is exact.
    """
    n = len(state)
    if n == 0:
        raise UsageError("euclid_reduce requires a nonempty tuple")
    for x in state:
        if not isinstance(x, int) or isinstance(x, bool):
            raise UsageError("euclid_reduce operates on integer tuples")
    if math.gcd(*state) != 1:
        raise UsageError(f"gcd of {state!r} is not 1")
    xs = list(state)
    word: list[Move] = []

    def shift(i: int, j: int, times: int, sign: int):
        move = R(i + 1, j + 1, sign)
        for _ in range(times):
            xs[i] += sign * xs[j]
            word.append(move)

    while True:
        nonzero = [k for k in range(n) if xs[k] != 0]
        pivot = min(nonzero, key=lambda k: (abs(xs[k]), k))
        rest = [k for k in nonzero if k != pivot]
        if not rest:
            break
        for k in rest:
            q, r = divmod(xs[k], xs[pivot])
            # floor division leaves r with the pivot's sign; stepping q up by
            # one flips to the remainder of the opposite sign, so pick the
            # nearer of the two
            if abs(r) * 2 > abs(xs[pivot]):
                q += 1
            if q > 0:
                shift(k, pivot, q, -1)
            elif q < 0:
                shift(k, pivot, -q, +1)
    if pivot != 0:
        shift(0, pivot, 1, xs[pivot])     # x_0: 0 -> 1
        shift(pivot, 0, 1, -xs[pivot])    # clear the old pivot
    elif xs[0] == -1:
        xs[0] = 1
        word.append(I(1))
    assert xs == [1] + [0] * (n - 1)
    return tuple(word)

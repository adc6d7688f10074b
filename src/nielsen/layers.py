"""The layer-at-a-time BFS of the fixed-width kinds, on coordinate arrays.

``Integers`` and every ``IntVectorGroup`` have an array form: an element
is ``width`` int coordinates, and the kind's law also runs on stacked
coordinate arrays. Their balls grow here one whole BFS layer at a time:
int32 rows, int64 arithmetic. The layer's entries and their inverses are
stacked, the law runs once on the operand columns of every R/L move, and
one gather gives each vertex's m targets. The targets are packed, in mixed
radix over their column ranges, into int64 keys and looked up by
``searchsorted`` among the sorted keys of the vertices they can equal:
depths d - 1 and d, and the vertices left unexpanded (a target at a
smaller depth would have reached its source sooner). The targets not
found, sorted, are the new layer. While the ball grows, a layer's vertices
are numbered in the order of their coordinates; once it is complete, one
sort by depth and by the ranks of the ints in the byte order of
``encode_int`` puts every vertex in canonical order and the darts are
renumbered. Targets are made ``_CHUNK`` at a time, which bounds the
transient arrays. Tuples and byte keys are built only when something
prints or looks them up.

Every coordinate stays below ``_GUARD`` = 2^30 in absolute value, so each
law's sums and products of two coordinates fit int64; ``grow`` declines a
ball whose root or any of whose values reach it, and the caller grows that
ball on tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceCapError
from .groups import Group, IntVectorGroup, State
from .moves import Move

if TYPE_CHECKING:
    from .explore import GraphFragment

# every coordinate of a ball grown here stays below this in absolute value
_GUARD = 2**30
# targets sorted at once; a larger layer is expanded in chunks
_CHUNK = 2**12
# encode_int of |x| < 2^31 takes 1 to 4 payload bytes: the least magnitude
# (x or ~x) of each longer size, the payload mask, the shift that leaves the
# reversed payload, and the rank of the first int of each size
_SIZE_EDGES = np.array([1 << 7, 1 << 15, 1 << 23])
_SIZE_MASK = np.array([0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF])
_SIZE_SHIFT = np.array([24, 16, 8, 0], dtype=np.uint32)
_RANK_BASE = np.cumsum([0, 1 << 8, 1 << 16, 1 << 24])


def int_ranks(x: np.ndarray) -> np.ndarray:
    """Rank of each int64 (|x| < 2^31) in the byte order of ``encode_int``.

    An encoding is the payload size, then the payload little end first, so
    (no encoding being a prefix of another) the order is by size, then by
    the payload read with its bytes reversed.
    """
    size = np.searchsorted(_SIZE_EDGES, x ^ (x >> 63), side="right")  # bytes - 1; x ^ (x >> 63) is x or ~x
    payload = _SIZE_MASK[size]
    payload &= x
    payload = payload.astype(np.uint32)
    payload.byteswap(inplace=True)
    payload >>= _SIZE_SHIFT[size]
    ranks = _RANK_BASE[size]
    ranks += payload
    return ranks


def _move_columns(moves: tuple[Move, ...], n: int):
    """Index arrays of the layer step over the stacked columns: entries
    0..n-1, their inverses n..2n-1, then one product per R/L move.

    ``left`` and ``right`` pick the operands of each product; row k of
    ``gather`` picks the n entries of the target under move k.
    """
    left, right = [], []
    gather = np.tile(np.arange(n), (len(moves), 1))
    for k, mv in enumerate(moves):
        j = mv.j - 1
        if mv.kind == "I":
            gather[k, j] = n + j
            continue
        i, h = mv.i - 1, j if mv.sign > 0 else n + j
        left.append(i if mv.kind == "R" else h)
        right.append(h if mv.kind == "R" else i)
        gather[k, i] = 2 * n + len(left) - 1
    return np.array(left, dtype=np.intp), np.array(right, dtype=np.intp), gather


class _Radix:
    """Mixed-radix packing of int64 rows whose column c lies in [lo[c], hi[c]]
    into int64 words, most significant first, in the rows' lexicographic
    order. The columns go in from the last one, and a new word starts where
    the product of the ranges would pass 2^63."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.bounds = lo.tolist(), hi.tolist()
        word, stride, of = 0, 1, []  # (word counted from the last, stride) of each column
        for low, high in zip(*map(reversed, self.bounds)):
            if stride * (high - low + 1) > 2**63:
                word, stride = word + 1, 1
            of.append((word, stride))
            stride *= high - low + 1
        self.of = [(word - t, st) for t, st in reversed(of)]
        self.lo = np.array(self.bounds[0], dtype=np.int64)
        self.strides = np.array([[st if t == k else 0 for k in range(word + 1)] for t, st in self.of], dtype=np.int64)
        # one word is its own key; more are one structured (sortable, comparable) key
        self.key = np.dtype([(f"w{t}", np.int64) for t in range(word + 1)]) if word else None

    def words(self, rows: np.ndarray) -> np.ndarray:
        """(N, words) for int64 rows, which are overwritten."""
        rows -= self.lo
        return rows @ self.strides

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """One sort key per int64 row; the rows are overwritten."""
        words = self.words(rows)
        return words[:, 0] if self.key is None else words.view(self.key).ravel()

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        word, stride = np.array(self.of).T
        rows = keys.view(np.int64).reshape(len(keys), self.strides.shape[1])[:, word]
        rows //= stride
        rows %= np.subtract(*self.bounds[::-1]) + 1
        rows += self.lo
        return rows


def _targets(group: Group, rows: np.ndarray, columns) -> np.ndarray | None:
    """The targets of int32 coordinate rows, move by move, as int64 rows;
    None once a coordinate reaches the guard."""
    left, right, gather = columns
    n, w = gather.shape[1], group.width
    E = rows.astype(np.int64).reshape(len(rows), n, w).transpose(2, 0, 1)  # (w, rows, n)
    S = np.concatenate((E, np.asarray(group.inv(E))), axis=2)  # entries, inverses
    Z = np.concatenate((S, np.asarray(group.mul(S[:, :, left], S[:, :, right]))), axis=2)
    if np.abs(Z[:, :, n:]).max() >= _GUARD:
        return None
    return Z.transpose(1, 2, 0)[:, gather].reshape(-1, n * w)


def _expand_layer(group: Group, X: np.ndarray, columns, known: np.ndarray, known_ids: np.ndarray, base: int):
    """The targets of the coordinate rows X, ``_CHUNK`` at a time.

    The targets are made twice: first for their ranges, which fix the
    packing, then packed and looked up among the known rows (a lone chunk
    is kept from the first pass). The distinct targets not found are the
    new vertices, numbered from ``base`` in the lexicographic order of their
    coordinates. Returns the vertex id of every target and the int32 rows
    of the new vertices, or None past the guard.
    """
    m = len(columns[2])
    step = max(1, _CHUNK // m)
    parts = [X[i : i + step] for i in range(0, len(X), step)]
    lo, hi = known.min(axis=0), known.max(axis=0)
    for part in parts:
        T = _targets(group, part, columns)
        if T is None:
            return None
        lo, hi = np.minimum(lo, T.min(axis=0)), np.maximum(hi, T.max(axis=0))
    radix = _Radix(lo, hi)
    known = radix.pack(known.astype(np.int64))
    order = np.argsort(known)
    known, known_ids = known[order], known_ids[order]
    ids = np.empty(len(X) * m, dtype=np.int32)
    missed, missed_at = [], []
    for i, part in enumerate(parts):
        T = radix.pack(T if len(parts) == 1 else _targets(group, part, columns))
        at = np.minimum(np.searchsorted(known, T), len(known) - 1)
        hit = known[at] == T
        pos = np.arange(i * step * m, i * step * m + len(T))
        ids[pos[hit]] = known_ids[at[hit]]
        missed.append(T[~hit])
        missed_at.append(pos[~hit])
    missed, missed_at = np.concatenate(missed), np.concatenate(missed_at)
    order = np.argsort(missed)
    missed = missed[order]
    first = np.empty(len(missed), dtype=bool)
    first[:1] = True
    first[1:] = missed[1:] != missed[:-1]
    ids[missed_at[order]] = np.cumsum(first) + (base - 1)
    return ids, radix.unpack(missed[first]).astype(np.int32)


def _canonical_order(coords: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """The permutation that puts vertices in canonical order: by depth, then
    by the ranks of their ints in the byte order of ``encode_int``. The rank
    rows are made ``_CHUNK`` values at a time, twice: first for their
    ranges, then packed."""
    per = max(1, _CHUNK // coords.shape[1])

    def ranked(i: int) -> np.ndarray:
        rows = np.empty((len(depths[i : i + per]), 1 + coords.shape[1]), dtype=np.int64)
        rows[:, 0] = depths[i : i + per]
        rows[:, 1:] = int_ranks(coords[i : i + per].astype(np.int64))
        return rows

    chunks = range(0, len(coords), per)
    bounds = [(rows.min(axis=0), rows.max(axis=0)) for rows in map(ranked, chunks)]
    radix = _Radix(np.min([lo for lo, _ in bounds], axis=0), np.max([hi for _, hi in bounds], axis=0))
    words = np.concatenate([radix.words(ranked(i)) for i in chunks])
    return np.argsort(words[:, 0]) if radix.key is None else np.lexsort(words.T[::-1])


def grow(frag: GraphFragment, cap: int, only: dict | None) -> bool:
    """The BFS of ``explore._grow`` on coordinate arrays, for fixed-width kinds.

    The vertices of a layer are numbered in the lexicographic order of
    their coordinates while the ball grows, and put in canonical order once
    it is complete. Returns False, leaving ``frag`` untouched, when a
    coordinate reaches the guard or a move names an entry past n.
    """
    group, n, m, window = frag.group, frag.n, len(frag.moves), frag.window
    if not (
        all(mv.i <= n and mv.j <= n for mv in frag.moves)  # else apply_move names the bad move
        and all(abs(x) < _GUARD for x in coords_of(group, frag.root))
    ):
        return False
    w = group.width
    columns = _move_columns(frag.moves, n)
    layers = [np.array([coords_of(group, frag.root)], dtype=np.int32)]  # coordinate rows by depth
    starts = [0]  # by depth: id of the first vertex
    left_out = {}  # depth -> mask of the vertices left unexpanded there
    # rows and ids of the vertices left unexpanded at depths < d - 1
    blocked, blocked_ids = np.empty((0, n * w), dtype=np.int32), np.empty(0, dtype=np.int64)
    dart_parts, expanded_parts = [], []
    truncated_at = None
    for depth in range(frag.radius):
        X = layers[depth]
        base = starts[depth] + len(X)
        mask = np.ones(len(X), dtype=bool)
        if window is not None and group.unbounded:
            mask &= np.abs(X.reshape(len(X), n, w)[:, :, list(group.unbounded)]).max(axis=(1, 2)) <= window
        if only is not None:
            mask &= np.array([bool(only.get(s)) for s in states_of(group, X)], dtype=bool)
        rows = np.flatnonzero(mask)
        if len(rows) < len(X):
            left_out[depth] = ~mask
            if truncated_at is None:
                truncated_at = depth
        dart_parts.append(np.full((len(X), m), -1, dtype=np.int32))
        expanded_parts.append(mask)
        out = left_out.pop(depth - 2, None)  # depth d - 2 leaves the lookup, but not its unexpanded vertices
        if out is not None:
            blocked = np.concatenate((blocked, layers[depth - 2][out]))
            blocked_ids = np.concatenate((blocked_ids, starts[depth - 2] + np.flatnonzero(out)))
        if not len(rows):
            break
        # a target at depth < d - 1 would have reached its source sooner,
        # unless that was left unexpanded
        prev = max(depth - 1, 0)
        got = _expand_layer(
            group,
            X[rows],
            columns,
            np.concatenate([*layers[prev : depth + 1], blocked]),
            np.concatenate((np.arange(starts[prev], base), blocked_ids)),
            base,
        )
        if got is None:
            return False
        ids, fresh = got
        dart_parts[-1][rows] = ids.reshape(len(rows), m)
        del got, ids
        if base + len(fresh) > cap:
            raise ResourceCapError(f"vertex cap {cap} exceeded while exploring")
        if not len(fresh):
            break
        layers.append(fresh)
        starts.append(base)
    sizes = [len(x) for x in layers]
    size, covered = sum(sizes), sum(map(len, expanded_parts))
    frag.depths = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    coords = np.concatenate(layers)
    del layers
    order = _canonical_order(coords, frag.depths)
    frag.coords = coords[order]
    del coords
    frag.expanded = np.concatenate([*expanded_parts, np.zeros(size - covered, dtype=bool)])[order]
    place = np.empty(size + 1, dtype=np.int32)  # place[-1] keeps -1, the dart of an unexpanded vertex
    place[order] = np.arange(size, dtype=np.int32)
    place[size] = -1
    frag.darts = np.full((size, m), -1, dtype=np.int32)
    at = 0
    dart_parts.reverse()
    while dart_parts:  # each part is freed once placed
        part = dart_parts.pop()
        frag.darts[place[at : at + len(part)]] = place[part]
        at += len(part)
    frag.truncated_at = truncated_at
    return True


def coords_of(group: Group, state: State) -> list[int]:
    """The coordinates of a tuple of a fixed-width kind, entry by entry."""
    return [x for g in state for x in g] if isinstance(group, IntVectorGroup) else list(state)


def states_of(group: Group, rows: np.ndarray) -> list[State]:
    """The tuples of coordinate rows; inverse of ``coords_of``."""
    rows = rows.tolist()
    if not isinstance(group, IntVectorGroup):
        return list(map(tuple, rows))
    w = group.width
    return [tuple(zip(*[iter(r)] * w)) for r in rows]

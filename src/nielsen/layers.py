"""The one BFS of Nielsen graphs, a whole layer at a time, in two law forms.

A vertex is an int32 row, and the group law runs on whole columns of rows.
The fixed-width kinds (``Integers``, every ``IntVectorGroup``, and
``FiniteCayley`` on table indices) keep coordinates: ``width`` ints per
entry, with the kind's law run on stacked arrays in int64. ``FreeGroup``,
and every ball whose ints reach ``_GUARD`` = 2^30 (below it, sums and
products of two coordinates fit int64), keeps interned element ids: a list
of the distinct elements met and a dict from element to id. The inverse of
each id is computed once, and ``group.mul`` runs once per distinct (id, id)
pair of a chunk of targets, its result interned.

The layer's entries and their inverses are stacked, the law runs once on the
operand columns of every R/L move, and one gather gives each vertex's m
targets. A target can equal only a known row: a vertex at depth d - 1 or d,
or one left unexpanded (a target at a smaller depth would have reached its
source sooner). The new layer is numbered in canonical order, by the ranks
of its rows' values in the byte order of their encodings (``int_ranks``, or
``encode_element`` of its distinct elements), so every vertex has its final
id from the layer that makes it, and the ball is its layers end to end.

A thin layer, whose known rows and targets hold at most ``_CHUNK`` values,
takes one sort (``_expand_small``): the known rows, then the targets, become
rank rows, and one stable lexsort puts equal rows next to each other, the
known one first, and the runs in canonical order. A run headed by a known
row gives its targets that row's id; any other run is a new vertex, numbered
in run order. Balls of linear growth, such as D_inf's dozen rows a layer,
take this path at every layer, N_2(Z) at its first ones. A thicker layer
makes its targets ``_CHUNK`` at a time, packs them in mixed radix over their
column ranges into int64 keys, sorts each chunk of keys and looks it up by
``searchsorted`` among the sorted keys of the known rows. The targets not
found, sorted and deduplicated, are the new layer, then put in canonical
order (``_canonical_order``).

Tuples and byte keys are decoded from the rows only when something prints
or looks them up; an export formats each distinct value of the rows once
(``texts``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceCapError
from .groups import Group, IntVectorGroup, State, _firsts, _fold, encode_int
from .moves import Move

if TYPE_CHECKING:
    from .explore import GraphFragment

# every coordinate of a ball grown here stays below this in absolute value
_GUARD = 2**30
# values sorted at once: a thin layer (known rows and targets) takes one sort,
# a larger one is expanded in chunks
_CHUNK = 2**12
# encode_int of |x| < 2^31 takes 1 to 4 payload bytes: the least magnitude
# (x or ~x) of each longer size, the shift that leaves the reversed payload
# of the reversed 4 bytes, and the rank of the first int of each size
_SIZE_EDGES = np.array([1 << 7, 1 << 15, 1 << 23])
_SIZE_SHIFT = np.array([24, 16, 8, 0], dtype=np.uint32)
_RANK_BASE = np.cumsum([0, 1 << 8, 1 << 16, 1 << 24])


def int_ranks(x: np.ndarray) -> np.ndarray:
    """Rank of each int (|x| < 2^31) in the byte order of ``encode_int``.

    An encoding is the payload size, then the payload little end first, so
    (no encoding being a prefix of another) the order is by size, then by
    the payload read with its bytes reversed.
    """
    size = _SIZE_EDGES.searchsorted(x ^ (x >> 31), side="right")  # bytes - 1; x ^ (x >> 31) is x or ~x
    payload = x.astype(np.uint32)
    payload.byteswap(inplace=True)
    payload >>= _SIZE_SHIFT[size]  # the bytes past the payload go out at the right
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
        e, j = mv.entry, mv.j - 1
        if mv.kind == "I":
            gather[k, e] = n + j
            continue
        h = j if mv.sign > 0 else n + j
        left.append(e if mv.kind == "R" else h)
        right.append(h if mv.kind == "R" else e)
        gather[k, e] = 2 * n + len(left) - 1
    return np.array(left, dtype=np.intp), np.array(right, dtype=np.intp), gather


class _Radix:
    """Mixed-radix packing of int64 rows whose column c lies in [lo[c], hi[c]]
    into int64 words, most significant first, in the rows' lexicographic
    order. The columns go in from the last one, and a new word starts where
    the product of the ranges would pass 2^63."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        bounds = lo.tolist(), hi.tolist()
        word, stride, of = 0, 1, []  # (word counted from the last, stride) of each column
        for low, high in zip(*map(reversed, bounds)):
            if stride * (high - low + 1) > 2**63:
                word, stride = word + 1, 1
            of.append((word, stride))
            stride *= high - low + 1
        last, self.stride = np.array(of[::-1]).T
        self.word = word - last  # the word of each column, counted from the first
        self.lo = lo.astype(np.int64)
        self.span = hi - self.lo + 1
        self.strides = np.zeros((len(of), word + 1), dtype=np.int64)
        self.strides[np.arange(len(of)), self.word] = self.stride
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
        rows = keys.view(np.int64).reshape(len(keys), self.strides.shape[1])[:, self.word]
        rows //= self.stride
        rows %= self.span
        rows += self.lo
        return rows


def _bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest value of each column of a non-empty 2-D
    array, taken column by column: numpy reduces (N, k) along axis 0 many
    times slower."""
    cols = rows.T
    return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct values of an array, sorted."""
    flat = np.sort(rows, axis=None)
    return flat[_firsts(flat)]


class _PastGuard(Exception):
    """A coordinate reached ``_GUARD``."""


class _Coordinates:
    """The law on coordinate rows, for fixed-width kinds."""

    keeps_targets = False  # they are cheaper to make again than to keep

    def __init__(self, group: Group):
        self.group = group

    def row(self, state: State) -> list[int]:
        return [x for g in state for x in g] if isinstance(self.group, IntVectorGroup) else list(state)

    def targets(self, rows: np.ndarray, columns) -> np.ndarray:
        """The targets of int32 rows, move by move, as int64 rows."""
        left, right, gather = columns
        n, w, group = gather.shape[1], self.group.width, self.group
        E = rows.astype(np.int64).reshape(len(rows), n, w).transpose(2, 0, 1)  # (w, rows, n)
        S = np.concatenate((E, np.asarray(group.inv(E))), axis=2)  # entries, inverses
        Z = np.concatenate((S, np.asarray(group.mul(S[:, :, left], S[:, :, right]))), axis=2)
        if np.abs(Z[:, :, n:]).max() >= _GUARD:
            raise _PastGuard
        return Z.transpose(1, 2, 0)[:, gather].reshape(-1, n * w)

    def measure(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The measure of each row: its largest unbounded coordinate, folded
        across the n * u columns that hold one (0 when there are none)."""
        w = self.group.width
        cols = [i * w + k for i in range(n) for k in self.group.unbounded]
        return _fold(np.maximum, np.abs(rows[:, cols])) if cols else np.zeros(len(rows), dtype=rows.dtype)

    def ranking(self, rows: np.ndarray):
        """The rank function of parts of ``rows``: ``int_ranks``, the same for every layer."""
        return int_ranks

    def keys(self, rows: np.ndarray) -> list[bytes]:
        encode = self.group.encode_element
        return [b"".join(map(encode, s)) for s in self.states(rows)]

    def states(self, rows: np.ndarray) -> list[State]:
        rows = rows.tolist()
        if not isinstance(self.group, IntVectorGroup):
            return list(map(tuple, rows))
        return [tuple(zip(*[iter(r)] * self.group.width)) for r in rows]

    def texts(self, rows: np.ndarray):
        """The distinct values of the rows (sorted), the hex of ``encode_int``
        and the JSON text (also the label) of each, and the template of an
        element over the values of its coordinates."""
        values = _distinct(rows)
        ints = values.tolist()
        strs = list(map(str, ints))
        vector = isinstance(self.group, IntVectorGroup)
        element = "[" + ", ".join(["{}"] * self.group.width) + "]" if vector else "{}"
        return values, [encode_int(x).hex() for x in ints], strs, strs, element


class _Interned:
    """The law on rows of element ids: ``FreeGroup``'s, and any kind's past the guard."""

    keeps_targets = True  # each product cost a call of the group law

    def __init__(self, group: Group):
        self.group = group
        self.elements, self.ids = [], {}  # the distinct elements by id; element -> id
        self.inverses = np.empty(0, dtype=np.int32)  # by id, as far as rows have needed them
        self._measures, self._codes = [], []  # by id, as far as asked

    def intern(self, g) -> int:
        i = self.ids.setdefault(g, len(self.elements))
        if i == len(self.elements):
            self.elements.append(g)
        return i

    def row(self, state: State) -> list[int]:
        return [self.intern(g) for g in state]

    def targets(self, rows: np.ndarray, columns) -> np.ndarray:
        """The targets of int32 rows of ids, move by move. Each distinct
        (id, id) pair of the chunk is multiplied once."""
        left, right, gather = columns
        upto = int(rows.max()) + 1
        if upto > len(self.inverses):
            new = [self.intern(self.group.inv(g)) for g in self.elements[len(self.inverses) : upto]]
            self.inverses = np.concatenate((self.inverses, np.array(new, dtype=np.int32)))
        S = np.concatenate((rows, self.inverses[rows]), axis=1)  # entries, inverses
        pairs = (S[:, left].astype(np.int64) << 32 | S[:, right]).ravel()
        order = np.argsort(pairs)
        pairs = pairs[order]
        first = _firsts(pairs)
        el, mul = self.elements, self.group.mul
        made = [self.intern(mul(el[p >> 32], el[p & 0xFFFFFFFF])) for p in pairs[first].tolist()]
        products = np.empty(len(pairs), dtype=np.int32)
        products[order] = np.array(made, dtype=np.int32)[np.cumsum(first) - 1]
        Z = np.concatenate((S, products.reshape(len(rows), len(left))), axis=1)
        return Z[:, gather].reshape(-1, gather.shape[1])

    def measure(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The measure of each row: the largest ``group.measure`` of its entries."""
        self._measures.extend(map(self.group.measure, self.elements[len(self._measures) :]))
        return np.array(self._measures)[rows].max(axis=1)

    def _encoded(self) -> list[bytes]:
        """The encoding of every id, made for the elements interned since the last call."""
        codes = self._codes
        codes.extend(map(self.group.encode_element, self.elements[len(codes) :]))
        return codes

    def ranking(self, rows: np.ndarray):
        """The rank function of parts of ``rows``: the rank of each id among
        the ids of ``rows`` in the byte order of ``encode_element``."""
        ids, codes = _distinct(rows), self._encoded()
        keys = [codes[i] for i in ids.tolist()]
        ranks = np.empty(len(codes), dtype=np.int64)  # by id, set for the ids of rows
        ranks[ids[sorted(range(len(keys)), key=keys.__getitem__)]] = np.arange(len(keys))
        return ranks.__getitem__

    def keys(self, rows: np.ndarray) -> list[bytes]:
        codes = self._encoded()
        return [b"".join(map(codes.__getitem__, r)) for r in rows.tolist()]

    def states(self, rows: np.ndarray) -> list[State]:
        el = self.elements
        return [tuple(map(el.__getitem__, r)) for r in rows.tolist()]

    def texts(self, rows: np.ndarray):
        """The distinct ids of the rows (sorted), the hex key, JSON text and
        label of the element of each, and the template of an element."""
        ids = _distinct(rows)
        objs = [self.group.element_to_json(self.elements[i]) for i in ids.tolist()]
        codes = self._encoded()
        hexes = [codes[i].hex() for i in ids.tolist()]
        return ids, hexes, list(map(json.dumps, objs)), list(map(str, objs)), "{}"


def _expand_layer(law, X: np.ndarray, columns, known: np.ndarray, known_ids: np.ndarray, base: int):
    """The targets of the rows X, ``_CHUNK`` at a time, or in one sort
    (``_expand_small``) when they and the known rows are one ``_CHUNK`` of
    values.

    The targets are made for their ranges, which fix the packing, then
    packed and looked up among the known rows; the law's targets are made
    again for that unless it keeps them (a lone chunk is always kept). The
    distinct targets not found are the new vertices, numbered from ``base``
    in canonical order once the lookup's arrays are dropped. Returns the
    vertex id of every target and the int32 rows of the new vertices, in
    that order.
    """
    m = len(columns[2])
    if len(known) + len(X) * m <= max(1, _CHUNK // known.shape[1]):
        return _expand_small(law, X, columns, known, known_ids, base)
    step = max(1, _CHUNK // m)
    parts = [X[i : i + step] for i in range(0, len(X), step)]
    lo, hi = _bounds(known)
    kept = []
    for part in parts:
        T = law.targets(part, columns)
        low, high = _bounds(T)
        lo, hi = np.minimum(lo, low), np.maximum(hi, high)
        if law.keeps_targets or len(parts) == 1:
            kept.append(T)
    del T
    radix = _Radix(lo, hi)
    known = radix.pack(known.astype(np.int64))
    order = np.argsort(known)
    known, known_ids = known[order], known_ids[order]
    ids = np.empty(len(X) * m, dtype=np.int32)
    missed, missed_at = [], []
    for i, part in enumerate(parts):
        T = radix.pack(kept[i].astype(np.int64, copy=False) if kept else law.targets(part, columns))
        if kept:
            kept[i] = None
        pos = np.argsort(T)  # a binary search of sorted needles is about 3x faster
        T = T[pos]
        pos += i * step * m
        at = np.minimum(np.searchsorted(known, T), len(known) - 1)
        hit = known[at] == T
        ids[pos[hit]] = known_ids[at[hit]]
        missed.append(T[~hit])
        missed_at.append(pos[~hit])
    del known, known_ids  # dropped before the missed targets and the new layer are sorted
    missed, missed_at = np.concatenate(missed), np.concatenate(missed_at)
    order = np.argsort(missed)
    missed = missed[order]
    first = _firsts(missed)
    fresh = radix.unpack(missed[first]).astype(np.int32)
    at = missed_at[order]
    del missed, missed_at, order
    order = _canonical_order(law, fresh)
    place = np.empty(len(fresh), dtype=np.int32)
    place[order] = np.arange(base, base + len(fresh))
    ids[at] = place[np.cumsum(first) - 1]  # by each missed target's place among the fresh rows
    return ids, fresh[order]


def _expand_small(law, X: np.ndarray, columns, known: np.ndarray, known_ids: np.ndarray, base: int):
    """``_expand_layer`` for a layer whose known rows and targets are one
    ``_CHUNK`` of values: one stable lexsort of the rank rows of the known
    rows, then the targets, puts equal rows next to each other, a known one
    first, and the runs in canonical order."""
    S = np.concatenate((known, law.targets(X, columns)))
    ranks = law.ranking(S)(S)
    order = np.lexsort(ranks.T[::-1])
    head = _firsts(ranks[order])
    heads = order[head]
    new = heads >= len(known)
    run_ids = np.empty(len(heads), dtype=np.int32)
    run_ids[~new] = known_ids[heads[~new]]
    run_ids[new] = np.arange(base, base + np.count_nonzero(new))
    ids = np.empty(len(S), dtype=np.int32)
    ids[order] = run_ids[head.cumsum() - 1]
    return ids[len(known) :], S[heads[new]].astype(np.int32)


def _canonical_order(law, rows: np.ndarray) -> np.ndarray:
    """The permutation that puts one layer's rows in canonical order: by the
    ranks of their values in the byte order of their encodings. A layer of
    one ``_CHUNK`` of values is lexsorted on its rank rows; so is a layer
    with no new rows, which has no ranges to pack. A larger one,
    whose rank rows would outweigh its rows, has them made ``_CHUNK`` values
    at a time, twice: first for their ranges, then packed into one key."""
    ranks, per = law.ranking(rows), max(1, _CHUNK // rows.shape[1])
    if len(rows) <= per:
        return np.lexsort(ranks(rows).T[::-1])
    chunks = range(0, len(rows), per)
    bounds = [_bounds(ranks(rows[i : i + per])) for i in chunks]
    radix = _Radix(np.min([lo for lo, _ in bounds], axis=0), np.max([hi for _, hi in bounds], axis=0))
    words = np.concatenate([radix.words(ranks(rows[i : i + per])) for i in chunks])
    return np.argsort(words[:, 0]) if radix.key is None else np.lexsort(words.T[::-1])


def grow(frag: GraphFragment, cap: int, only: np.ndarray | None = None) -> None:
    """Grow ``frag`` from its root by BFS out to its radius.

    A vertex at distance < radius is expanded when it lies in the window
    and, if the mask ``only`` is given, when it holds at the vertex's id
    (``only`` is as long as the ids ``cap`` allows). The least depth
    where a vertex is not expanded is ``truncated_at``. The vertices end in
    canonical order; more than ``cap`` of them, a cap clamped to the
    2^31 - 1 ids of int32, is a ResourceCapError.

    Fixed-width kinds grow on coordinates while every coordinate stays
    below the guard; past it, and for every other kind, the ball grows
    (again) on element ids. A kind with a modulus past the guard grows on
    ids from the start: its residues pass the guard too, and a modulus
    past int64 cannot meet the int64 coordinate arrays.
    """
    cap = min(cap, np.iinfo(np.int32).max)  # vertex ids are int32
    if frag.group.width is not None:
        law = _Coordinates(frag.group)
        moduli = getattr(frag.group, "moduli", ())  # an IntVectorGroup's, None for a coordinate in Z
        if all(abs(x) < _GUARD for x in law.row(frag.root)) and all(m is None or m <= _GUARD for m in moduli):
            try:
                _bfs(frag, law, cap, only)
                return
            except _PastGuard:
                pass  # grown again below
    _bfs(frag, _Interned(frag.group), cap, only)


def _bfs(frag: GraphFragment, law, cap: int, only) -> None:
    """The layers of ``frag`` on the rows of one law. Each layer is numbered
    in canonical order as it is made, so the fragment is its layers end to
    end."""
    n, m, window = frag.n, len(frag.moves), frag.window
    columns = _move_columns(frag.moves, n)
    layers = [np.array([law.row(frag.root)], dtype=np.int32)]  # rows by depth
    starts = [0]  # by depth: id of the first vertex
    masks = {}  # depth -> expand mask of a layer that leaves some vertex unexpanded
    # rows and ids of the vertices left unexpanded at depths < d - 1
    blocked, blocked_ids = layers[0][:0], np.empty(0, dtype=np.int64)
    dart_parts = []  # by expanded layer
    for depth in range(frag.radius):
        X = layers[depth]
        base = starts[depth] + len(X)
        mask = None if window is None else law.measure(X, n) <= window
        if only is not None:
            mask = only[starts[depth] : base] if mask is None else mask & only[starts[depth] : base]
        if mask is not None and not mask.all():
            masks[depth] = mask
            if not mask.any():
                break  # the layer stays unexpanded, as the vertices past the radius do
            X = X[mask]
        out = masks.get(depth - 2)  # depth d - 2 leaves the lookup, but not its unexpanded vertices
        if out is not None:
            out = ~out
            blocked = np.concatenate((blocked, layers[depth - 2][out]))
            blocked_ids = np.concatenate((blocked_ids, starts[depth - 2] + np.flatnonzero(out)))
        # a target at depth < d - 1 would have reached its source sooner,
        # unless that was left unexpanded
        prev = max(depth - 1, 0)
        ids, fresh = _expand_layer(
            law,
            X,
            columns,
            np.concatenate([*layers[prev : depth + 1], blocked]),
            np.concatenate((np.arange(starts[prev], base), blocked_ids)),
            base,
        )
        ids = ids.reshape(len(X), m)
        if depth in masks:
            dart_parts.append(np.full((len(mask), m), -1, dtype=np.int32))
            dart_parts[-1][mask] = ids
        else:
            dart_parts.append(ids)
        del ids
        if base + len(fresh) > cap:
            raise ResourceCapError(f"vertex cap {cap} exceeded while exploring")
        if not len(fresh):
            break
        layers.append(fresh)
        starts.append(base)
    sizes = [len(x) for x in layers]
    done = sum(sizes[: len(dart_parts)])  # the vertices of the expanded layers
    frag.depths = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    frag.rows, frag.law = np.concatenate(layers), law
    del layers
    frag.expanded = np.zeros(len(frag.rows), dtype=bool)
    frag.expanded[:done] = True
    for depth, mask in masks.items():
        frag.expanded[starts[depth] : starts[depth] + len(mask)] = mask
    frag.darts = np.concatenate([*dart_parts, np.broadcast_to(np.int32(-1), (len(frag.rows) - done, m))])
    frag.truncated_at = min(masks, default=None)

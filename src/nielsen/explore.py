"""BFS enumeration of Nielsen graphs: balls, components, growth, export.

A GraphFragment is a finitely explored piece of N_n(G). Vertices are stored
in canonical order (BFS depth, then byte key). The darts are one (V, m)
int32 array: row v holds the target of each of the fragment's m moves, or
-1 in every slot when v is unexpanded. Frontier vertices (at the radius, or
outside the window) are retained unexpanded so that boundary counts over
interior sets are exact. Every fragment, a ball or an imported JSONL file,
is grown by the one BFS ``_grow``: given its root and which tuples it
expands, the moves fix everything else.

Every element kind keeps its elements in a canonical normal form with an
injective encoding, so two tuples are equal exactly when their byte keys
are; the key fixes only the order of the vertices within a layer. ``_grow``
is one BFS, in ``nielsen.layers``, that keeps each vertex as an int32 row
in one of two law forms: the coordinates of a fixed-width kind (``Integers``,
every ``IntVectorGroup``, and ``FiniteCayley`` on its table indices), or
interned element ids for ``FreeGroup`` and for balls whose ints reach that
module's guard. Tuples and keys are decoded from the rows when asked for.
The JSONL and DOT text of a fragment is written, and JSONL read, by
``nielsen.serialize``, which only an export or an import compiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, UsageError, VerificationError, count_text
from .groups import DEFAULT_VERTEX_CAP, FiniteTable, Group, State
from .moves import I, Move, R, move_inverse, move_set

# components keeps one int32 label per tuple on a tensor with one axis per
# entry, and numpy arrays have at most 64 axes; fragments keep int32 vertex ids
_LABEL_LIMIT = 2**31
_MAX_AXES = 64


def state_key(group: Group, state: State) -> bytes:
    """Canonical byte key of a tuple: concatenated element encodings."""
    return b"".join(group.encode_element(g) for g in state)


@dataclass(eq=False)
class GraphFragment:
    group: Group
    n: int
    moves: tuple[Move, ...]
    root: State
    radius: int
    window: int | None
    depths: np.ndarray = field(default=None, repr=False)    # (V,) int32
    expanded: np.ndarray = field(default=None, repr=False)  # (V,) bool
    darts: np.ndarray = field(default=None, repr=False)     # (V, m) int32, -1 rows where unexpanded
    truncated_at: int | None = None  # least depth where the window blocked expansion
    rows: np.ndarray = field(default=None, repr=False)      # (V, k) int32: coordinates or element ids
    law: object = field(default=None, repr=False)           # the ``nielsen.layers`` law that decodes them
    _states: list | None = field(default=None, repr=False)
    _keys: list | None = field(default=None, repr=False)
    _index: dict | None = field(default=None, repr=False)

    @property
    def truncated(self) -> bool:
        return self.truncated_at is not None

    def __len__(self) -> int:
        return len(self.depths)

    @property
    def states(self) -> list[State]:
        if self._states is None:
            self._states = self.law.states(self.rows)
        return self._states

    @property
    def keys(self) -> list[bytes]:
        """Canonical byte key of every vertex."""
        if self._keys is None:
            self._keys = self.law.keys(self.rows)
        return self._keys

    @property
    def index(self) -> dict[State, int]:
        """Tuple -> vertex."""
        if self._index is None:
            self._index = {s: v for v, s in enumerate(self.states)}
        return self._index

    def vertex_index(self, state: State) -> int:
        try:
            return self.index[tuple(state)]
        except (KeyError, TypeError):
            raise UsageError(f"tuple {state!r} is not a vertex of this fragment") from None

    def ball_indices(self, r: int) -> list[int]:
        return np.flatnonzero(self.depths <= r).tolist()

    def validate(self) -> None:
        """Check regular out-degree, dart targets and dart symmetry on the
        arrays: an expanded vertex has one dart per move into the fragment,
        an unexpanded one none, and a dart into an expanded vertex comes
        back under the inverse move. VerificationError if not."""
        size, m = len(self), len(self.moves)
        if self.darts.shape != (size, m) or self.expanded.shape != (size,):
            raise VerificationError("fragment arrays do not hold one dart per vertex and move")
        if ((self.darts != -1).any(axis=1) & ~self.expanded).any():
            raise VerificationError("unexpanded vertex with darts")
        # read as uint32, -1 is 2^32 - 1: one compare finds every target out of range
        if ((self.darts.view(np.uint32) >= size).any(axis=1) & self.expanded).any():
            raise VerificationError("dart target missing")
        out = self.darts[self.expanded]
        inv = np.array([self.moves.index(move_inverse(mv)) for mv in self.moves], dtype=np.intp)
        back = self.darts[out, inv]
        if ((back != np.flatnonzero(self.expanded)[:, None]) & self.expanded[out]).any():
            raise VerificationError("dart symmetry violated")

    # -- serialization ----------------------------------------------------

    def dot_lines(self):
        """The DOT text, line by line: the header comments, one node per
        vertex and one edge per dart."""
        from . import serialize  # imported here, so that ``import nielsen`` does not compile it

        return serialize.dot_lines(self)

    def to_dot(self) -> str:
        return "".join(self.dot_lines())

    def jsonl_lines(self):
        """The JSONL lines, one per vertex in order, each with its newline:
        ``json.dumps(record, sort_keys=True)`` of the vertex's darts (a list
        of ``{"move", "to"}`` in move order, or null when unexpanded), depth,
        tuple and hex key, formatted from the arrays."""
        from . import serialize

        return serialize.jsonl_lines(self)

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())


def _grow(frag: GraphFragment, cap: int, only: dict | None = None) -> None:
    """Grow ``frag`` from its root by BFS out to its radius.

    A vertex at distance < radius is expanded when it lies in the window
    and, if ``only`` is given, when ``only.get(tuple)`` holds; the least
    depth where one is not is ``truncated_at``. The vertices end in
    canonical order; more than ``cap`` of them is a ResourceCapError.
    """
    from . import layers  # imported here, so that ``import nielsen`` does not compile it

    layers.grow(frag, min(cap, _LABEL_LIMIT - 1), only)  # vertex ids are int32


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
        for mv in moves:
            if max(mv.i, mv.j) > n:
                raise UsageError(f"move {mv} out of range for tuple length {n}")
    if window is not None and max(map(group.measure, root)) > window:
        raise UsageError(f"root lies outside the window {window}")

    if cap < 1:
        raise ResourceCapError(f"vertex cap {cap} exceeded while exploring")
    frag = GraphFragment(group=group, n=n, moves=moves, root=root, radius=radius, window=window)
    _grow(frag, cap)
    frag.validate()
    return frag


def fragment_from_jsonl(group: Group, n: int, text: str) -> GraphFragment:
    """Read a fragment in the canonical form that ``to_jsonl`` writes.

    Only the root (the first line, which must generate the group) and which
    tuples are expanded (their ``adj`` is a list) are taken as given: the
    fragment is grown again by the BFS of ``ball``, and every line must
    equal the record of its vertex. Any difference, or a malformed line, is
    a UsageError. A file that is exactly the text ``to_jsonl`` writes for
    the regrown fragment is accepted on that comparison alone; any other is
    parsed line by line (``nielsen.serialize``).
    """
    from . import serialize

    return serialize.read_jsonl(group, n, text)


def growth_profile(frag: GraphFragment) -> list[tuple[int, int]]:
    """Cumulative ball sizes (r, |B_r|) for r = 0..radius.

    When the graph is exhausted before the radius, the trailing balls
    repeat the final count (the whole graph has been found); a profile of
    more rows than the vertex cap is refused before it is padded.
    """
    if frag.truncated:
        raise UsageError(
            f"growth profile is unreliable: window {frag.window} truncated expansion at depth {frag.truncated_at}"
        )
    out = []
    total = 0
    for r, c in enumerate(np.bincount(frag.depths).tolist()):
        total += c
        out.append((r, total))
    if frag.expanded.all():  # graph exhausted before the radius
        if frag.radius >= DEFAULT_VERTEX_CAP:
            raise ResourceCapError(f"growth profile of {count_text(frag.radius + 1)} rows "
                                   f"exceeds cap {DEFAULT_VERTEX_CAP}")
        out.extend((r, total) for r in range(len(out), frag.radius + 1))
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
    if order > 1 and n * order.bit_length() > 1 << 16:  # |G|^n is not even computed
        raise ResourceCapError(f"state count {count_text(order)}^{n} exceeds the int32 label limit {_LABEL_LIMIT - 1}")
    total = order**n
    if total >= _LABEL_LIMIT:
        raise ResourceCapError(f"state count {count_text(total)} exceeds the int32 label limit {_LABEL_LIMIT - 1}")
    if total > cap:
        raise ResourceCapError(f"state count {count_text(total)} exceeds cap {cap}")
    if order**2 > cap:
        raise ResourceCapError(f"multiplication table of {count_text(order)}^2 entries exceeds cap {cap}")
    return total


def components(group: Group, n: int, cap: int = DEFAULT_VERTEX_CAP) -> ComponentsReport:
    """Partition all generating n-tuples of a finite group into Nielsen classes.

    Minimum-label propagation over the full tuple space, numbered in
    ``itertools.product`` order: every class is labelled by its least
    position, whose tuple is its representative. The labels are one int32
    tensor with one axis per entry; each round keeps one copy to detect the
    fixed point. A round applies Nielsen's generators of Aut(F_n), not
    ``move_set(n)``: the swap of entries 1 and 2 and the n-cycle (one
    transpose each), ``R(1,2,+)`` (one gather) and ``I(1)`` (one take).
    They have the orbits of the moves. The cycle conjugates them into every
    ``R(i,i+1,+)`` and ``I(j)``; ``R(1,2,-) R(2,3,+) R(1,2,+) R(2,3,-)``,
    applied left to right, is ``R(1,3,+)``, which gives every ``R(i,j,+)``,
    their inverses ``R(i,j,-)`` are their powers, and ``L(i,j,s) = I(i)
    R(i,j,-s) I(i)``. Each label is pulled from g(x), so it stays in the
    orbit of x, and g^-1 is a power of g: the fixed point is the least
    position of each orbit, whatever the generating set. The swap is
    redundant for n >= 3 and is the cycle for n = 2, but it halves the
    rounds (Z/9 at n = 6: 8, not 16). Moves preserve the generated
    subgroup, so the restriction to generating tuples afterwards is exact.
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

    flat = np.arange(total, dtype=np.int32)
    cube = flat.reshape((tab.order,) * n)
    columns = np.arange(tab.order)
    # numpy buffers a ufunc input that overlaps ``out``, so the in-place
    # updates from transposed views are exact
    while True:
        before = flat.copy()
        if n > 1:
            np.minimum(cube, cube.transpose(1, 0, *range(2, n)), out=cube)  # swap entries 1, 2
            np.minimum(cube, cube.transpose(*range(1, n), 0), out=cube)  # n-cycle of entries
            np.minimum(cube, cube[tab.table, columns], out=cube)  # R(1,2,+)
        np.minimum(cube, np.take(cube, tab.inverses, axis=0), out=cube)  # I(1)
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
    is exact. A step that would take the word past ``DEFAULT_VERTEX_CAP``
    moves raises ResourceCapError before it is taken.
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
        if len(word) + times > DEFAULT_VERTEX_CAP:
            raise ResourceCapError(f"euclid word of more than {DEFAULT_VERTEX_CAP} moves exceeds the cap")
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

"""BFS enumeration of Nielsen graphs: balls, components, growth, export.

A GraphFragment is a finitely explored piece of N_n(G). Vertices are stored
in canonical order (BFS depth, then byte key). The darts are one (V, m)
int32 array: row v holds the target of each of the fragment's m moves, or
-1 in every slot when v is unexpanded. Frontier vertices (at the radius, or
outside the window) are retained unexpanded so that boundary counts over
interior sets are exact. Every fragment, a ball or an imported JSONL file,
is grown by the one BFS ``nielsen.layers.grow``: given its root and which
tuples it expands, the moves fix everything else.

Every element kind keeps its elements in a canonical normal form with an
injective encoding, so two tuples are equal exactly when their byte keys
are; the key fixes only the order of the vertices within a layer. The BFS
keeps each vertex as an int32 row in one of two law forms: the coordinates
of a fixed-width kind (``Integers``, every ``IntVectorGroup``, and
``FiniteCayley`` on its table indices), or interned element ids for
``FreeGroup`` and for balls whose ints reach that module's guard. It
numbers each layer canonically as it makes it, so every vertex id is final
from birth. Tuples and keys are decoded from the rows when asked for. The
JSONL and DOT text of a fragment is written, and JSONL read, by
``nielsen.serialize``, which only an export or an import compiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceCapError, UsageError, VerificationError, count_text
from .groups import DEFAULT_VERTEX_CAP, Group, State
from .moves import I, Move, R, move_inverse, move_set


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

    @property
    def truncated(self) -> bool:
        return self.truncated_at is not None

    def __len__(self) -> int:
        return len(self.depths)

    @cached_property
    def states(self) -> list[State]:
        return self.law.states(self.rows)

    @cached_property
    def keys(self) -> list[bytes]:
        """Canonical byte key of every vertex."""
        return self.law.keys(self.rows)

    @cached_property
    def index(self) -> dict[State, int]:
        """Tuple -> vertex."""
        return {s: v for v, s in enumerate(self.states)}

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
    from . import layers  # imported here, so that ``import nielsen`` does not compile it

    frag = GraphFragment(group=group, n=n, moves=moves, root=root, radius=radius, window=window)
    layers.grow(frag, cap)
    frag.validate()
    return frag


def fragment_from_jsonl(group: Group, n: int, text: str) -> GraphFragment:
    """Read a fragment in the canonical form that ``to_jsonl`` writes.

    Only the root (the first line, which must generate the group) and which
    vertices are expanded (line k's ``adj`` is a list for the vertex at
    canonical position k) are taken as given: the fragment is grown again
    by the BFS of ``ball``, and every line must equal the record of its
    vertex. Any difference, or a malformed line, is a UsageError. A file
    that is exactly the text ``to_jsonl`` writes is accepted on that
    comparison alone; any other is parsed line by line (``nielsen.serialize``).
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


def components(group: Group, n: int, cap: int = DEFAULT_VERTEX_CAP):
    """Partition all generating n-tuples of a finite group into Nielsen
    classes: a ``nielsen.orbits.ComponentsReport`` of the class sizes, their
    representatives (least tuples in ``itertools.product`` order) and the
    classes themselves, found on B_n-orbits (see ``nielsen.orbits``). The
    cap bounds the |G|^2 multiplication table and the orbit edges."""
    from . import orbits  # imported here, so that ``import nielsen`` does not compile it

    return orbits.components(group, n, cap)


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

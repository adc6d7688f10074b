"""Nielsen classes of a finite group on signed-permutation orbits.

Entry permutations and entry inversions are products of Nielsen moves and
form the hyperoctahedral group B_n, so every Nielsen class of generating
n-tuples is a union of B_n-orbits. An orbit is a multiset of n inverse pairs
{x, x^-1}: with K pairs there are C(K+n-1, n) orbits, where there are |G|^n
tuples. ``components`` partitions the orbits into classes; a
``ComponentsReport`` expands them into tuples only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceCapError, UsageError, count_text
from .groups import DEFAULT_VERTEX_CAP, FiniteTable, Group, State, _fold

# cells of the sorted move-image rows that ``components`` ranks at once
_MOVED_CELLS = 1 << 22


@dataclass
class ComponentsReport:
    """The Nielsen classes of the generating n-tuples, each a union of
    B_n-orbits: sorted rows of ids of ``table.pairs``."""

    group: Group
    n: int
    total_tuples: int
    generating_count: int
    sizes: list[int]                    # aligned with representatives
    representatives: list[State]
    table: FiniteTable
    orbits: np.ndarray = field(repr=False)  # (orbits, n) pair ids, class by class, each class in lex order
    starts: np.ndarray = field(repr=False)  # first orbit of each class, then the orbit count

    @property
    def num_components(self) -> int:
        return len(self.sizes)

    def _tuples(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every tuple of the orbits ``rows``: its n index columns and the
        row it lies in, in no particular order. Each step appends one entry
        to every prefix: either member of the pair of a remaining entry,
        taking the first of equal remaining entries only."""
        src = np.arange(len(rows))
        used = np.zeros(rows.shape, dtype=bool)
        cols = np.zeros((0, len(rows)), dtype=np.intp)
        for _ in range(self.n):
            r = rows[src]
            free = ~used
            free[:, 1:] &= (r[:, 1:] != r[:, :-1]) | used[:, :-1]
            p, c = np.nonzero(free)
            lo, hi = self.table.pairs[r[p, c]].T
            two = lo != hi
            p, c = np.concatenate([p, p[two]]), np.concatenate([c, c[two]])
            used = used[p]
            used[np.arange(len(p)), c] = True
            cols = np.vstack([cols[:, p], np.concatenate([lo, hi[two]])])
            src = src[p]
        return cols, src

    def members(self, comp: int) -> list[State]:
        """The tuples of one class, in enumeration order."""
        cols, _ = self._tuples(self.orbits[self.starts[comp] : self.starts[comp + 1]])
        elements = self.table.elements
        return [tuple(elements[k] for k in t) for t in zip(*cols[:, np.lexsort(cols[::-1])].tolist())]

    @cached_property
    def positions(self) -> np.ndarray:
        """The enumeration positions of the generating tuples, class by
        class, each class increasing; Python ints past int64."""
        cols, src = self._tuples(self.orbits)
        cols = cols[:, np.lexsort([*cols[::-1], np.searchsorted(self.starts, src, side="right")])]
        pos = np.zeros(cols.shape[1], dtype=np.int64 if self.total_tuples <= 2**63 else object)
        for col in cols:
            pos = pos * self.table.order + col.astype(pos.dtype)
        return pos


def _orbit_sizes(rows: np.ndarray, two: np.ndarray, dtype) -> np.ndarray:
    """Tuples in each orbit: the multinomial of its row (the prefix products
    n! / prod c! stay integers) times 2 for each entry of a pair of two."""
    size = np.ones(len(rows), dtype=dtype)
    run = np.ones(len(rows), dtype=np.intp)
    for c in range(1, rows.shape[1]):
        run = np.where(rows[:, c] == rows[:, c - 1], run + 1, 1)
        size = size * (c + 1) // run.astype(dtype)
    return size << _fold(np.add, two[rows], np.intp).astype(dtype)


@dataclass
class GeneratingOrbits:
    """The generating B_n-orbits of a finite group, in lex order, with the
    tuples in each: the first step of ``components``, before any orbit edge."""

    group: Group
    n: int
    table: FiniteTable
    total: int                          # all orbits, C(K+n-1, n)
    ranks: np.ndarray = field(repr=False)  # the lex rank of each generating orbit
    rows: np.ndarray = field(repr=False)   # its sorted row of pair ids
    sizes: np.ndarray = field(repr=False)  # its tuples, int64 or Python ints

    @property
    def count(self) -> int:
        """The generating n-tuples."""
        return int(self.sizes.sum())


def generating_orbits(group: Group, n: int, cap: int = DEFAULT_VERTEX_CAP) -> GeneratingOrbits:
    """The first step of ``components``: every orbit edge bound is checked
    first, then the orbits are listed and tested for generation on their
    least tuples."""
    if not group.is_finite:
        raise UsageError("components requires a finite group")
    if n < 1:
        raise UsageError("components requires n >= 1")
    if group.order**2 > cap:
        raise ResourceCapError(f"multiplication table of {count_text(group.order)}^2 entries exceeds cap {cap}")
    moves = 4 * n * (n - 1)
    if moves > cap:
        raise ResourceCapError(f"{count_text(moves)} moves per orbit exceed cap {cap}")
    tab = FiniteTable.of(group)
    lo = tab.pairs[:, 0]
    total = math.comb(len(lo) + n - 1, n)  # K <= |G| and moves <= cap: comb stays cheap
    if total * moves > cap:
        raise ResourceCapError(f"orbit edges of {count_text(total)} orbits x {moves} moves exceed cap {cap}")
    rows = tab.orbit_rows(n)
    ranks = np.flatnonzero(tab.generating(lo[rows].T))
    rows = rows[ranks]
    exact = np.int64 if tab.order**n * n < 2**63 else object
    return GeneratingOrbits(group, n, tab, total, ranks, rows, _orbit_sizes(rows, lo != tab.pairs[:, 1], exact))


def classes(orbits: GeneratingOrbits) -> ComponentsReport:
    """The second step of ``components``: the Nielsen classes of the
    generating orbits, found by minimum-label propagation over orbit edges."""
    tab, n, rows, total = orbits.table, orbits.n, orbits.rows, orbits.total
    k = len(tab.pairs)
    moves = 4 * n * (n - 1)
    least = tab.pairs[rows.T, 0]  # (n, orbits): the orbit axis last, as in targets
    least_inv = tab.inverses[least]
    dtype = np.int32 if total < 2**31 else np.int64
    index = np.full(total, -1, dtype=dtype)  # lex rank -> generating orbit
    index[orbits.ranks] = np.arange(len(rows), dtype=dtype)
    pair_of = np.empty(tab.order, dtype=rows.dtype)
    pair_of[tab.pairs] = np.arange(k)[:, None]
    # the lex rank of a sorted row a is total - 1 - sum_c comb(k+n-2-a_c-c, n-c)
    terms = np.array([[math.comb(k + n - 2 - a - c, n - c) for a in range(k)] for c in range(n)], dtype=np.int64)
    rest = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp).reshape(n, n - 1)
    # orbit last, so that label[targets] reduces across rows of all orbits
    targets = np.empty((n, 4 * (n - 1), len(rows)), dtype=dtype)
    step = max(1, _MOVED_CELLS // max(1, len(rows) * moves))  # entries i whose images are ranked at once
    for i in range(0, n, step):
        others = rest[i : i + step]
        xi, xj, xj_inv = least[i : i + step, None], least[others], least_inv[others]
        images = np.concatenate([tab.table[xi, xj], tab.table[xi, xj_inv], tab.table[xj, xi], tab.table[xj_inv, xi]], 1)
        moved = np.empty(images.shape + (n,), dtype=rows.dtype)
        moved[..., :-1] = rows[:, others].transpose(1, 0, 2)[:, None]
        moved[..., -1] = pair_of[images]
        moved.sort(axis=-1)
        targets[i : i + step] = index[total - 1 - sum(terms[c, moved[..., c]] for c in range(n))]
    targets = targets.reshape(moves, len(rows))

    label = np.arange(len(rows), dtype=dtype)
    while True:
        pulled = np.minimum(label, label[targets].min(axis=0, initial=len(rows)))
        pulled = pulled[pulled]
        if np.array_equal(pulled, label):
            break
        label = pulled

    by_label = np.argsort(label, kind="stable")
    reps = np.flatnonzero(label == np.arange(len(rows)))  # each class's least orbit labels itself
    starts = np.concatenate([[0], np.cumsum(np.bincount(label, minlength=len(rows))[reps])])
    sizes = orbits.sizes[by_label]
    return ComponentsReport(
        group=orbits.group,
        n=n,
        total_tuples=tab.order**n,
        generating_count=orbits.count,
        sizes=np.add.reduceat(sizes, starts[:-1]).tolist() if len(reps) else [],
        representatives=[tuple(tab.elements[x] for x in t) for t in least[:, reps].T.tolist()],
        table=tab,
        orbits=rows[by_label],
        starts=starts,
    )


def components(group: Group, n: int, cap: int = DEFAULT_VERTEX_CAP) -> ComponentsReport:
    """Partition all generating n-tuples of a finite group into Nielsen classes.

    Entry permutations and inversions are products of moves and form the
    hyperoctahedral group B_n, so every class is a union of B_n-orbits: an
    orbit is a multiset of n inverse pairs {x, x^-1}, one sorted row of pair
    ids, and its least tuple in ``itertools.product`` order takes the least
    member of each pair. There are C(K+n-1, n) orbits for K pairs, listed in
    lex order, which is the order of their least tuples. Generation is
    B_n-invariant and is tested on the least tuples. B_n conjugates the
    ``R/L(i,j,+-)`` moves among themselves, so applying each of them to
    every least tuple reaches every orbit that a move reaches from any
    member. Each image is put in its orbit by sorting its pair ids and
    ranking the sorted row in the combinatorial number system. Minimum-label
    propagation over these orbit edges, with pointer jumping, labels every
    class by its least orbit, whose least tuple is the class's least tuple,
    its representative. An orbit holds n!/prod(c!) * 2^h tuples, c the pair
    multiplicities and h its entries whose pair has two members.

    The cap bounds the |G|^2 entries of the multiplication table, checked
    before it is built, and the orbits x 4n(n-1) orbit edges, not |G|^n.
    It runs ``generating_orbits`` and then ``classes``.
    """
    return classes(generating_orbits(group, n, cap))

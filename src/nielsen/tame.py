"""Automorphism groups of finite groups and the subgroup induced by moves.

For a finite relatively free group of rank d, the generating d-tuples are in
bijection with the automorphisms: each tuple is the image of a designated
base tuple under exactly one automorphism. The moves act on tuples, hence
induce automorphisms; the subgroup they generate acts on each Nielsen class
and every class is its Cayley graph with respect to the move labels. This
module enumerates both sides exhaustively and checks the match.

Aut(G) is one (A, |G|) array: row k sends the base to the generating tuple
at the k-th enumeration position, so phi o psi needs phi only at psi(base).
A dense array over all |G|^d tuples turns a tuple into its row with one
gather. Each move automorphism a gives one step row, r -> r o a, built once;
the tame subgroup, and the coset of it that each Nielsen class is, are row
masks grown by BFS along the steps, and moves act on whole index columns
through ``moves.apply_move``. Every step is a gather.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceCapError, UsageError, VerificationError, count_text
from .explore import DEFAULT_VERTEX_CAP
from .groups import FiniteTable, Group
from .moves import Move, apply_move, move_set

if TYPE_CHECKING:
    from .orbits import ComponentsReport

# cells (edges x A) of one block of aut_group's gathers: small enough to stay in cache
_BLOCK_CELLS = 1 << 14


class NotRelativelyFreeError(UsageError):
    """Raised when the generating-tuple/automorphism bijection fails.

    Carries the observed counts so the discrepancy can be reported instead
    of silently proceeding with a partial automorphism list.
    """

    def __init__(self, group: Group, d: int, generating: int, extending: int):
        self.generating = generating
        self.extending = extending
        super().__init__(
            f"{group.kind} is not relatively free of rank {d}: "
            f"{generating} generating {d}-tuples but only {extending} extend to automorphisms"
        )


@dataclass
class AutAction:
    """Aut(G) as one array of element-index permutations, tied to generating d-tuples."""

    table: FiniteTable                  # also the law on index columns, for apply_move
    d: int
    base: tuple[int, ...]
    classes: ComponentsReport           # the Nielsen classes of the generating d-tuples
    positions: np.ndarray               # of the generating d-tuples, increasing
    perms: np.ndarray                   # (A, |G|): row k sends base to the tuple at positions[k]
    row_of: np.ndarray                  # (|G|^d,) int32: k at positions[k], -1 off the generating tuples
    tame_flags: np.ndarray | None = None  # row mask of the tame subgroup, set by tame_subgroup
    steps: np.ndarray | None = None     # (moves, A), move_set order: the row of r o a_mv at r; set by tame_subgroup

    @property
    def order(self) -> int:
        return len(self.positions)

    def rows(self, cols) -> np.ndarray:
        """Rows sending base to d index columns (or one tuple); -1 off the generating tuples."""
        return self.row_of[np.ravel_multi_index(cols, (self.table.order,) * self.d)]

    def after(self, rows, inner) -> np.ndarray:
        """Rows of phi o psi for each row phi, where psi(base) = ``inner``."""
        return self.rows(self.perms[np.asarray(rows)[None, :], np.asarray(inner)[:, None]])

    def carrying(self, src: int, dst) -> np.ndarray:
        """Rows of phi_dst o phi_src^-1, carrying the tuple of row ``src`` to those of ``dst``."""
        return self.after(dst, np.argsort(self.perms[src])[list(self.base)])


def _check_tuple_space(order: int, d: int) -> None:
    """The |G|^d tuples that Aut(G) is laid out on, and the |G|^2
    multiplication table, within the vertex cap; ResourceCapError if not."""
    if order > 1 and d * order.bit_length() > 1 << 16:  # |G|^d is not even computed
        raise ResourceCapError(f"state count {count_text(order)}^{d} exceeds cap {DEFAULT_VERTEX_CAP}")
    if order**d > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(f"state count {count_text(order**d)} exceeds cap {DEFAULT_VERTEX_CAP}")
    if order**2 > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(
            f"multiplication table of {count_text(order)}^2 entries exceeds cap {DEFAULT_VERTEX_CAP}"
        )


def _blocks(edges: list[tuple[int, int, int]], width: int):
    """The columns (g, k, h) of the edges, ``width`` edges at a time."""
    edges = np.array(edges, dtype=np.intp).reshape(-1, 3)
    return (edges[i : i + width].T for i in range(0, len(edges), width))


def aut_group(group: Group, d: int) -> AutAction:
    """All automorphisms of a finite relatively free group of rank d.

    Extends base -> t for every generating d-tuple t at once, where the base
    is the group's standard generators, one gather per edge of a BFS tree of
    the Cayley graph of G with respect to the base, and checks each map to
    be a bijective homomorphism; if any is not, the group is not relatively
    free of rank d and NotRelativelyFreeError reports the discrepancy. The
    tuples t come from ``components``, kept as ``classes``. Sizes are checked
    against the vertex cap before the base is looked up and before each array
    is built: the automorphism array as soon as the generating orbits are
    counted, before any orbit edge.
    """
    from . import orbits  # imported here, so that ``import nielsen`` does not compile it

    if not group.is_finite:
        raise UsageError(f"{group.kind} is not a finite group")
    _check_tuple_space(group.order, d)
    base_vals = group.standard_generators()
    if len(base_vals) != d:
        raise UsageError(f"d = {d} must equal the rank {len(base_vals)} of the group")
    tab = FiniteTable.of(group)
    base_idx = tuple(tab.index[g] for g in base_vals)
    # a BFS tree of the Cayley graph of G with respect to the base, layer by
    # layer, edges (g, k, g * b_k); the other edges are its chords
    layers, chords, reached, frontier = [], [], {tab.id_idx}, [tab.id_idx]
    while frontier:
        layers.append([])
        for g in frontier:
            for k, bk in enumerate(base_idx):
                h = tab.table.item(g, bk)
                if h in reached:
                    chords.append((g, k, h))
                else:
                    reached.add(h)
                    layers[-1].append((g, k, h))
        frontier = [h for _, _, h in layers[-1]]
    if len(reached) < tab.order:
        raise UsageError("standard generators do not generate the group")

    generating = orbits.generating_orbits(group, d)
    if generating.count * tab.order > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(
            f"automorphism array of {generating.count} x {tab.order} entries exceeds cap {DEFAULT_VERTEX_CAP}"
        )
    classes = orbits.classes(generating)
    positions = np.sort(classes.positions)
    targets = np.array(np.unravel_index(positions, (tab.order,) * d))
    flat = tab.table.ravel()
    width = max(1, _BLOCK_CELLS // len(positions))  # edges a block
    # images[g] = phi(g) for every row phi, so perms = images.T is Fortran-
    # ordered; phi(g * b_k) = phi(g) * t_k along the tree, one layer at a time
    images = np.empty((tab.order, len(positions)), dtype=np.intp)
    images[tab.id_idx] = tab.id_idx
    for layer in layers:
        for g, k, h in _blocks(layer, width):
            images[h] = flat[images[g] * tab.order + targets[k]]
    # the same at every chord makes phi a homomorphism; a homomorphism is
    # bijective iff only the identity maps to the identity
    ok = np.ones(len(positions), dtype=bool)
    for g, k, h in _blocks(chords, width):
        ok &= (flat[images[g] * tab.order + targets[k]] == images[h]).all(axis=0)
    ok &= (images == tab.id_idx).sum(axis=0) == 1
    if not ok.all():
        raise NotRelativelyFreeError(group, d, len(positions), int(ok.sum()))
    row_of = np.full(tab.order**d, -1, dtype=np.int32)
    row_of[positions] = np.arange(len(positions), dtype=np.int32)
    return AutAction(table=tab, d=d, base=base_idx, classes=classes, positions=positions, perms=images.T, row_of=row_of)


@dataclass
class TameReport:
    aut_order: int
    tame_order: int
    index: int


def move_automorphisms(act: AutAction) -> dict[Move, int]:
    """The row of the automorphism induced by each move: the one carrying
    the base to base.move."""
    moves = move_set(act.d)
    targets = np.array([apply_move(act.table, act.base, mv) for mv in moves]).T
    rows = act.rows(targets)
    bad = np.flatnonzero(rows < 0)
    if bad.size:
        target = tuple(targets[:, bad[0]].tolist())
        raise VerificationError(f"move image {target} of the base is not a generating tuple")
    return dict(zip(moves, rows.tolist()))


def _steps(act: AutAction, gens) -> np.ndarray:
    """Row i sends each row r to the row of r o gens[i]: one ``after`` a generator."""
    return np.array([act.after(np.arange(act.order), act.perms[g, list(act.base)]) for g in gens])


def _closure(steps: np.ndarray, start: int) -> np.ndarray:
    """Row mask of start o H, H the subgroup generated by the automorphisms
    whose right multiplications are the rows of ``steps``: a BFS from
    ``start``, one gather a round, with the mask removing repeats."""
    member = np.zeros(steps.shape[1], dtype=bool)
    member[start] = True
    frontier = np.array([start])
    while frontier.size:
        fresh = np.zeros_like(member)
        fresh[steps[:, frontier]] = True
        fresh &= ~member
        member |= fresh
        frontier = np.flatnonzero(fresh)
    return member


def tame_subgroup(act: AutAction) -> TameReport:
    """Closure of the move-induced automorphisms, with its index in Aut(G)."""
    act.steps = _steps(act, move_automorphisms(act).values())
    act.tame_flags = _closure(act.steps, int(act.rows(act.base)))
    tame_order = int(act.tame_flags.sum())
    if act.order % tame_order != 0:
        raise VerificationError("tame subgroup order does not divide Aut order")
    return TameReport(
        aut_order=act.order,
        tame_order=tame_order,
        index=act.order // tame_order,
    )


@dataclass
class ComponentStructureReport:
    group: Group
    d: int
    aut_order: int
    tame_order: int
    index: int
    num_components: int
    component_sizes: list[int]
    components_isomorphic: bool
    cayley_match: bool

    @property
    def ok(self) -> bool:
        return (
            self.num_components == self.index
            and all(s == self.tame_order for s in self.component_sizes)
            and self.components_isomorphic
            and self.cayley_match
        )

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "group": self.group.spec_json(), "ok": self.ok}


def verify_component_structure(group: Group, d: int) -> ComponentStructureReport:
    """Exhaustively match the Nielsen classes of N_d(G) with Cayley graphs of
    the move-induced automorphism subgroup.

    Checks: the number of classes equals the index of the tame subgroup T;
    every class has its size; each class maps label-preservingly onto the
    Cayley graph of T: its rows are the coset phi o T, phi the row of its
    representative, and each move sends a member's row r to r o a_mv, a_mv
    the move's automorphism of the base; and the automorphism action carries
    class 0 onto every other class. Any failure raises VerificationError (the
    statements are theorems for relatively free groups).
    """
    act = aut_group(group, d)
    tame = tame_subgroup(act)

    dims = (act.table.order,) * d
    # each class increasing, so its first position is its representative
    classes = np.split(act.classes.positions, np.cumsum(act.classes.sizes)[:-1])
    rep_rows = []
    cayley_match = True
    for cls in classes:
        cols = np.unravel_index(cls, dims)
        rows = act.rows(cols)  # every class tuple has a row: positions are the classes' tuples
        rep_rows.append(int(rows[0]))
        coset = _closure(act.steps, rep_rows[-1])
        if not (len(rows) == coset.sum() and coset[rows].all()):
            cayley_match = False
        for mv, step in zip(move_set(d), act.steps):
            if not np.array_equal(act.rows(apply_move(act.table, cols, mv)), step[rows]):
                cayley_match = False

    components_isomorphic = True
    first = np.unravel_index(classes[0], dims)
    for cls, row in zip(classes[1:], rep_rows[1:]):
        gamma = act.perms[act.carrying(rep_rows[0], [row])[0]]
        if not np.array_equal(np.sort(np.ravel_multi_index(tuple(gamma[c] for c in first), dims)), cls):
            components_isomorphic = False

    return ComponentStructureReport(
        group=group,
        d=d,
        aut_order=act.order,
        tame_order=tame.tame_order,
        index=tame.index,
        num_components=act.classes.num_components,
        component_sizes=sorted(act.classes.sizes, reverse=True),
        components_isomorphic=components_isomorphic,
        cayley_match=cayley_match,
    )

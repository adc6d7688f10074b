"""Automorphism groups of finite groups and the subgroup induced by moves.

For a finite relatively free group of rank d, the generating d-tuples are in
bijection with the automorphisms: each tuple is the image of a designated
base tuple under exactly one automorphism. The moves act on tuples, hence
induce automorphisms; the subgroup they generate acts on each Nielsen class
and every class is its Cayley graph with respect to the move labels. This
module enumerates both sides exhaustively and checks the match.

Aut(G) is one (A, |G|) array: row k sends the base to the generating tuple
at the k-th enumeration position, so phi o psi needs phi only at psi(base),
a subgroup is a row mask grown by BFS, and moves act on whole index columns
through ``moves.apply_move``. Every step is a gather.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ResourceCapError, UsageError, VerificationError
from .explore import DEFAULT_VERTEX_CAP, ComponentsReport, check_finite_sizes, components
from .groups import FiniteTable, Group
from .moves import Move, apply_move, move_set


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
    positions: np.ndarray               # of the generating d-tuples, increasing
    perms: np.ndarray                   # (A, |G|): row k sends base to the tuple at positions[k]
    tame_flags: np.ndarray | None = None  # row mask of the tame subgroup, set by tame_subgroup

    @property
    def order(self) -> int:
        return len(self.positions)

    def rows(self, cols) -> np.ndarray:
        """Rows sending base to d index columns (or one tuple); -1 off the generating tuples."""
        pos = np.ravel_multi_index(cols, (self.table.order,) * self.d)
        k = np.minimum(np.searchsorted(self.positions, pos), self.order - 1)
        return np.where(self.positions[k] == pos, k, -1)

    def after(self, rows, inner) -> np.ndarray:
        """Rows of phi o psi for each row phi, where psi(base) = ``inner``."""
        return self.rows(self.perms[np.asarray(rows)[None, :], np.asarray(inner)[:, None]])

    def carrying(self, src: int, dst) -> np.ndarray:
        """Rows of phi_dst o phi_src^-1, carrying the tuple of row ``src`` to those of ``dst``."""
        return self.after(dst, np.argsort(self.perms[src])[list(self.base)])


def aut_group(group: Group, d: int) -> AutAction:
    """All automorphisms of a finite relatively free group of rank d.

    Extends base -> t for every generating d-tuple t at once, where the base
    is the group's standard generators, one gather per edge of a BFS tree of
    the Cayley graph of G with respect to the base, and checks each map to
    be a bijective homomorphism; if any is not, the group is not relatively
    free of rank d and NotRelativelyFreeError reports the discrepancy. Sizes
    are checked against the vertex cap before the base is looked up and
    before each array is built.
    """
    if not group.is_finite:
        raise UsageError(f"{group.kind} is not a finite group")
    check_finite_sizes(group.order, d, DEFAULT_VERTEX_CAP)
    base_vals = group.standard_generators()
    if len(base_vals) != d:
        raise UsageError(f"d = {d} must equal the rank {len(base_vals)} of the group")
    tab = FiniteTable.of(group)
    base_idx = tuple(tab.index[g] for g in base_vals)
    if not tab.closure([base_idx]).all():
        raise UsageError("standard generators do not generate the group")

    positions = np.flatnonzero(tab.generating_mask(d))
    if len(positions) * tab.order > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(
            f"automorphism array of {len(positions)} x {tab.order} entries exceeds cap {DEFAULT_VERTEX_CAP}"
        )
    targets = np.unravel_index(positions, (tab.order,) * d)
    # phi(g * b_k) = phi(g) * t_k along the tree (the base generates, so it
    # spans G); checking it at every g * b_k makes phi a homomorphism
    perms = np.empty((len(positions), tab.order), dtype=np.intp, order="F")
    perms[:, tab.id_idx] = tab.id_idx
    queue = [tab.id_idx]
    reached = {tab.id_idx}
    for g in queue:
        for bk, tk in zip(base_idx, targets):
            h = tab.table.item(g, bk)
            if h not in reached:
                reached.add(h)
                queue.append(h)
                perms[:, h] = tab.table[perms[:, g], tk]
    # one contiguous column of the Fortran-ordered perms at a time keeps the
    # peak near one (A, |G|) array
    ok = np.ones(len(positions), dtype=bool)
    for bk, tk in zip(base_idx, targets):
        for g in range(tab.order):
            ok &= perms[:, tab.table[g, bk]] == tab.table[perms[:, g], tk]
    hit = np.zeros(perms.shape, dtype=bool)
    np.put_along_axis(hit, perms, True, axis=1)
    ok &= hit.all(axis=1)
    if not ok.all():
        raise NotRelativelyFreeError(group, d, len(positions), int(ok.sum()))
    return AutAction(table=tab, d=d, base=base_idx, positions=positions, perms=perms)


@dataclass
class TameReport:
    aut_order: int
    tame_order: int
    index: int


def move_automorphisms(act: AutAction, base: tuple[int, ...] | None = None) -> dict[Move, int]:
    """The row of the automorphism induced by each move: the one carrying
    base (a generating index tuple) to base.move."""
    base = act.base if base is None else base
    moves = move_set(act.d)
    targets = np.array([apply_move(act.table, base, mv) for mv in moves]).T
    rows = act.rows(targets)
    bad = np.flatnonzero(rows < 0)
    if bad.size:
        target = tuple(targets[:, bad[0]].tolist())
        raise VerificationError(f"move image {target} of the base is not a generating tuple")
    return dict(zip(moves, act.carrying(int(act.rows(base)), rows).tolist()))


def _closure(act: AutAction, gens) -> np.ndarray:
    """Row mask of the subgroup generated by the rows ``gens``."""
    member = np.zeros(act.order, dtype=bool)
    frontier = act.rows(act.base).reshape(1)
    member[frontier] = True
    inners = [act.perms[g, list(act.base)] for g in gens]
    while frontier.size:
        reached = np.unique(np.concatenate([act.after(frontier, inner) for inner in inners]))
        frontier = reached[~member[reached]]
        member[frontier] = True
    return member


def tame_subgroup(act: AutAction) -> TameReport:
    """Closure of the move-induced automorphisms, with its index in Aut(G)."""
    gens = move_automorphisms(act)
    act.tame_flags = _closure(act, gens.values())
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

    Checks: the number of classes equals the index of the tame subgroup;
    every class has its size; each class maps label-preservingly onto the
    Cayley graph of the tame subgroup computed at that class's
    representative; and the automorphism action carries class 0 onto every
    other class. Any failure raises VerificationError (the statements are
    theorems for relatively free groups).
    """
    act = aut_group(group, d)
    tame = tame_subgroup(act)
    comps: ComponentsReport = components(group, d)
    if comps.generating_count != act.order:
        raise VerificationError("generating-tuple count does not match Aut order")

    dims = (act.table.order,) * d
    # each class increasing, so its first position is its representative
    classes = np.split(comps.positions, np.cumsum(comps.sizes)[:-1])
    rep_rows = []
    cayley_match = True
    for cls in classes:
        cols = np.unravel_index(cls, dims)
        gens = move_automorphisms(act, base=tuple(int(c[0]) for c in cols))
        t_local = _closure(act, gens.values())
        if t_local.sum() != tame.tame_order:
            raise VerificationError("conjugate tame subgroup has a different order")
        rows = act.rows(cols)
        if (rows < 0).any():
            raise VerificationError("component vertex is not an automorphism image of its base")
        rep_rows.append(int(rows[0]))
        # beta[k] carries the representative to member k; the class is the
        # Cayley graph iff beta is onto t_local and turns moves into alpha
        beta = act.carrying(rep_rows[-1], rows)
        if not np.array_equal(np.sort(beta), np.flatnonzero(t_local)):
            cayley_match = False
        for mv, alpha in gens.items():
            moved = np.ravel_multi_index(apply_move(act.table, cols, mv), dims)
            at = np.minimum(np.searchsorted(cls, moved), len(cls) - 1)
            expected = act.after(beta, act.perms[alpha, list(act.base)])
            if not (np.array_equal(cls[at], moved) and np.array_equal(beta[at], expected)):
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
        num_components=comps.num_components,
        component_sizes=sorted(comps.sizes, reverse=True),
        components_isomorphic=components_isomorphic,
        cayley_match=cayley_match,
    )

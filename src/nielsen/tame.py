"""Automorphism groups of finite groups and the subgroup induced by moves.

For a finite relatively free group of rank d, the generating d-tuples are in
bijection with the automorphisms: each tuple is the image of a designated
base tuple under exactly one automorphism. The moves act on tuples, hence
induce automorphisms; the subgroup they generate acts on each Nielsen-class
and every class is its Cayley graph with respect to the move labels. This
module enumerates both sides exhaustively and checks the match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError, VerificationError
from .explore import ComponentsReport, components
from .groups import FiniteTable, Group, State
from .moves import Move, move_set


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
    """Aut(G) as permutations of element indices, tied to generating d-tuples."""

    table: FiniteTable
    d: int
    base: tuple[int, ...]
    tuples: list[tuple[int, ...]]       # all generating d-tuples, enumeration order
    perms: list[tuple[int, ...]]        # perms[k] is the automorphism sending base to tuples[k]
    by_tuple: dict[tuple[int, ...], int]
    tame_flags: list[bool] | None = None

    @property
    def order(self) -> int:
        return len(self.perms)

    def aut_sending(self, src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
        """The unique automorphism with phi(src) = dst, for generating tuples."""
        inv_src = self.perm_inverse(self.perms[self.by_tuple[src]])
        phi_dst = self.perms[self.by_tuple[dst]]
        return self.compose(phi_dst, inv_src)

    @staticmethod
    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        """(p o q)(x) = p(q(x))."""
        return tuple(p[x] for x in q)

    @staticmethod
    def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(p)
        for k, v in enumerate(p):
            out[v] = k
        return tuple(out)


def _extend_to_automorphism(tab: FiniteTable, base: tuple[int, ...], target: tuple[int, ...]):
    """Extend base -> target to an automorphism, or return None.

    phi is built along a BFS of right multiplications by base entries, then
    checked on all (element, generator) products; that suffices, since
    phi(g * b_k) = phi(g) * t_k for all g, k propagates to all products.
    """
    order = tab.order
    phi = [-1] * order
    phi[tab.id_idx] = tab.id_idx
    queue = [tab.id_idx]
    qpos = 0
    while qpos < len(queue):
        g = queue[qpos]
        qpos += 1
        for bk, tk in zip(base, target):
            h = tab.mul[g][bk]
            if phi[h] < 0:
                phi[h] = tab.mul[phi[g]][tk]
                queue.append(h)
    if qpos != order:
        return None  # base does not generate; caller filters this out
    for g in range(order):
        for bk, tk in zip(base, target):
            if phi[tab.mul[g][bk]] != tab.mul[phi[g]][tk]:
                return None
    if len(set(phi)) != order:
        return None
    return tuple(phi)


def aut_group(group: Group, d: int, base: State | None = None) -> AutAction:
    """All automorphisms of a finite relatively free group of rank d.

    Enumerates generating d-tuples and extends each to an automorphism via
    the designated base tuple; if any generating tuple fails to extend the
    group is not relatively free of rank d and NotRelativelyFreeError
    reports the discrepancy.
    """
    tab = FiniteTable.of(group)
    if base is None:
        base_vals = group.standard_generators()
        if len(base_vals) != d:
            raise UsageError(
                f"default base tuple has length {len(base_vals)}; pass an explicit generating {d}-tuple"
            )
    else:
        base_vals = tuple(group.check_element(g) for g in base)
        if len(base_vals) != d:
            raise UsageError("base tuple length must equal d")
    base_idx = tuple(tab.index[g] for g in base_vals)
    if len(tab.closure(base_idx)) != tab.order:
        raise UsageError("base tuple does not generate the group")

    tuples = tab.index_tuples(tab.generating_mask(d).nonzero()[0], d)
    perms = []
    failures = 0
    for cand in tuples:
        phi = _extend_to_automorphism(tab, base_idx, cand)
        if phi is None:
            failures += 1
        else:
            perms.append(phi)
    if failures:
        raise NotRelativelyFreeError(group, d, len(tuples), len(tuples) - failures)
    by_tuple = {t: k for k, t in enumerate(tuples)}
    return AutAction(table=tab, d=d, base=base_idx, tuples=tuples, perms=perms, by_tuple=by_tuple)


@dataclass
class TameReport:
    aut_order: int
    tame_order: int
    index: int
    generator_labels: list[str]

    def to_json(self) -> dict:
        return {
            "aut_order": self.aut_order,
            "tame_order": self.tame_order,
            "index": self.index,
            "generators": self.generator_labels,
        }


def move_automorphisms(act: AutAction, base: tuple[int, ...] | None = None) -> dict[Move, tuple[int, ...]]:
    """The automorphism induced by each move: the one carrying base to base.move."""
    base = act.base if base is None else base
    out = {}
    for mv in move_set(act.d):
        target = act.table.apply_move_idx(base, mv)
        k = act.by_tuple.get(target)
        if k is None:
            raise VerificationError(f"move image {target} of the base is not a generating tuple")
        out[mv] = act.aut_sending(base, target)
    return out


def subgroup_closure(generators: list[tuple[int, ...]], identity: tuple[int, ...]) -> set[tuple[int, ...]]:
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = AutAction.compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def tame_subgroup(act: AutAction) -> TameReport:
    """Closure of the move-induced automorphisms, with its index in Aut(G)."""
    gens = move_automorphisms(act)
    identity = tuple(range(act.table.order))
    members = subgroup_closure(list(gens.values()), identity)
    act.tame_flags = [p in members for p in act.perms]
    if act.order % len(members) != 0:
        raise VerificationError("tame subgroup order does not divide Aut order")
    return TameReport(
        aut_order=act.order,
        tame_order=len(members),
        index=act.order // len(members),
        generator_labels=[m.text() for m in gens],
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
        return {
            "group": self.group.spec_json(),
            "d": self.d,
            "aut_order": self.aut_order,
            "tame_order": self.tame_order,
            "index": self.index,
            "num_components": self.num_components,
            "component_sizes": self.component_sizes,
            "components_isomorphic": self.components_isomorphic,
            "cayley_match": self.cayley_match,
            "ok": self.ok,
        }


def verify_component_structure(group: Group, d: int) -> ComponentStructureReport:
    """Exhaustively match the Nielsen classes of N_d(G) with Cayley graphs of
    the move-induced automorphism subgroup.

    Checks: the number of classes equals the index of the tame subgroup;
    every class has its size; each class maps label-preservingly onto the
    Cayley graph of the tame subgroup computed at that class's
    representative; and the automorphism action carries classes onto each
    other. Any failure raises VerificationError (the statements are
    theorems for relatively free groups).
    """
    act = aut_group(group, d)
    tame = tame_subgroup(act)
    comps: ComponentsReport = components(group, d)
    tab = act.table

    if comps.generating_count != act.order:
        raise VerificationError("generating-tuple count does not match Aut order")

    sizes = comps.sizes
    num = comps.num_components
    cayley_match = True
    for comp_pos, rep in enumerate(comps.representatives):
        rep_idx = tuple(tab.index[g] for g in rep)
        gens = move_automorphisms(act, base=rep_idx)
        identity = tuple(range(tab.order))
        t_local = subgroup_closure(list(gens.values()), identity)
        if len(t_local) != tame.tame_order:
            raise VerificationError("conjugate tame subgroup has a different order")
        members = [tuple(tab.index[g] for g in s) for s in comps.members(comp_pos)]
        by_rep_image = {tuple(p[b] for b in rep_idx): p for p in act.perms}
        beta = {}
        for t in members:
            phi = by_rep_image.get(t)
            if phi is None:
                raise VerificationError("component vertex is not an automorphism image of its base")
            beta[t] = phi
        if set(beta.values()) != t_local or len(beta) != len(t_local):
            cayley_match = False
        for t in members:
            for mv, alpha in gens.items():
                moved = tab.apply_move_idx(t, mv)
                if beta.get(moved) != AutAction.compose(beta[t], alpha):
                    cayley_match = False

    components_isomorphic = True
    if num > 1:
        first = [tuple(tab.index[g] for g in s) for s in comps.members(0)]
        first_set = set(first)
        rep0 = tuple(tab.index[g] for g in comps.representatives[0])
        for comp_pos in range(1, num):
            repk = tuple(tab.index[g] for g in comps.representatives[comp_pos])
            gamma = act.aut_sending(rep0, repk)
            image = {tuple(gamma[x] for x in t) for t in first_set}
            target = {tuple(tab.index[g] for g in s) for s in comps.members(comp_pos)}
            if image != target:
                components_isomorphic = False

    return ComponentStructureReport(
        group=group,
        d=d,
        aut_order=act.order,
        tame_order=tame.tame_order,
        index=tame.index,
        num_components=num,
        component_sizes=sorted(sizes, reverse=True),
        components_isomorphic=components_isomorphic,
        cayley_match=cayley_match,
    )

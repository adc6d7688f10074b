"""Slow reference implementations that the fast paths in ``nielsen`` are
checked against. They share no code with those paths beyond the group law,
``apply_move``, the key encoding, the fragment record, the forest's edge rule
and report record, and the error types."""

import math
from dataclasses import dataclass
from itertools import product as iproduct

from nielsen import forest
from nielsen.errors import ResourceCapError, UsageError, VerificationError
from nielsen.explore import DEFAULT_VERTEX_CAP, GraphFragment, state_key
from nielsen.groups import Group, State
from nielsen.moves import Move, apply_move, move_inverse, move_set
from nielsen.tame import NotRelativelyFreeError


def components_unionfind(group: Group, n: int) -> tuple[int, list[list[State]]]:
    """Nielsen classes of the generating n-tuples of a finite group.

    Union-find over the explicit tuples, with one ``is_generating`` call per
    tuple. Returns the number of generating tuples and the classes, each
    listed in ``itertools.product`` order, ordered by their first member.
    """
    states = [tuple(t) for t in iproduct(group.elements(), repeat=n)]
    pos = {s: k for k, s in enumerate(states)}
    parent = list(range(len(states)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    gen_mask = [group.is_generating(s) for s in states]
    for k, s in enumerate(states):
        if not gen_mask[k]:
            continue
        for move in move_set(n):
            a, b = find(k), find(pos[apply_move(group, s, move, n)])
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes: dict[int, list[State]] = {}
    for k, s in enumerate(states):
        if gen_mask[k]:
            classes.setdefault(find(k), []).append(s)
    return sum(gen_mask), list(classes.values())


def element_closure(group: Group, entries: State) -> set:
    """Subgroup of a finite group generated by the entries, grown one
    product at a time from the group law alone."""
    seen = set(entries) | {group.identity()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in entries:
                for w in (group.mul(g, h), group.mul(h, g)):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return seen


def brute_force_closed_walks(group: Group, root: State, k_max: int) -> list[int]:
    """Enumerate the tree of move sequences directly (no fragment)."""
    n = len(root)
    moves = move_set(n)
    out = [0] * (k_max + 1)
    out[0] = 1

    def rec(state: State, depth: int):
        if depth == k_max:
            return
        for mv in moves:
            nxt = apply_move(group, state, mv, n)
            if nxt == root:
                out[depth + 1] += 1
            rec(nxt, depth + 1)

    rec(root, 0)
    return out


def ball_by_keys(
    group: Group,
    root: State,
    radius: int,
    window: int | None = None,
    moves: tuple[Move, ...] | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> GraphFragment:
    """BFS ball that deduplicates on byte keys, encoding one key per dart.

    The layer loop of ``explore.ball`` as it was before it deduplicated on
    tuples; its byte-keyed index is local, so the returned ``index`` is empty.
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

    frag = GraphFragment(group=group, n=n, moves=moves, root=root, radius=radius, window=window)
    index: dict[bytes, int] = {}

    def add_vertex(state: State, key: bytes, depth: int) -> int:
        idx = len(frag.keys)
        if idx >= cap:
            raise ResourceCapError(f"vertex cap {cap} exceeded while exploring")
        index[key] = idx
        frag.keys.append(key)
        frag.states.append(state)
        frag.depths.append(depth)
        frag.expanded.append(False)
        frag.darts.append(None)
        return idx

    add_vertex(root, state_key(group, root), 0)
    layer = [0]
    for depth in range(radius):
        discovered: dict[bytes, State] = {}
        layer_targets: list[tuple[int, list[bytes]]] = []
        for v in layer:
            if not in_window(frag.states[v]):
                if frag.truncated_at is None or depth < frag.truncated_at:
                    frag.truncated_at = depth
                continue
            targets = []
            for move in moves:
                w = apply_move(group, frag.states[v], move, n)
                wk = state_key(group, w)
                if wk not in index and wk not in discovered:
                    discovered[wk] = w
                targets.append(wk)
            layer_targets.append((v, targets))
        for wk in sorted(discovered):
            add_vertex(discovered[wk], wk, depth + 1)
        for v, targets in layer_targets:
            frag.darts[v] = [index[wk] for wk in targets]
            frag.expanded[v] = True
        layer = [index[wk] for wk in sorted(discovered)]
        if not layer:
            break
    return frag


@dataclass
class PairTable:
    """The index form of a finite group as lists, one ``mul`` call per pair
    of elements; it is also the law on element indices, for ``apply_move``."""

    elements: list
    index: dict
    table: list[list[int]]
    inverses: list[int]
    id_idx: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]


def table_by_pairs(group: Group) -> PairTable:
    """What ``FiniteTable.of`` must hold: elements in the order of
    ``elements()``, and the table and inverses from the law, pair by pair."""
    elements = list(group.elements())
    index = {e: k for k, e in enumerate(elements)}
    table = [[index[group.mul(a, b)] for b in elements] for a in elements]
    inverses = [index[group.inv(a)] for a in elements]
    return PairTable(elements, index, table, inverses, index[group.identity()])


def first_generating_tuple(group: Group) -> State:
    """The lexicographically first generating tuple of least length: every
    k-tuple of elements is tried in turn, for k = 1, 2, ..."""
    elements = list(group.elements())
    for k in range(1, len(elements) + 1):
        for cand in iproduct(elements, repeat=k):
            if len(element_closure(group, cand)) == len(elements):
                return cand
    raise AssertionError("unreachable")


def _extend_by_bfs(tab: PairTable, base: tuple, target: tuple):
    """The map base -> target extended along right multiplications, or None
    when it is not a bijective homomorphism."""
    phi = [-1] * tab.order
    phi[tab.id_idx] = tab.id_idx
    queue = [tab.id_idx]
    for g in queue:
        for bk, tk in zip(base, target):
            h = tab.table[g][bk]
            if phi[h] < 0:
                phi[h] = tab.table[phi[g]][tk]
                queue.append(h)
    if len(queue) != tab.order:
        return None
    for g in range(tab.order):
        for bk, tk in zip(base, target):
            if phi[tab.table[g][bk]] != tab.table[phi[g]][tk]:
                return None
    return tuple(phi) if len(set(phi)) == tab.order else None


def _compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v] = k
    return tuple(out)


def _subgroup(generators: list, identity: tuple) -> set:
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def tame_reference(group: Group, d: int) -> dict:
    """The tame analysis of ``nielsen.tame`` on Python tuples.

    One BFS extension per generating d-tuple (found by ``element_closure``),
    permutations as tuples, subgroups as tuple sets, moves by ``apply_move``
    on the list table of ``table_by_pairs`` and the Nielsen classes from
    ``components_unionfind``.
    Returns the automorphisms in enumeration order (``perms``), their tame
    flags and the ``verify_component_structure`` report as JSON.
    """
    tab = table_by_pairs(group)
    base = tuple(tab.index[g] for g in group.standard_generators())
    assert len(base) == d
    tuples = [t for t in iproduct(range(tab.order), repeat=d)
              if len(element_closure(group, tuple(tab.elements[k] for k in t))) == tab.order]
    perms = [p for p in (_extend_by_bfs(tab, base, t) for t in tuples) if p is not None]
    if len(perms) != len(tuples):
        raise NotRelativelyFreeError(group, d, len(tuples), len(perms))
    by_tuple = dict(zip(tuples, perms))
    identity = tuple(range(tab.order))

    def sending(src, dst):
        return _compose(by_tuple[dst], _perm_inverse(by_tuple[src]))

    def move_auts(src):
        return {mv: sending(src, apply_move(tab, src, mv)) for mv in move_set(d)}

    gens = move_auts(base)
    tame = _subgroup(list(gens.values()), identity)
    count, classes = components_unionfind(group, d)
    assert count == len(perms)
    classes = [[tuple(tab.index[g] for g in s) for s in cls] for cls in classes]
    cayley_match = True
    for members in classes:
        rep = members[0]
        local = move_auts(rep)
        t_local = _subgroup(list(local.values()), identity)
        assert len(t_local) == len(tame)
        beta = {t: sending(rep, t) for t in members}
        if set(beta.values()) != t_local or len(beta) != len(t_local):
            cayley_match = False
        for t in members:
            for mv, alpha in local.items():
                if beta.get(apply_move(tab, t, mv)) != _compose(beta[t], alpha):
                    cayley_match = False
    isomorphic = all(
        {tuple(gamma[x] for x in t) for t in classes[0]} == set(members)
        for members in classes[1:]
        for gamma in [sending(classes[0][0], members[0])]
    )
    index = len(perms) // len(tame)
    sizes = sorted((len(c) for c in classes), reverse=True)
    return {
        "perms": perms,
        "tame_flags": [p in tame for p in perms],
        "report": {
            "group": group.spec_json(),
            "d": d,
            "aut_order": len(perms),
            "tame_order": len(tame),
            "index": index,
            "num_components": len(classes),
            "component_sizes": sizes,
            "components_isomorphic": isomorphic,
            "cayley_match": cayley_match,
            "ok": len(classes) == index and all(s == len(tame) for s in sizes) and isomorphic and cayley_match,
        },
    }


def _forest_image_vertices(n: int, zero: frozenset[int], window: int):
    free = [k for k in range(1, n + 1) if k not in zero]
    for vals in iproduct(range(1, window + 1), repeat=len(free)):
        if math.gcd(*vals) != 1:
            continue
        x = [0] * n
        for k, v in zip(free, vals):
            x[k - 1] = v
        yield tuple(x)


def verify_forest_reference(n: int, window: int, state_cap: int = 2_000_000) -> forest.ForestReport:
    """``forest.verify_forest`` with a union-find for acyclicity and a second
    pass that walks every descent chain to the root.

    The edge rule is read through the module (``forest._image_parent`` and
    ``forest._keeper``), so a patched rule reaches both implementations.
    """
    if n not in (2, 3):
        raise UsageError("verify_forest supports n in {2, 3}")
    if window < 2:
        raise UsageError("window too small to contain any interior vertex; need window >= 2")
    if (2 * window + 1) ** n > state_cap:
        raise ResourceCapError(f"window scan of {(2 * window + 1) ** n} states exceeds cap {state_cap}")

    acyclic = True
    descent_ok = True
    min_interior: int | None = None
    vertices_checked = 0

    per_zero_root_degree: dict[frozenset[int], int] = {}
    for zero in forest._zero_sets(n):
        spec = forest.ForestSpec(n=n, neg=frozenset(), zero=zero, window=window)
        root = spec.root()
        verts = list(_forest_image_vertices(n, zero, window))
        vertices_checked += len(verts)
        pos = {v: k for k, v in enumerate(verts)}

        # exact degrees and unique parents
        parent_uf = list(range(len(verts)))

        def find(v):
            while parent_uf[v] != v:
                parent_uf[v] = parent_uf[parent_uf[v]]
                v = parent_uf[v]
            return v

        for v in verts:
            hit = forest._image_parent(spec, v)
            if v == root:
                if hit is not None:
                    raise VerificationError(f"root {root} of {spec.pattern()} has a kept in-edge")
            else:
                if hit is None:
                    raise VerificationError(f"non-root {v} in {spec.pattern()} has no kept in-edge")
                src, _ = hit
                if sum(src) >= sum(v):
                    descent_ok = False
                if src not in pos:
                    raise VerificationError("in-window vertex with out-of-window parent")
                a, b = find(pos[src]), find(pos[v])
                if a == b:
                    acyclic = False
                else:
                    parent_uf[b] = a
                kept_out = sum(
                    1
                    for i in range(1, n + 1)
                    if i not in zero
                    for j in range(1, n + 1)
                    if j != i and j not in zero
                    and forest._keeper(spec, v[: i - 1] + (v[i - 1] + v[j - 1],) + v[i:]) == (i, j)
                )
                deg = kept_out + 1
                if min_interior is None or deg < min_interior:
                    min_interior = deg
        root_out = sum(
            1
            for i in range(1, n + 1)
            if i not in zero
            for j in range(1, n + 1)
            if j != i and j not in zero
            and forest._keeper(spec, root[: i - 1] + (root[i - 1] + root[j - 1],) + root[i:]) == (i, j)
        )
        per_zero_root_degree[zero] = root_out

    # descent chains terminate at the root: walk them with memoization
    for zero in forest._zero_sets(n):
        spec = forest.ForestSpec(n=n, neg=frozenset(), zero=zero, window=window)
        root = spec.root()
        settled: set[tuple[int, ...]] = {root}
        for v in _forest_image_vertices(n, zero, window):
            chain = []
            cur = v
            while cur not in settled:
                chain.append(cur)
                hit = forest._image_parent(spec, cur)
                if hit is None or sum(hit[0]) >= sum(cur):
                    descent_ok = False
                    break
                cur = hit[0]
            settled.update(chain)

    # coverage over real tuples in the window
    coverage_ok = True
    components_seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    basis = set()
    for k in range(n):
        for s in (1, -1):
            basis.add(tuple(s if p == k else 0 for p in range(n)))
    for x in iproduct(range(-window, window + 1), repeat=n):
        if all(v == 0 for v in x) or math.gcd(*x) != 1:
            continue
        comp = forest.component_of(x)
        if comp is None:
            if x not in basis:
                coverage_ok = False
        else:
            components_seen.add(comp)
            if x in basis:
                coverage_ok = False

    root_degrees = {}
    for neg, zero in sorted(components_seen, key=lambda ab: (sorted(ab[1]), sorted(ab[0]))):
        spec = forest.ForestSpec(n=n, neg=neg, zero=zero, window=window)
        root_degrees[spec.pattern()] = per_zero_root_degree[zero]

    return forest.ForestReport(
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

"""Slow reference implementations that the fast paths in ``nielsen`` are
checked against. They share no code with those paths beyond the group law,
its ``FiniteTable`` index form and generation test, ``apply_move``, the key
encoding, the row lookup and composition of an ``AutAction``, a fragment's
decoded keys and tuples, the darts of a ``ball`` (``reference_closed_walks``),
the forest's component spec and report record, ``covering.push`` and the
covering reports, and the error types."""

import json
import math
import random
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from nielsen import forest, layers
from nielsen.covering import _HOM_SAMPLE, _HOM_SEED, LiftReport, StarReport, push
from nielsen.errors import ResourceCapError, UsageError, VerificationError
from nielsen.explore import DEFAULT_VERTEX_CAP, GraphFragment, ball, state_key
from nielsen.groups import FiniteTable, Group, IntVectorGroup, State, lattice_is_full
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
            a, b = find(k), find(pos[apply_move(group, s, move)])
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes: dict[int, list[State]] = {}
    for k, s in enumerate(states):
        if gen_mask[k]:
            classes.setdefault(find(k), []).append(s)
    return sum(gen_mask), list(classes.values())


def index_tuples(tab: FiniteTable, positions, n: int) -> list[tuple[int, ...]]:
    """The index n-tuples at the given ``itertools.product`` positions."""
    cols = np.unravel_index(np.asarray(positions, dtype=np.int64), (tab.order,) * n)
    return list(zip(*(c.tolist() for c in cols)))


def components_by_tensor(group: Group, n: int) -> tuple[int, list[int], list[State], np.ndarray]:
    """Nielsen classes by minimum-label propagation over all |G|^n tuples.

    The labels are one int32 tensor with one axis per entry, numbered in
    ``itertools.product`` order; each round keeps one copy to detect the
    fixed point. A round applies Nielsen's generators of Aut(F_n): the swap
    of entries 1 and 2 and the n-cycle (one transpose each), ``R(1,2,+)``
    (one gather) and ``I(1)`` (one take). They have the orbits of the moves,
    each label is pulled from g(x), so it stays in the orbit of x, and g^-1
    is a power of g: the fixed point is the least position of each orbit.
    Moves preserve the generated subgroup, so restricting to generating
    tuples afterwards is exact. Returns the number of generating tuples, the
    class sizes and representatives (least tuples, in enumeration order) and
    the positions of the generating tuples, class by class, each increasing.
    """
    tab = FiniteTable.of(group)
    if n > 64 or tab.order**n >= 2**31:
        raise ResourceCapError("one int32 label per tuple and one tensor axis per entry")
    gen_idx = np.flatnonzero(tab.generating(np.unravel_index(np.arange(tab.order**n), (tab.order,) * n)))
    flat = np.arange(tab.order**n, dtype=np.int32)
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
    representatives = [tuple(tab.elements[k] for k in t) for t in index_tuples(tab, uniq, n)]
    return len(gen_idx), counts.tolist(), representatives, gen_idx[np.argsort(inverse, kind="stable")]


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
            nxt = apply_move(group, state, mv)
            if nxt == root:
                out[depth + 1] += 1
            rec(nxt, depth + 1)

    rec(root, 0)
    return out


def reference_closed_walks(group: Group, root: State, k_max: int) -> list[int]:
    """The walk DP over the darts of the ball of radius k_max // 2 + 1, on
    Python ints from the first step, each step's counts the row sums of the
    counts at the targets of every expanded vertex."""
    frag = ball(group, root, k_max // 2 + 1)
    rows = np.flatnonzero(frag.expanded)
    darts = frag.darts[rows]
    counts = np.zeros(len(frag), dtype=object)
    counts[0] = 1
    out = [1]
    for _ in range(k_max):
        nxt = np.zeros_like(counts)
        nxt[rows] = counts[darts].sum(axis=1)
        counts = nxt
        out.append(counts[0])
    return out


@dataclass
class ListFragment:
    """A fragment's content as plain lists: darts are None where unexpanded."""

    keys: list
    states: list
    depths: list
    expanded: list
    darts: list
    truncated_at: int | None = None


def fragment_lists(frag: GraphFragment) -> ListFragment:
    """The list form of a fragment's vertices and darts."""
    expanded = frag.expanded.tolist()
    darts = [row if e else None for row, e in zip(frag.darts.tolist(), expanded)]
    return ListFragment(list(frag.keys), list(frag.states), frag.depths.tolist(), expanded, darts, frag.truncated_at)


def content_equal(a: GraphFragment, b: GraphFragment) -> bool:
    """Equality of vertex/dart/depth content (radius and window excluded)."""
    if a.group != b.group or a.n != b.n or a.moves != b.moves:
        return False
    la, lb = fragment_lists(a), fragment_lists(b)
    return (la.keys, la.depths, la.expanded, la.darts) == (lb.keys, lb.depths, lb.expanded, lb.darts)


def ball_by_keys(
    group: Group,
    root: State,
    radius: int,
    window: int | None = None,
    moves: tuple[Move, ...] | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> ListFragment:
    """BFS ball that deduplicates on byte keys, encoding one key per dart.

    The layer loop of ``explore.ball`` as it was before it deduplicated on
    tuples, one vertex and one move at a time.
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

    frag = ListFragment([], [], [], [], [])
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
                w = apply_move(group, frag.states[v], move)
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


def record(frag: GraphFragment, v: int) -> dict:
    """The JSONL record of vertex v: its key, tuple, depth and darts."""
    keys = frag.keys
    return {
        "v": keys[v].hex(),
        "tuple": [frag.group.element_to_json(g) for g in frag.states[v]],
        "depth": int(frag.depths[v]),
        "adj": [{"move": mv.text(), "to": keys[w].hex()} for mv, w in zip(frag.moves, frag.darts[v].tolist())]
        if frag.expanded[v] else None,
    }


def jsonl_by_records(frag: GraphFragment) -> str:
    """The JSONL export as ``json.dumps`` of one record dict per vertex."""
    return "\n".join(json.dumps(record(frag, v), sort_keys=True) for v in range(len(frag))) + "\n"


def dot_by_darts(frag: GraphFragment) -> str:
    """The DOT export formatted one vertex and one dart at a time."""
    from nielsen import __version__

    lines = ["graph nielsen {"]
    meta = {
        "group": frag.group.spec_json(),
        "n": frag.n,
        "root": [frag.group.element_to_json(g) for g in frag.root],
        "radius": frag.radius,
        "window": frag.window,
    }
    for k in ("group", "n", "root", "radius", "window"):
        lines.append(f"  // {k}: {json.dumps(meta[k], sort_keys=True)}")
    lines.append(f"  // tool: nielsen {__version__}")
    names = [key.hex() for key in frag.keys]
    for name, state in zip(names, frag.states):
        label = ",".join(str(frag.group.element_to_json(g)) for g in state)
        lines.append(f'  "{name}" [label="({label})"];')
    texts = [mv.text() for mv in frag.moves]
    for v in np.flatnonzero(frag.expanded).tolist():
        for text, w in zip(texts, frag.darts[v].tolist()):
            lines.append(f'  "{names[v]}" -- "{names[w]}" [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def fragment_from_jsonl_by_records(group: Group, n: int, text: str) -> GraphFragment:
    """The JSONL import that parses every line twice: once for the root, the
    expanded tuples, keys and depths, and again for the darts, compared with
    the record dict of each regrown vertex."""
    moves = move_set(n)
    rows = []  # (lineno, key, depth) per vertex line
    marked: dict[State, bool] = {}  # tuple -> expanded, in file order
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1) if line.strip()]
    for lineno, line in lines:
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise UsageError(f"fragment line {lineno} is not JSON: {e}") from None
        except ValueError as e:
            raise UsageError(f"fragment line {lineno}: {e}") from None
        if not (isinstance(row, dict) and {"v", "tuple", "depth", "adj"} <= row.keys()):
            raise UsageError(f"fragment line {lineno} must be an object with fields v, tuple, depth, adj")
        if not (isinstance(row["tuple"], list) and len(row["tuple"]) == n):
            raise UsageError(f"fragment line {lineno}: tuple must be a list of {n} elements")
        if not (isinstance(row["depth"], int) and not isinstance(row["depth"], bool) and row["depth"] >= 0):
            raise UsageError(f"fragment line {lineno}: depth must be an int >= 0")
        if not (row["adj"] is None or isinstance(row["adj"], list)):
            raise UsageError(f"fragment line {lineno}: adj must be a list or null")
        state = tuple(group.element_from_json(e) for e in row["tuple"])
        if state in marked:
            first = rows[list(marked).index(state)][1]
            raise UsageError(f"fragment vertices {first} and {row['v']} share a tuple")
        marked[state] = row["adj"] is not None
        rows.append((lineno, row["v"], row["depth"]))
    if not rows or rows[0][2] != 0:
        raise UsageError("fragment must start with its depth-0 vertex")
    root = next(iter(marked))
    if not group.is_generating(root):
        raise UsageError(f"root tuple {root!r} does not generate the group")
    radius = max(depth for _, _, depth in rows)
    frag = GraphFragment(group=group, n=n, moves=moves, root=root, radius=radius + 1, window=None)
    layers.grow(frag, 1 + len(rows) * len(moves), only=layers.by_state(marked))
    keys, depths, expanded = frag.keys, frag.depths.tolist(), frag.expanded.tolist()
    for v, state in enumerate(frag.states):
        if state not in marked:
            raise UsageError(f"fragment lacks vertex {keys[v].hex()} at distance {depths[v]} from the root")
    for v, ((lineno, key, depth), state) in enumerate(zip(rows, marked)):
        w = frag.index.get(state)
        if w is None:
            raise UsageError(f"fragment vertex {key} has depth {depth} but is unreachable from the root")
        if w != v and depths[w] == depth:
            raise UsageError(f"fragment line {lineno}: vertex {key} is out of canonical order (depth, then key)")
        if key != keys[w].hex():
            raise UsageError(f"fragment vertex {key} does not encode its tuple")
        if depth != depths[w]:
            raise UsageError(f"fragment vertex {key} has depth {depth} but is at distance {depths[w]} from the root")
    for v, (lineno, line) in enumerate(lines):
        if not expanded[v]:
            continue
        adj, want = json.loads(line)["adj"], record(frag, v)["adj"]
        if adj != want:
            if len(adj) != len(want):
                raise UsageError(f"fragment line {lineno}: {len(adj)} darts, not one per move ({len(want)})")
            dart, ok = next((dart, ok) for dart, ok in zip(adj, want) if dart != ok)
            if not (isinstance(dart, dict) and dart.keys() == ok.keys() and dart["move"] == ok["move"]):
                raise UsageError(f"fragment line {lineno}: dart {dart!r} stands where move {ok['move']} belongs")
            raise UsageError(f"fragment dart {ok['move']} of vertex {keys[v].hex()} does not lead to vertex {dart['to']}")
    frag.radius = radius
    frag.truncated_at = None
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


def homomorphism_failure_by_pairs(rule: str, domain: Group, codomain: Group, fn) -> str | None:
    """The message ``Epimorphism`` must raise when ``fn`` breaks the law on
    a finite domain: every pair of elements tried in turn, row-major over
    ``elements()``; None when the law holds."""
    elements = list(domain.elements())
    for a in elements:
        for b in elements:
            if fn(domain.mul(a, b)) != codomain.mul(fn(a), fn(b)):
                return f"rule {rule} is not a homomorphism at {a!r}, {b!r}"
    return None


def homomorphism_failure_by_samples(rule: str, domain: Group, codomain: Group, fn) -> str | None:
    """The message ``Epimorphism`` must raise when ``fn`` breaks the law on
    an infinite domain: 1000 pairs a, b of ``random_element`` draws from one
    seeded stream, each pair tried as it is drawn; None when all hold."""
    rng = random.Random(_HOM_SEED)
    for _ in range(_HOM_SAMPLE):
        a, b = domain.random_element(rng, 12), domain.random_element(rng, 12)
        if fn(domain.mul(a, b)) != codomain.mul(fn(a), fn(b)):
            return f"rule {rule} is not a homomorphism at {a!r}, {b!r}"
    return None


def star_bijection_reference(epi, n: int, tuples: list) -> StarReport:
    """What ``verify_star_bijection`` must report on the given tuples: each
    tuple pushed, then every move applied on both sides, one ``apply_move``
    per tuple, move and side; the first tuple ``push`` or a move refuses
    raises."""
    moves = move_set(n)
    report = StarReport(checked=len(tuples), moves=len(moves))
    for t in tuples:
        image = push(epi, t)
        for mv in moves:
            lhs = tuple(epi.apply(g) for g in apply_move(epi.domain, t, mv))
            rhs = apply_move(epi.codomain, image, mv)
            if lhs != rhs:
                report.violations.append({"tuple": repr(t), "move": mv.text()})
    return report


def lift_reference(epi, frag: GraphFragment, seed_tuple: State) -> LiftReport:
    """What ``verify_surjectivity_on_fragment`` must report: a BFS one vertex
    at a time from push(seed) through the fragment's tuple index, each
    vertex lifted by one ``apply_move`` from the first vertex (in queue
    order, then move order) that reaches it, and every lift pushed and
    compared with the fragment's tuple."""
    if frag.group != epi.codomain:
        raise UsageError("fragment group does not match the epimorphism codomain")
    seed_tuple = tuple(epi.domain.check_element(g) for g in seed_tuple)
    if len(seed_tuple) != frag.n:
        raise UsageError("seed tuple length does not match the fragment")
    start = frag.index.get(push(epi, seed_tuple))
    lifts: dict[int, State] = {}
    unreached = []
    if start is not None:
        lifts[start] = seed_tuple
        queue = [start]
        darts, expanded = frag.darts.tolist(), frag.expanded.tolist()
        for v in queue:
            if not expanded[v]:
                continue
            for k, w in enumerate(darts[v]):
                if w not in lifts:
                    lifts[w] = apply_move(epi.domain, lifts[v], frag.moves[k])
                    queue.append(w)
    for v in range(len(frag)):
        if v in lifts:
            if tuple(epi.apply(g) for g in lifts[v]) != frag.states[v]:
                raise VerificationError("lifted tuple does not push onto its fragment vertex")
        else:
            unreached.append(frag.keys[v].hex())
    return LiftReport(total=len(frag), lifted=len(lifts), unreached=unreached)


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


def rows_by_search(act, cols) -> np.ndarray:
    """``AutAction.rows`` by binary search of the enumeration positions of
    d index columns in the sorted ``act.positions``: -1 where none is."""
    pos = np.ravel_multi_index(cols, (act.table.order,) * act.d)
    k = np.minimum(np.searchsorted(act.positions, pos), act.order - 1)
    return np.where(act.positions[k] == pos, k, -1)


def closure_by_frontier(act, gens) -> np.ndarray:
    """Row mask of the subgroup of Aut(G) that the rows ``gens`` generate:
    a BFS from the identity, one ``act.after`` per generator and round, with
    ``np.unique`` removing repeats."""
    member = np.zeros(act.order, dtype=bool)
    frontier = act.rows(act.base).reshape(1)
    member[frontier] = True
    inners = [act.perms[g, list(act.base)] for g in gens]
    while frontier.size:
        reached = np.unique(np.concatenate([act.after(frontier, inner) for inner in inners]))
        frontier = reached[~member[reached]]
        member[frontier] = True
    return member


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


def _step(x: tuple[int, ...], i: int, j: int, sign: int) -> tuple[int, ...]:
    """x with x_i <- x_i + sign * x_j (1-based i, j)."""
    return x[: i - 1] + (x[i - 1] + sign * x[j - 1],) + x[i:]


def _keeper(spec: forest.ForestSpec, z_img: tuple[int, ...]) -> tuple[int, int] | None:
    """The one in-edge of an image vertex that the forest's rules keep, or
    None at a root: a distinguished edge unless the pair's coordinates tie,
    else the lexicographically largest in-edge. The reference for
    ``forest._keepers``."""
    i1, j1 = spec.distinguished_pair()
    if z_img[i1 - 1] != z_img[j1 - 1]:
        return (i1, j1) if z_img[i1 - 1] > z_img[j1 - 1] else (j1, i1)
    return max(((i, j) for i, j in spec.pairs if z_img[i - 1] > z_img[j - 1]), default=None)


def _kept_pairs(spec: forest.ForestSpec, x_img: tuple[int, ...]) -> list[tuple[int, int]]:
    """Image pairs (i, j) whose out-edge x_i <- x_i + x_j at x_img is kept."""
    return [(i, j) for i, j in spec.pairs if _keeper(spec, _step(x_img, i, j, 1)) == (i, j)]


def _image_parent(spec: forest.ForestSpec, z_img: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]] | None:
    """(parent, kept pair) of an image vertex, or None at a root: the
    reference for ``forest._image_parents``."""
    keep = _keeper(spec, z_img)
    if keep is None:
        return None
    return _step(z_img, *keep, -1), keep


def component_dot_by_vertices(spec: forest.ForestSpec) -> str:
    """``forest.component_dot``: the window walked one tuple at a time in
    increasing order, for the nodes and then for the kept edges out of each
    vertex, pairs in lexicographic order."""
    from nielsen import __version__

    w = spec.window
    ranges = [range(-w, 0) if k in spec.neg else (0,) if k in spec.zero else range(1, w + 1)
              for k in range(1, spec.n + 1)]
    window = [x for x in iproduct(*ranges) if math.gcd(*x) == 1]
    out = ["graph forest_component {\n", f"  // pattern: {spec.pattern()}, window: {w}, n: {spec.n}\n",
           f"  // tool: nielsen {__version__}\n"]
    for v in window:
        extra = ", peripheries=2" if v == spec.root() else ""
        out.append(f'  "{",".join(map(str, v))}" [label="{v}"{extra}];\n')
    for v in window:
        x, src = spec.to_image(v), ",".join(map(str, v))
        for i, j in spec.pairs:
            z = _step(x, i, j, 1)
            if z[i - 1] <= w and _keeper(spec, z) == (i, j):
                label = spec.ambient_move(i, j).text()
                out.append(f'  "{src}" -- "{",".join(map(str, spec.from_image(z)))}" [label="{label}"];\n')
    out.append("}\n")
    return "".join(out)


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

    The edge rule is the scalar one of this module, read through its globals
    (``_image_parent`` and ``_keeper``). ``verify_forest`` reads the array
    rules (``forest._image_parents`` and ``forest._keepers``), so a test that
    changes the parent rule patches both ``oracles._image_parent`` and
    ``forest._image_parents`` with the same substitution.
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
            hit = _image_parent(spec, v)
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
                    and _keeper(spec, v[: i - 1] + (v[i - 1] + v[j - 1],) + v[i:]) == (i, j)
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
            and _keeper(spec, root[: i - 1] + (root[i - 1] + root[j - 1],) + root[i:]) == (i, j)
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
                hit = _image_parent(spec, cur)
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


def associative_by_triples(table) -> bool:
    """(ab)c = a(bc) for every triple of a multiplication table, one row a
    at a time."""
    tab = np.asarray(table)
    return all((tab[tab[a]] == tab[a][tab]).all() for a in range(len(tab)))


def free_generation_by_core(d: int, words) -> bool:
    """Whether reduced words generate the free group of rank d: fold the
    rose of word loops, prune hanging trees, and compare the core at the
    basepoint with the one-vertex rose of d loops."""
    parent = [0]
    adj: list[dict[int, int]] = [{}]

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pending: list[tuple[int, int]] = []

    def add_edge(u, letter, v):
        u, v = find(u), find(v)
        for a, l, b in ((u, letter, v), (v, -letter, u)):
            cur = adj[a].get(l)
            if cur is None:
                adj[a][l] = b
            elif find(cur) != find(b):
                pending.append((cur, b))

    for word in words:
        prev = 0
        for idx, letter in enumerate(word):
            if idx == len(word) - 1:
                target = 0
            else:
                parent.append(len(parent))
                adj.append({})
                target = len(parent) - 1
            add_edge(prev, letter, target)
            prev = target

    while pending:
        a, b = pending.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if len(adj[ra]) < len(adj[rb]):
            ra, rb = rb, ra
        parent[rb] = ra
        moved = adj[rb]
        adj[rb] = {}
        for letter, tgt in moved.items():
            cur = adj[ra].get(letter)
            if cur is None:
                adj[ra][letter] = tgt
            elif find(cur) != find(tgt):
                pending.append((cur, tgt))

    live = {find(v) for v in range(len(parent))}
    degree = {v: len(adj[v]) for v in live}
    # prune hanging trees: the core keeps the basepoint regardless of degree
    base = find(0)
    leaves = [v for v in live if v != base and degree[v] <= 1]
    while leaves:
        v = leaves.pop()
        live.discard(v)
        for letter, tgt in adj[v].items():
            t = find(tgt)
            if t in live and t != v:
                del adj[t][-letter]
                degree[t] -= 1
                if t != base and degree[t] <= 1:
                    leaves.append(t)
        adj[v] = {}
    if live != {base}:
        return False
    return set(adj[base].keys()) == {s * k for k in range(1, d + 1) for s in (1, -1)}


def generation_by_lattice(group: IntVectorGroup, entries: State) -> bool:
    """Whether a tuple generates a nilpotent integer-vector kind, by
    ``lattice_is_full`` on the images in the abelianization together with
    the rows m * e_i of its bounded coordinates."""
    abelian = group.moduli[: group.abelian_coords]
    dim = len(abelian)
    rows = [a[:dim] for a in entries]
    rows.extend(tuple(m if c == k else 0 for c in range(dim)) for k, m in enumerate(abelian) if m is not None)
    return lattice_is_full(rows, dim)


def sample_generating_tuple(group: Group, n: int, rng, size: int = 12, tries: int = 10000) -> State:
    """The rejection sampler with ``randint`` draws for the integer-vector
    kinds and, for their nilpotent ones, the ``generation_by_lattice``
    verdict. Other kinds draw and decide by their own methods."""
    vector = isinstance(group, IntVectorGroup)
    nilpotent = vector and type(group)._is_generating is IntVectorGroup._is_generating

    def draw():
        if not vector:
            return group.random_element(rng, size)
        return tuple(rng.randint(-size, size) if m is None else rng.randrange(m) for m in group.moduli)

    for _ in range(tries):
        cand = tuple(draw() for _ in range(n))
        if generation_by_lattice(group, cand) if nilpotent else group.is_generating(cand):
            return cand
    raise UsageError(f"could not sample a generating {n}-tuple in {tries} tries")

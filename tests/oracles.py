"""Slow reference implementations that the fast paths in ``nielsen`` are
checked against. They share no code with those paths beyond the group law,
``apply_move``, the key encoding and the fragment record."""

from itertools import product as iproduct

from nielsen.errors import ResourceCapError, UsageError
from nielsen.explore import DEFAULT_VERTEX_CAP, GraphFragment, state_key
from nielsen.groups import Group, State
from nielsen.moves import Move, apply_move, move_inverse, move_set


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

"""Slow reference implementations that the fast paths in ``nielsen`` are
checked against. They share no code with those paths beyond the group law
and ``apply_move``."""

from itertools import product as iproduct

from nielsen.groups import Group, State
from nielsen.moves import apply_move, move_set


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

"""Fragments as text: the JSONL and DOT lines, and the JSONL import.

Every line is formatted from the fragment's arrays. Each distinct coordinate
value, or interned element, is formatted once: its key hex, its JSON text and
its label. A vertex's key and tuple texts are joins of those pieces, and a
dart is a per-move prefix followed by its target's key. Lines are made a
block of ``_BLOCK`` at a time, a column of pieces at a time.

The import regrows the fragment and accepts a file that is exactly the text
the writer makes for it. The fragment is fixed by its root, the tuple of
line 1, and by which vertices it expands: the vertex at canonical position k
when line k's ``adj`` is a list, read from the char after its ``{"adj": ``.
The BFS gives each vertex that position when its layer is made, so the mark
is read as it stands. A file that is not then the writer's text is parsed
line by line, and the parsed checks accept it or name its first fault.
"""

from __future__ import annotations

import json
from operator import itemgetter

import numpy as np

from . import layers
from .errors import ResourceCapError, UsageError
from .explore import GraphFragment
from .groups import Group, State
from .moves import move_set

# lines formatted at once
_BLOCK = 256


def _join_rows(parts: list) -> list[str]:
    """The join of each row of ``parts``: a str stands in every row, an
    object array (or a list) holds one str per row."""
    rows = max(len(p) for p in parts if not isinstance(p, str))
    table = np.empty((rows, len(parts)), dtype=object)
    for j, part in enumerate(parts):
        table[:, j] = part
    return list(map("".join, table.tolist()))


def _texts(frag: GraphFragment):
    """A function giving the texts of the vertices ``start:stop`` in one
    form: "key" (the hex key), "json" (the JSONL tuple) or "label" (the DOT
    label), and the hex key of every vertex as an object array."""
    values, hexes, jsons, labels, element = frag.law.texts(frag.rows)
    forms = {
        "key": (hexes, "{}" * frag.rows.shape[1]),
        "json": (jsons, "[" + ", ".join([element] * frag.n) + "]"),
        "label": (labels, ",".join([element] * frag.n)),
    }
    forms = {form: (np.array(pieces, dtype=object), template.split("{}"))
             for form, (pieces, template) in forms.items()}

    def texts(form: str, start: int, stop: int) -> list[str]:
        pieces, seps = forms[form]
        codes = np.searchsorted(values, frag.rows[start:stop])
        return _join_rows([seps[0], *(p for j, sep in enumerate(seps[1:]) for p in (pieces[codes[:, j]], sep))])

    names = np.empty(len(frag), dtype=object)
    for start in range(0, len(frag), _BLOCK):
        names[start : start + _BLOCK] = texts("key", start, start + _BLOCK)
    return texts, names


def dot_lines(frag: GraphFragment):
    """The DOT text, line by line: the header comments, one node per vertex
    and one edge per dart."""
    from . import __version__

    yield "graph nielsen {\n"
    meta = {
        "group": frag.group.spec_json(),
        "n": frag.n,
        "root": [frag.group.element_to_json(g) for g in frag.root],
        "radius": frag.radius,
        "window": frag.window,
    }
    for k in ("group", "n", "root", "radius", "window"):
        yield f"  // {k}: {json.dumps(meta[k], sort_keys=True)}\n"
    yield f"  // tool: nielsen {__version__}\n"
    texts, names = _texts(frag)
    for start in range(0, len(frag), _BLOCK):
        stop = start + _BLOCK
        yield from _join_rows(['  "', names[start:stop], '" [label="(', texts("label", start, stop), ')"];\n'])
    m = len(frag.moves)
    ends = np.array([f'" [label="{mv.text()}"];\n' for mv in frag.moves], dtype=object)
    step = max(1, _BLOCK // m)  # vertices whose edge lines are made at once
    for start in range(0, len(frag), step):
        v = start + np.flatnonzero(frag.expanded[start : start + step])
        yield from _join_rows(['  "', np.repeat(names[v], m), '" -- "', names[frag.darts[v].ravel()],
                               np.tile(ends, len(v))])
    yield "}\n"


def jsonl_lines(frag: GraphFragment):
    """The JSONL lines, one per vertex in order, each with its newline:
    ``json.dumps(record, sort_keys=True)`` of the vertex's darts, depth,
    tuple and key."""
    texts, names = _texts(frag)
    # what stands before each target's key in ``adj``: the end of the dart
    # before it (or the list's "["), then the start of its own
    starts = ['{"move": ' + json.dumps(mv.text()) + ', "to": "' for mv in frag.moves]
    heads = ["[" + starts[0], *('"}, ' + start for start in starts[1:])]
    depths = np.array([str(d) for d in range(int(frag.depths[-1]) + 1)], dtype=object)
    for start in range(0, len(frag), _BLOCK):
        stop = start + _BLOCK
        expanded = frag.expanded[start:stop]
        darts = frag.darts[start:stop][expanded]
        adj = np.full(len(expanded), "null", dtype=object)
        adj[expanded] = _join_rows([*(p for k, head in enumerate(heads) for p in (head, names[darts[:, k]])),
                                    '"}]'])
        yield from _join_rows(['{"adj": ', adj, ', "depth": ', depths[frag.depths[start:stop]], ', "tuple": ',
                               texts("json", start, stop), ', "v": "', names[start:stop], '"}\n'])


def read_jsonl(group: Group, n: int, text: str) -> GraphFragment:
    """``explore.fragment_from_jsonl``: canonical text on its root and its
    marks, any other text on its parsed checks."""
    frag = _marked_import(group, n, text) or _parsed_import(group, n, text)  # a fragment holds its root
    frag.radius = int(frag.depths[-1])  # the deepest vertex is the last
    frag.truncated_at = None
    return frag


def _marked_import(group: Group, n: int, text: str) -> GraphFragment | None:
    """The fragment grown from the root of line 1 that expands the vertex at
    canonical position k exactly when line k's ``adj`` is a list, when
    ``text`` is exactly its JSONL, else None.

    Line k is marked when the char after its '{"adj": ' is "[" (every line
    the writer makes starts so), and no tuple but the root's is parsed. The
    BFS numbers each layer canonically as it is made, so a layer whose first
    vertex is ``first`` takes the marks of lines ``first:first + len(rows)``
    as they stand. A fragment has one line per vertex, so the BFS is capped
    at the file's line count, and a misread file cannot pass: the lines of
    the fragment grown from what was read must equal the file, compared up
    to the first line that differs.
    """
    if not text.endswith("\n"):
        return None
    find, end = text.find, len(text)
    heads, at = [], 0  # the start of each line
    while at < end:
        heads.append(at)
        at = find("\n", at) + 1
    # the char after '{"adj": ' of each line (the text's last one for a
    # shorter last line), one byte each: any char past latin-1 becomes "?"
    chars = "".join(itemgetter(*np.minimum(np.array(heads) + len('{"adj": '), end - 1).tolist())(text))
    marks = np.frombuffer(chars.encode("latin-1", "replace"), dtype=np.uint8) == ord("[")

    try:
        entries = json.loads(text[: text.index("\n")])["tuple"]
        if not (isinstance(entries, list) and len(entries) == n):
            return None
        root = tuple(group.element_from_json(e) for e in entries)
        if not group.is_generating(root):
            return None
        frag = GraphFragment(group=group, n=n, moves=move_set(n), root=root, radius=len(marks), window=None)
        layers.grow(frag, len(marks), only=lambda law, rows, first: marks[first : first + len(rows)])
    except (ValueError, TypeError, KeyError, RecursionError, UsageError, ResourceCapError):
        return None  # JSONDecodeError is a ValueError
    at = 0
    for line in jsonl_lines(frag):
        if not text.startswith(line, at):
            return None
        at += len(line)
    return frag if at == end else None


def _parsed_import(group: Group, n: int, text: str) -> GraphFragment:
    """The import on parsed lines: the checks that name what is wrong."""
    moves = move_set(n)
    texts = [mv.text() for mv in moves]
    rows = []  # (lineno, key, depth, darts) per vertex line
    marked: dict[State, bool] = {}  # tuple -> expanded, in file order
    targets: dict[str, str] = {}  # each dart target text once
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise UsageError(f"fragment line {lineno} is not JSON: {e}") from None
        except (ValueError, RecursionError) as e:  # an int of more digits than Python converts, or deep nesting
            raise UsageError(f"fragment line {lineno}: {e}") from None
        if not (isinstance(row, dict) and {"v", "tuple", "depth", "adj"} <= row.keys()):
            raise UsageError(f"fragment line {lineno} must be an object with fields v, tuple, depth, adj")
        if not (isinstance(row["tuple"], list) and len(row["tuple"]) == n):
            raise UsageError(f"fragment line {lineno}: tuple must be a list of {n} elements")
        if not (isinstance(row["depth"], int) and not isinstance(row["depth"], bool) and row["depth"] >= 0):
            raise UsageError(f"fragment line {lineno}: depth must be an int >= 0")
        adj = row["adj"]
        if not (adj is None or isinstance(adj, list)):
            raise UsageError(f"fragment line {lineno}: adj must be a list or null")
        state = tuple(group.element_from_json(e) for e in row["tuple"])
        if state in marked:
            first = rows[list(marked).index(state)][1]
            raise UsageError(f"fragment vertices {first} and {row['v']} share a tuple")
        marked[state] = adj is not None
        # darts of the right moves in move order are kept as their target texts
        if adj is not None and len(adj) == len(moves) and all(
            isinstance(dart, dict) and dart.keys() == {"move", "to"} and dart["move"] == move
            and isinstance(dart["to"], str) for dart, move in zip(adj, texts)
        ):
            adj = tuple(targets.setdefault(dart["to"], dart["to"]) for dart in adj)
        rows.append((lineno, row["v"], row["depth"], adj))
    if not rows or rows[0][2] != 0:
        raise UsageError("fragment must start with its depth-0 vertex")
    root = next(iter(marked))
    if not group.is_generating(root):
        raise UsageError(f"root tuple {root!r} does not generate the group")
    frag = GraphFragment(group=group, n=n, moves=moves, root=root, radius=1 + max(row[2] for row in rows), window=None)
    layers.grow(frag, 1 + len(rows) * len(moves), only=layers.by_state(marked))
    keys, depths, expanded = frag.keys, frag.depths.tolist(), frag.expanded.tolist()
    for v, state in enumerate(frag.states):
        if state not in marked:
            raise UsageError(f"fragment lacks vertex {keys[v].hex()} at distance {depths[v]} from the root")
    for v, ((lineno, key, depth, _), state) in enumerate(zip(rows, marked)):
        w = frag.index.get(state)
        if w is None:
            raise UsageError(f"fragment vertex {key} has depth {depth} but is unreachable from the root")
        if w != v and depths[w] == depth:
            raise UsageError(f"fragment line {lineno}: vertex {key} is out of canonical order (depth, then key)")
        if key != keys[w].hex():
            raise UsageError(f"fragment vertex {key} does not encode its tuple")
        if depth != depths[w]:
            raise UsageError(f"fragment vertex {key} has depth {depth} but is at distance {depths[w]} from the root")
    for v, (lineno, _, _, adj) in enumerate(rows):
        if not expanded[v]:
            continue  # adj is null, as the first pass found
        want = tuple(keys[w].hex() for w in frag.darts[v].tolist())
        if adj == want:
            continue
        if isinstance(adj, tuple):
            adj = [{"move": move, "to": to} for move, to in zip(texts, adj)]
        if len(adj) != len(want):
            raise UsageError(f"fragment line {lineno}: {len(adj)} darts, not one per move ({len(want)})")
        for dart, move, to in zip(adj, texts, want):
            if not (isinstance(dart, dict) and dart.keys() == {"move", "to"} and dart["move"] == move):
                raise UsageError(f"fragment line {lineno}: dart {dart!r} stands where move {move} belongs")
            if dart["to"] != to:
                raise UsageError(f"fragment dart {move} of vertex {keys[v].hex()} does not lead to vertex {dart['to']}")
    return frag

"""Fragments as text: the JSONL and DOT lines, and the JSONL import.

Every line is formatted from the fragment's arrays. Each distinct coordinate
value, or interned element, is formatted once: its key hex, its JSON text and
its label. A vertex's key and tuple texts are joins of those pieces, and a
dart is a per-move prefix followed by its target's key. Lines are made a
block of ``_BLOCK`` at a time, a column of pieces at a time.

The import accepts the writer's JSON up to key order, whitespace, blank
lines, line endings and extra fields. It grows the fragment from the root of
line 1, expanding the vertex at canonical position k when line k's ``adj``
is a list: the BFS gives each vertex its position as its layer is made.
Each line is then compared with the writer's; a line that differs is parsed
and checked field by field, and the first that holds another record is named.
"""

from __future__ import annotations

import json
from itertools import chain, compress, count
from operator import ne

import numpy as np

from . import layers
from .errors import UsageError
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


# how every line the writer makes starts, marked or not
_MARKED, _UNMARKED = '{"adj": [', '{"adj": n'
# the chars that end a line for ``str.splitlines``
_ENDS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _record(group: Group, n: int, row, lineno: int, marked: bool) -> tuple[dict, State]:
    """A parsed line's record and tuple, past the checks of its JSON, shape and entries. A
    ``marked`` line's adj is a list unless "adj" repeats: its mark reads the first, json the last."""
    if isinstance(row, Exception):  # not JSON, an int of more digits than Python converts, or deep nesting
        raise UsageError(f"fragment line {lineno} is not JSON: {row}" if isinstance(row, json.JSONDecodeError)
                         else f"fragment line {lineno}: {row}")
    if not (isinstance(row, dict) and {"v", "tuple", "depth", "adj"} <= row.keys()
            and isinstance(row["adj"], list) == marked):
        raise UsageError(f"fragment line {lineno} must be an object with fields v, tuple, depth, adj")
    if not (isinstance(row["tuple"], list) and len(row["tuple"]) == n):
        raise UsageError(f"fragment line {lineno}: tuple must be a list of {n} elements")
    if not (isinstance(row["depth"], int) and not isinstance(row["depth"], bool) and row["depth"] >= 0):
        raise UsageError(f"fragment line {lineno}: depth must be an int >= 0")
    if not (row["adj"] is None or isinstance(row["adj"], list)):
        raise UsageError(f"fragment line {lineno}: adj must be a list or null")
    return row, tuple(group.element_from_json(e) for e in row["tuple"])


def read_jsonl(group: Group, n: int, text: str) -> GraphFragment:
    """``explore.fragment_from_jsonl``."""
    lines = text.splitlines(keepends=True)
    heads = np.array(lines, dtype="U9")  # the first 9 chars of each line
    # blank lines are skipped, and counted: each starts as no line the writer makes
    blank = [k for k in np.flatnonzero((heads != _MARKED) & (heads != _UNMARKED)).tolist() if lines[k].isspace()]
    linenos = np.delete(np.arange(1, len(lines) + 1), blank)
    body, heads = ([lines[i - 1] for i in linenos.tolist()], heads[linenos - 1]) if blank else (lines, heads)
    if not body:
        raise UsageError("fragment must start with its depth-0 vertex")
    # line k is marked when its adj is a list, read from the char after its '{"adj": ' when it starts so
    marks = heads == _MARKED

    def parsed(k: int):  # line k's JSON, or the error that refuses it; parsed again when checked
        try:
            return json.loads(body[k].rstrip(_ENDS))
        except (ValueError, RecursionError) as e:
            return e

    for k in np.flatnonzero(~marks & (heads != _UNMARKED)).tolist():
        marks[k] = isinstance(row := parsed(k), dict) and isinstance(row.get("adj"), list)
    row, root = _record(group, n, parsed(0), linenos[0], marks[0])
    if row["depth"] != 0:
        raise UsageError("fragment must start with its depth-0 vertex")
    if not group.is_generating(root):
        raise UsageError(f"root tuple {root!r} does not generate the group")
    # a vertex's depth is at most its position, so every marked vertex lies within the radius
    frag = GraphFragment(group=group, n=n, moves=move_set(n), root=root, radius=len(body), window=None)
    cap = 1 + int(np.count_nonzero(marks)) * len(frag.moves)  # the root, and the darts of the marked lines
    layers.grow(frag, cap, only=np.concatenate((marks, np.zeros(cap, dtype=bool))))  # unmarked past the file
    moves = [mv.text() for mv in frag.moves]
    # the lines that are not the writer's, then those past the fragment's end
    for k in chain(compress(count(), map(ne, body, jsonl_lines(frag))), range(len(frag), len(body))):
        _check(frag, k, *_record(group, n, parsed(k), linenos[k], marks[k]), linenos[k], moves)
    if len(body) < len(frag):
        v = len(body)
        raise UsageError(f"fragment lacks vertex {frag.keys[v].hex()} at distance {frag.depths[v]} from the root")
    frag.radius, frag.truncated_at = int(frag.depths[-1]), None  # the deepest vertex is the last
    return frag


def _check(frag: GraphFragment, k: int, row: dict, state: State, lineno: int, moves: list[str]) -> None:
    """Refuse line k by its first fault past its JSON, shape and entries, or return when it holds
    the record of vertex k. The lines before it fix every vertex up to k: its tuple sits at k, or is
    named by where it sits."""
    keys, depths, v = frag.keys, frag.depths, row["v"]
    w = k if k < len(frag) and frag.states[k] == state else frag.index.get(state)
    if w is None:
        raise UsageError(f"fragment vertex {v} has depth {row['depth']} but is unreachable from the root")
    if w < k:
        raise UsageError(f"fragment vertices {keys[w].hex()} and {v} share a tuple")
    if w > k:
        raise UsageError(f"fragment line {lineno}: vertex {v} is out of canonical order (depth, then key)"
                         if depths[w] == depths[k] else
                         f"fragment lacks vertex {keys[k].hex()} at distance {depths[k]} from the root")
    if row["depth"] != depths[k]:
        raise UsageError(f"fragment vertex {v} has depth {row['depth']} but is at distance {depths[k]} from the root")
    if v != keys[k].hex():
        raise UsageError(f"fragment vertex {v} does not encode its tuple")
    adj = row["adj"]  # a list exactly when vertex k is expanded
    if adj is not None and len(adj) != len(moves):
        raise UsageError(f"fragment line {lineno}: {len(adj)} darts, not one per move ({len(moves)})")
    for dart, move, w in zip(adj or (), moves, frag.darts[k].tolist()):
        if not (isinstance(dart, dict) and dart.keys() == {"move", "to"} and dart["move"] == move):
            raise UsageError(f"fragment line {lineno}: dart {dart!r} stands where move {move} belongs")
        if dart["to"] != keys[w].hex():
            raise UsageError(f"fragment dart {move} of vertex {v} does not lead to vertex {dart['to']}")
    entries = [frag.group.element_to_json(g) for g in state]
    if row["tuple"] != entries:
        raise UsageError(f"fragment vertex {v} writes its tuple as {json.dumps(row['tuple'])}, "
                         f"not {json.dumps(entries)}")

"""Hypothesis fuzz of the CLI's exit-code contract.

Every subcommand runs in-process on small or mutated group, root,
epimorphism and size arguments: wrong JSON types, unknown kinds and fields,
zero and negative sizes, and sizes far past the caps. Whatever the input,
the exit code is 0, 2 or 3, stdout is empty unless it is 0, and stderr
holds no traceback. ``cover verify --fragment`` also runs on mutated
exports of a small N_2(Z) ball: a bounded file is read or refused, never
capped.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nielsen.cli import main
from nielsen.explore import ball
from nielsen.groups import Integers

HUGE = "HUGE"  # stands for an int of 5,000 digits in the JSON text
Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

# each group with roots that generate it
GROUPS = [
    ({"kind": "Integers"}, [[1], [1, 1], [2, 3], [1, 0, 0]]),
    ({"kind": "FreeAbelian", "d": 2}, [[[1, 0], [0, 1]], [[1, 0], [1, 1], [0, 0]]]),
    ({"kind": "InfiniteDihedral"}, [[[0, 1], [1, 1]], [[1, 0], [0, 1]]]),
    ({"kind": "Heisenberg"}, [[[1, 0, 0], [0, 1, 0]]]),
    ({"kind": "FiniteAbelianExp", "m": 3, "d": 2}, [[[1, 0], [0, 1]]]),
    ({"kind": "BurnsideB23"}, [[[1, 0, 0], [0, 1, 0]]]),
    ({"kind": "FreeGroup", "d": 2}, [["a", "b"], ["ab", "b"], ["a", "b", ""]]),
    ({"kind": "FiniteCayley", "table": Z3, "identity": 0}, [[1], [1, 0], [2, 2]]),
]
EPIS = [
    {"rule": "identity", "domain": {"kind": "FiniteAbelianExp", "m": 3, "d": 2}},
    {"rule": "identity", "domain": {"kind": "FiniteCayley", "table": Z3, "identity": 0}},
    {"rule": "project", "domain": {"kind": "FreeAbelian", "d": 2}, "e": 1},
    {"rule": "mod", "domain": {"kind": "FreeAbelian", "d": 2}, "m": 5},
    {"rule": "abelianize", "domain": {"kind": "Heisenberg"}},
    {"rule": "reflection", "domain": {"kind": "InfiniteDihedral"}},
]
JUNK = [None, True, False, -1, 0, 1, 2, 1.5, "x", "", "Wat", [], {}, [0], 10**8, 10**30, HUGE]
ELEMENTS = [0, 1, -1, 2, [0, 1], [1, 0], [1, 1], [1, 0, 0], "a", "b", "ab", "", None, True, 1.5, [[1]], HUGE]
RAW_JSON = ["{bad", "", "null", "[]", "1" * 5000, '"Integers"', "[1,"]
BAD_SIZES = ["-1", "0", "100000000", "1" + "0" * 100, "x", "1" * 5000]
BAD_CAPS = ["-1", "0", "1", "x"]  # a larger --cap is a request for a larger ball
COMMANDS = ["explore", "export", "growth", "cheeger", "spectral", "components", "euclid", "forest", "cover", "tame"]


def _text(obj) -> str:
    return json.dumps(obj).replace(json.dumps(HUGE), "1" * 5000)


@st.composite
def _pick(draw, good, bad):
    """One of ``good``, or one in five times one of ``bad``."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0 else good))


@st.composite
def _mutated(draw, obj, depth=0):
    """A copy of obj with one entry dropped, added, retyped or (one level
    down) mutated in turn; or obj itself, or junk in its place."""
    edit = draw(st.integers(0, 4))
    if edit == 0 or depth > 2:
        return obj
    if edit == 1:
        return draw(st.sampled_from(JUNK))
    if isinstance(obj, dict):
        obj = dict(obj)
        key = draw(st.sampled_from(sorted(obj) + ["extra"]))
        if edit == 2:
            obj.pop(key, None)
        elif edit == 3:
            obj[key] = draw(st.sampled_from(JUNK))
        else:
            obj[key] = draw(_mutated(obj.get(key), depth + 1))
        return obj
    if isinstance(obj, list) and obj:
        obj = list(obj)
        k = draw(st.integers(0, len(obj) - 1))
        if edit == 2:
            del obj[k]
        elif edit == 3:
            obj.append(draw(st.sampled_from(ELEMENTS)))
        else:
            obj[k] = draw(_mutated(obj[k], depth + 1))
        return obj
    return draw(st.sampled_from(JUNK))


@st.composite
def _json_text(draw, obj):
    """obj's JSON text, or one in five times a mutated or malformed text."""
    if draw(st.integers(0, 4)):
        return _text(obj)
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(RAW_JSON))
    return _text(draw(_mutated(obj)))


@st.composite
def _group_and_root(draw):
    group, roots = draw(st.sampled_from(GROUPS))
    if draw(st.integers(0, 4)):
        root = draw(st.sampled_from(roots))
    else:
        root = draw(st.lists(st.sampled_from(ELEMENTS), max_size=3))
    return ["--group", draw(_json_text(group)), "--root", draw(_json_text(root))]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(COMMANDS))

    def size(flag, good, optional=False, bad=BAD_SIZES):
        value = draw(_pick([None] if optional else good, bad if optional else bad + good))
        return [] if value is None else [flag, value]

    if command in ("explore", "export", "growth", "cheeger"):
        argv = [command, *draw(_group_and_root()), *size("--radius", ["0", "1", "2", "3"]),
                *size("--cap", ["50", "2000"], bad=BAD_CAPS), *size("--n", ["1", "2", "3"], optional=True),
                *size("--window", ["5"], optional=True)]
        if command == "export":
            argv += ["--format", draw(st.sampled_from(["dot", "jsonl"]))]
        if command == "cheeger":
            argv += ["--strategy", draw(st.sampled_from(["balls", "sweep"]))]
        return argv
    if command == "spectral":
        return [command, *draw(_group_and_root()), *size("--k", ["1", "2", "3", "4"]),
                *size("--n", ["1", "2", "3"], optional=True), *size("--window", ["5"], optional=True)]
    if command == "components":
        group, _ = draw(st.sampled_from(GROUPS))
        return [command, "--group", draw(_json_text(group)), *size("--n", ["1", "2", "3"]),
                *size("--cap", [None], optional=True, bad=BAD_CAPS)]
    if command == "euclid":
        good = [[6, 10, 15], [1], [2, 3], [0, 1], [-4, 7]]
        bad = [[], [0], [2, 4], [10**8, 1], [10**30, 1], [HUGE, 1], ["a"], [None], [[1]], [1.5]]
        return [command, "--root", _text(draw(_pick(good, bad)))]
    if command == "forest":
        n = draw(_pick(["2", "3"], ["1", "4", "x"]))
        argv = [command, *draw(st.sampled_from([[], ["verify"]])), "--n", n, *size("--window", ["2", "3", "5"])]
        if draw(st.booleans()):
            argv.append("--pattern=" + draw(_pick(["+-", "-+0", "+++", "0-+"], ["++", "", "+?", "++++", "00+"])))
        return argv
    if command == "cover":
        argv = [command, "verify", "--pi", draw(_json_text(draw(st.sampled_from(EPIS)))),
                *size("--n", ["2", "3"]), *size("--samples", ["1", "5"]), *size("--seed", [None], optional=True),
                *draw(_pick([[]], [["--fragment", "missing.jsonl"]]))]
        if draw(st.booleans()):
            seed_tuple = st.one_of(st.lists(st.sampled_from(ELEMENTS), max_size=3), st.sampled_from(ELEMENTS),
                                   st.dictionaries(st.sampled_from(["a", "b"]), st.sampled_from(ELEMENTS), max_size=2))
            argv += ["--seed-tuple", _text(draw(seed_tuple))]
        return argv
    group, _ = draw(st.sampled_from(GROUPS))
    return [command, "--group", draw(_json_text(group)), *size("--d", ["1", "2"])]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=2000, deadline=None)
@given(_argv())
def test_every_subcommand_keeps_the_exit_code_contract(argv):
    code, out, err = _run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3), (code, err)
    assert code == 0 or out == ""
    assert "Traceback" not in err


BALL = ball(Integers(), (1, 1), 3).to_jsonl()  # 72 lines


@st.composite
def _fragment_bytes(draw, kind):
    """The export of BALL, cut, with a bit flipped, a line repeated, a huge
    last depth, a first line that is not JSON or no trailing newline."""
    lines = BALL.splitlines(keepends=True)
    if kind == "cut":
        return BALL.encode()[: draw(st.integers(0, len(BALL) - 1))]
    if kind == "flip":
        data = bytearray(BALL.encode())
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    if kind == "repeat":
        k = draw(st.integers(0, len(lines) - 1))
        lines.insert(k, lines[k])
    elif kind == "deep":
        depth = draw(st.sampled_from(["4", "1000000", "1" + "0" * 30, "1" * 5000]))
        lines[-1] = lines[-1].replace('"depth": 3,', f'"depth": {depth},')
    elif kind == "not_json":
        # the last two nest past the JSON parser's recursion limit, the line or its tuple
        deep = ["[" * 100_000, '{"adj": null, "depth": 0, "tuple": ' + "[" * 100_000 + ', "v": "00"}']
        lines[0] = draw(st.sampled_from([*RAW_JSON, *deep])) + "\n"
    else:
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("kind", ["cut", "flip", "repeat", "deep", "not_json", "no_newline"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cover_verify_reads_or_refuses_a_mutated_fragment(kind, data):
    blob = data.draw(_fragment_bytes(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ball.jsonl")
        with open(path, "wb") as f:
            f.write(blob)
        code, out, err = _run(["cover", "verify", "--pi", _text(EPIS[2]), "--n", "2", "--samples", "1",
                               "--fragment", path, "--seed-tuple", "[[1,0],[1,1]]"])
    event(f"exit {code}")
    assert code in (0, 2), (code, err)
    assert code == 0 or out == ""
    assert "Traceback" not in err

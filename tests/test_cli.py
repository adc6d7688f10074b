"""CLI: subcommands, exit codes, deterministic output, file round-trips."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from nielsen import covering
from nielsen.cli import build_parser, main
from nielsen.groups import DEFAULT_VERTEX_CAP

from conftest import elementary_abelian_table, quaternion_table
from oracles import content_equal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys):
    # an argparse error and a usage error must leave the cached parser as a
    # fresh one: every later call prints what it prints on a fresh parser
    calls = [
        (["growth", "--bogus"], 2),
        (["spectral", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--k", "0"], 2),
        (["euclid", "--root", "[6,10,15]"], 0),
        (["cover", "verify", "--pi", '{"rule":"abelianize","domain":{"kind":"Heisenberg"}}', "--n", "2",
          "--samples", "20"], 0),
        (["growth", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--radius", "4"], 0),
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv, _ in calls:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    reused = [call(argv) for argv, _ in calls]
    assert build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [code for _, code in calls]
    assert all(out for code, out, _ in fresh if code == 0)


def test_explore_n1(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "--group", '{"kind":"Integers"}', "--n", "1",
        "--root", "[1]", "--radius", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == 2 and report["expanded"] == 2
    assert report["tool"] == "nielsen 0.1.0"


def test_stdout_is_byte_identical(capsys):
    args = ("explore", "--group", '{"kind":"Integers"}', "--root", "[2,3]", "--radius", "4")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_components_cli(capsys):
    code, out, _ = run_cli(
        capsys, "components", "--group", '{"kind":"FiniteAbelianExp","m":3,"d":2}', "--n", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["components"] == 1 and report["sizes"] == [48]


def test_euclid_cli(capsys):
    code, out, _ = run_cli(capsys, "euclid", "--root", "[6,10,15]")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True and report["result"] == [1, 0, 0]


def test_spectral_k0_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "spectral", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--k", "0",
    )
    assert code == 2
    assert "k >= 1" in err


def test_bad_group_json_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "explore", "--group", '{"kind":"Wat"}', "--root", "[1]", "--radius", "1",
    )
    assert code == 2 and "unknown group kind" in err


def test_cap_exceeded_is_resource_error(capsys):
    code, _, err = run_cli(
        capsys, "explore", "--group", '{"kind":"Integers"}', "--root", "[1,1]",
        "--radius", "6", "--cap", "10",
    )
    assert code == 3 and "cap" in err


def test_non_generating_root_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "explore", "--group", '{"kind":"Integers"}', "--root", "[2,4]", "--radius", "2",
    )
    assert code == 2 and "generate" in err


def test_growth_cli(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--group", '{"kind":"InfiniteDihedral"}',
        "--root", "[[0,1],[1,1]]", "--radius", "6",
    )
    assert code == 0
    profile = json.loads(out)["profile"]
    assert profile[0] == [0, 1] and len(profile) == 7


def test_cheeger_cli(capsys):
    code, out, _ = run_cli(
        capsys, "cheeger", "--group", '{"kind":"Integers"}', "--root", "[1,1]",
        "--radius", "5", "--strategy", "balls",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ratio_num"] * 5 >= report["ratio_den"]  # >= 1/5


def test_forest_cli(capsys):
    code, out, _ = run_cli(capsys, "forest", "--n", "2", "--window", "8")
    assert code == 0
    report = json.loads(out)
    assert report["acyclic"] and report["coverage_ok"] and report["min_interior_degree"] >= 3


def test_forest_component_export(capsys, tmp_path):
    path = tmp_path / "comp.dot"
    code, out, _ = run_cli(
        capsys, "forest", "--n", "2", "--window", "6", "--pattern", "+-", "--output", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("graph forest_component {") and "peripheries=2" in text


def test_export_round_trip(capsys, tmp_path):
    path = tmp_path / "frag.jsonl"
    code, _, _ = run_cli(
        capsys, "export", "--group", '{"kind":"Integers"}', "--root", "[1,1]",
        "--radius", "3", "--format", "jsonl", "--output", str(path),
    )
    assert code == 0
    from nielsen.explore import ball, fragment_from_jsonl
    from nielsen.groups import Integers

    clone = fragment_from_jsonl(Integers(), 2, path.read_text())
    assert content_equal(clone, ball(Integers(), (1, 1), 3))


def test_cover_cli_with_fragment(capsys, tmp_path):
    path = tmp_path / "codomain.jsonl"
    run_cli(
        capsys, "export", "--group", '{"kind":"Integers"}', "--root", "[1,1]",
        "--radius", "4", "--format", "jsonl", "--output", str(path),
    )
    code, out, _ = run_cli(
        capsys, "cover", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
        "--n", "2", "--samples", "100", "--fragment", str(path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == 0
    assert report["lifted"] == report["lifted"] and report["unreached"] == 0


def _drop_depth(rows):
    del rows[0]["depth"]


def _dangling_target(rows):
    rows[0]["adj"][0]["to"] = "00"


def _unknown_move(rows):
    rows[0]["adj"][0]["move"] = "R+:1,3"


def _relabelled_key(rows):
    old, new = rows[1]["v"], "ff" + rows[1]["v"]
    for row in rows:
        row["v"] = new if row["v"] == old else row["v"]
        for dart in row["adj"] or ():
            dart["to"] = new if dart["to"] == old else dart["to"]


def _false_depth(rows):
    rows[-1]["depth"] = 7


def _string_depth(rows):
    rows[0]["depth"] = "0"


def _negative_depth(rows):
    rows[0]["depth"] = -1


def _object_adj(rows):
    rows[0]["adj"] = {}


def _missing_last_dart(rows):
    del rows[0]["adj"][-1]


# the refusal each mutation must reach, where no other test reaches it
_REFUSALS = {
    _string_depth: "usage error: fragment line 1: depth must be an int >= 0\n",
    _negative_depth: "usage error: fragment line 1: depth must be an int >= 0\n",
    _object_adj: "usage error: fragment line 1: adj must be a list or null\n",
    _missing_last_dart: "usage error: fragment line 1: 9 darts, not one per move (10)\n",
}


@pytest.mark.parametrize("mutate", [None, _drop_depth, _dangling_target, _unknown_move, _relabelled_key, _false_depth,
                                    *_REFUSALS],
                         ids=["not_json", "missing_field", "dangling_to", "unknown_move", "relabelled_key",
                              "false_depth", "string_depth", "negative_depth", "object_adj", "missing_last_dart"])
def test_cover_rejects_malformed_fragment(capsys, tmp_path, mutate):
    from nielsen.explore import ball
    from nielsen.groups import Integers

    rows = [json.loads(line) for line in ball(Integers(), (1, 1), 2).to_jsonl().splitlines()]
    if mutate is None:
        text = "this is not a fragment\n"
    else:
        mutate(rows)
        text = "".join(json.dumps(row) + "\n" for row in rows)
    path = tmp_path / "frag.jsonl"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "cover", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
        "--n", "2", "--samples", "10", "--fragment", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("usage error")
    assert err == _REFUSALS.get(mutate, err)


def _integers_ball_file(tmp_path):
    from nielsen.explore import ball
    from nielsen.groups import Integers

    path = tmp_path / "frag.jsonl"
    path.write_text(ball(Integers(), (1, 1), 2).to_jsonl())
    return path


@pytest.mark.parametrize("seed_tuple", ["[[1,0]]", "[[1,0],[1,1],[0,1]]"])
def test_cover_refuses_a_seed_tuple_of_another_length(capsys, tmp_path, seed_tuple):
    code, out, err = run_cli(
        capsys, "cover", "verify", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
        "--n", "2", "--samples", "10", "--fragment", str(_integers_ball_file(tmp_path)), "--seed-tuple", seed_tuple,
    )
    assert code == 2 and out == ""
    assert err == "usage error: seed tuple length does not match the fragment\n"


def test_cover_asks_for_a_seed_tuple_when_the_domain_rank_exceeds_n(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "cover", "verify", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":3},"e":1}',
        "--n", "2", "--samples", "0", "--fragment", str(_integers_ball_file(tmp_path)),
    )
    assert code == 2 and out == ""
    assert err == "usage error: domain rank exceeds n; pass --seed-tuple explicitly\n"


def test_cover_checks_the_workflow_run_of_100000_samples(capsys):
    # the sampler's last rewind once regenerated every word drawn since its
    # start, past what getrandbits takes
    code, out, err = run_cli(
        capsys, "cover", "verify", "--pi", '{"rule":"abelianize","domain":{"kind":"Heisenberg"}}', "--n", "2",
        "--samples", "100000", "--seed", "1",
    )
    assert code == 0 and err == ""
    assert '"checked": 100000' in out and '"violations": 0' in out


def test_cover_rejects_a_fragment_root_that_does_not_generate(capsys, tmp_path):
    path = tmp_path / "frag.jsonl"
    path.write_text(json.dumps({"v": "00", "tuple": [2, 4], "depth": 0, "adj": None}) + "\n")
    code, out, err = run_cli(
        capsys, "cover", "verify", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
        "--n", "2", "--samples", "10", "--fragment", str(path),
    )
    assert code == 2 and out == ""
    assert err == "usage error: root tuple (2, 4) does not generate the group\n"


def test_cover_names_a_rewired_dart(capsys, tmp_path):
    from nielsen.explore import ball
    from nielsen.groups import Integers

    rows = [json.loads(line) for line in ball(Integers(), (1, 1), 2).to_jsonl().splitlines()]
    target = rows[0]["adj"][0]["to"]
    path = tmp_path / "frag.jsonl"
    # every wrong target, including ones the lift reaches through other darts
    for wrong in (row["v"] for row in rows if row["v"] != target):
        rows[0]["adj"][0]["to"] = wrong
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out, err = run_cli(
            capsys, "cover", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
            "--n", "2", "--samples", "10", "--fragment", str(path),
        )
        assert code == 2 and out == "", wrong
        assert err.startswith("usage error") and "R+:1,2" in err and rows[0]["v"] in err


@pytest.mark.parametrize("kind", ["not_utf8", "missing", "directory"])
def test_cover_fragment_file_errors_exit_2(tmp_path, kind):
    import nielsen

    path = tmp_path / "frag.jsonl"
    if kind == "not_utf8":
        path.write_bytes(b"\xff\xfe")
    elif kind == "directory":
        path.mkdir()
    src = os.path.dirname(os.path.dirname(nielsen.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "nielsen", "cover", "--pi", '{"rule":"identity","domain":{"kind":"Integers"}}',
         "--n", "2", "--samples", "1", "--fragment", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("usage error" if kind == "not_utf8" else "i/o error")


def test_export_into_missing_directory_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "export", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--radius", "1",
        "--format", "jsonl", "--output", str(tmp_path / "no" / "such.jsonl"),
    )
    assert code == 2 and out == "" and err.startswith("i/o error")


@pytest.mark.parametrize("argv", [
    ["export", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--radius", "3", "--format", "jsonl", "--cap", "5"],
    ["export", "--group", '{"kind":"FreeGroup","d":2}', "--root", '["a","b"]', "--radius", "2", "--format", "dot",
     "--cap", "5"],
    ["forest", "--n", "2", "--window", "100000000", "--pattern", "++"],
], ids=["export_jsonl", "export_dot", "forest_pattern"])
def test_caps_are_checked_before_the_first_byte(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "Traceback" not in err
    path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 3 and out == "" and not path.exists()


@pytest.mark.parametrize("argv", [
    ["export", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--radius", "6", "--format", "jsonl"],
    ["export", "--group", '{"kind":"Heisenberg"}', "--root", "[[1,0,0],[0,1,0]]", "--radius", "3", "--format", "dot"],
    ["export", "--group", '{"kind":"FreeGroup","d":2}', "--root", '["a","b"]', "--radius", "3", "--format", "jsonl"],
    ["forest", "--n", "3", "--window", "9", "--pattern", "+-0"],
], ids=["jsonl", "dot", "free_jsonl", "forest"])
def test_output_file_holds_the_bytes_of_stdout(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.txt"
    code, printed, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


def test_cover_lifts_a_compact_export(capsys, tmp_path):
    # re-serialized without spaces: not the canonical text, read by the parsed checks
    from nielsen.explore import ball
    from nielsen.groups import Integers

    rows = [json.loads(line) for line in ball(Integers(), (1, 1), 2).to_jsonl().splitlines()]
    path = tmp_path / "compact.jsonl"
    path.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows))
    code, out, err = run_cli(
        capsys, "cover", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
        "--n", "2", "--samples", "10", "--fragment", str(path), "--seed-tuple", "[[1,0],[1,1]]",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["lifted"] == len(rows) and json.loads(out)["unreached"] == 0


@pytest.mark.parametrize("seed_tuple", ["5", '"ab"', '{"a": [1, 0]}', "null", "true"])
def test_cover_refuses_a_seed_tuple_that_is_not_a_list(capsys, tmp_path, seed_tuple):
    from nielsen.explore import ball
    from nielsen.groups import Integers

    path = tmp_path / "z2.jsonl"
    path.write_text(ball(Integers(), (1, 1), 2).to_jsonl())
    with pytest.raises(SystemExit) as stop:
        main(["cover", "verify", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
              "--n", "2", "--samples", "5", "--fragment", str(path), "--seed-tuple", seed_tuple])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert "argument --seed-tuple: must be a JSON list of elements" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("group", [
    '{"kind":"FiniteAbelianExp","m":2,"d":100000000000000000000}',
    '{"kind":"FreeAbelian","d":100000000000000000000}',
    '{"kind":"FiniteAbelianExp","m":2,"d":%d}' % (DEFAULT_VERTEX_CAP + 1),
])
def test_a_rank_above_the_cap_is_a_usage_error(group):
    import nielsen

    src = os.path.dirname(os.path.dirname(nielsen.__file__))
    run = subprocess.run([sys.executable, "-m", "nielsen", "components", "--group", group, "--n", "1"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("usage error") and "rank d must be at most" in run.stderr
    assert "Traceback" not in run.stderr


def test_bool_spec_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "growth", "--group", '{"kind":"FreeAbelian","d":true}', "--root", "[[1]]", "--radius", "1",
    )
    assert code == 2 and out == "" and err.startswith("usage error")
    code, out, err = run_cli(
        capsys, "components", "--group", '{"kind":"FiniteCayley","table":[[false,true],[true,false]],"identity":0}',
        "--n", "1",
    )
    assert code == 2 and out == "" and err.startswith("usage error")


def test_tame_cli(capsys):
    code, out, _ = run_cli(
        capsys, "tame", "--group", '{"kind":"FiniteAbelianExp","m":5,"d":1}', "--d", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["num_components"] == 2 and report["ok"] is True


def test_tame_checks_sizes_before_building_a_table(capsys, monkeypatch):
    from nielsen.groups import FiniteTable

    def refuse(group):
        raise AssertionError("table built")

    monkeypatch.setattr(FiniteTable, "of", refuse)
    code, out, err = run_cli(
        capsys, "tame", "--group", '{"kind":"FiniteAbelianExp","m":2,"d":11}', "--d", "1",
    )
    assert code == 2 and out == ""
    assert err == "usage error: d = 1 must equal the rank 11 of the group\n"
    code, out, err = run_cli(
        capsys, "tame", "--group", '{"kind":"FiniteAbelianExp","m":2,"d":12}', "--d", "12",
    )
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "Traceback" not in err


@pytest.mark.parametrize("k, d", [(5, 5), (6, 6), (6, 2)])
def test_tame_rank_search_is_bounded(capsys, k, d):
    # (Z/2)^k as a table: the tuple count |G|^d, or at d = 2 the search for
    # a default base over |G|^4 tuples, exceeds the cap
    start = time.perf_counter()
    group = json.dumps({"kind": "FiniteCayley", "table": elementary_abelian_table(k), "identity": 0})
    code, out, err = run_cli(capsys, "tame", "--group", group, "--d", str(d))
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "Traceback" not in err
    assert time.perf_counter() - start < 20


def test_cover_samples_are_capped(capsys, monkeypatch):
    # refused before the first draw
    monkeypatch.setattr(covering, "random_generating_tuples", None)
    code, out, err = run_cli(
        capsys, "cover", "verify", "--pi", '{"rule":"abelianize","domain":{"kind":"Heisenberg"}}', "--n", "2",
        "--samples", str(DEFAULT_VERTEX_CAP + 1),
    )
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "samples exceed cap" in err and "Traceback" not in err


@pytest.mark.parametrize("table", ['"ab"', "[[0,1],[1]]", "[[100000000000000000000000]]", "{}", "[[0.0]]"])
def test_malformed_cayley_tables_are_usage_errors(capsys, table):
    group = '{"kind":"FiniteCayley","table":%s,"identity":0}' % table
    code, out, err = run_cli(capsys, "components", "--group", group, "--n", "1")
    assert code == 2 and out == ""
    assert err.startswith("usage error: FiniteCayley table") and "Traceback" not in err


def test_components_beyond_the_label_limits(capsys):
    code, out, err = run_cli(
        capsys, "components", "--group", '{"kind":"FiniteCayley","table":[[0]],"identity":0}', "--n", "70",
    )
    assert code == 2 and out == ""
    assert err.startswith("usage error") and "n <= 64" in err and "Traceback" not in err
    code, out, err = run_cli(
        capsys, "components", "--group", '{"kind":"FiniteAbelianExp","m":2,"d":1}', "--n", "40",
        "--cap", str(10**13),
    )
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "int32" in err and "Traceback" not in err


def test_components_bounds_the_multiplication_table(capsys):
    # 4096 tuples, but a table of 4096^2 entries: over the default cap
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "components", "--group", '{"kind":"FiniteAbelianExp","m":2,"d":12}', "--n", "1",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "multiplication table" in err and "Traceback" not in err


# (Z/10^100)^50 has 10^5000 elements, and a window of 10^2000 scans about
# 10^6000 states: past the 4300 digits Python converts to text
_HUGE_GROUP = '{"kind":"FiniteAbelianExp","m":1' + "0" * 100 + ',"d":50}'
_HUGE_WINDOW = "1" + "0" * 2000


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["components", "--group", _HUGE_GROUP, "--n", "1"], "state count (about 10^5000)"),
        (["tame", "--group", _HUGE_GROUP, "--d", "2"], "state count (about 10^10000)"),
        (["cover", "verify", "--pi", '{"rule":"identity","domain":' + _HUGE_GROUP + "}", "--n", "2"],
         "multiplication table of (about 10^5000)^2 entries"),
        (["forest", "verify", "--n", "3", "--window", _HUGE_WINDOW], "window scan of (about 10^6000) states"),
        (["forest", "verify", "--n", "3", "--window", _HUGE_WINDOW, "--pattern", "+++"],
         "window scan of (about 10^6000) states"),
        # a state count too large to compute at all
        (["tame", "--group", '{"kind":"FiniteAbelianExp","m":2,"d":1}', "--d", str(10**18)],
         f"state count 2^{10**18} exceeds"),
    ],
    ids=["components", "tame", "cover_identity", "forest_verify", "forest_pattern", "tame_huge_d"],
)
def test_caps_name_sizes_too_long_to_print(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("resource error") and named in err and "Traceback" not in err


def test_fragment_int_too_long_to_read_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text('{"v": "00", "tuple": [1' + "0" * 5000 + ', 1], "depth": 0, "adj": null}\n')
    code, out, err = run_cli(
        capsys, "cover", "verify", "--pi", '{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}',
        "--n", "2", "--samples", "1", "--fragment", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("usage error: fragment line 1:") and "Traceback" not in err


def test_euclid_word_past_the_cap_is_a_resource_error(capsys):
    code, out, err = run_cli(capsys, "euclid", "--root", f"[{DEFAULT_VERTEX_CAP + 2}, 1]")
    assert code == 3 and out == ""
    assert err.startswith("resource error") and "Traceback" not in err


_Z3_TABLE = '{"kind":"FiniteCayley","table":[[0,1,2],[1,2,0],[2,0,1]],"identity":0}'


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["growth", "--group", '{"kind":"Integers"}', "--root", "[1]", "--radius", "100000000"],
         "growth profile of 100000001 rows exceeds cap"),
        (["explore", "--group", '{"kind":"Integers"}', "--root", "[1]", "--radius", "100000000"],
         "growth profile of 100000001 rows exceeds cap"),
        (["spectral", "--group", _Z3_TABLE, "--root", "[1,0]", "--k", "5000"],
         "a_5000 = (about 10^4999) has too many digits"),
        (["spectral", "--group", '{"kind":"InfiniteDihedral"}', "--root", "[[0,1],[1,1]]", "--k", "9000"],
         "walk DP of 9000 steps"),
        (["cover", "verify", "--pi", '{"rule":"abelianize","domain":{"kind":"Heisenberg"}}', "--n", "100000000"],
         "move set at n = 100000000 exceeds cap"),
    ],
    ids=["growth_radius", "explore_radius", "spectral_digits", "spectral_dp", "cover_n"],
)
def test_sizes_past_the_caps_are_refused_up_front(capsys, argv, named):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("resource error") and named in err and "Traceback" not in err
    assert time.perf_counter() - start < 10


def test_even_walk_count_too_long_to_print_is_refused_before_the_dp(capsys):
    # a_k >= 10^(k/2) at n = 2, so a_20000 has more digits than Python prints
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectral", "--group", _Z3_TABLE, "--root", "[1,0]", "--k", "20000")
    assert code == 3 and out == ""
    assert err == "resource error: a_20000 >= 10^10000 has too many digits to print\n"
    assert time.perf_counter() - start < 1.0


def test_out_of_memory_exits_3(capsys, monkeypatch):
    from nielsen import cli

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "ball", no_memory)
    code, out, err = run_cli(capsys, "growth", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--radius", "3")
    assert code == 3 and out == ""
    assert err.startswith("resource error: out of memory") and "Traceback" not in err


@pytest.mark.parametrize(("text", "reason"), [("{bad", "Expecting property name"), ("1" * 5000, "Exceeds the limit")])
def test_json_argument_errors_say_why(capsys, text, reason):
    with pytest.raises(SystemExit) as stop:
        main(["explore", "--group", text, "--root", "[1]", "--radius", "1"])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert f"argument --group: invalid JSON: {reason}" in captured.err and "Traceback" not in captured.err


def test_console_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "nielsen.cli", "euclid", "--root", "[2,3]"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["verified"] is True


def test_package_runs_as_module(capsys):
    import nielsen

    argv = ["components", "--group", '{"kind":"FiniteAbelianExp","m":3,"d":1}', "--n", "2"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nielsen.__file__)))
    run = subprocess.run([sys.executable, "-m", "nielsen", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and run.stdout == out
    assert json.loads(out)["sizes"] == [8]


# sha256 of exports written before the BFS deduplicated on tuples (the first
# six) and before the integer-vector kinds shared one base class (the rest)
GOLDEN_EXPORTS = {
    ('{"kind":"Integers"}', "[1,1]", "6", "jsonl"):
        "4be31ad6a255571cc18df8ab5758dc9ce949ca776023343f34d22aef6e08a6d2",
    ('{"kind":"Heisenberg"}', "[[1,0,0],[0,1,0]]", "3", "jsonl"):
        "df5d5f1d96365b30f47a5b386596ecfe0383302321b8e3d8751200c766c59fb6",
    ('{"kind":"FreeGroup","d":2}', '["a","b"]', "3", "jsonl"):
        "f646f4fb302d439b2f341ca272b072b2a419215f34ca5e3792b94e4dd4478dfe",
    ('{"kind":"Integers"}', "[1,1]", "6", "dot"):
        "66f4f4c21cc9c1f4d6555cceec08eea6b2dee9e71504e5f0493ff273cbedd276",
    ('{"kind":"Heisenberg"}', "[[1,0,0],[0,1,0]]", "3", "dot"):
        "80d3b7e9f9762ddf8231877f3a64f64cdc1af4dc6241889eda5fbb816818854a",
    ('{"kind":"FreeGroup","d":2}', '["a","b"]', "3", "dot"):
        "0f5fd0a567930d252c0a14f77724a12ecd6e487b6a8e4844b6c8f3cbbf670d24",
    ('{"kind":"InfiniteDihedral"}', "[[0,1],[1,1]]", "6", "jsonl"):
        "7320d6d37542ac384b1a98bf3dab38480ea5a422817c6c578dafd72493d102cb",
    ('{"kind":"FreeAbelian","d":2}', "[[1,0],[0,1]]", "3", "jsonl"):
        "0362daef52459d8c1cd632ac8394499c8fda2a3897e9b1d12ee2873ab90223f5",
    ('{"kind":"FiniteAbelianExp","m":3,"d":2}', "[[1,0],[0,1]]", "4", "jsonl"):
        "a9702acc2184685cc399d5584210262173df751233aeb2275d313210fe7ba07f",
    ('{"kind":"BurnsideB23"}', "[[1,0,0],[0,1,0]]", "3", "jsonl"):
        "f410f169e089680a62ccc578b8545ab69c16345058ec88e1b57261034a30b5c1",
}


@pytest.mark.parametrize("args", GOLDEN_EXPORTS, ids=lambda a: f"{json.loads(a[0])['kind']}-{a[3]}")
def test_golden_exports(capsys, args):
    group, root, radius, fmt = args
    code, out, _ = run_cli(capsys, "export", "--group", group, "--root", root, "--radius", radius, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EXPORTS[args]


def test_stdout_does_not_depend_on_hash_seed():
    import nielsen

    src = os.path.dirname(os.path.dirname(nielsen.__file__))
    commands = (
        ["export", "--group", '{"kind":"FreeGroup","d":2}', "--root", '["a","b"]', "--radius", "2",
         "--format", "jsonl"],
        ["growth", "--group", '{"kind":"Heisenberg"}', "--root", "[[1,0,0],[0,1,0]]", "--radius", "3"],
        ["cheeger", "--group", '{"kind":"Integers"}', "--root", "[1,1]", "--radius", "5",
         "--strategy", "sweep"],
        ["components", "--group", json.dumps({"kind": "FiniteCayley", "table": quaternion_table(), "identity": 0}),
         "--n", "3"],
        ["tame", "--group", '{"kind":"FiniteAbelianExp","m":5,"d":2}', "--d", "2"],
        ["forest", "verify", "--n", "3", "--window", "6"],
    )
    for argv in commands:
        outs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-m", "nielsen.cli", *argv],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            outs.add(run.stdout)
        assert len(outs) == 1, argv[0]

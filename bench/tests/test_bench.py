"""Self-tests of the benchmark: tiny smoke runs, failure counting and trace
accounting. Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def cli():
    return child.import_cli()


@pytest.fixture
def tiny(tmp_path):
    return lambda name, seed=7: workloads.build(name, seed, str(tmp_path), tiny=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    out = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def run_pass_failed(cli, wl, expected=None):
    return child.run_pass(cli, wl, expected, None).problems


def _corrupt_growth(cli):
    """A CLI whose growth_n2z report claims one vertex too many in the last ball."""

    class Corrupt:
        @staticmethod
        def main(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            text = buf.getvalue()
            if argv[:4] == ["growth", "--group", workloads.INTEGERS, "--root"] and argv[4] == "[1,1]":
                obj = json.loads(text)
                obj["profile"][-1][1] += 1
                text = json.dumps(obj, sort_keys=True) + "\n"
            sys.stdout.write(text)
            return rc

    return Corrupt


def test_wrong_ball_count_counts_as_failed(cli, tiny):
    wl = tiny("ball_infinite")
    assert run_pass_failed(cli, wl) == []
    failed = run_pass_failed(_corrupt_growth(cli), wl)
    assert [op for op, _ in failed] == ["growth_n2z"]


def test_flipped_digest_counts_as_failed(cli, tiny):
    wl = tiny("certify_roundtrip")
    op = next(o for o in wl.ops if o.name == "forest_dot_ppp")
    _, stdout, files, problems = child.run_op(cli, op)
    assert problems == []
    digest = child.output_digest(stdout, files)
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    key = f"{wl.name}/{op.name}"
    assert run_pass_failed(cli, wl, child.Expected({"fixed": {key: digest}})) == []
    failed = run_pass_failed(cli, wl, child.Expected({"fixed": {key: flipped}}))
    assert [op for op, _ in failed] == ["forest_dot_ppp"]


def test_output_change_between_passes_counts_as_failed(cli, tiny):
    wl = tiny("ball_infinite")
    reference = child.run_pass(cli, wl, None, None).digests
    res = child.run_pass(_corrupt_growth(cli), wl, None, reference)
    assert res.failed == 1 and res.problems[0][0] == "growth_n2z"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_fit_in_traced_wall(cli, tiny, workload):
    record = child.measure(cli, tiny(workload), seconds=0.1, trace=True, spans_path=None)
    assert record["failed"] == 0
    for total, wall in zip(record["self_seconds_sums"], record["traced_walls"]):
        assert 0 < total <= wall
    assert record["missing_layers"] == []
    assert set(record["layers"]) == set(tracer.METRICS)


def test_tracer_uninstall_restores_the_program(cli):
    import nielsen.explore
    import nielsen.groups

    ball, mul = nielsen.explore.ball, nielsen.groups.Integers.mul
    tr = tracer.Tracer()
    tr.install()
    try:
        assert nielsen.explore.ball is not ball and cli.ball is nielsen.explore.ball
    finally:
        tr.uninstall()
    assert nielsen.explore.ball is ball and cli.ball is ball and nielsen.groups.Integers.mul is mul


def test_seeded_inputs_repeat_and_vary():
    a, b = (workloads.build("finite_classes", s, "t") for s in (1, 2))
    again = workloads.build("finite_classes", 1, "t")
    assert [o.argv for o in a.ops] == [o.argv for o in again.ops]
    assert [o.argv for o in a.ops] != [o.argv for o in b.ops]
    assert [o.tuples for o in a.ops] == [o.tuples for o in b.ops]


def test_normalised_time_follows_the_program_not_the_machine():
    assert calibrate.python_kernel() == calibrate.VERTICES
    assert 0 < calibrate.numpy_kernel(calibrate.permutations()) < calibrate.LABELS
    for kind in calibrate.KINDS:
        assert len(calibrate.kernel_seconds(kind)) == 1
        assert sum(calibrate.kernel_seconds(kind, at_least=0.05)) >= 0.05
    # the same op on a machine half as fast: both times double, the figure stays
    fast = calibrate.normalise(1.0, [0.012, 0.010, 0.011])
    assert calibrate.normalise(2.0, [0.024, 0.020, 0.022]) == pytest.approx(fast)
    # a program twice as slow on the same machine doubles it
    assert calibrate.normalise(2.0, [0.012, 0.010, 0.011]) == pytest.approx(2 * fast)
    assert fast == pytest.approx(1.0 * calibrate.NOMINAL_S["python"] / 0.011)


def test_closed_forms_against_brute_force():
    for w, k in ((1, 2), (12, 2), (7, 3)):
        brute = sum(1 for t in product(range(1, w + 1), repeat=k) if math.gcd(*t) == 1)
        assert workloads.coprime_tuples(w, k) == brute
    vecs = list(product(range(3), repeat=2))
    # three vectors span F_3^2 iff two of them have a nonzero determinant
    spans = sum(1 for t in product(vecs, repeat=3)
                if any((u[0] * v[1] - u[1] * v[0]) % 3 for u in t for v in t))
    assert workloads.spanning_tuples(3, 2, 3) == spans


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "_tmp", "__pycache__"))
    out = run_bench("--workload", "ball_infinite", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""

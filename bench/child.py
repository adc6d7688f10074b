"""One workload in one fresh process: timed, checked and optionally traced passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Each pass runs the workload's op list once, one op at a time, through
``nielsen.cli.main`` with stdout and stderr captured. Only the ``main`` calls
are timed; checking happens between ops. The last stdout line is one JSON
record for ``run.py``.

An op fails when it exits nonzero, raises, prints a traceback, fails its
closed-form check, differs from the sha256 digest recorded in
``expected.json``, or differs from its own output in the first pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"


def import_cli():
    """``nielsen.cli`` from this checkout's ``src``, and nowhere else."""
    import nielsen.cli

    src = (ROOT / "src").resolve()
    if Path(nielsen.__file__).resolve().parent.parent != src:
        raise SystemExit(f"nielsen was imported from {nielsen.__file__}, not from {src}")
    return nielsen.cli


def output_digest(stdout: str, files: dict) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(files):
        h.update(b"\0" + files[path].encode())
    return h.hexdigest()


class Expected:
    """Recorded digests: one per fixed op, one per standard seed for seeded ops."""

    def __init__(self, data: dict):
        self.fixed = data.get("fixed", {})
        self.seeded = data.get("seeded", {})

    @classmethod
    def load(cls) -> "Expected":
        return cls(json.loads(EXPECTED.read_text()))

    def digest(self, workload: str, op: workloads.Op, seed: int) -> str | None:
        key = f"{workload}/{op.name}"
        if op.seeded:
            return self.seeded.get(key, {}).get(str(seed))
        return self.fixed.get(key)


@dataclass
class PassResult:
    wall: float = 0.0
    op_seconds: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)   # (op, problem) for every failed op
    op_at: dict = field(default_factory=dict)       # op name -> perf_counter at the op's middle
    kernel: list = field(default_factory=list)      # (perf_counter, kind, seconds) of each kernel run
    stdout_bytes: int = 0

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.problems})


def run_op(cli, op: workloads.Op) -> tuple[float, str, dict, list[str]]:
    """Run one op; return its seconds, stdout, output files and problems."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit):
        rc = None
        problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
    seconds = time.perf_counter() - t0
    if rc is not None and rc != 0:
        problems.append(f"exit code {rc}: {err.getvalue().strip()[:200]}")
    if "Traceback" in err.getvalue():
        problems.append("traceback on stderr")
    files = {}
    for path in op.outputs:
        with contextlib.suppress(OSError):
            files[path] = Path(path).read_text()
    stdout = out.getvalue()
    if not problems:
        problems.extend(op.check(stdout, files))
    return seconds, stdout, files, problems


# reference kernel time spent per second of op time, spread over the pass
KERNEL_SHARE = 0.1
# an op's reference speed: the median of this many kernel times nearest to it
NEAREST = 5


def run_pass(cli, wl: workloads.Workload, expected: Expected | None, reference: dict | None,
             tracer=None, tag: str = "") -> PassResult:
    res = PassResult()
    owed = dict.fromkeys(calibrate.KINDS, 0.0)   # kernel seconds still to run for the op time so far
    for op in wl.ops:
        if tracer is not None:
            tracer.op = f"{tag}/{op.name}"
        start = time.perf_counter()
        seconds, stdout, files, problems = run_op(cli, op)
        res.op_at[op.name] = start + seconds / 2
        owed[op.reference] += KERNEL_SHARE * seconds
        if owed[op.reference] > 0:
            at = time.perf_counter()
            times = calibrate.kernel_seconds(op.reference, owed[op.reference])
            res.kernel.extend((at, op.reference, t) for t in times)
            owed[op.reference] -= sum(times)
        res.wall += seconds
        res.op_seconds[op.name] = seconds
        res.stdout_bytes += len(stdout.encode())
        digest = res.digests[op.name] = output_digest(stdout, files)
        want = expected.digest(wl.name, op, wl.seed) if expected else None
        if want is not None and digest != want:
            problems.append("sha256 of the output differs from the recorded digest")
        if reference is not None and digest != reference.get(op.name):
            problems.append("output differs from the first pass")
        res.problems.extend((op.name, p) for p in problems)
    return res


def environment() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def measure(cli, wl: workloads.Workload, seconds: float, trace: bool, spans_path: str | None) -> dict:
    """Run passes for about ``seconds`` and summarise them."""
    expected = None if wl.tiny else Expected.load()
    start = time.perf_counter()
    passes: list[PassResult] = []

    def more(walls) -> bool:
        # start another pass only if it should end by about half a pass late
        return time.perf_counter() - start + 0.5 * statistics.median(walls) <= seconds

    reference = None
    while True:
        res = run_pass(cli, wl, expected, reference, tag=f"pass{len(passes)}")
        reference = reference or res.digests
        passes.append(res)
        if trace or not more([p.wall for p in passes]):
            break

    record = {
        "untraced_walls": [p.wall for p in passes],
        "kernel_s": {kind: [s for p in passes for _, k, s in p.kernel if k == kind] for kind in calibrate.KINDS},
        "normalised_pass_s": normalised_pass_seconds(wl, passes),
    }
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tr.install()
        layers, traced = [], []
        try:
            while True:
                tr.reset()
                res = run_pass(cli, wl, expected, reference, tracer=tr, tag=f"pass{len(passes)}")
                passes.append(res)
                traced.append(res.wall)
                layers.append((tr.metrics(res.stdout_bytes), sum(tr.self_seconds().values())))
                if not more(traced):
                    break
        finally:
            tr.uninstall()
        if spans_path:
            tr.write_spans(spans_path)
        record.update({
            "traced_walls": traced,
            "self_seconds_sums": [total for _, total in layers],
            "missing_layers": tr.missing,
            "layers": _layer_medians([m for m, _ in layers]),
        })
        record["layers"]["trace.overhead_s"] = statistics.median(traced) - statistics.median(record["untraced_walls"])

    problems = [p for res in passes for p in res.problems]
    per_op = {op.name: [p.op_seconds[op.name] for p in passes] for op in wl.ops}
    record.update({
        "workload": wl.name,
        "seed": wl.seed,
        "tiny": wl.tiny,
        "ops": len(wl.ops),
        "passes": len(passes),
        "tuples_per_pass": sum(op.tuples for op in wl.ops),
        "attempted": len(wl.ops) * len(passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems[:50],
        "op_seconds": per_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return record


def normalised_pass_seconds(wl: workloads.Workload, passes: list[PassResult]) -> float:
    """A typical pass at the reference speed: each op run is normalised by the
    kernel times of its kind nearest to it, and the op's median over the
    passes is summed."""
    samples = {kind: [(at, s) for p in passes for at, k, s in p.kernel if k == kind] for kind in calibrate.KINDS}
    total = 0.0
    for op in wl.ops:
        runs = []
        for p in passes:
            mid = p.op_at[op.name]
            near = sorted(samples[op.reference], key=lambda sample: abs(sample[0] - mid))[:NEAREST]
            runs.append(calibrate.normalise(p.op_seconds[op.name], [s for _, s in near], op.reference))
        total += statistics.median(runs)
    return total


def _layer_medians(samples: list[dict]) -> dict:
    """Counts from the first traced pass, times as the median over passes."""
    first = samples[0]
    return {k: statistics.median(s[k] for s in samples) if k.endswith("_s") else v for k, v in first.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans (JSONL)")
    args = ap.parse_args(argv)

    cli = import_cli()
    tmp = HERE / "_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(tmp), tiny=args.tiny)
        record = measure(cli, wl, args.seconds, bool(args.trace), args.spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

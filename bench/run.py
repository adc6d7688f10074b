"""Benchmark of the ``nielsen`` command line: one workload, one JSON result line.

    python3 bench/run.py --workload ball_infinite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``nielsen`` is imported from its
``src`` directory, with no install step. The workload runs in one fresh
child process (``child.py``) as a closed loop: one client, one op at a time.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The line before the
result holds the full record: machine, per-op seconds, set-up samples and
any failed op with its reason. See ``bench/README.md``.

Exit codes: 0 with a result line, 1 when the workload could not be run,
2 on a usage error or when the checkout has no ``nielsen`` source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
BUDGET_S = 170  # the whole run, set-up probes included, must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def setup_seconds(wl: workloads.Workload, env: dict, deadline: float) -> list[tuple[float, list[float]]]:
    """Raw seconds of each set-up probe, with the kernel times taken around it."""
    groups, epis = wl.specs()
    argv = [sys.executable, str(HERE / "setup_probe.py"), json.dumps({"groups": groups, "epimorphisms": epis})]
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibrate.kernel_seconds()[0]
        out = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        probe = json.loads(out.stdout)
        if Path(probe["nielsen"]).resolve().parent.parent != (ROOT / "src").resolve():
            raise RuntimeError(f"set-up probe imported nielsen from {probe['nielsen']}")
        samples.append((probe["setup_s"], [before, calibrate.kernel_seconds()[0]]))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int, help="measuring time of one run")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="shrink every op (the benchmark's self-tests)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "nielsen" / "__init__.py").is_file():
        print(f"no nielsen source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = child_env()
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        setup = []
        if not args.trace:
            setup = setup_seconds(workloads.build(args.workload, args.seed, "", args.tiny), env, deadline)
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.SubprocessError, RuntimeError, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"workload child exited with code {child.returncode}", file=sys.stderr)
        return 1
    record = json.loads(child.stdout.strip().splitlines()[-1])
    if setup:
        record["setup_s_samples"] = [seconds for seconds, _ in setup]
        record["setup_kernel_s"] = [kernel for _, kernel in setup]

    if args.trace:
        metrics = {k: {"value": v, "unit": tracer.METRICS[k]} for k, v in record["layers"].items()}
    else:
        wall = record["normalised_pass_s"]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "states_per_s": {"value": record["tuples_per_pass"] / wall, "unit": "tuples/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(calibrate.normalise(*sample) for sample in setup), "unit": "s"},
        }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

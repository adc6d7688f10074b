"""Record the sha256 digest of every op's output into ``bench/expected.json``.

    PYTHONPATH=src python3 bench/record_expected.py

Fixed ops are recorded once; seeded ops once for each standard seed
0..31. An op whose output fails its closed-form check is not recorded
and the script exits 1. The digests become the benchmark's reference, so
record them only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import child
import workloads

STANDARD_SEEDS = range(32)


def main() -> int:
    cli = child.import_cli()
    fixed, seeded = {}, {}
    tmp = child.HERE / "_tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for seed in STANDARD_SEEDS:
                wl = workloads.build(name, seed, str(tmp))
                for op in wl.ops:
                    # later seeds rerun only seeded ops and the ops writing their inputs
                    if seed and not (op.seeded or op.outputs):
                        continue
                    _, stdout, files, problems = child.run_op(cli, op)
                    if problems:
                        print(f"{name}/{op.name} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                    digest = child.output_digest(stdout, files)
                    if op.seeded:
                        seeded.setdefault(f"{name}/{op.name}", {})[str(seed)] = digest
                    else:
                        fixed[f"{name}/{op.name}"] = digest
                print(f"{name} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    child.EXPECTED.write_text(json.dumps({"fixed": fixed, "seeded": seeded}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: a fresh interpreter imports ``nielsen`` and builds every group
and epimorphism a workload names, then prints the seconds that took and the
path ``nielsen`` was imported from.

    python3 bench/setup_probe.py '{"groups": [...], "epimorphisms": [...]}'

The clock starts before any other import, so the standard-library modules
``nielsen`` pulls in count too.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    specs = json.loads(sys.argv[1])
    import nielsen
    from nielsen.covering import epimorphism_from_json
    from nielsen.groups import group_from_json

    for spec in specs["groups"]:
        group_from_json(spec)
    for spec in specs["epimorphisms"]:
        epimorphism_from_json(spec)
    print(json.dumps({"setup_s": time.perf_counter() - T0, "nielsen": nielsen.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

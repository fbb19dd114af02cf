"""hotloc benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-oracle --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced and the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` a traced run follows the untraced ones and the JSON holds
the per-layer metrics. ``--record-reference`` instead rewrites the
workload's reference report from its default input. See README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    # The benchmark builds the program from this checkout's sources and
    # never from an installed copy.
    needed = (ROOT / "src" / "hotloc" / "__init__.py", ROOT / "configs" / "desk.json")
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a hotloc checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.record_reference:
        return bench.record_reference(args.workload)
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

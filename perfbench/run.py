"""Seeded, offline benchmark of the treeroute pipeline.

Run from the root of a treeroute checkout:

    python3 perfbench/run.py --workload toy-fixed3 --seed 1 --seconds 30 --trace 0

The benchmark generates a corpus and a query stream from the seed, builds
the engine with the stub backends, and drives only the public entry
points build_engine and run_workload. With --trace 1 it also wraps each
layer's public functions and reports per-layer metrics. See README.md.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 1 when an output check fails and 2
on bad usage or when the checkout holds no treeroute sources.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeroute" / "__init__.py").is_file():
        print(f"perfbench: no treeroute sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.workloads.WORKLOADS)}")
    return bench.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

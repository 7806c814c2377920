"""Seeded benchmark of walkmine's mine, verify and simulate.

Run from the root of a checkout:

    python3 bench/run.py --workload layered-scp --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Without ``--workload`` every workload runs, one after another, each in a
fresh interpreter. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("layered-scp", "features-stp", "large-graph")

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}", flush=True)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload is None:
        return _run_all(args)
    if not (ROOT / "src" / "walkmine" / "__init__.py").is_file():
        print(f"walkmine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one thread for numpy's math libraries, set before walkmine imports numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.trace:
        out = BENCH / "out" / f"{args.workload}-seed{args.seed}.trace.jsonl.gz"
        result = workloads.run_traced(args.workload, args.seed, args.seconds, out)
    else:
        result = workloads.run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark runs in two checkouts, summarised metric by metric.

    python3 scripts/ab_pairs.py PARENT CHANGE [--pairs N] [--seconds S] [--seed K] [--workload W]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
``bench/run.py --workload W --seed K --seconds S`` once in each (seed K,
default 1, is the same in every run), one after the other, and the side
that runs first flips from pair to pair, so a drift in the machine's speed
falls on both sides alike. A run that exits non-zero, says
``correct: false`` or counts a failed operation stops the script with exit
code 1. For each metric of each workload (default: every workload of
PARENT's ``BENCHMARK.json``) it prints the parent's median and quartiles,
the change's median, in how many pairs the change was better, by the
metric's ``better`` direction in that file, and a verdict against the
metric's ``bound`` there (a fraction of the parent's median):

- ``unresolved`` when the parent's quartile spread exceeds the bound,
  unless every change run beats every parent run;
- otherwise ``worse beyond bound`` when the change's median is worse than
  the parent's by more than the bound;
- otherwise ``within bound``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_once(checkout: Path, workload: str, seconds: float, seed: int = 1) -> dict:
    """The end-to-end metric values of one ``bench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {workload} correct={result['correct']} failed={result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list, change: list, metrics: list) -> list:
    """One row per entry of ``metrics`` (``BENCHMARK.json`` ``end_to_end``
    entries, with ``name``, ``better`` and ``bound``): (metric, parent
    median, parent quartiles, change median, pairs the change won, pairs,
    verdict).

    ``parent[i]`` and ``change[i]`` are the metric dicts of pair i; a pair
    is won when the change's value is strictly better.
    """
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
        old_median, new_median = statistics.median(old), statistics.median(new)
        q1, q3 = quartiles(old)
        all_beat = min(sign * b for b in new) > max(sign * a for a in old)
        if q3 - q1 > bound * old_median and not all_beat:
            verdict = "unresolved"
        elif sign * (new_median - old_median) < -bound * old_median:
            verdict = "worse beyond bound"
        else:
            verdict = "within bound"
        rows.append((name, old_median, (q1, q3), new_median, wins, len(old), verdict))
    return rows


def format_rows(workload: str, rows: list) -> list:
    lines = []
    for name, old, (q1, q3), new, wins, pairs, verdict in rows:
        lines.append(f"{workload} {name}: parent {old:.6g} (quartiles {q1:.6g}-{q3:.6g}) "
                     f"change {new:.6g}, better in {wins}/{pairs}, {verdict}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--seed", type=int, default=1, help="workload seed of every run")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    try:
        for workload in workloads:
            runs, sides = ([], []), (args.parent, args.change)
            for i in range(args.pairs):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    runs[side].append(bench_once(sides[side], workload, args.seconds, args.seed))
            rows = summarize(*runs, spec["end_to_end"])
            print("\n".join(format_rows(workload, rows)), flush=True)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Digest of the miners' report streams over a fixed corpus of instances.

Mines every ``random_instance`` of seeds 1000-1149 with ``extra_dims`` 0, 1
and 2, with both engines (``scp`` to length 4, ``stp`` to length 3), both
modes and both fidelities (the package's repaired searches, and the
uncorrected ``literal`` ones that ``tests/literal_reference.py`` keeps), once
uncapped and once with ``max_triples=7``. Each report's ``to_dict`` goes to
one JSON line. The script prints the number of reports and the SHA-256 of the
whole stream, then the same for each (engine, fidelity) group, then for the
uncapped repaired ``scp`` and ``stp`` reports with their ``stats`` dropped. Two commits whose digests match gave
byte-identical reports on the corpus; the group lines show which reports a
change moved. Two groups outside the total follow. The verify group
classifies and simulates a fixed seeded batch of random criterion programs on
every instance with ``extra_dims`` above 0, one JSON line each, with the
stranded vertex ids of every partial halt. The edge-array pair covers the
graphs' numpy edge-array path, which no corpus graph is large enough to take:
the seeds 1000-1029 slice, its verify lines and its reports, is run again on
graphs built with ``graph._DENSE_LIMIT`` patched to 0, and its digest must
equal that of the same slice on the int-mask path.
Run it from a checkout with the package on the path:

    PYTHONPATH=src python3 scripts/report_digest.py [--dump FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from walkmine import graph
from walkmine.criterion import AllOf, AnyOf, Atom, TosetProgram
from walkmine.generate import random_instance
from walkmine.graph import ORDERED
from walkmine.mining import MiningConfig
from walkmine.scp import mine_exact_scp, mine_feasible_scp
from walkmine.stp import classify_stp, mine_exact_stp, mine_feasible_stp, simulate_stp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from literal_reference import literal  # noqa: E402  (found through the line above)

MINERS = (
    ("scp", 4, mine_exact_scp),
    ("scp", 4, mine_feasible_scp),
    ("stp", 3, mine_exact_stp),
    ("stp", 3, mine_feasible_stp),
)
FIDELITIES = ("repaired", "literal")
STATS_FREE = {engine: f"{engine} repaired uncapped, no stats" for engine in ("scp", "stp")}
VERIFY = "stp classify and simulate, random programs"
EDGE_ARRAYS = "seeds 1000-1029 on edge arrays"
EDGE_MASKS = "seeds 1000-1029 on int masks"
EDGE_SEEDS = range(1000, 1030)
PROGRAMS_PER_INSTANCE = 8


def random_programs(g, seed: int) -> list:
    """A seeded batch of criterion programs of lengths 1-3 over ``g``'s values.

    Atoms compare against values that occur in the graph, or test for a
    missing value; criteria nest conjunctions and disjunctions two deep.
    """
    rng = random.Random(seed)
    values = [sorted({row[d] for row in g.rows} - {None}) for d in range(len(g.schema))]

    def atom():
        d = rng.randrange(len(g.schema))
        if g.schema.kind_of(d) == ORDERED and values[d] and rng.random() < 0.6:
            return Atom(d, rng.choice(("<", "<=", ">=", ">")), rng.choice(values[d]))
        return Atom(d, "=", rng.choice(values[d] + [None]))

    def crit(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.5:
            return atom()
        items = tuple(crit(depth - 1) for _ in range(rng.randint(2, 3)))
        return AllOf(items) if roll < 0.75 else AnyOf(items)

    return [TosetProgram(tuple(crit(2) for _ in range(rng.randint(1, 3))))
            for _ in range(PROGRAMS_PER_INSTANCE)]


def verify_lines(seed, extra_dims, g, S, T):
    """One JSON line per random program: its verdict, with the stranded
    vertices of each partial halt, and its simulated trace."""
    for i, program in enumerate(random_programs(g, seed * 10 + extra_dims)):
        verdict = classify_stp(g, S, T, program)
        stranded = [list(level) for level in verdict.partial_halt_vertices]
        trace = [list(level) for level in simulate_stp(g, S, program)]
        yield json.dumps([[seed, extra_dims, i], program.to_dict(g), verdict.kind, verdict.halt_step,
                          list(verdict.partial_halt_steps), stranded, trace])


def instance(seed, extra_dims, edge_arrays=False):
    """The corpus instance, its graph built on edge arrays when asked."""
    limit = graph._DENSE_LIMIT
    if edge_arrays:
        graph._DENSE_LIMIT = 0
    try:
        inst = random_instance(seed, extra_dims=extra_dims)
    finally:
        graph._DENSE_LIMIT = limit
    assert inst.graph._vectorised == edge_arrays
    return inst


def report_lines(seed, extra_dims, g, S, T):
    """(engine, head, report dict) per mined report; head names the run."""
    for engine, max_len, miner in MINERS:
        for fidelity, run in zip(FIDELITIES, (miner, literal(miner))):
            for max_triples in (None, 7):
                cfg = MiningConfig(max_len=max_len, max_triples=max_triples)
                for rep in run(g, S, T, cfg):
                    yield engine, [seed, extra_dims, fidelity, max_triples], rep.to_dict(g)


def stream():
    """(groups, JSON line) per report; a line belongs to each named group."""
    for seed in range(1000, 1150):
        for extra_dims in (0, 1, 2):
            inst = instance(seed, extra_dims)
            g, S, T = inst.graph, inst.source, inst.target
            sliced = [EDGE_MASKS] if seed in EDGE_SEEDS else []
            if extra_dims:
                for line in verify_lines(seed, extra_dims, g, S, T):
                    yield [VERIFY, *sliced], line
            for engine, head, doc in report_lines(seed, extra_dims, g, S, T):
                yield ["total", f"{engine} {head[2]}", *sliced], json.dumps([head, doc])
                if head[2:] == ["repaired", None]:
                    del doc["stats"]
                    yield [STATS_FREE[engine]], json.dumps([head, doc])
            if sliced:
                inst = instance(seed, extra_dims, edge_arrays=True)
                g, S, T = inst.graph, inst.source, inst.target
                if extra_dims:
                    for line in verify_lines(seed, extra_dims, g, S, T):
                        yield [EDGE_ARRAYS], line
                for _, head, doc in report_lines(seed, extra_dims, g, S, T):
                    yield [EDGE_ARRAYS], json.dumps([head, doc])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", help="also write the stream's JSON lines to this file")
    args = parser.parse_args()
    names = ["total"] + [f"{e} {f}" for e in ("scp", "stp") for f in FIDELITIES]
    names += [*STATS_FREE.values(), VERIFY, EDGE_ARRAYS, EDGE_MASKS]
    digests = {name: hashlib.sha256() for name in names}
    counts = dict.fromkeys(names, 0)
    dump = open(args.dump, "w", encoding="utf-8") if args.dump else None
    for groups, line in stream():
        for name in groups:
            digests[name].update(line.encode("utf-8") + b"\n")
            counts[name] += 1
        if dump and "total" in groups:
            dump.write(line + "\n")
    if dump:
        dump.close()
    for name in names:
        label = "" if name == "total" else f"{name}: "
        print(f"{label}reports {counts[name]} sha256 {digests[name].hexdigest()}")
    if digests[EDGE_ARRAYS].digest() != digests[EDGE_MASKS].digest():
        print("edge-array and int-mask reports differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

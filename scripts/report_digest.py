"""Digest of the miners' report streams over a fixed corpus of instances.

Mines every ``random_instance`` of seeds 1000-1149 with ``extra_dims`` 0, 1
and 2, with both engines (``scp`` to length 4, ``stp`` to length 3), both
modes and both fidelities, once uncapped and once with ``max_triples=7``. Each
report's ``to_dict`` goes to one JSON line. The script prints the number of
reports and the SHA-256 of the whole stream, then the same for each (engine,
fidelity) group, then for the uncapped repaired ``scp`` and ``stp`` reports
with their ``stats`` dropped. Two commits whose digests match gave
byte-identical reports on the corpus; the group lines show which reports a
change moved.
Run it from a checkout with the package on the path:

    PYTHONPATH=src python3 scripts/report_digest.py [--dump FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json

from walkmine.generate import random_instance
from walkmine.mining import MiningConfig
from walkmine.scp import mine_exact_scp, mine_feasible_scp
from walkmine.stp import mine_exact_stp, mine_feasible_stp

MINERS = (
    ("scp", 4, mine_exact_scp),
    ("scp", 4, mine_feasible_scp),
    ("stp", 3, mine_exact_stp),
    ("stp", 3, mine_feasible_stp),
)
FIDELITIES = ("repaired", "literal")
STATS_FREE = {engine: f"{engine} repaired uncapped, no stats" for engine in ("scp", "stp")}


def stream():
    """(groups, JSON line) per report; a line belongs to each named group."""
    for seed in range(1000, 1150):
        for extra_dims in (0, 1, 2):
            inst = random_instance(seed, extra_dims=extra_dims)
            g, S, T = inst.graph, inst.source, inst.target
            for engine, max_len, miner in MINERS:
                for fidelity in FIDELITIES:
                    for max_triples in (None, 7):
                        cfg = MiningConfig(max_len=max_len, max_triples=max_triples, fidelity=fidelity)
                        for rep in miner(g, S, T, cfg):
                            head = [seed, extra_dims, fidelity, max_triples]
                            doc = rep.to_dict(g)
                            yield ["total", f"{engine} {fidelity}"], json.dumps([head, doc])
                            if (fidelity, max_triples) == ("repaired", None):
                                del doc["stats"]
                                yield [STATS_FREE[engine]], json.dumps([head, doc])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", help="also write the stream's JSON lines to this file")
    args = parser.parse_args()
    names = ["total"] + [f"{e} {f}" for e in ("scp", "stp") for f in FIDELITIES]
    names += STATS_FREE.values()
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


if __name__ == "__main__":
    main()

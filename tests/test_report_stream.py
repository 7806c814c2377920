"""Pinned digests of report streams no other test holds byte for byte:
repaired and literal colour mining and literal criterion mining in one pin,
repaired criterion mining in another, capped runs and stats included. A
change that moves either says why in CHANGES.md."""

import hashlib
import json

from walkmine.generate import random_instance
from walkmine.mining import MiningConfig
from walkmine.scp import mine_exact_scp, mine_feasible_scp
from walkmine.stp import mine_exact_stp, mine_feasible_stp

RUNS = (
    ("repaired", 4, (mine_exact_scp, mine_feasible_scp)),
    ("literal", 4, (mine_exact_scp, mine_feasible_scp)),
    ("literal", 3, (mine_exact_stp, mine_feasible_stp)),
)
REPORTS = 5492
SHA256 = "5404b2f0519ad1c84d090feb76ef81e23bc9a83949acad0d2f6437c9c44865e5"

STP_RUNS = (("repaired", 3, (mine_exact_stp, mine_feasible_stp)),)
STP_REPORTS = 1590
STP_SHA256 = "7dc1833dcc214c1226c64794a4aad932ba9fb179f2ba85c099ab63efce09d922"


def _digest(runs):
    """Seeds 1000-1049 with extra_dims 0 and 2, both modes, uncapped and with
    max_triples=7: one JSON line per report's ``to_dict``."""
    digest, count = hashlib.sha256(), 0
    for seed in range(1000, 1050):
        for extra_dims in (0, 2):
            inst = random_instance(seed, extra_dims=extra_dims)
            g, S, T = inst.graph, inst.source, inst.target
            for fidelity, max_len, miners in runs:
                for miner in miners:
                    for max_triples in (None, 7):
                        cfg = MiningConfig(max_len=max_len, max_triples=max_triples, fidelity=fidelity)
                        for rep in miner(g, S, T, cfg):
                            head = [seed, extra_dims, fidelity, max_triples]
                            digest.update(json.dumps([head, rep.to_dict(g)]).encode("utf-8") + b"\n")
                            count += 1
    return count, digest.hexdigest()


def test_report_stream_digest():
    assert _digest(RUNS) == (REPORTS, SHA256)


def test_repaired_criterion_stream_digest():
    assert _digest(STP_RUNS) == (STP_REPORTS, STP_SHA256)

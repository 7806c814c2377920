"""Pinned digests of report streams no other test holds byte for byte:
repaired and literal colour mining and literal criterion mining in one pin,
repaired criterion mining in another, capped runs and stats included. A
change that moves either says why in CHANGES.md. A third pin holds only the
answers: the uncapped repaired reports with their work counters dropped, so
a change to how the searches step or charge may move the first two pins but
never this one; it also holds with every simulation made to fail, since
the searches accept their programs by construction. A fourth pin holds the
forward colour search alone, capped runs and stats included, since in the
race the backward search can answer a length in its place. The last test
pins the total of the whole-corpus digest that ``scripts/report_digest.py``
prints, under two hash seeds."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import scp_miner
from literal_reference import literal
from walkmine import scp, stp
from walkmine.generate import random_instance
from walkmine.mining import MiningConfig
from walkmine.scp import mine_exact_scp, mine_feasible_scp
from walkmine.stp import mine_exact_stp, mine_feasible_stp

RUNS = (
    ("repaired", 4, (mine_exact_scp, mine_feasible_scp)),
    ("literal", 4, (literal(mine_exact_scp), literal(mine_feasible_scp))),
    ("literal", 3, (literal(mine_exact_stp), literal(mine_feasible_stp))),
)
REPORTS = 5463
SHA256 = "a8fbdf0885ca3b459570adc301ffc9d947da89be8c624c3f876b7ed5f061bbe2"

STP_RUNS = (("repaired", 3, (mine_exact_stp, mine_feasible_stp)),)
STP_REPORTS = 1591
STP_SHA256 = "e24dc004d25aae0a81009b635232ef17897019ff8c0e69a426940da8fc62e048"

UNCAPPED_RUNS = (RUNS[0], STP_RUNS[0])
UNCAPPED_REPORTS = 1800
UNCAPPED_SHA256 = "b2e1ce27d0f9fe6bdaf1ac52e65dd5807dbae2e5c1b1427159f6cb727975c590"

FORWARD_RUNS = (("repaired", 4, (scp_miner("exact", ("forward",)), scp_miner("feasible", ("forward",)))),)
FORWARD_REPORTS = 1964
FORWARD_SHA256 = "b4ce42abf98fdc60840b1914e11eff51fba391752fffccb63f231fb3d4216d5b"

ROOT = Path(__file__).resolve().parent.parent
CORPUS_TOTAL = "reports 31722 sha256 0c952951bacb64509d0f8309a30aa791890451bbd2c95d399aaa4b8e04ebb4f0"


def _digest(runs, caps=(None, 7), stats=True):
    """Seeds 1000-1049 with extra_dims 0 and 2, both modes, uncapped and with
    each ``max_triples`` of ``caps``: one JSON line per report's ``to_dict``,
    its ``stats`` dropped unless ``stats``."""
    digest, count = hashlib.sha256(), 0
    for seed in range(1000, 1050):
        for extra_dims in (0, 2):
            inst = random_instance(seed, extra_dims=extra_dims)
            g, S, T = inst.graph, inst.source, inst.target
            for label, max_len, miners in runs:
                for miner in miners:
                    for max_triples in caps:
                        cfg = MiningConfig(max_len=max_len, max_triples=max_triples)
                        for rep in miner(g, S, T, cfg):
                            head = [seed, extra_dims, label, max_triples]
                            line = rep.to_dict(g)
                            if not stats:
                                del line["stats"]
                            digest.update(json.dumps([head, line]).encode("utf-8") + b"\n")
                            count += 1
    return count, digest.hexdigest()


def test_report_stream_digest():
    assert _digest(RUNS) == (REPORTS, SHA256)


def test_repaired_criterion_stream_digest():
    assert _digest(STP_RUNS) == (STP_REPORTS, STP_SHA256)


def test_uncapped_program_digest():
    assert _digest(UNCAPPED_RUNS, caps=(None,), stats=False) == (UNCAPPED_REPORTS, UNCAPPED_SHA256)


def test_forward_search_stream_digest():
    assert _digest(FORWARD_RUNS) == (FORWARD_REPORTS, FORWARD_SHA256)


def test_mining_never_simulates(monkeypatch):
    def refuse(*args):
        raise AssertionError("a mining path ran a program")

    for module, name in ((scp, "classify_scp"), (scp, "simulate_scp"), (scp, "classify_run"),
                         (stp, "classify_stp"), (stp, "simulate_stp"), (stp, "classify_run")):
        monkeypatch.setattr(module, name, refuse)
    backward = ("repaired", 4, (scp_miner("exact", ("backward",)), scp_miner("feasible", ("backward",))))
    for runs in (UNCAPPED_RUNS, (backward, STP_RUNS[0]), (FORWARD_RUNS[0], STP_RUNS[0])):
        assert _digest(runs, caps=(None,), stats=False) == (UNCAPPED_REPORTS, UNCAPPED_SHA256)


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_whole_corpus_digest(hash_seed):
    inherited = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src,
               PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digest.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CORPUS_TOTAL
    groups = dict(line.split(": ", 1) for line in lines[1:])
    assert groups["seeds 1000-1029 on edge arrays"] == groups["seeds 1000-1029 on int masks"]

"""The per-length driver's contract, held with fake searches."""

from helpers import color_graph, vs
from walkmine.mining import MiningConfig, run_levels

ZERO = {"triples_expanded": 0, "pseudo_bases": 0, "dedup_hits": 0, "laps": 0}


def _instance():
    # s -> t -> t: every length from 1 on ends at {t}
    g = color_graph(["s", "t"], ["gray", "green"], [("s", "t"), ("t", "t")])
    return g, vs(g, "s"), vs(g, "t")


def fake(name, listed, log):
    """A search that takes one charged step per (program, key) of ``listed``,
    listing that program, and logs each step and its own end."""

    def search(length, positions, budget, found, stats):
        for program, key in listed:
            if not budget.charge_triple():
                return
            log.append((name, length, program))
            found[program] = key
            stats["laps"] += 1
            yield
        log.append((name, length, "done"))

    return search


def _run(searches, g, S, T, **caps):
    config = MiningConfig(**caps)
    return list(run_levels(g, S, T, config, "scp", "exact", (), lambda *_: searches, ("laps",)))


def test_first_search_to_finish_ends_the_length():
    g, S, T = _instance()
    log = []
    quick = fake("quick", [("q1", 1), ("q2", 2)], log)
    slow = fake("slow", [("s1", 1), ("s2", 2), ("s3", 3), ("s4", 4)], log)
    reports = _run([slow, quick], g, S, T, max_len=1)
    # one step each in turn, the slow search first; the quick one then ends
    # the race, and the slow one is stepped no further
    assert log == [("slow", 1, "s1"), ("quick", 1, "q1"), ("slow", 1, "s2"), ("quick", 1, "q2"),
                   ("slow", 1, "s3"), ("quick", 1, "done")]
    assert reports[1].exhausted and reports[1].stats["laps"] == 5
    assert reports[1].programs == ["s1", "q1", "s2", "q2", "s3"]


def test_programs_come_out_by_their_keys():
    g, S, T = _instance()
    reports = _run([fake("one", [("b", 2), ("a", 3), ("c", 1)], [])], g, S, T, max_len=1)
    assert reports[1].programs == ["c", "b", "a"]


def test_triple_cap_in_mid_race_ends_the_stream():
    g, S, T = _instance()
    log = []
    searches = [fake("x", [("x1", 1), ("x2", 2), ("x3", 3)], log), fake("y", [("y1", 1), ("y2", 2)], log)]
    reports = _run(searches, g, S, T, max_len=3, max_triples=3)
    assert [r.length for r in reports] == [0, 1]
    assert not reports[1].exhausted
    assert reports[1].programs == ["x1", "y1", "x2"]
    assert len(log) == 3


def test_non_viable_length_reports_zero_stats():
    g, S, _ = _instance()
    log = []
    # T = S: length 0 lists ε, and no walk of length 1 or 2 returns to s
    reports = _run([fake("x", [("x1", 1)], log)], g, S, S, max_len=2)
    assert [r.programs for r in reports] == [[()], [], []]
    assert all(r.exhausted and r.stats == ZERO for r in reports)
    assert log == []

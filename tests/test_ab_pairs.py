"""The summary of ``scripts/ab_pairs.py``, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _metrics(bound=0.25, **better):
    return [{"name": name, "better": direction, "bound": bound} for name, direction in better.items()]


def test_summary_reads_each_metric_by_its_direction():
    parent = [{"mine_s": v, "verify_per_s": r} for v, r in ((4.0, 10.0), (1.0, 30.0), (3.0, 20.0), (2.0, 40.0))]
    change = [{"mine_s": v, "verify_per_s": r} for v, r in ((3.0, 10.0), (1.5, 35.0), (2.0, 10.0), (1.0, 50.0))]
    rows = ab_pairs.summarize(parent, change, _metrics(mine_s="lower", verify_per_s="higher"))
    # mine_s: parent sorted 1, 2, 3, 4; the change is lower in pairs 0, 2 and 3
    assert rows[0] == ("mine_s", 2.5, (1.75, 3.25), 1.75, 3, 4, "unresolved")
    # verify_per_s: a tie is no win, so only pairs 1 and 3 count
    assert rows[1] == ("verify_per_s", 25.0, (17.5, 32.5), 22.5, 2, 4, "unresolved")
    assert ab_pairs.format_rows("w", rows[:1]) == [
        "w mine_s: parent 2.5 (quartiles 1.75-3.25) change 1.75, better in 3/4, unresolved"
    ]


def test_one_pair_has_degenerate_quartiles():
    rows = ab_pairs.summarize([{"x": 2.0}], [{"x": 1.0}], _metrics(x="lower"))
    assert rows == [("x", 2.0, (2.0, 2.0), 1.0, 1, 1, "within bound")]


# parent runs 9, 10, 10, 11: median 10, quartiles 9.75-10.25, a spread of 5 %
STEADY = [9.0, 10.0, 10.0, 11.0]


@pytest.mark.parametrize("direction,change,bound,verdict", [
    # the change's median is 12.6 against 10: 26 % worse for a "lower" metric
    ("lower", [12.0, 13.0, 12.5, 12.7], 0.25, "worse beyond bound"),
    ("lower", [12.0, 13.0, 12.5, 12.7], 0.3, "within bound"),
    # the same numbers are better for a "higher" metric
    ("higher", [12.0, 13.0, 12.5, 12.7], 0.25, "within bound"),
    ("higher", [7.0, 7.5, 7.4, 7.6], 0.25, "worse beyond bound"),
    # a spread above the bound leaves the verdict open ...
    ("lower", [9.5, 10.0, 10.0, 10.5], 0.01, "unresolved"),
    # ... unless every change run beats every parent run
    ("lower", [8.0, 8.5, 8.9, 8.2], 0.01, "within bound"),
    ("higher", [11.5, 12.0, 11.1, 13.0], 0.01, "within bound"),
])
def test_verdict_reads_the_bound(direction, change, bound, verdict):
    rows = ab_pairs.summarize([{"x": v} for v in STEADY], [{"x": v} for v in change],
                              _metrics(bound, x=direction))
    assert rows[0][-1] == verdict


def test_failed_run_stops_the_script(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        'import json\nprint(json.dumps({"correct": True, "attempted": 3, "failed": 1, "metrics": {}}))\n'
    )
    with pytest.raises(RuntimeError, match="failed=1"):
        ab_pairs.bench_once(tmp_path, "w", 0.1)


def _echo_checkout(root: Path) -> Path:
    """A checkout whose ``bench/run.py`` logs its arguments and reports its seed."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(
        "import json, sys\n"
        "with open('argv.jsonl', 'a') as log:\n"
        "    log.write(json.dumps(sys.argv[1:]) + '\\n')\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {'seed': {'value': seed}}}))\n"
    )
    spec = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "seed", "better": "lower", "bound": 0.25}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


@pytest.mark.parametrize("argv,seed", [([], 1), (["--seed", "7"], 7)])
def test_seed_reaches_every_run(tmp_path, capsys, argv, seed):
    parent, change = _echo_checkout(tmp_path / "parent"), _echo_checkout(tmp_path / "change")
    assert ab_pairs.main([str(parent), str(change), "--pairs", "2", "--seconds", "0.5"] + argv) == 0
    assert capsys.readouterr().out == f"w seed: parent {seed} (quartiles {seed}-{seed}) change {seed}, better in 0/2, within bound\n"
    expected = ["--workload", "w", "--seed", str(seed), "--seconds", "0.5"]
    for checkout in (parent, change):
        runs = (checkout / "argv.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in runs] == [expected] * 2

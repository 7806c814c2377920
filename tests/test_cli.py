import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FIXTURES
import walkmine.cli as cli
from walkmine import DirectedGraph, load_graph
from walkmine.cli import main

SRC = str(FIXTURES.parents[1] / "src")
FUNNEL = str(FIXTURES / "funnel.graph.json")
FUNNEL_SOURCE = str(FIXTURES / "funnel.source")
FUNNEL_TARGET = str(FIXTURES / "funnel.target")
TWOFEATURE = str(FIXTURES / "twofeature.graph.json")
TWOFEATURE_SOURCE = str(FIXTURES / "twofeature.source")
TWOFEATURE_TARGET = str(FIXTURES / "twofeature.target")

STEP_PROGRAM = json.dumps(
    [
        {"atom": {"f": "color", "op": "=", "v": "red"}},
        {"atom": {"f": "color", "op": "=", "v": "green"}},
    ]
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_mine_json(capsys):
    code, out, _ = run(
        capsys, "mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--max-len", "2",
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["length"] for r in reports] == [0, 1, 2]
    assert reports[2]["programs"] == [["red", "green"]]
    assert reports[2]["engine"] == "scp" and reports[2]["exhausted"]


def test_mine_text(capsys):
    code, out, _ = run(
        capsys, "mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--max-len", "2", "--output", "text",
    )
    assert code == 0
    assert "length 2: 1 program(s), complete" in out
    assert "  red·green" in out


def test_mine_nothing_found_exit_code(capsys):
    code, out, _ = run(
        capsys, "mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target-ids", "c", "--max-len", "1",
    )
    assert code == 1
    assert all(not json.loads(line)["programs"] for line in out.splitlines())


def test_mine_stp_engine(capsys):
    code, out, _ = run(
        capsys, "mine", "--graph", TWOFEATURE, "--source-ids", "s",
        "--target-ids", "t1", "--max-len", "2", "--engine", "stp",
    )
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["programs"] == [
        [{"atom": {"f": "n", "op": "<=", "v": 1}}, {"atom": {"f": "n", "op": "<=", "v": 2}}]
    ]


def test_mine_stp_text(capsys):
    code, out, _ = run(
        capsys, "mine", "--graph", TWOFEATURE, "--source-ids", "s",
        "--target-ids", "t1", "--max-len", "2", "--engine", "stp", "--output", "text",
    )
    assert code == 0
    assert out.splitlines() == [
        "length 0: 0 program(s), complete",
        "length 1: 0 program(s), complete",
        "length 2: 1 program(s), complete",
        '  [{"atom": {"f": "n", "op": "<=", "v": 1}}, {"atom": {"f": "n", "op": "<=", "v": 2}}]',
    ]


def test_verify_expectations(capsys):
    base = (
        "verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
        "--program", "red,green",
    )
    code, out, _ = run(capsys, *base, "--expect", "exact")
    assert code == 0
    assert "kind: exact" in out
    assert "E2: t" in out
    code, _, _ = run(capsys, *base, "--expect", "feasible")
    assert code == 0  # an exact program satisfies a feasibility expectation
    code, _, _ = run(capsys, *base, "--expect", "infeasible")
    assert code == 1


def test_verify_json_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--program", "red,green", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "exact" and doc["halt_step"] is None
    assert doc["program"] == ["red", "green"]
    assert doc["trace"] == [["s1", "s2"], ["a", "b"], ["t"]]


def test_verify_names_partial_halt_vertices(capsys):
    base = (
        "verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
        "--program", "red,blue",
    )
    # a reaches blue c, but b has only the green t: b is stranded at step 1
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert "partial halts: 1\n  stuck at step 1: b\n" in out
    code, out, _ = run(capsys, *base, "--output", "json")
    doc = json.loads(out)
    assert doc["kind"] == "infeasible"
    assert doc["partial_halt_steps"] == [1] and doc["partial_halt_vertices"] == [["b"]]
    code, out, _ = run(capsys, *base[:-1], "red,green", "--output", "json")
    doc = json.loads(out)
    assert doc["partial_halt_steps"] == [] and doc["partial_halt_vertices"] == []


def test_verify_complete_halt(capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--program", "blue,green",
        "--expect", "complete_halt",
    )
    assert code == 0
    assert "halted at step 1" in out


def test_verify_empty_program(capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", FUNNEL, "--source-ids", "t",
        "--target-ids", "t", "--program", "", "--expect", "exact",
    )
    assert code == 0
    assert "program: ε" in out


def test_verify_stp_program(capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--engine", "stp", "--program", STEP_PROGRAM,
        "--expect", "exact", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "exact"


def test_verify_program_from_file(capsys, tmp_path):
    path = tmp_path / "program.json"
    path.write_text(STEP_PROGRAM, encoding="utf-8")
    code, _, _ = run(
        capsys, "verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--engine", "stp",
        "--program", f"@{path}", "--expect", "exact",
    )
    assert code == 0


def test_verify_names_the_source_file_of_an_unknown_vertex(capsys, tmp_path):
    path = tmp_path / "bad.source"
    path.write_text("s1\nnowhere\n", encoding="utf-8")
    code, _, err = run(
        capsys, "verify", "--graph", FUNNEL, "--source", str(path),
        "--target", FUNNEL_TARGET, "--program", "red",
    )
    assert code == 2
    assert err.startswith(f"error: {path}: ") and "unknown vertex 'nowhere'" in err


def test_simulate_text_and_json(capsys):
    args = (
        "simulate", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--program", "red",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == ["E0: s1 s2", "E1: a b"]
    code, out, _ = run(capsys, *args, "--output", "json")
    assert json.loads(out)["trace"] == [["s1", "s2"], ["a", "b"]]


def test_simulate_dot(capsys):
    code, out, _ = run(
        capsys, "simulate", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
        "--target", FUNNEL_TARGET, "--program", "red", "--output", "dot",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "doubleoctagon" in out  # target marker
    assert "E1" in out  # trace annotation on the reached layer


def test_simulate_stp(capsys):
    program = json.dumps([{"atom": {"f": "n", "op": "<=", "v": 1}}])
    code, out, _ = run(
        capsys, "simulate", "--graph", TWOFEATURE, "--source-ids", "s",
        "--engine", "stp", "--program", program,
    )
    assert code == 0
    assert out.splitlines() == ["E0: s", "E1: a1"]


MULTI_DOC = json.dumps(
    {
        "schema": [{"name": "color", "kind": "categorical"}],
        "vertices": [{"id": "u", "features": {"color": "red"}},
                     {"id": "v", "features": {"color": "green"}}],
        "edges": [{"src": "u", "dst": "v", "features": {"color": "blue"}}],
    }
)


def test_convert_multigraph(capsys, tmp_path):
    src = tmp_path / "multi.json"
    src.write_text(MULTI_DOC, encoding="utf-8")
    out_path = tmp_path / "simple.json"
    code, out, _ = run(capsys, "convert", "--graph", str(src), "--out", str(out_path))
    assert code == 0 and out == ""
    g = load_graph(out_path.read_text(encoding="utf-8"))
    assert isinstance(g, DirectedGraph)
    assert g.names == ("u", "v", "u->v")
    code, out, _ = run(capsys, "convert", "--graph", str(src))
    assert code == 0
    assert json.loads(out)["vertices"][2]["id"] == "u->v"


def test_mine_rejects_multigraph(capsys, tmp_path):
    src = tmp_path / "multi.json"
    src.write_text(MULTI_DOC, encoding="utf-8")
    code, _, err = run(
        capsys, "mine", "--graph", str(src), "--source-ids", "u",
        "--target-ids", "v", "--max-len", "1",
    )
    assert code == 2
    assert "convert" in err


def test_gen_deterministic(capsys, tmp_path):
    outs = []
    for sub in ("one", "two"):
        code, out, _ = run(
            capsys, "gen", "--seed", "7", "--out-dir", str(tmp_path / sub),
            "--name", "inst",
        )
        assert code == 0
        paths = [line.strip() for line in out.splitlines()]
        assert len(paths) == 3
        outs.append([Path(p).read_bytes() for p in paths])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [("convert", "--graph", FUNNEL, "--out"), ("gen", "--seed", "1", "--out-dir")])
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    # a regular file cannot hold a directory, so nothing under it can be written
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, *argv, str(blocker / "sub" / "out.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and str(blocker) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("mine", "--graph", "/nonexistent.json", "--source-ids", "a",
          "--target-ids", "b", "--max-len", "1"), "cannot read"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--program", "red,mauve"), "unknown colour"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--source-ids", "s1",
          "--target", FUNNEL_TARGET, "--program", "red"), "exactly one"),
        (("verify", "--graph", FUNNEL, "--target", FUNNEL_TARGET, "--program", "red"),
         "exactly one"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "-1"), "max_len"),
        (("verify", "--graph", FUNNEL, "--source-ids", "nope", "--target", FUNNEL_TARGET,
          "--program", "red"), "unknown vertex"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--engine", "stp", "--program", "not json"), "JSON"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--time-budget", "nan"), "time_budget"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--time-budget", "-3"), "time_budget"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--color-dim", "nope"), "colour dimension"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--engine", "scp", "--color-dim", "nope"), "colour dimension"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--program", "red", "--color-dim", "nope"), "colour dimension"),
        (("simulate", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
          "--program", "red", "--color-dim", "nope"), "colour dimension"),
        (("gen", "--seed", "1", "--max-vertices", "3"), "max_vertices"),
        (("gen", "--seed", "1", "--max-colors", "1"), "max_colors"),
        (("gen", "--seed", "1", "--extra-dims", "-2"), "extra_dims"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "-1", "--engine", "scp"), "max_len"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--engine", "scp", "--max-programs", "0"), "max_programs"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--engine", "stp", "--max-triples", "0"), "max_triples"),
        (("mine", "--graph", FUNNEL, "--source-ids", ",", "--target", FUNNEL_TARGET,
          "--max-len", "2"), "must be nonempty"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--engine", "stp", "--program", '{"atom": {"f": "color", "op": "=", "v": "red"}}'), "JSON array"),
        (("verify", "--graph", TWOFEATURE, "--source", TWOFEATURE_SOURCE, "--target", TWOFEATURE_TARGET,
          "--engine", "stp", "--program", '[{"atom": {"f": "n", "op": "<=", "v": NaN}}]'), "non-finite"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--engine", "stp", "--color-dim", "nope"), "colour dimension"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--engine", "stp", "--program", STEP_PROGRAM, "--color-dim", "nope"), "colour dimension"),
        (("simulate", "--graph", TWOFEATURE, "--source", TWOFEATURE_SOURCE, "--engine", "stp",
          "--program", "[]", "--output", "dot", "--color-dim", "n"), "colour dimension"),
        (("convert", "--graph", FUNNEL, "--color-dim", "nope"), "colour dimension"),
        (("verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--engine", "stp", "--program", '[{"atom": {"f": ["color"], "op": "=", "v": "red"}}]'),
         "feature name"),
        # the uncorrected searches are no longer offered
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--fidelity", "literal"), "unrecognized arguments: --fidelity literal"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "2", "--bogus"), "unrecognized arguments: --bogus"),
        (("mine", "--graph", FUNNEL, "--source", FUNNEL_SOURCE, "--target", FUNNEL_TARGET,
          "--max-len", "x"), "invalid int value: 'x'"),
        ((), "required: command"),
    ],
)
def test_input_errors_exit_two(capsys, argv, needle):
    # a bad option is reported as any other bad input: one line, no usage block
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and needle in err and "usage:" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["mine", "--help"])
    assert exit.value.code == 0 and capsys.readouterr().out.startswith("usage: walkmine mine")


def test_default_color_dim_may_be_missing(capsys, tmp_path):
    # criterion mining and convert read no colours, so the default needs no
    # "color" dimension in the schema
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({
        "schema": [{"name": "n", "kind": "ordered"}],
        "vertices": [{"id": "s", "features": {"n": 0}}, {"id": "t", "features": {"n": 1}}],
        "edges": [{"src": "s", "dst": "t"}],
    }))
    code, out, _ = run(capsys, "mine", "--graph", str(path), "--source-ids", "s", "--target-ids", "t",
                       "--max-len", "1", "--engine", "stp")
    assert code == 0 and json.loads(out.splitlines()[1])["programs"]
    code, out, _ = run(capsys, "convert", "--graph", str(path))
    assert code == 0 and load_graph(out).n == 2


def test_installed_entrypoint():
    # the console script when installed, else the package run as a module
    command, env = ["walkmine"], None
    if shutil.which("walkmine") is None:
        command = [sys.executable, "-m", "walkmine"]
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, inherited]) if inherited else SRC)
    proc = subprocess.run(
        command + ["verify", "--graph", FUNNEL, "--source", FUNNEL_SOURCE,
                   "--target", FUNNEL_TARGET, "--program", "red,green", "--expect", "exact"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "kind: exact" in proc.stdout


@pytest.mark.parametrize("was_enabled", [True, False])
def test_graph_load_restores_the_collector(capsys, tmp_path, monkeypatch, was_enabled):
    seen = []

    def load(*args, **kwargs):
        seen.append(gc.isenabled())
        return load_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "load_graph", load)
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": [], "vertices": [{"id": 1}], "edges": []}', encoding="utf-8")
    enabled = gc.isenabled()
    (gc.enable if was_enabled else gc.disable)()
    try:
        codes, after = [], []
        for path in (FUNNEL, str(bad)):
            codes.append(run(capsys, "convert", "--graph", path)[0])
            after.append(gc.isenabled())
    finally:
        (gc.enable if enabled else gc.disable)()
    assert codes == [0, 2]  # the bad document exits through GraphFormatError
    assert seen == [False, False]  # paused while each document loads
    assert after == [was_enabled, was_enabled]

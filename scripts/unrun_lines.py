"""Statements of ``src/walkmine`` that no test runs.

    PYTHONPATH=src python3 scripts/unrun_lines.py [PYTEST_ARGS ...]

Runs pytest in this process (with PYTEST_ARGS, default: the configured test
paths) under a ``sys.settrace`` line tracer, then prints ``path:line: source``
for each line of ``src/walkmine/*.py`` that holds bytecode and that no test
executed. It exits with pytest's exit code, so a failing run is not read as
a line report. Only this process is traced: code that a test runs in a
subprocess, such as ``scripts/report_digest.py`` or the CLI tests of the
installed ``walkmine`` script, counts as unrun.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def statement_lines(path) -> set[int]:
    """The line numbers of ``path`` that hold bytecode, nested code included."""
    todo = [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # a module's code opens with an instruction on line 0, which no statement holds
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(paths, run) -> dict[str, set[int]]:
    """Call ``run()`` under a line tracer: the lines of each of ``paths`` it executed.

    The result maps each path, resolved, to its executed line numbers. The
    tracer that was installed before the call is restored after it.
    """
    hit = {os.path.realpath(p): set() for p in paths}
    traced: dict[str, set | None] = {}  # code filename -> its hit set, or None

    def lines(frame, event, arg):
        if event == "line":
            traced[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = hit.get(os.path.realpath(name))
        return lines if traced[name] is not None else None

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(calls)
    threading.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return hit


def unrun_lines(paths, run) -> list[tuple]:
    """``(path, line)`` for each bytecode line of ``paths`` that ``run()`` left unexecuted."""
    hit = run_traced(paths, run)
    return [(p, line) for p in paths for line in sorted(statement_lines(p) - hit[os.path.realpath(p)])]


def main(argv=None) -> int:
    paths = sorted((ROOT / "src" / "walkmine").glob("*.py"))
    status = []
    unrun = unrun_lines(paths, lambda: status.append(pytest.main(argv)))
    if status[0] != 0:
        return status[0]
    sources = {p: p.read_text(encoding="utf-8").splitlines() for p in paths}
    for path, line in unrun:
        print(f"{path.relative_to(ROOT)}:{line}: {sources[path][line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``scripts/unrun_lines.py`` on a module of two functions, one of them called."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun_lines.py"
_spec = importlib.util.spec_from_file_location("unrun_lines", SCRIPT)
unrun_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun_lines)

MODULE = '''\
def called(x):
    y = x + 1
    return y


def never(x):
    if x:
        return 1
    return 2
'''


def test_reports_the_body_of_the_function_no_one_called(tmp_path):
    path = tmp_path / "two.py"
    path.write_text(MODULE, encoding="utf-8")
    previous = sys.gettrace()

    def run():
        spec = importlib.util.spec_from_file_location("two", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.called(1) == 2

    assert unrun_lines.unrun_lines([path], run) == [(path, 7), (path, 8), (path, 9)]
    assert sys.gettrace() is previous
    # every statement of the module holds bytecode; the def lines ran at import
    assert unrun_lines.statement_lines(path) == {1, 2, 3, 6, 7, 8, 9}

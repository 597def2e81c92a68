"""Statements of the package that no test executes.

    python tests/line_coverage.py
    python tests/line_coverage.py tests/test_cli.py -k bandwidth

Runs pytest in this process, from the repository root, with the given
arguments (none runs the whole suite), under a line trace of every frame
whose code lies in ``src/cvteleport`` (``sys.settrace`` and
``threading.settrace``; other frames are not traced).  Then prints
``path:line: statement`` for each statement of the package that never ran,
and their count, and exits 1 if the count is not 0 or pytest failed.  A
statement is every ``ast`` statement except docstrings, ``def``,
``class``, imports and ``try`` (whose parts are statements of their own);
it ran when a line event fell on it, for a compound statement on its
header, the lines before its body.  A Python process that a test starts
(``python -m cvteleport``, say) is traced too: a ``sitecustomize`` module
put first on PYTHONPATH starts the same trace in it.  coverage.py does the
same job, where it is installed.
"""

from __future__ import annotations

import ast
import atexit
import os
import pathlib
import sys
import tempfile
import threading

from src_lines import docstrings

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cvteleport"
_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Try,
)


def statements(text: str) -> dict[int, set[int]]:
    """The statements of one module: first line -> the lines that count as running it."""
    tree = ast.parse(text)
    skipped = set(docstrings(tree))
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or node in skipped:
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[node.lineno] = set(range(node.lineno, last + 1))
    return found


def _tracer(executed: set):
    prefix = str(PACKAGE) + os.sep
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def traced(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = name.startswith(prefix)
        return local if mine else None

    return traced


def _trace(executed: set) -> None:
    tracer = _tracer(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)


# The sitecustomize module that a Python child process started by a test
# imports at startup (its directory leads PYTHONPATH): it runs the same
# trace and writes what it saw to a file of its own on exit.
_CHILD = """\
import sys
sys.path.insert(0, {tests!r})
import line_coverage
del sys.path[0]
line_coverage.trace_child({records!r})
"""


def trace_child(records: str) -> None:
    """Trace this process, a test's child, into a file under records at exit."""
    executed: set[tuple[str, int]] = set()

    def write() -> None:
        sys.settrace(None)
        rows = "".join(f"{name}\t{line}\n" for name, line in executed)
        pathlib.Path(records, f"{os.getpid()}.lines").write_text(rows, encoding="utf-8")

    atexit.register(write)
    _trace(executed)


def main(argv: list[str]) -> int:
    import pytest  # here, so that a traced child imports only what it runs

    os.chdir(ROOT)
    executed: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as records:
        site = pathlib.Path(records, "site")
        site.mkdir()
        code = _CHILD.format(tests=str(ROOT / "tests"), records=records)
        (site / "sitecustomize.py").write_text(code, encoding="utf-8")
        inherited = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), inherited]))
        _trace(executed)
        try:
            status = pytest.main(argv)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            if inherited is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = inherited
        for record in pathlib.Path(records).glob("*.lines"):
            for row in record.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                executed.add((name, int(line)))
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        ran = {line for name, line in executed if name == str(path)}
        for first, span in sorted(statements(text).items()):
            if not span & ran:
                missed += 1
                print(f"{path.relative_to(ROOT).as_posix()}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} unexecuted statements")
    return 1 if missed or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

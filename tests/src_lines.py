"""Lines of code, comments, docstrings and blanks in each module under src/.

    python tests/src_lines.py
    python tests/src_lines.py --against ../other

Prints, for each module of the package in this checkout's ``src/``, its
physical lines split four ways, and their totals.  A line is a docstring
line when it lies in the string that opens a module, class or function; a
code line when any other token is on it (a code line with a trailing
comment is code, and every line of a multi-line string that is not a
docstring is code); a blank line when it is empty or whitespace; and a
comment line otherwise.  With ``--against <checkout>`` the same counts
are taken in that checkout's ``src/`` and the net change, here minus
there, follows per module and in total, so a net change of code lines is
read apart from comment and docstring edits.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
KINDS = ("code", "comment", "docstring", "blank")
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def docstrings(tree: ast.Module) -> list[ast.Expr]:
    """The string statements that open the module, its classes and its functions."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.append(first)
    return found


def counts(text: str) -> dict[str, int]:
    """The lines of one module's source text, per kind."""
    docstring: set[int] = set()
    for first in docstrings(ast.parse(text)):
        docstring.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT and token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    found = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docstring:
            found["docstring"] += 1
        elif number in code:
            found["code"] += 1
        elif not line.strip():
            found["blank"] += 1
        else:
            found["comment"] += 1
    return found


def tree_counts(root: pathlib.Path) -> dict[str, dict[str, int]]:
    """counts() of every module under root/src, keyed by its path there."""
    src = root / "src"
    return {
        path.relative_to(src).as_posix(): counts(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
    }


def _total(table: dict[str, dict[str, int]]) -> dict[str, int]:
    return {kind: sum(row[kind] for row in table.values()) for kind in KINDS}


def _print(table: dict[str, dict[str, int]], signed: bool = False) -> None:
    width = max([len(name) for name in table] + [len("total")])
    cell = "{:>+10}" if signed else "{:>10}"
    print(f"{'module':<{width}}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    for name, row in {**table, "total": _total(table)}.items():
        values = [row[kind] for kind in KINDS]
        print(f"{name:<{width}}" + "".join(cell.format(v) for v in (*values, sum(values))))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="CHECKOUT", help="another checkout to compare with")
    args = parser.parse_args()
    here = tree_counts(ROOT)
    _print(here)
    if args.against is None:
        return
    there = tree_counts(pathlib.Path(args.against))
    print(f"\nnet change against {args.against} (here minus there):")
    zero = dict.fromkeys(KINDS, 0)
    _print(
        {
            name: {kind: here.get(name, zero)[kind] - there.get(name, zero)[kind] for kind in KINDS}
            for name in sorted(here.keys() | there.keys())
        },
        signed=True,
    )


if __name__ == "__main__":
    main()

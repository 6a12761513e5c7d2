"""Count the lines of src/tetracomm that hold code, per module and in total.

A line holds code when some token other than a comment lies on it and it
is not part of a docstring (the string that opens a module, class or
function body).  Blank lines, comment-only lines and docstrings are not
counted, so a change that only rewords comments leaves the count alone:

    python3 tools/code_lines.py                      # this checkout
    python3 tools/code_lines.py --against ../parent  # and the difference from another

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "tetracomm"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_checkout(root: Path) -> dict[str, int]:
    """Code lines per module of root's src/tetracomm, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted((root / PACKAGE).glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to count")
    parser.add_argument("--against", type=Path, help="another checkout to print the difference from")
    args = parser.parse_args(argv)
    counts = count_checkout(args.root)
    other = count_checkout(args.against) if args.against else None
    print(f"{'module':20} {'lines':>6}" + (f" {'other':>6} {'diff':>6}" if other else ""))
    for name in sorted(counts.keys() | (other or {}).keys()):
        here = counts.get(name, 0)
        print(f"{name:20} {here:6}" + (f" {other.get(name, 0):6} {here - other.get(name, 0):+6}" if other else ""))
    total = sum(counts.values())
    print(f"{'total':20} {total:6}" + (f" {sum(other.values()):6} {total - sum(other.values()):+6}" if other else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

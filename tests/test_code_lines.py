"""tools/code_lines.py counts code lines, not blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class Thing:
    """Class docstring."""

    def f(self, a,
          b):
        """Function
        docstring."""
        text = """a multi-line string
that is not a docstring"""
        return a + b
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_lines_that_hold_code():
    # import, class, both lines of def, both lines of the string assignment, return
    assert load_code_lines().code_lines(MODULE) == 7


def write_checkout(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "tetracomm"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def test_against_prints_the_difference_per_module_and_in_total(tmp_path, capsys):
    code_lines = load_code_lines()
    old = write_checkout(tmp_path / "old", {"a.py": "x = 1\ny = 2\n", "gone.py": "z = 3\n"})
    new = write_checkout(tmp_path / "new", {"a.py": "x = 1\n\n# y was here\n", "b.py": MODULE})
    assert code_lines.count_checkout(new) == {"a.py": 1, "b.py": 7}
    assert code_lines.main(["--root", str(new), "--against", str(old)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "other", "diff"],
        ["a.py", "1", "2", "-1"],
        ["b.py", "7", "0", "+7"],
        ["gone.py", "0", "1", "-1"],
        ["total", "8", "3", "+5"],
    ]

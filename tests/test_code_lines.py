"""tools/code_lines.py counts the lines that hold Python code."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

DOCSTRINGS = '''"""A module docstring
over two lines."""


def f():
    """A function docstring
    over two lines."""
'''

COMMENTS = '''# a comment

    # an indented comment


'''

SPLIT = '''total = (1 +
         2 +
         3)
'''


@pytest.mark.parametrize("source, count", [
    # only the def line of f is code
    (DOCSTRINGS, 1),
    (COMMENTS, 0),
    (SPLIT, 3),
    (DOCSTRINGS + "    return (1 +\n            2 +\n            3)  # sum\n"
     + COMMENTS, 4),
], ids=["docstrings", "comments", "split_statement", "function"])
def test_code_lines_counts(tmp_path, source, count):
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert code_lines.code_lines(path) == count


def test_code_lines_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SPLIT, encoding="utf-8")
    (tmp_path / "b.py").write_text(DOCSTRINGS, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["4", "total"]

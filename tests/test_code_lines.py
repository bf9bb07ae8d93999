"""tools/code_lines.py: what counts as a code line, and what it prints."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import math  # a trailing comment stays a code line


class Box:
    """Class docstring."""

    size = 1


def area(x):
    """Function docstring,
    on two lines.
    """
    "a string statement after the docstring is code"
        # an indented comment
    return math.pi * x


async def fetch():
    """Async docstring."""
    return None


def bare():
    return """not a docstring: a returned string"""
'''
# import, class line, size, def area, the string statement, return,
# async def, return None, def bare, return
SOURCE_CODE_LINES = 10


def test_docstrings_comments_and_blanks_do_not_count(tool):
    assert tool.code_lines(SOURCE) == SOURCE_CODE_LINES


def test_a_string_that_is_not_a_docstring_counts(tool):
    assert tool.code_lines('x = 1\n"a string statement"\n') == 2
    assert tool.code_lines('"""docstring"""\n"a second string"\n') == 1


def test_multiline_code_counts_every_line(tool):
    assert tool.code_lines("total = (1 +\n         2)\n") == 2


def test_prints_each_module_then_the_total(tool, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"1 {tmp_path / 'a.py'}", f"{SOURCE_CODE_LINES} {tmp_path / 'b.py'}",
                     str(1 + SOURCE_CODE_LINES)]


def test_usage(tool, capsys):
    assert tool.main([]) == 2
    assert "usage" in capsys.readouterr().err

"""Count the code lines of a Python package: its lines that are not blank,
not a '#' comment and not part of a docstring (module, class or function,
found with ast). Deleting a comment or a docstring does not shrink this
count, so it measures code removed, beside the raw line count.

    python tools/code_lines.py src/thermolab

prints one "<code lines> <file>" line per module, in file name order, and
the package total as its last line.
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        count = code_lines(path.read_text())
        print(count, path)
        total += count
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

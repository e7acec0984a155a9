"""Count the code lines of the Python files in a directory: non-blank lines that are
not comments, with docstrings excluded. A docstring is the leading string literal of a
module, class or function body, every line it spans.

    python tests/code_lines.py [directory]    # default: src/photonam

prints one "file count" line per file, then "total count".
"""

import ast
import sys
from pathlib import Path


def code_lines(text: str) -> int:
    docstring_lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstring_lines
    )


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(path.name, count)
    print("total", total)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parents[1] / "src" / "photonam"))

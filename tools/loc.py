"""Print the line count of each ``src/masc`` module and their total.

A module is counted as the lines of ``ast.unparse`` of its syntax tree with
module, class and function docstrings removed, so comments, blank lines,
docstrings and line wrapping do not count.

    python tools/loc.py [PACKAGE_DIR]
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, _SCOPES)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            node.body = body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "masc"
    total = 0
    for path in sorted(package.glob("*.py")):
        lines = code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

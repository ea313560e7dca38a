"""Count a tree's Python code lines, without docstrings, comments and blanks:

    python tests/code_lines.py [DIR ...]

For each DIR (default ``src``) it prints the total over the ``.py`` files
below it, then each file's count. A line counts if a token of code is on
it; a string spans every line from its start to its end, and counts on
each, except a docstring, the string that opens a module, class or
function body, which does not count at all. CI prints the figure for a
pull request's branch and for its base.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring in ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                starts.add((value.lineno, value.col_offset))
    return starts


def code_lines(text: str) -> int:
    """How many lines of the Python source ``text`` hold code."""
    docstrings = docstring_starts(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT and not (tok.type == tokenize.STRING
                                            and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(dirs: list[str]) -> None:
    for top in dirs or ["src"]:
        counts = {path: code_lines(path.read_text(encoding="utf-8"))
                  for path in sorted(Path(top).rglob("*.py"))}
        print(f"{top}: {sum(counts.values())} code lines in {len(counts)} files")
        for path, n in counts.items():
            print(f"  {path.relative_to(top)}: {n}")


if __name__ == "__main__":
    main(sys.argv[1:])

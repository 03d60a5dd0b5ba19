"""Count the code lines of Python files: lines that hold a token other than a
comment, a line break, an indent or dedent, or a docstring.

    python3 scripts/code_lines.py PATH...

A PATH is a file or a directory, whose `*.py` files are counted (not those
of its subdirectories).  A docstring is the string that opens a module, a
class or a function body.  A line counts once however many tokens it
holds; a token over several lines, such as a triple-quoted string that is
not a docstring, counts on each of them.  It prints one line per file,
`<count> <path>` as `wc -l` does, then `<count> total` when there is more
than one file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Token types that make no line a code line.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of `source` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0].value
            starts.add((doc.lineno, doc.col_offset))
    return starts


def count(source: str) -> int:
    """The number of code lines in `source`."""
    docstrings = docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for name in paths:
        path = Path(name)
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = python_files(argv)
    total = 0
    for path in files:
        n = count(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n} {path}")
    if len(files) > 1:
        print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

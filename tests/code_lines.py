"""Count the code lines of each module under src/: lines that hold a token
of code, so blank lines, comments and docstrings do not count.

    python tests/code_lines.py [ROOT]

prints one `<count> <module>` line per module, largest first, and the
total.  A docstring is a string expression that opens a module, class or
function body (ast); a code line is one that holds a token other than a
comment, a newline, an indent or a dedent (tokenize), outside a docstring.
A statement that spans lines counts each line it spans.  Only the standard
library is used, and the file name keeps pytest from collecting it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(root: Path) -> dict:
    """module name -> code lines, for every module under root/src."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((root / "src").rglob("*.py"))}


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    counts = count(root)
    for module, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print("%5d %s" % (n, module))
    print("%5d in all" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

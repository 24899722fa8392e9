"""Print the code lines of each module of a package directory and their total.

A code line holds at least one token that is not a comment, and lies
outside every docstring (the first statement of a module, class or
function, when it is a string).  Blank lines, comment-only lines and
docstring lines are not counted, so a change's size is read apart from
its docstring edits.  tools/check.sh runs it on a commit's src/rotn and
on the checkout's.
Usage: python3 tools/code_lines.py DIR
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        source = f.read()
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/code_lines.py DIR")
    root = sys.argv[1]
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(root, name))
            total += n
            print("%6d  %s" % (n, name))
    print("%6d  total" % (total,))


if __name__ == "__main__":
    main()

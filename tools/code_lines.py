"""Print the code lines of each module of a package directory and their total.

A code line holds at least one token that is not a comment, and lies
outside every docstring (the first statement of a module, class or
function, when it is a string).  Blank lines, comment-only lines and
docstring lines are not counted, so a change's size is read apart from
its docstring edits.  Given a second directory, it prints each module's
count in both, and the difference (the second's minus the first's); a
module missing from one counts 0 there.  tools/check.sh runs it once, on
a commit's src/rotn and the checkout's.
Usage: python3 tools/code_lines.py DIR [DIR2]
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


def _counts(root: str) -> dict:
    return {name: code_lines(os.path.join(root, name))
            for name in os.listdir(root) if name.endswith(".py")}


def main() -> None:
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: python3 tools/code_lines.py DIR [DIR2]")
    sides = [_counts(root) for root in sys.argv[1:]]
    for name in sorted(set().union(*sides)) + ["total"]:
        row = [sum(side.values()) if name == "total" else side.get(name, 0)
               for side in sides]
        diff = " %+6d" % (row[1] - row[0]) if len(row) == 2 else ""
        print("".join("%7d" % n for n in row) + diff + "  " + name)


if __name__ == "__main__":
    main()

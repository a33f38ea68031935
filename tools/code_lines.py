#!/usr/bin/env python3
"""Count the code lines of Python files: the lines that hold a token other
than a comment, outside the docstrings of modules, classes and functions.

    python tools/code_lines.py src/chve            # each file, then the total
    python tools/code_lines.py src/chve/driver.py tests
    python tools/code_lines.py --against REV src/chve   # at git REV, then now

A directory counts every ``*.py`` file below it.  A token that spans
lines (a multi-line string or bracket) counts each line it covers.  With
``--against REV`` each file's count at the git revision REV stands beside
its count in the working tree, and a file absent from either counts 0.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def revision_sources(rev: str, paths: list[Path]) -> dict[Path, str]:
    """{path: source} of the ``*.py`` files under paths at git revision rev,
    each path relative to the working directory."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True).stdout
    names = git("ls-tree", "-r", "--name-only", rev, "--", *map(str, paths)).splitlines()
    return {Path(name): git("show", f"{rev}:./{name}") for name in names
            if name.endswith(".py")}


def main(argv: list[str]) -> int:
    rev = None
    if argv[:1] == ["--against"] and len(argv) > 1:
        rev, argv = argv[1], argv[2:]
    if not argv or argv[0].startswith("--"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = list(map(Path, argv))
    files = []
    for arg in paths:
        if arg.is_dir():
            files.extend(sorted(arg.rglob("*.py")))
        elif rev is None or arg.exists():
            files.append(arg)
    counts = [(path, code_lines(path.read_text(encoding="utf-8"))) for path in files]
    if rev is None:
        for path, n in counts:
            print(f"{n:6d}  {path}")
        print(f"{sum(n for _, n in counts):6d}  total")
        return 0

    try:
        then = {path: code_lines(source)
                for path, source in revision_sources(rev, paths).items()}
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    now = {Path(os.path.relpath(path)): n for path, n in counts}
    for path in sorted(then.keys() | now.keys()):
        print(f"{then.get(path, 0):6d}  {now.get(path, 0):6d}  {path}")
    print(f"{sum(then.values()):6d}  {sum(now.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Count code lines and task-creation sites, the way the PRs report them.

A *code line* is a physical line that carries at least one token that is
neither a comment nor part of a docstring; blank lines do not count.
Tokens come from :mod:`tokenize`, docstring extents from :mod:`ast`, so
a ``#`` inside a string or a string that merely starts a statement is
classified the way the interpreter sees it.

    python3 tools/loc.py                 # src/, per package, and the total
    python3 tools/loc.py src/repro/cluster --files
    python3 tools/loc.py --tasks src/repro/cluster

``--tasks`` lists the ``create_task`` / ``ensure_future`` call sites
instead (the one-task-owner guards count the same calls).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that do not make a line a code line
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

TASK_CREATORS = {"create_task", "ensure_future"}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank, non-comment, non-docstring lines of one module."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def task_sites(source: str) -> list[tuple[int, str]]:
    """``(line, callee)`` of every task-creating call in one module."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in TASK_CREATORS:
                sites.append((node.lineno, name))
    return sorted(sites)


def _python_files(root: Path) -> list[Path]:
    return [root] if root.is_file() else sorted(root.rglob("*.py"))


def _group(path: Path, root: Path) -> str:
    """The package a file is tallied under: two levels below ``root``."""
    parts = path.relative_to(root).parts[:-1] if root.is_dir() else ()
    return "/".join((root.as_posix(), *parts[:2]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to count (default: src)")
    parser.add_argument("--files", action="store_true",
                        help="one row per file instead of per package")
    parser.add_argument("--tasks", action="store_true",
                        help="list create_task/ensure_future call sites instead")
    args = parser.parse_args(argv)

    total = 0
    for root in map(Path, args.paths):
        rows: dict[str, int] = {}
        for path in _python_files(root):
            source = path.read_text()
            if args.tasks:
                sites = task_sites(source)
                for line, name in sites:
                    print(f"{path.as_posix()}:{line} {name}()")
                total += len(sites)
                continue
            key = path.as_posix() if args.files else _group(path, root)
            rows[key] = rows.get(key, 0) + code_lines(source)
        for key, count in rows.items():
            print(f"{count:7d}  {key}")
        total += sum(rows.values())
    print(f"{total:7d}  total {'task sites' if args.tasks else 'code lines'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

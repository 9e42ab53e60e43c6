"""rtslint: project-specific AST lint for the RTS codebase.

Run as ``python -m tools.rtslint src/`` (see ``docs/CORRECTNESS.md`` for
the rule catalogue).  Suppress a finding in place with a line pragma::

    arr = heap._slots  # rtslint: disable=heap-internals

or disable a rule for a whole file with a pragma in the first ten lines::

    # rtslint: disable-file=paper-ref-docstring

A line pragma on any physical line of a multi-line statement covers the
whole statement, so wrapped calls can carry the pragma on whichever line
fits.  A pragma naming a rule rtslint does not know is itself reported
(rule ``unknown-pragma``) — a typo must not silently disable nothing.

Suppression and baseline mechanics are shared with ``tools.rtscheck``
through :mod:`tools.lintkit`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..lintkit import (
    iter_python_files,
    parse_pragmas,
    validate_pragmas,
)
from .rules import RULES, LintViolation

TOOL = "rtslint"


def lint_source(
    source: str, path: str, select: Iterable[str] = ()
) -> List[LintViolation]:
    """Lint one file's text; returns violations surviving the pragmas.

    ``select`` restricts checking to the named rules (default: all).
    Pragmas naming unknown rules are reported regardless of ``select``.
    Raises SyntaxError if the source does not parse.
    """
    names = list(select) or list(RULES)
    unknown = [n for n in names if n not in RULES]
    if unknown:
        known = ", ".join(sorted(RULES))
        raise ValueError(f"unknown rule(s) {unknown}; choose from: {known}")
    module = ast.parse(source, filename=path)
    pragmas = parse_pragmas(source, TOOL, tree=module)
    out: List[LintViolation] = list(validate_pragmas(pragmas, RULES, path))
    for name in names:
        _desc, fn = RULES[name]
        for violation in fn(module, path, source):
            disabled = pragmas.disabled_at(violation.line)
            if name in disabled or "all" in disabled:
                continue
            out.append(violation)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def lint_paths(
    paths: Iterable[str], select: Iterable[str] = ()
) -> List[LintViolation]:
    """Lint every ``.py`` file under ``paths``; see :func:`lint_source`."""
    out: List[LintViolation] = []
    for file in iter_python_files(paths):
        out.extend(lint_source(file.read_text(), str(file), select=select))
    return out


__all__ = [
    "RULES",
    "LintViolation",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]

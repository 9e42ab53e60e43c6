"""rtscheck: whole-program static analysis for the RTS codebase.

Where ``tools.rtslint`` walks one file at a time, rtscheck builds a
cross-module view (module graph, symbol table, approximate call graph —
see :mod:`.program`) of everything under the given paths and checks the
properties that only exist *between* files:

* :mod:`.determinism` — nondeterminism sources reachable from the
  deterministic-contract surfaces (``det-*`` rules);
* :mod:`.protocol` — message-dispatch exhaustiveness,
  abstract-method gaps, shipped-command existence (``proto-*``);
* :mod:`.wireformat` — writer/reader key agreement per ``rts-*-v1``
  version string (``wire-*``);
* :mod:`.lifecycle` — pools/channels/handles reach teardown (``lc-*``).

Run as ``python -m tools.rtscheck src/``.  Pragmas, baselines, and the
JSON output shape are shared with rtslint (see ``tools/lintkit.py``)::

    busy = time.perf_counter() - t0  # rtscheck: disable=det-wallclock

Nothing here imports the analyzed code — the suite runs on any tree
that parses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..lintkit import Finding, parse_pragmas, validate_pragmas
from . import determinism, lifecycle, protocol, wireformat
from .program import Program

TOOL = "rtscheck"

_ANALYSES = (determinism, protocol, wireformat, lifecycle)

#: rule name -> one-line description, across all analyses.
RULES: Dict[str, str] = {}
for _analysis in _ANALYSES:
    RULES.update(_analysis.RULES)


def check_paths(
    paths: Iterable[str], select: Iterable[str] = ()
) -> List[Finding]:
    """Run every analysis over the program rooted at ``paths``.

    Returns the findings surviving pragmas, sorted by location, plus an
    ``unknown-pragma`` finding for every pragma naming a rule rtscheck
    does not know.  ``select`` restricts output to the named rules.
    """
    names = set(select) or set(RULES)
    unknown = sorted(n for n in names if n not in RULES)
    if unknown:
        known = ", ".join(sorted(RULES))
        raise ValueError(f"unknown rule(s) {unknown}; choose from: {known}")
    program = Program.load(paths)
    findings: List[Finding] = []
    for analysis in _ANALYSES:
        findings.extend(analysis.run(program))
    findings = [f for f in findings if f.rule in names]

    pragma_table = {
        module.path: parse_pragmas(module.source, TOOL, tree=module.tree)
        for module in program.modules.values()
    }
    out: List[Finding] = []
    for path in sorted(pragma_table):
        out.extend(validate_pragmas(pragma_table[path], RULES, path))
    for finding in findings:
        pragmas = pragma_table.get(finding.path)
        if pragmas is not None:
            disabled = pragmas.disabled_at(finding.line)
            if finding.rule in disabled or "all" in disabled:
                continue
        out.append(finding)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return out


__all__ = ["RULES", "TOOL", "Finding", "Program", "check_paths"]

"""The project-specific lint rules (see ``docs/CORRECTNESS.md``).

Each rule is a function ``(module, path, source) -> Iterator[LintViolation]``
registered in :data:`RULES`.  Rules are pure AST walks — no imports of the
linted code — so the linter runs on any tree that parses, before the code
is importable.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Set, Tuple

from ..lintkit import Finding

#: One rule hit, pointing at a source location.  The historical rtslint
#: name for the shared :class:`tools.lintkit.Finding` shape — kept so
#: rule functions and external callers are unaffected by the move to
#: the shared kit (which added baseline fingerprints).
LintViolation = Finding


RuleFn = Callable[[ast.Module, str, str], Iterator[LintViolation]]

#: name -> (one-line description, rule function); filled by :func:`_rule`.
RULES: Dict[str, Tuple[str, RuleFn]] = {}


def _rule(name: str, description: str) -> Callable[[RuleFn], RuleFn]:
    def deco(fn: RuleFn) -> RuleFn:
        RULES[name] = (description, fn)
        return fn

    return deco


def _walk_with_parents(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Yield ``(node, ancestors)`` for every node, outermost ancestor first."""
    stack: List[Tuple[ast.AST, List[ast.AST]]] = [(tree, [])]
    while stack:
        node, ancestors = stack.pop()
        yield node, ancestors
        child_ancestors = ancestors + [node]
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_ancestors))


# ---------------------------------------------------------------------------
# float-eq
# ---------------------------------------------------------------------------


@_rule(
    "float-eq",
    "no == / != against float literals; boundary keys compare exactly "
    "through the geometry BoundaryKey encoding",
)
def check_float_eq(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    for node in ast.walk(module):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        for side in [node.left, *node.comparators]:
            if isinstance(side, ast.Constant) and isinstance(side.value, float):
                yield LintViolation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "float-eq",
                    f"equality comparison against float literal "
                    f"{side.value!r}; use BoundaryKey comparisons from "
                    "repro.core.geometry (exact open/closed endpoint "
                    "semantics) or an epsilon test",
                )
                break


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------


@_rule(
    "mutable-default",
    "no mutable default arguments (list/dict/set literals or constructors)",
)
def check_mutable_default(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    ctor_names = {"list", "dict", "set"}
    for node in ast.walk(module):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ctor_names
            )
            if bad:
                name = getattr(node, "name", "<lambda>")
                yield LintViolation(
                    path,
                    default.lineno,
                    default.col_offset,
                    "mutable-default",
                    f"mutable default argument in {name!r}; default to "
                    "None and construct inside the function",
                )


# ---------------------------------------------------------------------------
# heap-internals
# ---------------------------------------------------------------------------

#: Attributes private to the heap arena.  Touching them outside
#: structures/heap.py bypasses the slot bookkeeping that the O(log n)
#: DELETE/UPDATEKEY of Section 4 (Eq. 5) and the ``mins`` column depend on.
_HEAP_PRIVATE = {
    "_slots",
    "_pos",
    "_ekey",
    "_ecol",
    "_seg_start",
    "_seg_size",
    "_owners",
    "_mins",
    "_sift_up",
    "_sift_down",
    "_sync",
    "_lay_out",
    "_lay_out_entries",
}


@_rule(
    "heap-internals",
    "no access to heap-arena internals (_slots/_pos/_ekey/_sift_*) outside "
    "structures/heap.py; use the arena API",
)
def check_heap_internals(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    norm = path.replace("\\", "/")
    if norm.endswith("structures/heap.py"):
        return
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and node.attr in _HEAP_PRIVATE:
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "heap-internals",
                f"direct access to heap internal {node.attr!r}; go through "
                "the arena API (first_due/rekey/remove/segment)",
            )


# ---------------------------------------------------------------------------
# unguarded-obs
# ---------------------------------------------------------------------------

#: Every emit method of ``Observability``: the catalog-driven ``inc`` /
#: ``set`` / ``observe`` and the named hooks.  The disabled sink
#: (``NullObservability``) has none of them, so each call site must sit
#: behind an enabled-guard, which also keeps the disabled path at one
#: attribute read.  Exempt are ``describe``, which the null sink answers
#: too, and ``report``, a pull on explicit request.  A test keeps this
#: set equal to ``Observability``'s public methods less those two.
_EMIT_HOOKS = {
    "inc",
    "set",
    "observe",
    "element_processed",
    "batch_processed",
    "query_registered",
    "query_matured",
    "query_terminated",
    "ingest_quarantined",
    "shard_restart",
    "dt_slack",
    "dt_slack_opened",
    "dt_round_end",
    "dt_final_phase",
    "dt_participant_mode",
    "rebuild",
    "logmethod_merge",
    "span",
    "new_span",
    "sync_work_counters",
}


def _mentions_obs(node: ast.AST) -> bool:
    """True when the expression names an obs-ish receiver."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "obs" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "obs" in sub.attr.lower():
            return True
    return False


def _is_obs_guard(test: ast.AST, aliases: Set[str]) -> bool:
    """True when an ``if`` test gates on observability being enabled.

    Accepts ``*.enabled`` attribute tests, local aliases assigned from
    one (``obs_on = self.obs.enabled``), and existence tests on the obs
    object itself (``if obs:``, ``if self._obs is not None:``).
    """
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id in aliases:
            return True
    return _mentions_obs(test)


def _enabled_aliases(func: ast.AST) -> Set[str]:
    """Names assigned (anywhere in ``func``) from an ``*.enabled`` read."""
    aliases: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        reads_enabled = any(
            isinstance(sub, ast.Attribute) and sub.attr == "enabled"
            for sub in ast.walk(node.value)
        )
        if reads_enabled:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


@_rule(
    "unguarded-obs",
    "observability emit hooks must sit behind an enabled-guard "
    "(zero overhead when telemetry is off)",
)
def check_unguarded_obs(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    norm = path.replace("\\", "/")
    if "/obs/" in norm or norm.startswith("obs/"):
        return  # the sink implementation itself
    func_aliases: Dict[int, Set[str]] = {}
    for node, ancestors in _walk_with_parents(module):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _EMIT_HOOKS):
            continue
        if not _mentions_obs(func.value):
            continue  # e.g. an unrelated .rebuild() on a tree
        enclosing = [
            a
            for a in ancestors
            if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scope = enclosing[-1] if enclosing else module
        aliases = func_aliases.get(id(scope))
        if aliases is None:
            aliases = _enabled_aliases(scope)
            func_aliases[id(scope)] = aliases
        guarded = any(
            isinstance(a, ast.If) and _is_obs_guard(a.test, aliases)
            for a in ancestors
        )
        if not guarded:
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "unguarded-obs",
                f"obs hook {func.attr!r} called without an enabled-guard; "
                "wrap in `if <obs>.enabled:` so the disabled path is free",
            )


# ---------------------------------------------------------------------------
# undeclared-metric
# ---------------------------------------------------------------------------

#: Instrument factory methods on a MetricsRegistry.
_METRIC_FACTORIES = {"counter", "gauge", "histogram"}
_METRIC_PREFIX = "rts_"

#: Declared names per catalog-file path.  The catalog is AST-parsed,
#: never imported — the linter stays runnable on trees that don't import.
_CATALOG_CACHE: Dict[str, Set[str]] = {}


def _locate_catalog(path: str) -> str:
    """Find ``repro/obs/catalog.py`` relative to the linted file or cwd."""
    import pathlib

    candidates = [
        parent / "repro" / "obs" / "catalog.py"
        for parent in pathlib.Path(path).resolve().parents
    ]
    candidates.append(pathlib.Path.cwd() / "src" / "repro" / "obs" / "catalog.py")
    for candidate in candidates:
        if candidate.is_file():
            return str(candidate)
    return ""


def _catalog_names(catalog_path: str) -> Set[str]:
    """Declared metric names from the catalog: the first string argument
    (or ``name=`` keyword) of every ``MetricSpec(...)`` call."""
    cached = _CATALOG_CACHE.get(catalog_path)
    if cached is not None:
        return cached
    names: Set[str] = set()
    try:
        with open(catalog_path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError):
        _CATALOG_CACHE[catalog_path] = names
        return names
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "MetricSpec"
        ):
            name_arg = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "name":
                    name_arg = kw.value
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                names.add(name_arg.value)
    _CATALOG_CACHE[catalog_path] = names
    return names


@_rule(
    "undeclared-metric",
    "literal metric names passed to counter()/gauge()/histogram(), or to "
    "an obs sink's inc()/set()/observe(), must be rts_-prefixed and "
    "declared in repro/obs/catalog.py",
)
def check_undeclared_metric(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    catalog_path = _locate_catalog(path)
    names = _catalog_names(catalog_path) if catalog_path else set()
    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        # ``inc`` / ``set`` / ``observe`` take a family name only on an
        # obs sink; elsewhere they are instrument or container methods.
        if func.attr not in _METRIC_FACTORIES and not (
            func.attr in ("inc", "set", "observe") and _mentions_obs(func.value)
        ):
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            continue  # dynamic names (f-strings, variables) are out of scope
        name = arg.value
        if not name.startswith(_METRIC_PREFIX):
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "undeclared-metric",
                f"metric name {name!r} lacks the {_METRIC_PREFIX!r} "
                "namespace prefix; see repro/obs/catalog.py",
            )
        elif names and name not in names:
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "undeclared-metric",
                f"metric {name!r} is not declared in the central catalog "
                "(repro/obs/catalog.py); declare it there so the "
                "cross-process aggregation layer knows its kind, buckets "
                "and policies",
            )


# ---------------------------------------------------------------------------
# bare-except
# ---------------------------------------------------------------------------


@_rule("bare-except", "no bare `except:`; name the exception types")
def check_bare_except(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    for node in ast.walk(module):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "bare-except",
                "bare `except:` swallows SystemExit/KeyboardInterrupt; "
                "name the exception types",
            )


# ---------------------------------------------------------------------------
# paper-ref-docstring
# ---------------------------------------------------------------------------

_PAPER_REF = re.compile(
    r"Section\s+\d|§\s*\d|\bEq\.\s*\(?\d|Theorem\s+\d|Lemma\s+\d|SIGMOD"
)


@_rule(
    "paper-ref-docstring",
    "public module-level functions in core/ need a docstring citing the "
    "paper section they implement",
)
def check_paper_ref_docstring(
    module: ast.Module, path: str, source: str
) -> Iterator[LintViolation]:
    norm = path.replace("\\", "/")
    if "/core/" not in norm and not norm.startswith("core/"):
        return
    for node in module.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        doc = ast.get_docstring(node) or ""
        if not doc:
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "paper-ref-docstring",
                f"public core function {node.name!r} has no docstring; "
                "document it with the paper section it implements",
            )
        elif not _PAPER_REF.search(doc):
            yield LintViolation(
                path,
                node.lineno,
                node.col_offset,
                "paper-ref-docstring",
                f"docstring of core function {node.name!r} cites no paper "
                "section (expected e.g. 'Section 4', 'Eq. (5)', "
                "'Theorem 1')",
            )

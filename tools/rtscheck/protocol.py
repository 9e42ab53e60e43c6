"""Protocol-exhaustiveness analysis: message dispatch and shipped code.

The DT protocol's exactly-once guarantees rest on three structural
properties this analysis checks without running anything:

* ``proto-unhandled-message`` — a *dispatcher* (a function comparing one
  value against two or more members of the same :class:`enum.Enum`) must
  either reference every member of that enum or end in a catch-all
  ``else:`` that raises.  Additionally, every member of a dispatched
  enum must be handled by *some* dispatcher in the program — a message
  type nobody consumes is dead protocol surface.
* ``proto-abstract-gap`` — an instantiated class must concretely define
  every ``@abstractmethod`` it inherits.  Pure-AST code never trips the
  runtime ABC guard, and executor/engine ABCs grow methods over time.
* ``proto-unknown-command`` — a function reference shipped through a
  program-module attribute in a call argument (``pool.submit(worker.fn)``
  and friends) must name something the module actually defines; a typo
  here only explodes inside the worker process.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..lintkit import Finding
from .program import ClassInfo, FunctionInfo, ModuleInfo, Program

RULES: Dict[str, str] = {
    "proto-unhandled-message": (
        "every message-type dispatcher handles all enum members or "
        "raises in a catch-all else; every member is handled somewhere"
    ),
    "proto-abstract-gap": (
        "instantiated classes must define every inherited abstractmethod"
    ),
    "proto-unknown-command": (
        "module-attribute callables shipped as call arguments "
        "(pool.submit(worker.fn)) must exist in the target module"
    ),
}


def run(program: Program) -> List[Finding]:
    out: List[Finding] = []
    enums = _enum_classes(program)
    out.extend(_check_dispatch(program, enums))
    out.extend(_check_abstract_gaps(program))
    out.extend(_check_command_targets(program))
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return out


# -- enum extraction ---------------------------------------------------------


def _enum_classes(program: Program) -> Dict[str, Set[str]]:
    """Enum class qualname -> member names, for program enum classes."""
    out: Dict[str, Set[str]] = {}
    for info in program.classes.values():
        if not any(
            base in ("enum.Enum", "Enum", "enum.IntEnum", "IntEnum")
            for base in info.base_names
        ):
            continue
        members: Set[str] = set()
        for node in info.node.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith(
                        "_"
                    ):
                        members.add(target.id)
        if members:
            out[info.qualname] = members
    return out


def _enum_refs(
    node: ast.AST, module: ModuleInfo, program: Program, enums: Dict[str, Set[str]]
) -> List[Tuple[str, str]]:
    """(enum qualname, member) pairs referenced as ``E.MEMBER`` in ``node``."""
    out: List[Tuple[str, str]] = []
    for sub in ast.walk(node):
        if not (
            isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
        ):
            continue
        cls = program.resolve_class(module, sub.value.id)
        if cls is not None and cls.qualname in enums:
            if sub.attr in enums[cls.qualname]:
                out.append((cls.qualname, sub.attr))
    return out


# -- proto-unhandled-message -------------------------------------------------


def _check_dispatch(
    program: Program, enums: Dict[str, Set[str]]
) -> List[Finding]:
    out: List[Finding] = []
    #: enum qualname -> members handled by any dispatcher, + a dispatch site.
    handled_anywhere: Dict[str, Set[str]] = {}
    dispatch_site: Dict[str, Tuple[str, int]] = {}
    #: (enum qualname, member) already named in a per-dispatcher finding.
    already_reported: Set[Tuple[str, str]] = set()

    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules[info.module]
        tests = _if_tests(info.node)
        refs_in_tests: List[Tuple[str, str]] = []
        for test in tests:
            refs_in_tests.extend(_enum_refs(test, module, program, enums))
        by_enum: Dict[str, Set[str]] = {}
        for enum_name, member in refs_in_tests:
            by_enum.setdefault(enum_name, set()).add(member)
        for enum_name, tested in sorted(by_enum.items()):
            if len(tested) < 2:
                continue  # not a dispatcher over this enum
            # Any member referenced anywhere in the dispatcher counts as
            # handled (e.g. forwarding tables, tuple membership tests).
            referenced = {
                member
                for e, member in _enum_refs(info.node, module, program, enums)
                if e == enum_name
            }
            handled_anywhere.setdefault(enum_name, set()).update(referenced)
            dispatch_site.setdefault(enum_name, (module.path, info.node.lineno))
            missing = enums[enum_name] - referenced
            if missing and not _has_catch_all_raise(info.node):
                already_reported.update(
                    (enum_name, member) for member in missing
                )
                out.append(
                    Finding(
                        path=module.path,
                        line=info.node.lineno,
                        col=info.node.col_offset,
                        rule="proto-unhandled-message",
                        message=(
                            f"dispatcher {info.name}() over "
                            f"{enum_name.rsplit('.', 1)[-1]} handles "
                            f"{sorted(tested)} but not "
                            f"{sorted(missing)} and has no catch-all "
                            "else that raises"
                        ),
                    )
                )

    # Whole-program coverage: members no dispatcher ever handles.
    for enum_name in sorted(handled_anywhere):
        orphans = enums[enum_name] - handled_anywhere[enum_name]
        path, line = dispatch_site[enum_name]
        for member in sorted(orphans):
            if (enum_name, member) in already_reported:
                continue  # the per-dispatcher finding already names it
            out.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    rule="proto-unhandled-message",
                    message=(
                        f"no dispatcher in the program handles "
                        f"{enum_name.rsplit('.', 1)[-1]}.{member}"
                    ),
                )
            )
    return out


def _if_tests(fn_node: ast.AST) -> List[ast.AST]:
    return [
        node.test for node in ast.walk(fn_node) if isinstance(node, ast.If)
    ]


def _has_catch_all_raise(fn_node: ast.AST) -> bool:
    """``else: raise`` at the end of an if/elif chain, or a trailing
    ``raise`` after early returns — both reject unknown members."""
    body = getattr(fn_node, "body", None)
    if body and isinstance(body[-1], ast.Raise):
        return True
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.If):
            continue
        tail = node
        while tail.orelse and len(tail.orelse) == 1 and isinstance(
            tail.orelse[0], ast.If
        ):
            tail = tail.orelse[0]
        if tail.orelse and any(
            isinstance(stmt, ast.Raise) for stmt in tail.orelse
        ):
            return True
    return False


def _constructed_class(
    func: ast.AST, module: ModuleInfo, program: Program
) -> Optional[ClassInfo]:
    if isinstance(func, ast.Name):
        return program.resolve_class(module, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return program.resolve_class(
            module, f"{func.value.id}.{func.attr}"
        )
    return None


# -- proto-abstract-gap ------------------------------------------------------


def _check_abstract_gaps(program: Program) -> List[Finding]:
    instantiated = _instantiated_classes(program)
    out: List[Finding] = []
    for qualname in sorted(instantiated):
        info = program.classes[qualname]
        unmet = _unmet_abstract_methods(program, info)
        if unmet:
            out.append(
                Finding(
                    path=program.modules[info.module].path,
                    line=info.node.lineno,
                    col=info.node.col_offset,
                    rule="proto-abstract-gap",
                    message=(
                        f"class {info.name} is instantiated but does not "
                        f"implement inherited abstract method(s) "
                        f"{sorted(unmet)}"
                    ),
                )
            )
    return out


def _instantiated_classes(program: Program) -> Set[str]:
    out: Set[str] = set()
    for module in program.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                cls = _constructed_class(node.func, module, program)
                if cls is not None:
                    out.add(cls.qualname)
    return out


def _unmet_abstract_methods(program: Program, info: ClassInfo) -> Set[str]:
    mro = program.class_mro(info)
    abstract: Set[str] = set()
    concrete: Set[str] = set()
    for cls in mro:
        for name in cls.methods:
            if cls.is_abstract_method(name):
                abstract.add(name)
            else:
                concrete.add(name)
    return abstract - concrete


# -- proto-unknown-command ---------------------------------------------------


def _check_command_targets(program: Program) -> List[Finding]:
    out: List[Finding] = []
    for module in program.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if not (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                ):
                    continue
                target = module.imports.get(arg.value.id)
                if target not in program.modules:
                    continue
                owner = program.modules[target]
                defined = (
                    arg.attr in owner.functions
                    or arg.attr in owner.classes
                    or arg.attr in owner.str_constants
                    or arg.attr in owner.imports
                    or _module_level_name(owner, arg.attr)
                )
                if not defined:
                    out.append(
                        Finding(
                            path=module.path,
                            line=arg.lineno,
                            col=arg.col_offset,
                            rule="proto-unknown-command",
                            message=(
                                f"{arg.value.id}.{arg.attr} shipped as a "
                                f"callable but module {target} defines no "
                                f"such name"
                            ),
                        )
                    )
    return out


def _module_level_name(module: ModuleInfo, name: str) -> bool:
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return True
    return False

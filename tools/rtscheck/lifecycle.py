"""Resource-lifecycle analysis: pools, channels, and handles reach teardown.

Tracked resources:

* ``concurrent.futures`` process/thread pools (teardown ``shutdown``),
  ``multiprocessing`` pools (``close``/``terminate``), and bare
  ``open()`` handles (``close``);
* program classes that declare themselves resources with a class
  docstring marker::

      class Coordinator:
          '''The tracking coordinator ...

          rtscheck: resource
          '''

  whose teardown is any of ``close``/``shutdown``/``stop``.

Rules:

* ``lc-unclosed-resource`` — a resource constructed into a local must
  reach teardown in that scope: a ``with`` block, a teardown call on the
  name, a teardown call on the loop variable iterating the list that
  collects the resources (the ``for p in participants: p.close()``
  pattern), or an ownership transfer out of the scope (returned,
  yielded, stored into an attribute/container, passed to a callee).
* ``lc-missing-teardown`` — a class that stores a tracked resource into
  ``self.<attr>`` must itself define a teardown method (``close``,
  ``shutdown``, ``stop``, ``teardown``, ``__exit__`` or ``__del__``);
  otherwise the instance has no way to release what it owns.

The check is presence-based (flow-insensitive): a teardown call anywhere
in the scope satisfies it.  Putting the call in a ``finally`` block — or
using ``with`` — is what actually guarantees every exit path, and is
what the fix should look like.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..lintkit import Finding
from .program import ClassInfo, FunctionInfo, ModuleInfo, Program

#: Class-docstring marker declaring a program class a tracked resource.
RESOURCE_MARKER = "rtscheck: resource"

RULES: Dict[str, str] = {
    "lc-unclosed-resource": (
        "pools/channels/handles created in a scope must reach "
        "close()/shutdown() there or have ownership transferred out"
    ),
    "lc-missing-teardown": (
        "classes storing pools/channels/handles in attributes must "
        "define a teardown method (close/shutdown/stop)"
    ),
}

#: Constructor dotted name -> (display name, teardown method names).
_BUILTIN_RESOURCES: Dict[str, Tuple[str, Set[str]]] = {
    "concurrent.futures.ProcessPoolExecutor": (
        "ProcessPoolExecutor", {"shutdown"}
    ),
    "concurrent.futures.ThreadPoolExecutor": (
        "ThreadPoolExecutor", {"shutdown"}
    ),
    "multiprocessing.Pool": ("multiprocessing.Pool", {"close", "terminate"}),
}

_MARKED_TEARDOWNS = {"close", "shutdown", "stop"}
_CLASS_TEARDOWNS = {
    "close", "shutdown", "stop", "teardown", "__exit__", "__del__",
}


def run(program: Program) -> List[Finding]:
    out: List[Finding] = []
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules[info.module]
        out.extend(_check_function(program, info, module))
    return out


def _resource_ctor(
    call: ast.Call, module: ModuleInfo, program: Program
) -> Optional[Tuple[str, Set[str]]]:
    """(display name, teardown names) when ``call`` builds a resource."""
    func = call.func
    dotted: Optional[str] = None
    if isinstance(func, ast.Name):
        if func.id == "open":
            return ("open()", {"close"})
        dotted = module.imports.get(func.id)
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = module.imports.get(func.value.id)
        if base is not None:
            dotted = f"{base}.{func.attr}"
    if dotted in _BUILTIN_RESOURCES:
        return _BUILTIN_RESOURCES[dotted]
    cls = _constructed_marked_class(func, module, program)
    if cls is not None:
        return (cls.name, set(_MARKED_TEARDOWNS))
    return None


def _constructed_marked_class(
    func: ast.AST, module: ModuleInfo, program: Program
) -> Optional[ClassInfo]:
    name: Optional[str] = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        name = f"{func.value.id}.{func.attr}"
    if name is None:
        return None
    cls = program.resolve_class(module, name)
    if cls is not None and RESOURCE_MARKER in (
        ast.get_docstring(cls.node) or ""
    ):
        return cls
    return None


def _check_function(
    program: Program, info: FunctionInfo, module: ModuleInfo
) -> List[Finding]:
    out: List[Finding] = []
    with_names = _with_bound_names(info.node)
    #: local name -> (ctor line/col, display, teardowns, is_collection)
    tracked: Dict[str, Tuple[int, int, str, Set[str], bool]] = {}

    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            resource = _direct_or_comprehension_ctor(
                node.value, module, program
            )
            if resource is None:
                continue
            display, teardowns, is_collection = resource
            if isinstance(target, ast.Name):
                if target.id in with_names:
                    continue
                tracked[target.id] = (
                    node.value.lineno, node.value.col_offset,
                    display, teardowns, is_collection,
                )
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                out.extend(
                    _check_class_storage(program, info, module, node.value)
                )
        elif isinstance(node, ast.Call):
            # xs.append(Resource(...)) — collection or attribute storage.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "add", "insert")
            ):
                for arg in node.args:
                    if not isinstance(arg, ast.Call):
                        continue
                    resource = _resource_ctor(arg, module, program)
                    if resource is None:
                        continue
                    receiver = node.func.value
                    if isinstance(receiver, ast.Name):
                        tracked.setdefault(
                            receiver.id,
                            (
                                arg.lineno, arg.col_offset,
                                resource[0], resource[1], True,
                            ),
                        )
                    elif isinstance(receiver, ast.Attribute):
                        out.extend(
                            _check_class_storage(program, info, module, arg)
                        )

    for name in sorted(tracked):
        line, col, display, teardowns, is_collection = tracked[name]
        if _reaches_teardown(info.node, name, teardowns, is_collection):
            continue
        how = "/".join(sorted(teardowns))
        out.append(
            Finding(
                path=module.path,
                line=line,
                col=col,
                rule="lc-unclosed-resource",
                message=(
                    f"{display} assigned to {name!r} never reaches "
                    f"{how}() in this scope and is not handed off; use "
                    "a with block or close it in a finally"
                ),
            )
        )
    return out


def _direct_or_comprehension_ctor(
    value: ast.AST, module: ModuleInfo, program: Program
) -> Optional[Tuple[str, Set[str], bool]]:
    if isinstance(value, ast.Call):
        resource = _resource_ctor(value, module, program)
        if resource is not None:
            return (resource[0], resource[1], False)
        return None
    if isinstance(value, (ast.ListComp, ast.List)):
        elements: Iterable[ast.AST] = (
            [value.elt] if isinstance(value, ast.ListComp) else value.elts
        )
        for element in elements:
            if isinstance(element, ast.Call):
                resource = _resource_ctor(element, module, program)
                if resource is not None:
                    return (resource[0], resource[1], True)
    return None


def _with_bound_names(fn_node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    out.add(item.optional_vars.id)
    return out


def _reaches_teardown(
    fn_node: ast.AST, name: str, teardowns: Set[str], is_collection: bool
) -> bool:
    for node in ast.walk(fn_node):
        # x.shutdown() / xs.clear-style direct teardown on the name.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in teardowns
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
        # Ownership transfer out of the scope: the resource itself (or
        # a container shipping it) is returned, yielded, re-bound, or
        # handed to a callee.  Merely *using* it (``pool.submit(...)``)
        # does not transfer ownership.
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _transfers(node.value, name):
                return True
        if isinstance(node, ast.Assign):
            if _transfers(node.value, name) and not _is_self_reference(
                node, name
            ):
                return True
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if _transfers(arg, name):
                    return True
        # for p in xs: p.close() — teardown of a resource collection.
        if is_collection and isinstance(node, ast.For):
            if _mentions(node.iter, name) and isinstance(
                node.target, ast.Name
            ):
                loop_var = node.target.id
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in teardowns
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == loop_var
                    ):
                        return True
    return False


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _transfers(node: ast.AST, name: str) -> bool:
    """Does this expression hand the resource itself onward?

    The name alone, a literal container holding it, a starred spread of
    it, or a conditional choosing it — but not an arbitrary expression
    that merely uses it.
    """
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return any(_transfers(elt, name) for elt in node.elts)
    if isinstance(node, ast.Dict):
        return any(
            value is not None and _transfers(value, name)
            for value in node.values
        )
    if isinstance(node, ast.Starred):
        return _transfers(node.value, name)
    if isinstance(node, ast.IfExp):
        return _transfers(node.body, name) or _transfers(node.orelse, name)
    return False


def _is_self_reference(assign: ast.Assign, name: str) -> bool:
    """``x = x`` shaped no-ops do not transfer ownership."""
    return (
        isinstance(assign.value, ast.Name)
        and assign.value.id == name
        and all(
            isinstance(t, ast.Name) and t.id == name for t in assign.targets
        )
    )


def _check_class_storage(
    program: Program, info: FunctionInfo, module: ModuleInfo, value: ast.AST
) -> List[Finding]:
    """``self.x = Resource(...)`` requires the class to own a teardown."""
    if not isinstance(value, ast.Call) or info.class_name is None:
        return []
    resource = _resource_ctor(value, module, program)
    if resource is None:
        return []
    owner = module.classes.get(info.class_name)
    if owner is None:
        return []
    for cls in program.class_mro(owner):
        if any(method in cls.methods for method in _CLASS_TEARDOWNS):
            return []
    return [
        Finding(
            path=module.path,
            line=value.lineno,
            col=value.col_offset,
            rule="lc-missing-teardown",
            message=(
                f"class {owner.name} stores a {resource[0]} in an "
                "attribute but defines no teardown method "
                "(close/shutdown/stop)"
            ),
        )
    ]

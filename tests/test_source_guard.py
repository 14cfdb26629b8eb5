"""A lint pass over the library's own source, with the standard library's ast alone.

Each name has one home: a module imports only what it uses, and every name
in an annotation is bound in the module. A name bound only under
`if TYPE_CHECKING:` is bound for a type checker alone, so typing.get_type_hints
cannot resolve an annotation that reads it: GUARDED pins the functions that
may, and get_type_hints must resolve on every other function and class the
library defines.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import typing
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scv"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, anywhere in the module, to its line; __future__ is not a name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _type_checking(node: ast.stmt) -> bool:
    """An `if TYPE_CHECKING:` block, whose names a type checker alone binds."""
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def _module_bound(body: list[ast.stmt]) -> set[str]:
    """The names the module's own statements bind, through if (not TYPE_CHECKING), try and with."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if _type_checking(node):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = [node.target]
        elif isinstance(node, ast.With):
            targets = [item.optional_vars for item in node.items if item.optional_vars]
        bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for field in ("body", "orelse", "finalbody", "handlers"):
            bound |= _module_bound(getattr(node, field, []))
    return bound


def _guard_only(tree: ast.Module) -> set[str]:
    """The names bound under a module-level `if TYPE_CHECKING:` alone."""
    guarded = set().union(*(_module_bound(n.body) for n in tree.body if _type_checking(n)))
    return guarded - _module_bound(tree.body)


def _annotations(node: ast.AST, owner: str = "") -> list[tuple[str, ast.expr]]:
    """Each annotation under node, with the qualified name of the def or class it is in."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{owner}.{child.name}" if owner else child.name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [(inner, a.annotation) for a in every if a is not None and a.annotation]
            found += [(inner, child.returns)] if child.returns is not None else []
        elif isinstance(child, ast.AnnAssign):
            found.append((owner, child.annotation))
        found += _annotations(child, inner)
    return found


def _names_in(annotation: ast.expr) -> set[str]:
    """The base names an annotation reads; a quoted one is parsed as the expression it holds."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _names_in(ast.parse(node.value, mode="eval").body)
    return names


# the functions whose annotations read a name bound only for a type checker, by module
GUARDED = {"sweeps.execute_task", "sweeps.run_tasks"}


def test_every_import_is_used_and_every_annotation_is_bound():
    problems, guarded = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for name, line in _imported(tree).items():
            if name not in read:
                problems.append(f"{path.name}:{line}: {name} is imported and never used")
        bound, guard_only = _module_bound(tree.body) | set(dir(builtins)), _guard_only(tree)
        for owner, annotation in _annotations(tree):
            for name in sorted(_names_in(annotation) - bound):
                if name in guard_only:
                    guarded.add(f"{path.stem}.{owner}")
                else:
                    problems.append(f"{path.name}:{annotation.lineno}: {name} is not bound")
    assert problems == []
    assert guarded == GUARDED


def _defined(module) -> list:
    """The functions and classes the module defines, with each class's own functions."""
    found = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__ or not callable(value):
            continue
        found.append(value)
        if inspect.isclass(value):
            found += [v for v in vars(value).values() if inspect.isfunction(v)]
    return found


def test_type_hints_resolve_on_every_function_and_class_but_the_guarded():
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("scv" if path.stem == "__init__" else f"scv.{path.stem}")
        for value in _defined(module):
            try:
                typing.get_type_hints(value)
            except NameError:
                unresolved.append(f"{path.stem}.{value.__qualname__}")
    assert sorted(unresolved) == sorted(GUARDED)


# start-up: what the interpreter's core does not load stays out of every module, and what
# only some runs need is imported inside the function that needs it
NEVER_IMPORTED = ("typing", "pathlib")
NOT_AT_IMPORT = ("re", "json", "argparse", "dataclasses", "fractions")


def _loaded_by(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement may load, by full name; a relative one is in scv."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module if not node.level else "scv" + (f".{node.module}" if node.module else "")
    return [base, *(f"{base}.{alias.name}" for alias in node.names)]


def _run_at_import(node: ast.AST) -> set[ast.AST]:
    """node and the nodes under it that run as the module loads: all but function bodies."""
    found = {node}
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found |= _run_at_import(child)
    return found


def test_no_module_imports_what_a_run_has_no_use_for():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        at_import = _run_at_import(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for name in _loaded_by(node):
                top = name.split(".")[0]
                if top in NEVER_IMPORTED or name.split(".")[:2] == ["scv", "cli"]:
                    problems.append(f"{path.name}:{node.lineno}: imports {name}")
                elif top in NOT_AT_IMPORT and node in at_import:
                    problems.append(f"{path.name}:{node.lineno}: imports {name} at module level")
    assert problems == []

"""A lint pass over the library's own source, with the standard library's ast alone.

Each name has one home: a module imports only what it uses, and every name
in an annotation is bound in the module, so typing.get_type_hints resolves
on every function and class the library defines.
"""

from __future__ import annotations

import ast
import builtins
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


def _module_bound(body: list[ast.stmt]) -> set[str]:
    """The names the module's own statements bind, through if (TYPE_CHECKING too), try and with."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
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


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [a.annotation for a in every if a is not None and a.annotation is not None]
            found += [node.returns] if node.returns is not None else []
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
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


def test_every_import_is_used_and_every_annotation_is_bound():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for name, line in _imported(tree).items():
            if name not in read:
                problems.append(f"{path.name}:{line}: {name} is imported and never used")
        bound = _module_bound(tree.body) | set(dir(builtins))
        for annotation in _annotations(tree):
            for name in sorted(_names_in(annotation) - bound):
                problems.append(f"{path.name}:{annotation.lineno}: {name} is not bound")
    assert problems == []

"""Stand-in for ``ruff check`` where ruff is not installed (the build container).

Three findings, over every ``*.py`` under ``pyproject.toml``'s ruff ``src``
roots: an imported name that nothing uses (pyflakes' F401, the finding
every deletion PR leaves behind), a name in ``__all__`` that the module
does not bind (F822: what a deleted export leaves in an ``__init__.py``,
which the first rule exempts, and which only fails at ``from package
import *``) and a line longer than the configured ``line-length``.  CI
still runs the real ``ruff check``; this keeps the rules a PR most often
trips from waiting for it.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOTS = ("src", "tests", "benchmarks", "examples")

with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as _handle:
    LINE_LENGTH = int(re.search(r"^line-length = (\d+)$", _handle.read(),
                                re.MULTILINE).group(1))


def python_sources() -> Iterator[Tuple[str, str]]:
    """(repository-relative path, text) of every checked file."""
    for root in ROOTS:
        for directory, _, names in os.walk(os.path.join(ROOT, root)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        yield os.path.relpath(path, ROOT), handle.read()


def names_in(node: ast.AST) -> Set[str]:
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


def used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads: in code, in ``__all__``, and inside
    string annotations (``Optional["History"]``)."""
    used = names_in(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in ast.walk(node.value)
                     if isinstance(element, ast.Constant)
                     and isinstance(element.value, str)}
        annotations = [getattr(node, "annotation", None),
                       getattr(node, "returns", None)]
        for annotation in filter(None, annotations):
            for quoted in ast.walk(annotation):
                if isinstance(quoted, ast.Constant) \
                        and isinstance(quoted.value, str):
                    try:
                        used |= names_in(ast.parse(quoted.value, mode="eval"))
                    except SyntaxError:
                        pass  # a Literal["some text"], not a forward reference
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every import binding the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = used_names(tree)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                findings.append((node.lineno, bound))
    return findings


def exported_names(tree: ast.Module) -> List[Tuple[int, str]]:
    """(line, name) of every string in a module-level ``__all__ = [...]`` / ``+=``."""
    def assigns_all(node: ast.stmt) -> bool:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign) else [])
        return any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in targets)

    return [(element.lineno, element.value)
            for node in filter(assigns_all, tree.body)
            for element in ast.walk(node.value)
            if isinstance(element, ast.Constant) and isinstance(element.value, str)]


def module_bindings(body: List[ast.stmt]) -> Set[str]:
    """Every name module-level code binds: imports, assignments, ``def``/``class``,
    also inside ``if``/``try``/``with``/``for`` blocks; ``*`` for a star import."""
    bound: Set[str] = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            for field in ("targets", "target", "optional_vars"):
                targets = getattr(node, field, None) or []
                for target in targets if isinstance(targets, list) else [targets]:
                    bound |= {name.id for name in ast.walk(target)
                              if isinstance(name, ast.Name)}
            for field in ("body", "orelse", "finalbody", "handlers", "items"):
                bound |= module_bindings([child for child in getattr(node, field, [])
                                          if isinstance(child, ast.AST)])
    return bound


def unbound_exports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every ``__all__`` entry the module does not bind."""
    tree = ast.parse(source)
    bound = module_bindings(tree.body)
    if "*" in bound:
        return []  # a star import may bind anything
    return [(line, name) for line, name in exported_names(tree) if name not in bound]


def test_no_import_is_unused():
    findings = [f"{path}:{line}: {name!r} imported but unused"
                for path, source in python_sources()
                if os.path.basename(path) != "__init__.py"  # re-exports
                for line, name in unused_imports(source)]
    assert not findings, "\n".join(findings)


def test_every_exported_name_is_bound():
    findings = [f"{path}:{line}: {name!r} in __all__ but not bound in the module"
                for path, source in python_sources()
                for line, name in unbound_exports(source)]
    assert not findings, "\n".join(findings)


def test_the_export_rule_sees_a_dangling_name():
    source = ("from .entry import immunize\n"
              "try:\n    import fast\nexcept ImportError:\n    fast = None\n"
              "A, (B, C) = 1, (2, 3)\n"
              "__all__ = ['immunize', 'patched', 'fast', 'A', 'C']\n"
              "__all__ += ['gone']\n")
    assert unbound_exports(source) == [(7, "patched"), (8, "gone")]


def test_no_line_is_longer_than_the_configured_length():
    findings = [f"{path}:{number}: {len(line)} > {LINE_LENGTH} columns"
                for path, source in python_sources()
                for number, line in enumerate(source.splitlines(), 1)
                if len(line) > LINE_LENGTH]
    assert not findings, "\n".join(findings)

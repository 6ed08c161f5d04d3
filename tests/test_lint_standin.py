"""Stand-in for ``ruff check`` where ruff is not installed (the build container).

Two findings, over every ``*.py`` under ``pyproject.toml``'s ruff ``src``
roots: an imported name that nothing uses (pyflakes' F401, the finding
every deletion PR leaves behind) and a line longer than the configured
``line-length``.  CI still runs the real ``ruff check``; this keeps the
two rules a PR most often trips from waiting for it.
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


def test_no_import_is_unused():
    findings = [f"{path}:{line}: {name!r} imported but unused"
                for path, source in python_sources()
                if os.path.basename(path) != "__init__.py"  # re-exports
                for line, name in unused_imports(source)]
    assert not findings, "\n".join(findings)


def test_no_line_is_longer_than_the_configured_length():
    findings = [f"{path}:{number}: {len(line)} > {LINE_LENGTH} columns"
                for path, source in python_sources()
                for number, line in enumerate(source.splitlines(), 1)
                if len(line) > LINE_LENGTH]
    assert not findings, "\n".join(findings)

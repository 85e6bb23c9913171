"""No module under ``src/repro`` imports a name it never uses.

A static scan with the standard library's :mod:`ast`: every name an
``import`` binds must be read somewhere in the module, as a name or in a
string annotation.  Package ``__init__`` modules are skipped, since
re-exporting is their job.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind → the line that binds it."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [
            f"{path.relative_to(SOURCE)}:{line} {name}"
            for name, line in sorted(_imported(tree).items())
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)

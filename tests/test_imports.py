"""Import guard: the package imports only the standard library, numpy and
itself, and every name it imports is used."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ftmixer").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ftmixer"}


def imports(tree):
    """(module root or None for a relative import, bound name) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                yield root, alias.asname or root
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            root = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield root, alias.asname or alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_used_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = list(imports(tree))
    foreign = sorted({root for root, _ in found if root is not None and root not in ALLOWED})
    assert not foreign, f"{path.name} imports {foreign}"
    if path.name == "__init__.py":  # its imports are the package's re-exports
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted({name for _, name in found if name not in used})
    assert not unused, f"{path.name} imports unused {unused}"

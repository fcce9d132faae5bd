"""Import hygiene of the package sources: no module imports a name it never
uses, and the package exports exactly what its ``__init__`` imports."""

import ast
from pathlib import Path

import pytest

import nlasim

SOURCES = sorted(Path(nlasim.__file__).parent.glob("*.py"))


def _imported_names(tree) -> list:
    """Names bound by the module's imports, in order; ``__future__``
    imports bind nothing."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append(alias.asname or alias.name.split(".")[0])
    return names


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_all_lists_exactly_the_imports():
    tree = ast.parse(Path(nlasim.__file__).read_text())
    assert nlasim.__all__ == ["__version__", *_imported_names(tree)]

"""Import hygiene of the package sources: no module imports a name it never
uses, the package exports exactly what its ``__init__`` imports, and no
private helper or module constant is left with no reader."""

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


def _private_and_constants(tree):
    """Private top-level functions and module-level constants, each with
    the node that defines it."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


def _is_read(name, definition, trees) -> bool:
    """Whether any source reads ``name``, by name or as an attribute,
    outside the node that defines it."""
    todo = list(trees)
    while todo:
        node = todo.pop()
        if node is definition:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id == name:
                return True
        elif isinstance(node, ast.Attribute) and node.attr == name:
            return True
        todo.extend(ast.iter_child_nodes(node))
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_orphan_helper_or_constant(path):
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    own = trees[SOURCES.index(path)]
    orphans = [
        name
        for name, node in _private_and_constants(own)
        if not _is_read(name, node, trees)
    ]
    assert not orphans, f"{path.name} defines {orphans} but nothing reads them"

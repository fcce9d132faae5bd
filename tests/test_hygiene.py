"""Import hygiene of the package sources: no module imports a name it never
uses or a package beyond the standard library and numpy, the package exports
exactly what its ``__init__`` imports, no private helper or module constant
is left with no reader, and only ``fock`` sizes a run."""

import ast
import sys
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_needs_only_numpy(path):
    # pyproject.toml promises a numpy-only runtime; scipy is for the tests
    allowed = set(sys.stdlib_module_names) | {"numpy", "nlasim"}
    foreign = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        foreign += [m for m in modules if m.split(".")[0] not in allowed]
    assert not foreign, f"{path.name} imports {foreign}"


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


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "fock.py"], ids=lambda p: p.name
)
def test_only_fock_sizes_a_run(path):
    # every cutoff rule and byte budget lives in fock's sizing section:
    # elsewhere no minimal cutoff is computed and no size is compared
    # against a MAX_*_BYTES limit (passing one to _refuse_above is fine)
    sizing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and _name(node.func) in (
            "minimal_coherent_cutoff",
            "minimal_epr_cutoff",
        ):
            sizing.append(f"line {node.lineno}: {_name(node.func)}")
        elif isinstance(node, ast.Compare):
            for operand in ast.walk(node):
                name = _name(operand) or ""
                if name.startswith("MAX_") and name.endswith("_BYTES"):
                    sizing.append(f"line {node.lineno}: compares with {name}")
    assert not sizing, f"{path.name} sizes a run outside fock.py: {sizing}"


@pytest.mark.parametrize("name", ["nla.py", "optics.py"])
def test_pure_state_modules_import_no_density_operator(name):
    # the amplifier and the loss act on pure states; a mixed state is built
    # only where a subcommand reads one, from a factor it already holds
    tree = ast.parse((Path(nlasim.__file__).parent / name).read_text())
    assert "DensityOperator" not in _imported_names(tree)


def test_tables_read_purity_off_the_sectors():
    # distill and fig4 take distill_numeric's sector report; purity_product
    # on the c**2 x c factor stays for general two-mode states and the tests
    tree = ast.parse((Path(nlasim.__file__).parent / "experiments.py").read_text())
    assert "purity_product" not in _imported_names(tree)

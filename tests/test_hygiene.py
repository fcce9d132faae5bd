"""Import hygiene of the package sources: no module imports a name it never
uses or a package beyond the standard library and numpy, the package exports
exactly what its ``__init__`` imports, no private helper or module constant
is left with no reader, only ``fock`` sizes a run or checks an argument's
range, no module calls ``numpy.linalg``, only the oracle sweep makes a
random generator and every cache is bounded."""

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


def _refusals(tree):
    """(top-level definition, line, message text) of every raise of a
    ValueError, one of the package's ValueErrors or a TypeError whose
    message is a literal or an f-string; the text keeps only its literal
    parts."""
    errors = {
        "ValueError", "TypeError", "ConfigError", "NonconvergentError", "TruncationError"
    }
    for top in tree.body:
        for node in ast.walk(top):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(exc, ast.Call) and _name(exc.func) in errors and exc.args):
                continue
            message = exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                yield getattr(top, "name", None), node.lineno, message.value
            elif isinstance(message, ast.JoinedStr):
                literal = [p.value for p in message.values if isinstance(p, ast.Constant)]
                yield getattr(top, "name", None), node.lineno, "".join(literal)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_validators_say_must(path):
    # which arguments the library takes is decided by fock's two
    # validators, _count and _real; anywhere else a "must" in a refusal is
    # a range check of its own
    allowed = {"_count", "_real"} if path.name == "fock.py" else set()
    own = [
        f"line {line}: {text!r}"
        for top, line, text in _refusals(ast.parse(path.read_text()))
        if "must" in text and top not in allowed
    ]
    assert not own, f"{path.name} checks arguments outside the validators: {own}"


def test_refusal_scan_reads_literals_and_f_strings():
    source = (
        "def f(x):\n"
        "    raise ValueError(f'{x} must be >= 1')\n"
        "    raise nlasim.ConfigError('x must lie in [0, 1]')\n"
        "    raise TypeError(message)\n"
    )
    assert list(_refusals(ast.parse(source))) == [
        ("f", 2, " must be >= 1"),
        ("f", 3, "x must lie in [0, 1]"),
    ]


@pytest.mark.parametrize("name", ["nla.py", "optics.py"])
def test_pure_state_modules_import_no_density_operator(name):
    # the amplifier and the loss act on pure states; a mixed state is built
    # only where a subcommand reads one, from a factor it already holds
    tree = ast.parse((Path(nlasim.__file__).parent / name).read_text())
    assert "DensityOperator" not in _imported_names(tree)


def test_tables_read_purity_off_the_sectors():
    # distill and fig4 take distill_numeric's sector report; the factor
    # route purity_product is the tests' reference, in conftest, and no
    # library module defines or imports it
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        names = _imported_names(tree) + [
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        ]
        assert "purity_product" not in names, f"{path.name} defines or imports it"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_linear_algebra(path):
    # the library works on factors and closed forms; eigensolvers, SVDs
    # and norms of numpy.linalg belong to the tests' dense references
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            calls.append(f"line {node.lineno}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""]
            modules += [alias.name for alias in node.names]
            if any("linalg" in m.split(".") for m in modules):
                calls.append(f"line {node.lineno}: import")
    assert not calls, f"{path.name} uses numpy.linalg: {calls}"


def test_only_the_oracle_sweep_draws_random_numbers():
    # the CLI runs verify alone on a seed; every other number the library
    # prints is a function of its flags
    sites = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _name(node.func) == "default_rng":
                    sites.append((path.name, getattr(top, "name", None)))
    assert sites == [("verification.py", "oracle_equivalence_report")]


def _unbounded_caches(tree) -> list:
    """Lines of every functools.cache and of every lru_cache without an
    integer maxsize, given literally or as a module constant."""
    constants = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sizes = [k.value for k in node.keywords if k.arg == "maxsize"]
            sizes += node.args[:1]
            size = sizes[0] if sizes else None
            if isinstance(size, ast.Name):
                size = constants.get(size.id)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                lines.append(node.lineno)
        elif _name(node) == "cache" or (
            _name(node) == "lru_cache" and id(node) not in called
        ):
            # functools.cache, or lru_cache as a bare decorator
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # an unbounded cache grows for the life of the process
    lines = _unbounded_caches(ast.parse(path.read_text()))
    assert not lines, f"{path.name} has an unbounded cache at lines {lines}"


@pytest.mark.parametrize(
    "source, unbounded",
    [
        ("@functools.lru_cache(maxsize=64)\ndef f(n): pass", []),
        ("LIMIT = 5\n@lru_cache(LIMIT)\ndef f(n): pass", []),
        ("@functools.cache\ndef f(n): pass", [1]),
        ("@functools.lru_cache\ndef f(n): pass", [1]),
        ("@functools.lru_cache(maxsize=None)\ndef f(n): pass", [1]),
        ("@functools.lru_cache(typed=True)\ndef f(n): pass", [1]),
        ("f = functools.cache(g)", [1]),
    ],
)
def test_unbounded_cache_check_sees_every_form(source, unbounded):
    assert _unbounded_caches(ast.parse(source)) == unbounded

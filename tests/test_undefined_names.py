"""Every global name a function in the package reads must exist, and
every name a module imports must be read.

No linter runs on the package, and a function body that reads an
undefined global fails only when a call reaches that line. The compiler's
symbol tables list each scope's global reads without running anything.
The converse check reads each module's syntax tree: an import no line
reads is left over from code that has gone, and so is a module-level
private function, class or constant that no other line of the package
reads. ``__init__`` imports only to export, so it is exempt. The same
trees show that only ``spd_core`` names the pair-cache slot, and that only
its converter ``_float_array`` turns an array-like into a float array.
"""

import ast
import builtins
import importlib
import symtable
from pathlib import Path

import pytest

import kronbures

SOURCES = sorted(Path(kronbures.__file__).parent.glob("*.py"))


def _global_reads(table):
    """(scope name, symbol name) for each global read in the nested scopes."""
    for child in table.get_children():
        for sym in child.get_symbols():
            if sym.is_global() and sym.is_referenced():
                yield child.get_name(), sym.get_name()
        yield from _global_reads(child)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_function_globals_resolve(path):
    module = importlib.import_module(f"kronbures.{path.stem}")
    table = symtable.symtable(path.read_text(), str(path), "exec")
    missing = sorted(
        (scope, name)
        for scope, name in set(_global_reads(table))
        if not hasattr(module, name) and not hasattr(builtins, name)
    )
    assert missing == []


def _unread_imports(path):
    """Names a module binds by import and reads nowhere, sorted."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_imports_are_read(path):
    assert _unread_imports(path) == []


def _name_reads(path):
    """(name, line) for each name a module loads, bare or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            node.ctx, ast.Load
        ):
            yield (node.id if isinstance(node, ast.Name) else node.attr), node.lineno


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_defs(path, kinds):
    """(name, definition node) for each module-level private name of path
    that a statement of one of kinds binds: a def or class by its name, an
    assignment by each bare name it targets."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, kinds):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        yield from ((name, node) for name in names if _private(name))


def _unread_private(path, kinds):
    """Module-level private names of path bound by kinds that no line of the
    package outside their own definition reads, sorted."""
    reads = {(p, name, line) for p in SOURCES for name, line in _name_reads(p)}
    return sorted(
        defined
        for defined, d in _private_defs(path, kinds)
        if not any(
            name == defined and not (p == path and d.lineno <= line <= d.end_lineno)
            for p, name, line in reads
        )
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_functions_are_read(path):
    # A private helper whose last caller has gone is dead code that no
    # test of the public API reaches.
    assert _unread_private(path, ast.FunctionDef) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_classes_and_constants_are_read(path):
    # A private class or constant (a tolerance, a column list, a table)
    # whose last reader has gone is left over in the same way.
    assert _unread_private(path, (ast.ClassDef, ast.Assign, ast.AnnAssign)) == []


def _memo_mentions(path):
    """Line numbers where a module names the pair-cache slot ``_memo``, as a
    name, an attribute or a string."""
    tree = ast.parse(path.read_text())
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_memo")
        or (isinstance(node, ast.Attribute) and node.attr == "_memo")
        or (isinstance(node, ast.Constant) and node.value == "_memo")
    )


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "spd_core.py"], ids=lambda p: p.name
)
def test_pair_cache_slot_is_named_only_in_spd_core(path):
    # spd_core._leave and _take decide who keys, who clears and how long a
    # slot lives; every other module goes through them.
    assert _memo_mentions(path) == []


CONVERTING_MODULES = (
    "spd_core.py",
    "bures_metric.py",
    "kron_model.py",
    "closure_diagnostics.py",
    "barycenter.py",
)


def _is_float(node):
    return isinstance(node, ast.Name) and node.id == "float"


def _conversion_kind(node):
    """'asarray' or 'array' for a np.asarray / np.array call with dtype float,
    'astype' for an .astype(float) call, 'dtype.kind' for a dtype kind test,
    else None."""
    if isinstance(node, ast.Attribute) and node.attr == "kind":
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "dtype":
            return "dtype.kind"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    name = node.func.attr
    dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
    if name in ("asarray", "array"):
        dtypes += node.args[1:2]
    elif name == "astype":
        dtypes += node.args[:1]
    else:
        return None
    return name if any(_is_float(d) for d in dtypes) else None


def _conversions(tree):
    """(enclosing function, kind) for each float conversion in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        kind = _conversion_kind(node)
        if kind is not None:
            found.append((scope, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", CONVERTING_MODULES)
def test_array_likes_are_converted_only_by_the_converter(name):
    # spd_core._float_array is the one owner of the array-like rule; every
    # other path reaches numpy through it.
    path = Path(kronbures.__file__).parent / name
    found = _conversions(ast.parse(path.read_text()))
    if name == "spd_core.py":
        want = [("_float_array", "astype"), ("_float_array", "dtype.kind")]
        assert sorted(found) == want
    else:
        assert found == []

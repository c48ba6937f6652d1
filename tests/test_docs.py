"""The docstring examples of every module run as tests, the modules pass
an import lint, a raise lint and a cache lint written with the standard
library alone, and the README names every public name."""
import ast
import doctest
import functools
import importlib
import pathlib
import pkgutil
import re

import rackq

SOURCES = sorted(pathlib.Path(rackq.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples_pass():
    names = [info.name for info in pkgutil.iter_modules(rackq.__path__)]
    modules = [rackq, *(importlib.import_module(f"rackq.{name}") for name in names)]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 5


def _imported_names(tree) -> set:
    """The names a module binds by import, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_modules_use_every_name_they_import():
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(rackq.__all__)
        assert _imported_names(tree) <= used, (path.name, _imported_names(tree) - used)


# The raises outside the RackError family, as (module, function, exception):
# each is the type a protocol requires of that function.
PROTOCOL_RAISES = {
    ("tableio", "report_object", "TypeError"),  # the json.dumps default hook
    ("cli", "_ascii_int", "argparse.ArgumentTypeError"),  # an argparse type
}


def _raises(node, func=None):
    """(innermost enclosing function, exception expression) for each
    ``raise X`` under ``node``; a bare ``raise`` re-raises and is skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            yield func, child.exc
        yield from _raises(child, child.name if isinstance(child, ast.FunctionDef) else func)


def test_library_raises_only_rack_errors():
    outside = []
    for path in SOURCES:
        module = rackq if path.stem == "__init__" else importlib.import_module(f"rackq.{path.stem}")
        for func, exc in _raises(ast.parse(path.read_text())):
            name = ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)
            raised = eval(name, vars(module))  # the name as the module resolves it
            if isinstance(raised, type) and issubclass(raised, rackq.RackError):
                continue
            if (path.stem, func, name) not in PROTOCOL_RAISES:
                outside.append(f"{path.name}:{exc.lineno} {func} raises {name}")
    assert not outside


# The module-level functions under functools.cache or lru_cache, by
# decorator or by a call such as ``f = lru_cache(maxsize=None)(g)``, as
# (module, function, cache), each with the bound on what it holds.
# Per-table facts live on the table, not in caches keyed by whole tables.
BOUNDED_CACHES = {
    # Keyed by the closed forms of <= MAX_ORDER points; (g, g⁻¹) as bytes.
    # It stays at module level: a copy per search builds 172 centralizers
    # in the 13 searches of the census benchmark where this builds 83, and
    # a copy per call makes canonical_form on 753 relabeled representatives
    # of orders 1-7 twice as slow (0.16-0.17 s against 0.077-0.081 s, best
    # of 5 on 2 vCPUs).
    ("enumeration", "_centralizer", "lru_cache(maxsize=None)"),
    ("obstructions", "_factorize", "lru_cache(maxsize=4096)"),
    ("cli", "build_parser", "cache"),  # no arguments: one entry
}


def _cache_text(node, namespace):
    """The source of ``node`` if it names functools.cache or lru_cache or
    calls one, else None."""
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, (ast.Name, ast.Attribute)):
        if eval(ast.unparse(func), namespace) in (functools.cache, functools.lru_cache):
            return ast.unparse(node)
    return None


def _module_caches(tree, namespace):
    """(function, cache) for each module-level cache in ``tree``, whose
    names resolve in ``namespace``: a decorated function, or an assignment
    of a cache's call such as ``f = lru_cache(maxsize=None)(g)``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                if text := _cache_text(deco, namespace):
                    yield node.name, text
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if text := _cache_text(node.value.func, namespace):
                yield from ((ast.unparse(target), text) for target in node.targets)


def test_module_level_caches_are_bounded():
    found = set()
    for path in SOURCES:
        module = rackq if path.stem == "__init__" else importlib.import_module(f"rackq.{path.stem}")
        for func, text in _module_caches(ast.parse(path.read_text()), vars(module)):
            found.add((path.stem, func, text))
    assert found == BOUNDED_CACHES


def test_cache_lint_sees_caches_made_by_a_call():
    snippet = """
from functools import cache, lru_cache

def g(x):
    return x

f = lru_cache(maxsize=None)(g)
h = cache(g)
decorator = lru_cache(maxsize=8)  # what it decorates would slip past
plain = len(g.__name__)
"""
    found = set(_module_caches(ast.parse(snippet), vars(functools)))
    assert found == {("f", "lru_cache(maxsize=None)"), ("h", "cache"), ("decorator", "lru_cache")}


def test_all_lists_exactly_the_imported_names():
    init = next(path for path in SOURCES if path.name == "__init__.py")
    assert set(rackq.__all__) == _imported_names(ast.parse(init.read_text()))


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in rackq.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing

"""The docstring examples of every module run as tests, the modules pass
an import lint written with the standard library alone, and the README
names every public name."""
import ast
import doctest
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


def test_all_lists_exactly_the_imported_names():
    init = next(path for path in SOURCES if path.name == "__init__.py")
    assert set(rackq.__all__) == _imported_names(ast.parse(init.read_text()))


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in rackq.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing

"""The docstring examples of every module run as tests."""
import doctest
import importlib
import pkgutil

import rackq


def test_docstring_examples_pass():
    names = [info.name for info in pkgutil.iter_modules(rackq.__path__)]
    modules = [rackq, *(importlib.import_module(f"rackq.{name}") for name in names)]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 5

"""The examples in the library's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import nearsym


def test_every_docstring_example_holds():
    # nearsym.__main__ runs the CLI when imported, and holds no examples
    names = ["nearsym"] + [
        f"nearsym.{info.name}" for info in pkgutil.iter_modules(nearsym.__path__)
        if info.name != "__main__"
    ]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) > 0

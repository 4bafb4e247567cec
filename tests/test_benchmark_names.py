"""The benchmark's children look parkfact names up by dotted path; a name
deleted from the package fails every child.  The lists are read from the
benchmark's sources with ast, so the benchmark is never imported here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import parkfact

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def constant(file: str, name: str):
    module = ast.parse((PERFBENCH / file).read_text())
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{file} defines no {name}")


def resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"parkfact.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"parkfact.{dotted}: no {attr}"
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("file, name", [
    ("child.py", "CACHES"), ("run.py", "KERNELS"), ("run.py", "GENERATORS"),
])
def test_every_name_resolves(file, name):
    dotted_names = constant(file, name)
    assert dotted_names
    for dotted in dotted_names:
        assert callable(resolve(dotted)), dotted


def test_every_cache_has_cache_info():
    for dotted in constant("child.py", "CACHES"):
        assert callable(getattr(resolve(dotted), "cache_info", None)), dotted


def test_every_process_wide_cache_is_listed():
    # the benchmark child checks that each listed cache starts cold; a
    # module-level functools.cache missing from the list would go unseen
    found = set()
    for info in pkgutil.iter_modules(parkfact.__path__):
        module = importlib.import_module(f"parkfact.{info.name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found.add(f"{info.name}.{attr}")
    assert found == set(constant("child.py", "CACHES"))

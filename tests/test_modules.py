"""Each public name has one home: the module whose `__all__` lists it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hkverify

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(hkverify.__path__))


def _defined_names(path):
    """Names bound at module level by def, class or assignment, not by import."""
    names = set()
    for node in ast.parse(Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"hkverify.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public), "duplicate __all__ entries"
    missing = [n for n in public if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    imported = sorted(set(public) - _defined_names(module.__file__))
    assert not imported, f"{name}.__all__ re-exports names defined elsewhere: {imported}"


def test_submodules_are_found():
    assert {"cli", "hypersurface", "identities", "normalflow", "symfun"} <= set(SUBMODULES)

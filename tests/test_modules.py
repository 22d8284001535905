"""Each public name has one home: the module whose `__all__` lists it, and
scipy's submodules load only with the work that needs them."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
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


def _referenced_names(*roots):
    """Every identifier used as an ast.Name or as an ast.Attribute's attr
    in the .py files under `roots`."""
    names = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_public_names_are_used_outside_tests():
    """Each name in a submodule's `__all__` is used by the package or the
    benchmark, so no public route serves tests alone.

    The match is by bare identifier: an import, a definition or an
    `__all__` string is not a use, but any Name or attribute of the same
    spelling is, whatever object it reaches.  So the guard cannot see a
    function whose name a property, method or local shares (the removed
    graph-route `weighted_volume(graph)` passed because of
    `geom.weighted_volume`), nor a use through getattr with a string.
    """
    src = Path(hkverify.__file__).parent
    used = _referenced_names(src, src.parents[1] / "perfbench")
    unused = {name: sorted(set(getattr(importlib.import_module(f"hkverify.{name}"),
                                       "__all__", [])) - used)
              for name in SUBMODULES}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}


def test_submodules_are_found():
    assert {"cli", "hypersurface", "identities", "normalflow", "symfun"} <= set(SUBMODULES)


def _module_level_imports(path):
    """Modules a file imports when it is itself imported: every import
    outside a function body, `from a import b` counted as both a and a.b."""
    found = set()
    pending = list(ast.parse(Path(path).read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return found


def _importers(package):
    src = Path(hkverify.__file__).parent
    return {path.stem for path in src.glob("*.py")
            if any(m == package or m.startswith(package + ".")
                   for m in _module_level_imports(path))}


def test_scipy_submodules_load_only_where_needed():
    # scipy.special (~0.3 s to load) serves one lpmv call and scipy.spatial
    # (~0.1 s) only the flow, so neither may load with the package
    assert _importers("scipy.spatial") == {"normalflow"}
    assert _importers("scipy.special") == set()


COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hkverify
from hkverify import cli, identities
from hkverify.hypersurface import gen_perturbed_sphere, gen_sphere, save_surface

def scipy_loaded():
    return sorted({"scipy.special", "scipy.spatial"} & set(sys.modules))

seen = {"import": scipy_loaded()}
identities.tolerance_table()
graph = gen_sphere(1.0, grid=(16, 32))
assert identities.run_verification(graph).all_passed()
save_surface(graph, sys.argv[2])
assert cli.main(["verify", "--surface", sys.argv[2]]) == 0
seen["verify"] = scipy_loaded()
gen_perturbed_sphere(1.0, 0.05, (2, 0), grid=(16, 32))
seen["perturbed"] = scipy_loaded()
seen["flow_names"] = hkverify.verify_flow is hkverify.normalflow.verify_flow
seen["dir_covers_all"] = set(hkverify.__all__) <= set(dir(hkverify))
print(json.dumps(seen))
"""


def test_cold_start_loads_no_scipy_submodule(tmp_path):
    # a fresh interpreter: this one has loaded everything already
    src = str(Path(hkverify.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", COLD_START, src, str(tmp_path / "s.json")],
                         capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["verify"] == []
    assert seen["perturbed"] == ["scipy.special"]
    assert seen["flow_names"] and seen["dir_covers_all"]


def test_flow_names_resolve_lazily():
    from hkverify import normalflow

    for name in ("FlowParticles", "FlowTrace", "verify_flow"):
        assert getattr(hkverify, name) is getattr(normalflow, name)
        assert name not in vars(hkverify)       # delegated, never bound
    namespace = {}
    exec("from hkverify import *", namespace)
    assert set(hkverify.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        hkverify.missing

"""The package surface: every exported name exists, no module reaches
into another's private names, and every function the bench harness
traces is still there, with one decision-path counter per rule."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import treeshift
from treeshift.moments import _THEOREM_RULES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "treeshift"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                 if p.stem not in ("__init__", "__main__"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_every_exported_name_resolves(module):
    mod = (treeshift if module == "__init__"
           else importlib.import_module(f"treeshift.{module}"))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _cross_module_private_names(source: str) -> list[str]:
    """``from .x import _y``, ``from treeshift.x import _y`` and
    ``x._y`` on a package module ``x`` imported by name."""
    tree = ast.parse(source)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.level > 0 or (node.module or "").startswith(
            "treeshift")
        if not package:
            continue
        for alias in node.names:
            if _private(alias.name):
                found.append(f"{node.lineno}: imports {alias.name}")
            if not node.module or node.module == "treeshift":
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append(f"{node.lineno}: reads "
                         f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", ["__init__", "__main__", *MODULES])
def test_no_module_imports_a_private_name_of_another(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _cross_module_private_names(source) == []


def test_the_scan_sees_every_kind_of_private_import():
    source = (
        "from .trees import _first\n"
        "from treeshift.shifts import DEFAULT_TOL, _frozen\n"
        "from . import trees\n"
        "from numpy import _globals\n"
        "full = trees._is_full, trees.__all__\n")
    assert _cross_module_private_names(source) == [
        "1: imports _first", "2: imports _frozen", "5: reads trees._is_full"]


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(f"treeshift.{layer}"),
                              name)]
    assert not missing
    traced = {f"{layer}.{name}" for layer, names in tracer.TRACED.items()
              for name in names}
    assert set(tracer.HOOKS) <= traced
    tracer.Tracer()  # looks every traced name up, as the harness does
    # one decision_path counter per rule, in the order they are tried
    assert tracer.DECISION_PATHS == (
        *(path for path, _ in _THEOREM_RULES), "generic-moment-test")

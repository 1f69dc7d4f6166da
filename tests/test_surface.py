"""The package surface: every exported name exists, no module reaches
into another's private names, no module imports a name it never reads,
and every function the bench harness traces is still there, with one
decision-path counter per rule."""
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


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads (``from
    __future__`` and star imports aside)."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in bound
                  if name not in read]
    return found


def test_no_module_imports_a_name_it_never_reads():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py")]
    assert sorted(f"{path.relative_to(ROOT)}:{found}" for path in paths
                  for found in _unused_imports(
                      path.read_text(encoding="utf-8"))) == []


def test_the_unused_import_scan_sees_each_binding():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np, sys\n"
        "from .trees import *\n"
        "from math import pi, tau\n"
        "print(os, tau)\n")
    assert _unused_imports(source) == ["3: np", "3: sys", "5: pi"]


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

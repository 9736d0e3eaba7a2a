"""The public surface: every module's `__all__` and every name the benchmark scripts bind.

The benchmark's tracer wraps functions by name (`_SPANNED`, `_COUNTED` in
`bench/tracing.py`), and `bench/baseline.py` calls the package by name, so a
deleted name breaks a traced run that no other test makes.  The scripts are
read from their files; nothing under `bench/` is imported as a module.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import expsub

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ["expsub"] + sorted(f"expsub.{m.name}" for m in pkgutil.iter_modules(expsub.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_gives_every_name_in_all(module):
    names = {}
    exec(f"from {module} import *", names)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= set(names)


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing_names", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    spanned = [
        (modname, attr)
        for modname, attrs in tracing._SPANNED.values()
        for attr in ((attrs,) if isinstance(attrs, str) else attrs)
    ]
    assert spanned and tracing._COUNTED
    for modname, attr in spanned:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for modname, cls, meth in tracing._COUNTED.values():
        assert callable(getattr(getattr(importlib.import_module(modname), cls), meth)), (cls, meth)


def test_every_expsub_name_the_bench_scripts_use_resolves():
    tree = ast.parse((BENCH / "baseline.py").read_text(encoding="utf-8"))
    called = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "ex"}
    assert called and all(hasattr(expsub, name) for name in called), called
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("expsub"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name) or importlib.util.find_spec(f"{node.module}.{alias.name}"), (
                        path.name, node.module, alias.name,
                    )

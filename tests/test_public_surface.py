"""The public surface: every module's `__all__` and every name the benchmark scripts bind.

The benchmark's tracer wraps functions by name (`_SPANNED`, `_COUNTED` in
`bench/tracing.py`), and `bench/baseline.py` calls the package by name, so a
deleted name breaks a traced run that no other test makes.  The scripts are
read from their files; nothing under `bench/` is imported as a module.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
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


def _fresh(code: str) -> str:
    """The stdout of `code` run by a fresh interpreter that imports this checkout's expsub."""
    src = str(Path(expsub.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


LOADED = "print(sorted(m for m in sys.modules if m.startswith('expsub.')))"
SUBMODULES = ["catalog", "checker", "cli", "engine", "files", "lattice", "symbols"]


def test_import_loads_no_heavy_or_exact_arithmetic_module():
    # `import expsub` stays light: every CLI run pays for it, and exact or
    # symbolic arithmetic loads only where a caller asks for it
    heavy = ("sympy", "scipy", "mpmath", "fractions", "decimal")
    assert _fresh(f"import sys, expsub; print(sorted(set({heavy!r}) & set(sys.modules)))") == "[]"


def test_import_loads_no_submodule_and_files_load_only_what_they_read(tmp_path):
    assert _fresh(f"import sys, expsub; {LOADED}") == "[]"
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(expsub.scheme_file_for_catalog("butterfly", lam=(0.5, 0.25))))
    space = tmp_path / "space.json"
    space.write_text(json.dumps(expsub.butterfly((0.5, 0.25)).space.to_json_obj()))
    code = f"import sys, expsub; expsub.DilationMatrix(2); expsub.load_scheme({str(scheme)!r}); "
    code += f"expsub.load_space({str(space)!r}); {LOADED}"
    assert _fresh(code) == str([f"expsub.{m}" for m in ("catalog", "files", "lattice", "symbols")])


def test_every_package_name_is_its_defining_modules_object():
    assert len(set(expsub.__all__)) == len(expsub.__all__) == 54
    modules = [importlib.import_module(f"expsub.{m}") for m in SUBMODULES]
    for name in expsub.__all__:
        (owner,) = [mod for mod in modules if name in getattr(mod, "__all__", ())]
        assert getattr(expsub, name) is getattr(owner, name), name
    assert set(expsub.__all__) | set(SUBMODULES) <= set(dir(expsub))


def test_submodules_resolve_after_a_bare_import_and_unknown_names_raise():
    code = "import expsub; print(expsub.engine.__name__, expsub.cli.__name__); expsub.no_such_name"
    with pytest.raises(subprocess.CalledProcessError) as exc:
        _fresh(code)
    assert exc.value.stdout.strip() == "expsub.engine expsub.cli"
    assert "AttributeError: module 'expsub' has no attribute 'no_such_name'" in exc.value.stderr


def test_first_use_from_many_threads_gives_each_thread_the_same_objects():
    code = """
import sys, threading, expsub
sys.setswitchinterval(1e-6)
barrier, got = threading.Barrier(8), {}
def work(i):
    barrier.wait()
    got[i] = tuple(id(getattr(expsub, name)) for name in expsub.__all__)
threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(sum(t.is_alive() for t in threads), len(got), len(set(got.values())))
"""
    assert _fresh(code) == "0 8 1"


def test_package_names_follow_a_monkeypatched_module():
    original = expsub.checker.check_reproduction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expsub.checker, "check_reproduction", patched := lambda *args: None)
        assert expsub.check_reproduction is patched
    assert expsub.check_reproduction is original

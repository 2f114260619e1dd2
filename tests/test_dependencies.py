"""`import repro` needs numpy and the standard library, nothing else.

Also a static guard on what the models import (see
:func:`test_no_model_imports_the_factorised_join`).

The README and CI install numpy, pytest and hypothesis only, so a module that
imports anything more fails every test file at collection there.  Each check
runs in a fresh interpreter: the test process may already hold the module.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def _python(code: str) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_repro_succeeds_without_scipy():
    # A None entry makes every `import scipy...` raise ImportError.
    result = _python('import sys; sys.modules["scipy"] = None; import repro')
    assert result.returncode == 0, result.stderr


def test_import_repro_loads_no_scipy_module():
    result = _python(
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _imported_modules(path: Path):
    return _imports_of(path.read_text(), path.parent.relative_to(SRC).parts)


def _imports_of(source: str, package: tuple):
    """Every module ``source`` imports, lazy imports too: a relative import is
    resolved against ``package``, and ``from a import b`` yields ``a`` and ``a.b``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_module_under_src_repro_imports_scipy():
    """Also the imports a plain ``import repro`` does not run (lazy ones)."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for module in _imported_modules(path)
        if module == "scipy" or module.startswith("scipy.")
    ]
    assert offenders == []


def test_no_model_imports_the_factorised_join():
    """Models read the bag join the engine reads: the factorised join is a set,
    so a row stored twice would count once there (Figures 3 and 7-10 only)."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted((PACKAGE / "ml").rglob("*.py"))
        for module in _imported_modules(path)
        if module == "repro.factorized" or module.startswith("repro.factorized.")
    ]
    assert offenders == []


def test_the_import_scan_sees_lazy_relative_and_from_imports():
    source = (
        "def f():\n"
        "    from ..factorized import frepr\n"
        "    from repro import factorized\n"
        "    import repro.factorized.factorize\n"
    )
    assert set(_imports_of(source, ("repro", "ml"))) == {
        "repro.factorized", "repro.factorized.frepr", "repro", "repro.factorized.factorize",
    }


def test_every_package_export_resolves():
    packages = sorted(path.parent for path in PACKAGE.rglob("__init__.py"))
    assert packages
    for package in packages:
        name = ".".join(package.relative_to(SRC).parts)
        module = importlib.import_module(name)
        missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        assert missing == [], f"{name}.__all__ names what it lacks: {missing}"

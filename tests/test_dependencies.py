"""`import repro` needs numpy and the standard library, nothing else.

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
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_under_src_repro_imports_scipy():
    """Also the imports a plain ``import repro`` does not run (lazy ones)."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for module in _imported_modules(path)
        if module == "scipy" or module.startswith("scipy.")
    ]
    assert offenders == []


def test_every_package_export_resolves():
    packages = sorted(path.parent for path in PACKAGE.rglob("__init__.py"))
    assert packages
    for package in packages:
        name = ".".join(package.relative_to(SRC).parts)
        module = importlib.import_module(name)
        missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        assert missing == [], f"{name}.__all__ names what it lacks: {missing}"

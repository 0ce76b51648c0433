"""Every ``repro`` import in the example and benchmark scripts resolves.

No test runs these scripts, so a deleted or renamed module would leave
them broken until someone ran them by hand.  Each file is parsed with
:mod:`ast` (its body is never executed) and every ``import repro...`` /
``from repro... import name`` is resolved through :mod:`importlib`.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path
    for folder in ("examples", "benchmarks")
    for path in (ROOT / folder).glob("*.py")
)


def _repro_imports(path):
    """``(line, module, name)`` for each repro import; ``name`` may be None."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def test_scripts_found():
    assert {path.parent.name for path in SCRIPTS} == {"examples", "benchmarks"}


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_repro_imports_resolve(path):
    unresolved = []
    for line, module_name, name in _repro_imports(path):
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            unresolved.append(f"line {line}: {module_name} ({exc})")
            continue
        if name is None or name == "*" or hasattr(module, name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            unresolved.append(f"line {line}: {module_name}.{name}")
    assert not unresolved, unresolved

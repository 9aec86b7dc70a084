"""Source-level contracts of the package, checked on its syntax trees.

Invariants raise ContractViolationError rather than relying on assert,
which python -O strips; and no module reaches into another module's
private (underscore) names, so each module's internals can change alone.
"""

import ast
from pathlib import Path

import pytest

import henon_annulus

PACKAGE = Path(henon_annulus.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "minimize.py", "mountain_pass.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    found = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        within_package = node.level > 0 or (node.module or "").split(".")[0] == "henon_annulus"
        if within_package:
            found += [f"{node.lineno}: {alias.name}" for alias in node.names if _private(alias.name)]
    assert found == [], f"{path.name} imports private names: {found}"

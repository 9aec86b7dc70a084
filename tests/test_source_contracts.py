"""Source-level contracts of the package, checked on its syntax trees.

Invariants raise ContractViolationError rather than relying on assert,
which python -O strips; no module reaches into another module's private
(underscore) names, so each module's internals can change alone; every
module-level function, class and constant is used somewhere; and no
module imports a concurrency library, so the package runs in one thread
and its per-grid cache needs no lock.
"""

import ast
import re
from pathlib import Path

import pytest

import henon_annulus

PACKAGE = Path(henon_annulus.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


CONCURRENCY_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_concurrency_import(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{node.lineno}: {n}" for n in names if n.split(".")[0] in CONCURRENCY_MODULES]
    assert found == [], f"{path.name} imports concurrency modules: {found}"


def _definitions(tree: ast.Module):
    """(name, node) of every module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _references(node: ast.AST) -> set[str]:
    """Names node uses: loaded names, attributes, imports, identifier strings.

    Strings count because names are also reached through getattr,
    monkeypatch and __all__.
    """
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def test_no_unreferenced_module_names():
    """Every module-level name of the package is reached from a user.

    Users are the package's module-level statements outside definitions,
    the tests, the benchmark and pyproject.toml (which names cli.entry).
    A name used only inside definitions that are themselves unreferenced
    counts as unreferenced too.
    """
    definitions: dict[str, list[ast.AST]] = {}
    live = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", (ROOT / "pyproject.toml").read_text()))
    for path in MODULES:
        tree = _tree(path)
        defined = list(_definitions(tree))
        for name, node in defined:
            definitions.setdefault(name, []).append(node)
        inside = {id(node) for _, node in defined}
        for node in tree.body:
            if id(node) not in inside:
                live |= _references(node)
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        live |= _references(_tree(path))
    live |= {name for name in definitions if name.startswith("__") and name.endswith("__")}
    pending = list(live)
    while pending:
        for node in definitions.get(pending.pop(), []):
            new = _references(node) - live
            live |= new
            pending += new
    unreferenced = sorted(set(definitions) - live)
    assert unreferenced == [], f"module-level names nothing uses: {unreferenced}"

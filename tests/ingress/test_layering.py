"""``repro.ingress`` sits below ``repro.chaos``: the chaos runner drives
the plane, never the other way round.

An ingress module may name chaos types for annotations only, inside an
``if TYPE_CHECKING:`` block; any other import of ``repro.chaos`` (absolute
or relative, at module level or inside a function) fails this test.
"""

import ast
from pathlib import Path

INGRESS = Path(__file__).resolve().parents[2] / "src" / "repro" / "ingress"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST):
    """Every import statement not guarded by ``if TYPE_CHECKING:``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = node.module or ""
    if node.level == 0:
        return [module]
    # Relative to repro.ingress: one dot is the package, two is repro.
    base = ["repro", "ingress"][: 3 - node.level]
    target = ".".join(base + ([module] if module else []))
    if module:
        return [target]
    return [f"{target}.{alias.name}" for alias in node.names]


def test_ingress_imports_no_chaos_at_runtime():
    modules = sorted(INGRESS.glob("*.py"))
    assert {path.name for path in modules} >= {
        "__init__.py", "aio.py", "events.py", "mailbox.py", "plane.py",
    }
    offenders = [
        (path.name, name)
        for path in modules
        for node in _runtime_imports(ast.parse(path.read_text()))
        for name in _imported_modules(node)
        if name == "repro.chaos" or name.startswith("repro.chaos.")
    ]
    assert not offenders, f"runtime imports of repro.chaos: {offenders}"


def test_the_guard_sees_a_relative_import_and_skips_type_checking():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..chaos.world import ChaosWorld\n"
        "def f():\n"
        "    from .. import chaos\n"
        "    from ..chaos.invariants import InvariantChecker\n"
    )
    names = [
        name
        for node in _runtime_imports(ast.parse(source))
        for name in _imported_modules(node)
    ]
    assert "repro.chaos.world" not in names
    assert {"repro.chaos", "repro.chaos.invariants"} <= set(names)

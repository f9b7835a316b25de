"""Every public name of src/qdecouple has a caller a user runs.

A module-level function or class counts as used when a top-level statement
of src/qdecouple other than its own definition, or a demo, references it as
a name or an attribute.  A public method or property of a public class
counts as used when a statement of src/qdecouple other than its own
definition (another member of its class included), or a demo, references
its name.  The __init__.py re-exports do not count; cli.main is the
console-script entry point.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qdecouple").glob("*.py"))
            if p.name != "__init__.py"}


def _demo_names() -> set[str]:
    return set().union(*(_names(ast.parse(p.read_text())) for p in (ROOT / "demos").glob("*.py")))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = _modules()
    refs = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    demos = _demo_names()
    unused = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (module, node.name) != ("cli", "main") and node.name not in demos
        and not any(node.name in names for stmt, names in refs if stmt is not node)
    ]
    assert unused == []


def test_every_public_method_has_a_caller_outside_the_tests():
    modules = _modules()
    demos = _demo_names()
    # class members are statements of their own, so a method's own body never counts for it
    refs = [(stmt, _names(stmt)) for tree in modules.values() for top in tree.body
            for stmt in (top.body if isinstance(top, ast.ClassDef) else [top])]
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in demos
        and not any(node.name in names for stmt, names in refs if stmt is not node)
    ]
    assert unused == []

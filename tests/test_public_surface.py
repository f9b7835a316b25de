"""Every public module-level function and class of src/qdecouple has a caller a user runs.

A name counts as used when a top-level statement of src/qdecouple other than
its own definition, or a demo, references it as a name or an attribute.  The
__init__.py re-exports do not count; cli.main is the console-script entry point.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qdecouple").glob("*.py"))
               if p.name != "__init__.py"}
    refs = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    demos = set().union(*(_names(ast.parse(p.read_text())) for p in (ROOT / "demos").glob("*.py")))
    unused = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (module, node.name) != ("cli", "main") and node.name not in demos
        and not any(node.name in names for stmt, names in refs if stmt is not node)
    ]
    assert unused == []

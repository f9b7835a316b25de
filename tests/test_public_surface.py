"""Every public name of src/qdecouple has a caller a user runs.

A module-level function or class counts as used when a top-level statement
of src/qdecouple other than its own definition, or a demo, references it as
a name or an attribute.  A public method of a public class counts as used
when a statement of src/qdecouple other than its own definition (another
member of its class included), or a demo, calls it as x.m(...); a public
property counts when such a statement reads it as x.p.  A bare name (a
local variable) or an attribute of the same name that is only assigned
does not count.  The __init__.py re-exports do not count; cli.main is the
console-script entry point.  The last tests check two design rules the
same way: every SVD goes through spans._svd, and no library routine stands
in for the package's own kernels.
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


def _member_uses(node: ast.AST) -> tuple[set[str], set[str]]:
    """Attribute names node calls as x.m(...), and attribute names it reads as x.p."""
    calls = {n.func.attr for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    reads = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return calls, reads


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _demos() -> list[ast.Module]:
    return [ast.parse(p.read_text()) for p in sorted((ROOT / "demos").glob("*.py"))]


def _demo_names() -> set[str]:
    return set().union(*(_names(tree) for tree in _demos()))


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
    # class members are statements of their own, so a method's own body never counts for it
    stmts = [stmt for tree in modules.values() for top in tree.body
             for stmt in (top.body if isinstance(top, ast.ClassDef) else [top])]
    refs = [(stmt, _member_uses(stmt)) for stmt in [*stmts, *_demos()]]
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in (reads if _is_property(node) else calls)
                    for stmt, (calls, reads) in refs if stmt is not node)
    ]
    assert unused == []


_SVD_CALLS = {"np.linalg.svd", "numpy.linalg.svd", "scipy.linalg.svd"}


def _dotted(node: ast.AST) -> str:
    """'a.b.c' for an attribute chain on a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_every_svd_goes_through_the_spans_driver():
    # one SVD driver, spans._svd (LAPACK dgesdd with info checked): no module
    # calls NumPy's or SciPy's svd or imports it by name, and only the driver
    # and its workspace query name dgesdd
    found = []
    for module, tree in _modules().items():
        driver = {id(n) for fn in tree.body if module == "spans" and isinstance(fn, ast.FunctionDef)
                  and fn.name in ("_svd", "_svd_lwork") for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _dotted(node.func) in _SVD_CALLS:
                found.append(f"{module}: {_dotted(node.func)}")
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
                found += [f"{module}: from {node.module} import svd" for a in node.names if a.name == "svd"]
            if isinstance(node, ast.Name) and node.id == "dgesdd" and id(node) not in driver:
                found.append(f"{module}: dgesdd outside the driver")
    assert found == []


# exponentials come from algebra._eigh (unitary_stepper, unitary_exponential),
# least squares and ranks from spans._svd, fits in closed form
_BYPASSES = {"lstsq", "pinv", "matrix_rank", "polyfit", "expm", "qr"}


def test_no_library_routine_bypasses_the_package_kernels():
    """src/ names none of lstsq, pinv, matrix_rank, polyfit, expm or qr, called or imported.

    QR factorizations go straight to LAPACK (dgeqp3 and dgeqrf in spans).
    The two library factorizations that stay, each for a job no kernel of
    the package does: np.linalg.norm(., 2) in observation._spectral_margins
    (the spectral norm of a complex matrix, which the real-only spans._svd
    does not take, and a Frobenius bound would loosen the certificate), and
    scipy.linalg.logm in simulate.effective_direction_overlap (the
    maneuver's generator).
    """
    found = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _BYPASSES:
                found.append(f"{module}:{node.lineno}: {_dotted(node)}")
            if isinstance(node, ast.ImportFrom):
                found += [f"{module}:{node.lineno}: from {node.module} import {a.name}"
                          for a in node.names if a.name in _BYPASSES]
    assert found == []

"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``, so every module under
``src/pseudotelepathy/`` may import only the standard library and the
package itself (numpy, for one, is a test dependency only).  The imports
are read from the source, so a guarded or lazy import counts as well.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pseudotelepathy"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(path: Path) -> set[str]:
    """The top-level names of every absolute import in the module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_the_standard_library(path):
    allowed = set(sys.stdlib_module_names) | {"pseudotelepathy"}
    assert sorted(imported_roots(path) - allowed) == []


def imported_modules(path: Path) -> set[str]:
    """The dotted name of every module the module imports, and of every
    name it imports from a module (which may itself be a module); relative
    imports are resolved within the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["pseudotelepathy", base]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_certificate_verifier_imports_nothing_from_planarity():
    """``check_trace`` is the certificate's independent verifier: it must not
    borrow the embedder's code, faces or darts."""
    planarity = "pseudotelepathy.planarity"
    imported = imported_modules(PACKAGE / "certificate.py")
    assert imported and sorted(
        m for m in imported if m == planarity or m.startswith(planarity + ".")) == []

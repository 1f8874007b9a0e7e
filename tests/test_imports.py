"""Every name a library module imports is used in that module.

No linter runs on the package, so this is the unused-import lint: deleting
the last caller of an imported name must delete the import as well.  The
package `__init__.py` is skipped, since its imports are the re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import momentpde

PACKAGE = Path(momentpde.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {imported[name]})"
            for name in sorted(imported.keys() - used)]


def test_the_lint_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "math (line 1)", "path (line 2)"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []

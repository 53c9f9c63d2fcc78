"""The package is stdlib-only: each of its modules imports nothing but the
standard library and dbmorph itself."""

import ast
import sys
from pathlib import Path

import pytest

import dbmorph

PACKAGE = Path(dbmorph.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "dbmorph", f"{path.name} imports {name}"

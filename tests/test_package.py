"""The package is stdlib-only: each of its modules imports nothing but the
standard library and dbmorph itself, uses every name it imports, and
defines every name it exports."""

import ast
import importlib
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


def _annotation_names(node):
    """Names in an annotation, those inside quoted parts included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield from _annotation_names(arg.annotation)
            if node.returns is not None:
                yield from _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            yield from _annotation_names(node.annotation)


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_modules_use_every_name_they_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set(_used_names(tree)) | _exported_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    assert not unused, f"{path.name} imports {', '.join(unused)} without using them"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    # tools that wrap a module's API look each ``__all__`` entry up by name
    name = "dbmorph" if path.stem == "__init__" else f"dbmorph.{path.stem}"
    module = importlib.import_module(name)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = sorted(n for n in _exported_names(tree) if not hasattr(module, n))
    assert not missing, f"{path.name} exports {', '.join(missing)}, which it does not define"

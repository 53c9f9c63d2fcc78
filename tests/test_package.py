"""The package is stdlib-only: each of its modules imports nothing but the
standard library and dbmorph itself, imports only the modules before it
in the pipeline order, uses every name it imports,
defines every name it exports and refers to every function and class it
defines; the README's library example runs."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import dbmorph

PACKAGE = Path(dbmorph.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


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


# The pipeline order of the modules: each imports only earlier ones.
LAYERS = (
    "errors", "model", "irdb", "logic", "dsl", "operads",
    "interp", "saturation", "flux", "project", "cli",
)


def test_modules_import_only_earlier_layers():
    # only module-level imports count: one under ``if TYPE_CHECKING:`` is
    # not run, so ``model`` may name ``logic`` there for typing
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py") == sorted(LAYERS)
    later = [
        f"{stem} → {node.module}"
        for rank, stem in enumerate(LAYERS)
        for node in ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and LAYERS.index(node.module) >= rank
    ]
    assert not later, f"imports of a later layer: {', '.join(later)}"


# Definitions kept although nothing in the package refers to them, by
# module-qualified name, each with its reason.
UNCALLED_KEPT = {
    # the composed flux waits for the diagram law test (ROADMAP item 7)
    "flux.in_composed_flux",
}


def _definitions(tree, stem):
    """(qualified name, node, class name or None) of every function and
    class in one module, nested ones included; a method's class is the
    class whose body defines it."""
    def walk(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child, owner
                inner = child.name if isinstance(child, ast.ClassDef) else None
                yield from walk(child, f"{prefix}.{child.name}", inner)
            else:
                yield from walk(child, prefix, owner)
    yield from walk(tree, stem, None)


def _field_classes(trees, classes):
    """Field name -> class, for each class field that every class
    declaring it annotates with the same package class."""
    annotated: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        kind = ast.unparse(item.annotation).strip("'\"")
                        annotated.setdefault(item.target.id, set()).add(kind)
    return {f: kinds.pop() for f, kinds in annotated.items() if len(kinds) == 1 and kinds <= classes}


def test_every_definition_is_referred_to_in_the_package():
    # A module-level or nested definition is referred to by a name loaded in
    # its own module or imported from it; a method by an attribute of its
    # name, where ``x.field.name`` counts only for the class ``field`` is
    # annotated with.  The ``__all__`` lists are strings and count for
    # nothing, and ``__init__.py`` only re-exports.
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    definitions = [d for stem, tree in modules.items() for d in _definitions(tree, stem)]
    methods = {(owner, node.name) for _, node, owner in definitions if owner}
    classes = {node.name for _, node, _ in definitions if isinstance(node, ast.ClassDef)}
    field_class = _field_classes(modules.values(), classes)
    loaded = {stem: set() for stem in modules}
    imported = set()
    attributes = set()
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded[stem].add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                receiver = node.value
                owner = field_class.get(receiver.attr) if isinstance(receiver, ast.Attribute) else None
                attributes.add((owner, node.attr) if (owner, node.attr) in methods else node.attr)

    def referred(qualified, name, owner):
        if owner:
            return name in attributes or (owner, name) in attributes
        stem = qualified.split(".")[0]
        return name in loaded[stem] or (stem, name) in imported

    uncalled = {
        qualified
        for qualified, node, owner in definitions
        if not referred(qualified, node.name, owner)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        # ``main`` dispatches the handlers by name
        and not qualified.startswith("cli.cmd_")
    }
    stale = sorted(UNCALLED_KEPT - uncalled)
    assert not stale, (
        f"{', '.join(stale)} need not be kept: the package refers to them or no longer defines them"
    )
    uncalled = sorted(uncalled - UNCALLED_KEPT)
    assert not uncalled, f"nothing in the package refers to {', '.join(uncalled)}"


def test_the_readme_library_example_runs(monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)  # its paths are relative to the repository root
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["verdict"] == "equal"

"""A mutation survey of one module: which small faults does no test notice?

    python3 tools/mutation_survey.py src/dbmorph/dsl.py tests/test_dsl.py

One mutant at a time, made with ``ast``: one comparison's first operator
swapped (``==``/``!=``, ``<``/``<=``, ``>``/``>=``, ``in``/``not in``,
``is``/``is not``), one ``and``/``or`` swapped, or one ``not`` dropped.
Each is written by ``ast.unparse`` into a copy of the repository and run
against the given test files with ``-x``; one that survives them is run
against all of ``tests/``.  Prints each mutant, the survivors and the time
taken.  A survey takes minutes per module: run it by hand, never in CI.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = {ast.Eq: ast.NotEq, ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.In: ast.NotIn, ast.Is: ast.IsNot}
SWAP.update({new: old for old, new in list(SWAP.items())})
SWAP.update({ast.And: ast.Or, ast.Or: ast.And})


def sites(tree: ast.AST) -> list:
    """The nodes a mutant changes, in ``ast.walk`` order."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Compare, ast.BoolOp))
        or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not))
    ]


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: int):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if id(node) == self.target else node


def mutant(source: str, k: int) -> tuple:
    """The text of the k-th mutant of ``source`` and a one-line label."""
    tree = ast.parse(source)
    node = sites(tree)[k]
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[0] = SWAP[type(node.ops[0])]()
    elif isinstance(node, ast.BoolOp):
        node.op = SWAP[type(node.op)]()
    else:
        tree = _DropNot(id(node)).visit(tree)
        node = node.operand
    label = f"line {node.lineno}: {before[:60]} => {ast.unparse(node)[:60]}"
    return ast.unparse(tree), label


def passes(copy: Path, tests: list) -> bool:
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=copy, capture_output=True).returncode == 0


def main(argv=None) -> int:
    module, *tests = argv if argv is not None else sys.argv[1:]
    start = time.perf_counter()
    source = (ROOT / module).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".perfbench_*")
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if not passes(copy, ["tests"]):
            print("the unmutated module, as ast.unparse writes it, fails the tests")
            return 2
        survivors = []
        count = len(sites(ast.parse(source)))
        for k in range(count):
            text, label = mutant(source, k)
            target.write_text(text, encoding="utf-8")
            alive = passes(copy, tests) and passes(copy, ["tests"])
            print(("SURVIVED " if alive else "killed   ") + label, flush=True)
            survivors += [label] * alive
    print(f"{count} mutants, {len(survivors)} survivors, {time.perf_counter() - start:.0f} s")
    for label in survivors:
        print("  " + label)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Keep no function that only tests call.

Every function, method and class defined in ``src/segfl`` must be named
somewhere in ``src/`` or ``perfbench/`` outside its own definition: as a
name, an attribute, an imported name, or a string that is exactly the name
(``perfbench/tracing.py`` wraps attributes by their names).
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# Documented entry points that nothing in src/ or perfbench/ calls.
_ENTRY_POINTS = {
    "nnet.loss_and_grad",  # the gradient the finite-difference check (acceptance 4) reads
}


def _uses(tree: ast.AST):
    """(name, line) for every name a module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def test_every_src_definition_is_used_outside_tests():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "perfbench")
        for path in sorted((_ROOT / folder).rglob("*.py"))
    }
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "segfl":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                used == name and (other != path or line not in own)
                for other, found in uses.items()
                for used, line in found
            ):
                unused.append(f"{path.stem}.{name}")
    assert sorted(unused) == sorted(_ENTRY_POINTS)

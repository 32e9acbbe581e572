"""Keep no function or field that only tests use.

Every function, method and class defined in ``src/segfl`` must be named
somewhere in ``src/`` or ``perfbench/`` outside its own definition: as a
name, an attribute, an imported name, or a string that is exactly the name
(``perfbench/tracing.py`` wraps attributes by their names).  Every annotated
class field there must be read by name in ``src/`` or ``perfbench/``: as an
attribute load or as such a string.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# Documented entry points that nothing in src/ or perfbench/ calls.
_ENTRY_POINTS = {
    "nnet.loss_and_grad",  # the gradient the finite-difference check (acceptance 4) reads
}

# Documented fields that nothing in src/ or perfbench/ reads.
_READ_BY_USERS = {
    "orchestrator.ExperimentResult.timeline",  # README "Library use" reads it
}


def _trees() -> dict[Path, ast.AST]:
    return {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "perfbench")
        for path in sorted((_ROOT / folder).rglob("*.py"))
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
    trees = _trees()
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


def _reads(tree: ast.AST):
    """Every name a module reads as an attribute or names in an identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_src_field_is_read_outside_tests():
    trees = _trees()
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [
        f"{path.stem}.{cls.name}.{node.target.id}"
        for path, tree in trees.items()
        if path.parent.name == "segfl"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        if node.target.id not in read
    ]
    assert sorted(unread) == sorted(_READ_BY_USERS)

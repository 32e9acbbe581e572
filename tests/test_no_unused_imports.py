"""Keep no import that a module never uses.

Every name an ``import`` binds in ``src/segfl`` must be read somewhere in the
same module, or be listed in the module's ``__all__`` (the package's
re-exports). A leftover import keeps a dependency alive that no code needs.
"""

from __future__ import annotations

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "segfl"


def _imported(tree: ast.AST):
    """(name, line) for every name an import in the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``from a import b`` binds ``b``.
                bound = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    bound = bound.partition(".")[0]
                yield bound, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The names in a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def test_every_src_import_is_used():
    unused = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= _exported(tree)
        unused += [f"{path.name}:{line}: {n}" for n, line in _imported(tree) if n not in read]
    assert not unused, "imported but never used:\n" + "\n".join(unused)

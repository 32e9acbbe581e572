"""Keep no function, field, module-level name or parameter default that only tests use.

Every function, method and class defined in ``src/segfl`` must be named
somewhere in ``src/`` or ``perfbench/`` outside its own definition: as a
name, an attribute, an imported name, or a string that is exactly the name
(``perfbench/tracing.py`` wraps attributes by their names).  Every name a
module-level assignment there binds must be read in ``src/`` or ``perfbench/``
outside that statement: as a name or attribute load, or as such a string.
Every annotated class field there must be read by name in ``src/`` or
``perfbench/``: as an attribute load or as such a string.  Every parameter with
a default must be passed, by keyword or by position, by some call in ``src/``
or ``perfbench/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# Documented entry points that nothing in src/ or perfbench/ calls.
_ENTRY_POINTS: set[str] = set()

# Documented fields that nothing in src/ or perfbench/ reads.
_READ_BY_USERS = {
    "orchestrator.ExperimentResult.timeline",  # README "Library use" reads it
}

# Module-level names that nothing in src/ or perfbench/ reads.
_MODULE_NAMES_READ_ELSEWHERE = {
    "__init__.__all__",  # ``from segfl import *`` reads it
}

# Parameters with a default that no call in src/ or perfbench/ names, and why they stay.
_DEFAULTS_PASSED_ELSEWHERE = {
    "cli.cmd_run.seed": "main passes it through its variable `command`",
    "cli.cmd_run.out": "main passes it through its variable `command`",
    "cli.cmd_compare.seed": "main passes it through its variable `command`",
    "cli.cmd_compare.out": "main passes it through its variable `command`",
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


def _loads(tree: ast.AST):
    """(name, line) for every name a module loads, as a name, an attribute or a string."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield getattr(node, "id", None) or node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _bound(statement: ast.stmt):
    """The names a module-level assignment binds."""
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        targets = []
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id


def test_every_src_module_name_is_read_outside_tests():
    trees = _trees()
    loads = {path: list(_loads(tree)) for path, tree in trees.items()}
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "segfl":
            continue
        for statement in tree.body:
            own = range(statement.lineno, statement.end_lineno + 1)
            for name in _bound(statement):
                if not any(
                    used == name and (other != path or line not in own)
                    for other, found in loads.items()
                    for used, line in found
                ):
                    unread.append(f"{path.stem}.{name}")
    assert sorted(unread) == sorted(_MODULE_NAMES_READ_ELSEWHERE)


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in the trees by the name it calls: a name, or an attribute's name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes parameter ``name``, the ``position``-th positional one if any."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):  # None: **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_src_default_is_passed_outside_tests():
    trees = _trees()
    calls = _calls(trees)
    unpassed = []
    for path, tree in trees.items():
        if path.parent.name != "segfl":
            continue
        classes = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = classes.get(id(node))  # a method's self is not passed
            # __init__ is called by its class's name.
            called = cls.name if cls is not None and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            with_default = positional[len(positional) - len(node.args.defaults):]
            keywords = zip(node.args.kwonlyargs, node.args.kw_defaults)
            with_default += [arg for arg, default in keywords if default is not None]
            for arg in with_default:
                position = positional.index(arg) - (cls is not None) if arg in positional else None
                if not any(_passes(call, arg.arg, position) for call in calls.get(called, [])):
                    qualified = f"{cls.name}.{node.name}" if cls is not None else node.name
                    unpassed.append(f"{path.stem}.{qualified}.{arg.arg}")
    assert sorted(unpassed) == sorted(_DEFAULTS_PASSED_ELSEWHERE)

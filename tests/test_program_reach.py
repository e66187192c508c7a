"""Every module-level name and every method of the package serves the program.

A function, class or assignment at the top level of ``src/hopflab/*.py``,
and a method of a class defined there, must be referenced from ``src/``,
``scripts/`` or ``perfbench/`` somewhere other than inside its own
definition.  Code that only tests reach belongs in the tests, so this fails
when a routine loses its last program caller.  A method is matched by its
name alone: a reference to any attribute of that name counts.  A
module-level name read as an attribute counts only when it is read off a
module (``cohomology.b_apply``, ``hopflab.cli.main``), so a method that
shares its name (``field.make_root``) does not keep it reached.

A reference is a name load, an attribute, an imported name, or a string
constant that is exactly the name (``perfbench/child.py`` traces functions
by name).  The package's own re-exports, the imported names and the
``__all__`` strings of ``src/hopflab/__init__.py``, are not references: a
name that only they read is read by no program.  Dunder names are read by
the interpreter, not by the program, and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopflab"
PROGRAM_DIRS = ("src", "scripts", "perfbench")
MODULES = frozenset({"hopflab", *(path.stem for path in PACKAGE.glob("*.py"))})


def _definitions(tree: ast.Module):
    """(name, node) for every top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _methods(tree: ast.Module):
    """(name, node) for every function defined in the body of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, node


def _reexports(tree: ast.Module) -> set:
    """The import aliases and string constants of a package ``__init__``:
    the names it re-exports and lists in ``__all__``."""
    exports = [
        node
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        or (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    ]
    return {id(sub) for node in exports for sub in ast.walk(node) if isinstance(sub, (ast.alias, ast.Constant))}


def _owner(node: ast.expr) -> str | None:
    """The last name of the dotted expression an attribute is read off."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _references(tree: ast.Module, skip=frozenset(), owners=None):
    """(name, node) for every place a name is read, apart from the nodes in
    ``skip``; an attribute only when it is read off one of ``owners``, any
    attribute when that is None."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            if owners is None or _owner(node.value) in owners:
                yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node


def _inside(node: ast.AST, outer: ast.AST) -> bool:
    return outer.lineno <= node.lineno <= outer.end_lineno


def unreached_names(definitions=_definitions, owners=MODULES) -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in PROGRAM_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        skip = _reexports(tree) if path == PACKAGE / "__init__.py" else frozenset()
        for name, node in _references(tree, skip, owners):
            refs.setdefault(name, []).append((path, node))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(where != path or not _inside(node, definition) for where, node in refs.get(name, [])):
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_module_level_name_is_reached_by_the_program():
    assert unreached_names() == []


def test_every_method_is_reached_by_the_program():
    assert unreached_names(_methods, owners=None) == []

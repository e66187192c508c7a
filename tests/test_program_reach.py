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
by name).  A name load is resolved by its scope with ``symtable``, as the
interpreter resolves it: a parameter or local variable of a function, a
class body or a comprehension, or a free variable bound in an enclosing
function, is read there and is no reference to a module-level name it
shares (the local ``antipode`` of a table builder does not reach a function
``antipode``).  The package's own re-exports, the imported names and the
``__all__`` strings of ``src/hopflab/__init__.py``, are not references: a
name that only they read is read by no program.  Dunder names are read by
the interpreter, not by the program, and are not checked.
"""

import ast
import symtable
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


COMPREHENSIONS = {ast.ListComp: "listcomp", ast.SetComp: "setcomp", ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}


def _scope_parts(node: ast.AST):
    """(symtable name, outer, inner) for a node that opens a scope: the
    child nodes evaluated in the enclosing scope (decorators, defaults,
    annotations, bases, the first iterable of a comprehension) and those
    evaluated in its own; None for any other node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        outer = [*args.defaults, *args.kw_defaults, *(a.annotation for a in params if a)]
        if isinstance(node, ast.Lambda):
            return "lambda", outer, [node.body]
        return node.name, [*node.decorator_list, *outer, node.returns], node.body
    if isinstance(node, ast.ClassDef):
        return node.name, [*node.decorator_list, *node.bases, *node.keywords], node.body
    if type(node) in COMPREHENSIONS:
        first, *rest = node.generators
        inner = [getattr(node, "elt", None), getattr(node, "key", None), getattr(node, "value", None)]
        return COMPREHENSIONS[type(node)], [first.iter], [*inner, first.target, *first.ifs, *rest]
    return None


def _children(table: symtable.SymbolTable) -> dict:
    """The child scopes of ``table`` by (name, line), each list in reverse
    source order, so ``pop`` hands them out in source order."""
    out: dict = {}
    for child in reversed(table.get_children()):
        out.setdefault((child.get_name(), child.get_lineno()), []).append(child)
    return out


def _bound_in_scope(table: symtable.SymbolTable, name: str) -> bool:
    """Is ``name`` bound in the function, class or comprehension scope
    ``table``, or free there (bound in an enclosing function)?  A name
    that the table does not list (an annotation under ``from __future__
    import annotations``) is resolved at module level."""
    if table.get_type() == "module":
        return False
    try:
        symbol = table.lookup(name)
    except KeyError:
        return False
    return symbol.is_local() or symbol.is_free()


def _global_name_loads(node: ast.AST, table: symtable.SymbolTable, children: dict):
    """Every ``Name`` node under ``node`` that is read, not stored, and
    resolves to a module-level name: the part of each def, lambda, class
    and comprehension that runs in its own scope is looked up in that
    scope's table."""
    parts = _scope_parts(node)
    if parts is None:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if not _bound_in_scope(table, node.id):
                yield node
        for child in ast.iter_child_nodes(node):
            yield from _global_name_loads(child, table, children)
        return
    name, outer, inner = parts
    for child in filter(None, outer):
        yield from _global_name_loads(child, table, children)
    scope = children[(name, node.lineno)].pop()
    scope_children = _children(scope)
    for child in filter(None, inner):
        yield from _global_name_loads(child, scope, scope_children)


def _references(tree: ast.Module, table: symtable.SymbolTable, skip=frozenset(), owners=None):
    """(name, node) for every place a name is read, apart from the nodes in
    ``skip``: a name load only when it resolves to a module-level name; an
    attribute only when it is read off one of ``owners``, any attribute when
    that is None."""
    for node in _global_name_loads(tree, table, _children(table)):
        if id(node) not in skip:
            yield node.id, node
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute):
            if owners is None or _owner(node.value) in owners:
                yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node


def _inside(node: ast.AST, outer: ast.AST) -> bool:
    return outer.lineno <= node.lineno <= outer.end_lineno


def unreached_names(definitions=_definitions, owners=MODULES) -> list[str]:
    sources = {path: path.read_text() for top in PROGRAM_DIRS for path in sorted((ROOT / top).rglob("*.py"))}
    trees = {path: ast.parse(text, str(path)) for path, text in sources.items()}
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        skip = _reexports(tree) if path == PACKAGE / "__init__.py" else frozenset()
        table = symtable.symtable(sources[path], str(path), "exec")
        for name, node in _references(tree, table, skip, owners):
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


def test_name_loads_resolve_by_scope():
    """Only the loads that the interpreter resolves at module level count:
    not a parameter, a local, a comprehension or lambda variable, a class
    attribute read in its class body, or a free variable of an enclosing
    function; but a default, a decorator, a base class, the first iterable
    of a comprehension, a ``global`` and a name a method reads off the
    module do."""
    source = (
        "@deco\n"
        "def f(a, b=default, *args, c=kwdefault, **kw):\n"
        "    local = 1\n"
        "    def inner():\n"
        "        return a, local, shadowed_free\n"
        "    shadowed_free = [comp for comp in iterable if comp and a]\n"
        "    g = lambda lam, d=lamdefault: lam + local + outer_lambda\n"
        "    return local, args, kw, c, {k: v for k, v in pairs}\n"
        "class C(Base, metaclass=Meta):\n"
        "    attr = 1\n"
        "    other = attr\n"
        "    def meth(self):\n"
        "        global declared\n"
        "        return attr, declared, [m for m in (1,)]\n"
    )
    tree = ast.parse(source)
    table = symtable.symtable(source, "<snippet>", "exec")
    names = sorted(node.id for node in _global_name_loads(tree, table, _children(table)))
    assert names == sorted(
        ["deco", "default", "kwdefault", "iterable", "lamdefault", "outer_lambda", "pairs"]
        + ["Base", "Meta", "attr", "declared"]
    )

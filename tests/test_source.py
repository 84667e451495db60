"""Checks read off the package source rather than run."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latentgeom"


def loaded_names(node: ast.AST) -> Counter:
    # every read of a name, bare or as an attribute (model._numerical_rank)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def module_private_names(tree: ast.Module):
    # (name, defining node) for each private module-level def, class or
    # assignment; dunder names are not private
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_every_private_module_name_is_used_in_the_package():
    # a private helper that only tests call is dead code of the package
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    loads = sum((loaded_names(tree) for tree in trees), Counter())
    dead = [name for tree in trees
            for name, node in module_private_names(tree)
            if loads[name] == loaded_names(node)[name]]
    assert dead == []


def own_nodes(scope: ast.AST):
    # the nodes of a module or function, not those of the functions in it
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def imported_names(scope: ast.AST):
    # the names a module or function binds by its own import statements
    for node in own_nodes(scope):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_imported_name_is_read():
    # an import that nothing reads is dead code, and it costs a cold start
    # the module's load; the package imports ``errors`` for its namespace,
    # and ``model`` re-exports the two dimension types of ``shapes``
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
            reads = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            unread += [(path.name, name) for name in imported_names(scope)
                       if name not in reads]
    assert unread == [("__init__.py", "errors"), ("model.py", "Dims"),
                      ("model.py", "DimsCase")]


def loaded_modules(tree: ast.Module):
    # the modules a module imports as it loads: its import statements
    # outside functions and outside ``if TYPE_CHECKING:``
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from (f"latentgeom.{m}" for m in (
                [node.module] if node.module else [a.name for a in node.names]))
        elif isinstance(node, ast.ImportFrom):
            yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_dims_path_binds_no_numpy_at_module_level():
    # a ``dims`` start loads ``cli`` and ``shapes``: neither may load numpy,
    # nor a package module that does, until a handler runs
    for name in ("cli.py", "shapes.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        loaded = set(loaded_modules(tree))
        assert {m for m in loaded if m.partition(".")[0] not in
                sys.stdlib_module_names} <= {"latentgeom.errors",
                                             "latentgeom.shapes"}, name

"""Checks read off the package source rather than run."""

import ast
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

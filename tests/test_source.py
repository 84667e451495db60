"""Checks read off the package source rather than run."""

import ast
import re
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


def float_constants(tree: ast.Module):
    # the module-level names bound to a float literal, negative ones too
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
                value = value.operand
            if isinstance(value, ast.Constant) and type(value.value) is float:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                yield from (t.id for t in targets if isinstance(t, ast.Name))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def tol_values(tree: ast.Module):
    # the nodes that give a tol its value: the default of a parameter named
    # tol, a tol= keyword and the default= of a --tol option
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):],
                          args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            yield from (value for arg, value in pairs if arg.arg == "tol")
        elif isinstance(node, ast.Call):
            option = [getattr(a, "value", None) for a in node.args[:1]] == ["--tol"]
            yield from (k.value for k in node.keywords
                        if k.arg == "tol" or option and k.arg == "default")


def small_float_literals(tree: ast.Module):
    # float literals in (0, 1e-6] inside a function, its signature included
    seen = set()
    for function in ast.walk(tree):
        if isinstance(function, FUNCTIONS):
            for node in ast.walk(function):
                if (isinstance(node, ast.Constant) and type(node.value) is float
                        and 0.0 < node.value <= 1e-6 and id(node) not in seen):
                    seen.add(id(node))
                    yield node


def test_every_tolerance_is_in_the_model_table():
    # one tolerance policy: a float constant is defined in ``model`` and has
    # a row in the table of its docstring
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in float_constants(
                 ast.parse(path.read_text(encoding="utf-8")))}
    names = {name for _, name in found}
    assert found == {("model.py", name) for name in names}
    doc = ast.get_docstring(
        ast.parse((SRC / "model.py").read_text(encoding="utf-8")))
    rows = set(re.findall(r"^(\w+) +\S+ +(?:rounding|modelling) ", doc, re.M))
    assert names <= rows
    assert names == {"SUM_TOL", "CLAMP_EPS", "DET_EPS", "EM_SLACK",
                     "INTERIOR_EPS", "RANK_CUTOFF", "IDENTITY_TOL",
                     "RESIDUAL_TOL"}
    # and a float literal at or below 1e-6 inside a function is the value
    # of a tol, one that the table lists in a tol row
    tol_rows = {float(value) for value in
                re.findall(r"^tol +(\S+) +modelling ", doc, re.M)}
    literals = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tols = {id(node) for node in tol_values(tree)}
        for node in small_float_literals(tree):
            where = f"{path.name}:{node.lineno}"
            assert id(node) in tols, f"{where}: {node.value!r} is not a tol"
            assert node.value in tol_rows, f"{where}: no tol row for {node.value!r}"
            literals.append((path.name, node.value))
    assert sorted(literals) == [
        ("cli.py", 1e-10), ("cli.py", 1e-08), ("identifiability.py", 1e-12),
        ("identifiability.py", 1e-08), ("likelihood.py", 1e-10)]


#: every construction of a value type that skips its checks, by module and
#: function: each call of ``_checked`` and each ``object.__new__``
UNCHECKED = {
    ("fiber.py", "_corner"),
    ("model.py", "_Value._checked"),
    ("model.py", "_unit_chains"),
    ("model.py", "joint_from_chain"),
    ("model.py", "marginal_13"),
    ("reparam.py", "_field_from_first_component"),
    ("reparam.py", "cross_ratios"),
    ("reparam.py", "merge"),
    ("reparam.py", "split"),
}


def unchecked_sites(scope: ast.AST, names: tuple = (), doc: str | None = None):
    # (qualified name, docstring) of the innermost function around each
    # unchecked construction in ``scope``
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = ast.get_docstring(node) if isinstance(node, FUNCTIONS) else doc
            yield from unchecked_sites(node, (*names, node.name), inner)
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "_checked" or node.func.attr == "__new__"
                and ast.unparse(node.func.value) == "object"):
            yield ".".join(names), doc
        yield from unchecked_sites(node, names, doc)


def test_every_unchecked_construction_is_listed_with_its_proof():
    # a value built without its checks needs a proof that it would pass
    # them: a new site fails here until it is listed, and the docstring of
    # its function must give the proof
    found = {(path.name, name): doc for path in sorted(SRC.glob("*.py"))
             for name, doc in unchecked_sites(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert set(found) == UNCHECKED
    assert [site for site, doc in found.items()
            if not re.search(r"\bpro(?:of|ve[sn]?)\b", doc or "")] == []


def function_nodes(scope: ast.AST, names: tuple = ()):
    # (qualified name of the innermost def or class, node) for every node
    # inside a def or class of ``scope``
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from function_nodes(node, (*names, node.name))
            continue
        if names:
            yield ".".join(names), node
        yield from function_nodes(node, names)


def test_value_types_refuse_rather_than_clip_and_one_function_tests_the_box():
    # a value type refuses an entry it does not accept: no __post_init__
    # clips; and 1 + CLAMP_EPS, the top of the widened unit box, is read
    # only by the solvers' one box test
    clips, tops = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, node in function_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            # np.clip, or an array's .clip
            if (name.endswith("__post_init__") and isinstance(node, ast.Call)
                    and ast.unparse(node.func).rpartition(".")[2] == "clip"):
                clips.append((path.name, name))
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and sorted(map(ast.unparse, (node.left, node.right)))
                    in (["1", "CLAMP_EPS"], ["1.0", "CLAMP_EPS"])):
                tops.append((path.name, name, ast.unparse(node)))
    assert clips == []
    assert tops == [("reparam.py", "_outside_unit_box", "1.0 + CLAMP_EPS")]


def test_the_em_kernel_divides_unmasked_and_draws_each_start_once():
    # _em_batch lifts delta at the unobserved cells instead of masking its
    # quotient, and draws a restart's start as one block of exponentials
    # instead of three Dirichlet calls: no where= keyword (nor a ** that
    # could carry one) and no read of a name "dirichlet"
    tree = ast.parse((SRC / "likelihood.py").read_text(encoding="utf-8"))
    (kernel,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_em_batch"]
    keywords = [k.arg for node in ast.walk(kernel) if isinstance(node, ast.Call)
                for k in node.keywords]
    assert "where" not in keywords and None not in keywords
    assert loaded_names(kernel)["dirichlet"] == 0


def sum_tol_reads(tree: ast.AST) -> list:
    # each read or import of SUM_TOL, bare or as an attribute
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "SUM_TOL" and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute) and n.attr == "SUM_TOL"
            or isinstance(n, ast.alias) and n.name == "SUM_TOL"]


def test_sum_tol_is_read_in_model_only_and_when_called():
    # every row-sum test reads model.SUM_TOL as it runs, so a changed value
    # (monkeypatched in the tests) reaches all of them: no other module
    # imports or reads it, and model reads it in function bodies only, not
    # in a default bound as the module loads
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name for name, tree in trees.items() if sum_tol_reads(tree)} == {"model.py"}
    bodies = {id(node) for function in ast.walk(trees["model.py"])
              if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
              for statement in function.body for node in ast.walk(statement)}
    assert all(id(node) in bodies for node in sum_tol_reads(trees["model.py"]))

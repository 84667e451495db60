"""What a fresh interpreter loads: ``import latentgeom`` loads only the
errors module, every other public name is imported on first access, and a
``dims`` run loads neither numpy nor the model module, nor :mod:`dataclasses`
and :mod:`inspect`, which a bare interpreter does not load either."""

import json

import pytest

from conftest import run_fresh
from test_model import PUBLIC_NAMES

SUBMODULES = ("model", "fiber", "likelihood", "identifiability", "reparam")

#: appended to a fresh script: print the package modules it loaded, and
#: numpy if it loaded numpy
REPORT = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
          "if m.startswith('latentgeom') or m == 'numpy')))")
#: what a ``dims`` run loads
DIMS_MODULES = ["latentgeom", "latentgeom.cli", "latentgeom.errors",
                "latentgeom.shapes"]
#: standard-library modules a ``dims`` run leaves unloaded: importing
#: dataclasses loads inspect, and inspect loads ast, dis and tokenize
UNUSED_STDLIB = ("dataclasses", "inspect")
#: ``dims 3 2 3`` through ``cli.main``
DIMS_CALL = ("from latentgeom import cli\n"
             "assert cli.main(['dims', '3', '2', '3']) == 0")
#: what ``python -m latentgeom dims 3 2 3`` runs
DIMS_MODULE_START = ("import runpy, sys\n"
                     "sys.argv = ['latentgeom', 'dims', '3', '2', '3']\n"
                     "try:\n"
                     "    runpy.run_module('latentgeom', run_name='__main__')\n"
                     "except SystemExit as exc:\n"
                     "    assert exc.code == 0, exc.code\n")


def loaded_by(script: str, report: str = REPORT) -> list[str]:
    proc = run_fresh("-c", script + report)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def stdlib_loaded_by(script: str) -> set[str]:
    """Which of ``UNUSED_STDLIB`` a fresh interpreter has loaded after
    ``script``."""
    return set(loaded_by(script, "\nimport json, sys\nprint(json.dumps("
                         f"[m for m in {UNUSED_STDLIB!r} if m in sys.modules]))"))


def test_import_loads_only_errors():
    assert loaded_by("import latentgeom") == ["latentgeom", "latentgeom.errors"]


def test_dims_loads_neither_numpy_nor_model():
    assert loaded_by(DIMS_CALL) == DIMS_MODULES


def test_module_start_of_dims_loads_neither_numpy_nor_model():
    assert loaded_by(DIMS_MODULE_START) == DIMS_MODULES


@pytest.mark.parametrize("script", [DIMS_CALL, DIMS_MODULE_START],
                         ids=["cli.main", "runpy"])
def test_dims_loads_neither_dataclasses_nor_inspect(script):
    # only what a bare interpreter in the same environment loads already
    assert stdlib_loaded_by(script) <= stdlib_loaded_by("pass")


def test_dims_usage_error_is_one_line_without_numpy():
    script = ("import contextlib, io\n"
              "from latentgeom import cli\n"
              "err = io.StringIO()\n"
              "with contextlib.redirect_stderr(err):\n"
              "    assert cli.main(['dims', '1', '2', '3']) == 2\n"
              "assert err.getvalue() == "
              "'latentgeom dims: r1 must be >= 2, got 1\\n', err.getvalue()\n")
    assert loaded_by(script) == DIMS_MODULES


def test_every_public_name_and_submodule_resolves():
    script = f"""
import sys
import latentgeom
assert set(latentgeom.__all__) <= set(dir(latentgeom))
for name in {sorted(PUBLIC_NAMES)!r}:
    value = getattr(latentgeom, name)
    # the object its defining module holds, cached in the package
    assert getattr(sys.modules[value.__module__], name) is value, name
    assert vars(latentgeom)[name] is value, name
for module in {SUBMODULES!r}:
    assert getattr(latentgeom, module) is sys.modules['latentgeom.' + module]
assert not hasattr(latentgeom, 'cli') and not hasattr(latentgeom, 'frobnicate')
from latentgeom import cli
assert latentgeom.cli is cli
"""
    assert loaded_by(script) == [
        "latentgeom", *(f"latentgeom.{m}" for m in sorted(
            ["cli", "errors", "shapes", *SUBMODULES])), "numpy"]


def test_star_import_binds_exactly_all():
    script = """
namespace = {}
exec('from latentgeom import *', namespace)
import latentgeom
assert set(namespace) - {'__builtins__'} == set(latentgeom.__all__)
"""
    assert "latentgeom.reparam" in loaded_by(script)


def test_unknown_name_is_an_attribute_error():
    import latentgeom
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        latentgeom.frobnicate
    assert latentgeom.__all__ == sorted(PUBLIC_NAMES)

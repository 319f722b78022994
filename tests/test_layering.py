"""Only algebra.py knows how a monomial is stored: the modules built on it
name no underscore member of algebra (``_raw``, ``_t``, ``_pack``, ...).
The package's import graph is fixed: the package itself and the GF(2)
arithmetic in algebra.py import nothing from it, and the integer commands
never load the geometry."""

import ast
import inspect
import json
import os
import subprocess
import sys

import pytest

import delpezzo
from delpezzo import algebra, cli, numerics, quotient, reports, surfaces

# one fresh interpreter running three small commands takes about a second
SUBPROCESS_TIMEOUT_S = 120

# each module's module-level imports from the package
MODULE_IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "reports": set(),
    "numerics": {"reports"},
    "algebra": set(),
    "quotient": {"algebra", "reports"},
    "surfaces": {"algebra", "quotient", "reports"},
    "cli": {"numerics", "reports"},
}


def private_algebra_names():
    names = set()
    for name, obj in vars(algebra).items():
        names.add(name)
        if isinstance(obj, type) and obj.__module__ == algebra.__name__:
            for cls in obj.__mro__:
                names.update(vars(cls))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_used(module):
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_private_names_are_collected():
    assert {"_raw", "_t", "_pack", "_unpack", "_make", "_shifts"} <= private_algebra_names()


@pytest.mark.parametrize("module", [quotient, surfaces, cli, numerics, reports],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_private_algebra_name(module):
    assert names_used(module) & private_algebra_names() == set()


def package_imports(name):
    path = os.path.join(os.path.dirname(delpezzo.__file__), f"{name}.py")
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    found = set()
    for node in body:
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "delpezzo"):
            module = (node.module or "").removeprefix("delpezzo").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("delpezzo.") for a in node.names
                         if a.name.startswith("delpezzo."))
    return found


def test_every_module_is_in_the_import_table():
    here = os.path.dirname(delpezzo.__file__)
    assert {f[:-3] for f in os.listdir(here) if f.endswith(".py")} == set(MODULE_IMPORTS)


@pytest.mark.parametrize("name", sorted(MODULE_IMPORTS))
def test_module_level_imports(name):
    assert package_imports(name) == MODULE_IMPORTS[name]


CHILD = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("delpezzo."))

import delpezzo
report = {"import": loaded(), "codes": []}
from delpezzo import cli
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"].append(cli.main(["verify", "--suite", "numerics", "--json"]))
    report["codes"].append(cli.main(["feasibility", "--p", "7", "--d-max", "9",
                                     "--format", "csv"]))
    report["integer"] = loaded()
    report["codes"].append(cli.main(["verify", "--suite", "presentation", "--chart", "1"]))
report["geometry"] = loaded()
print(json.dumps(report))
"""


def test_integer_commands_load_no_geometry():
    src = os.path.dirname(os.path.dirname(delpezzo.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                            env=env, timeout=SUBPROCESS_TIMEOUT_S)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["import"] == []
    assert report["integer"] == ["delpezzo.cli", "delpezzo.numerics", "delpezzo.reports"]
    assert report["codes"] == [0, 0, 0]
    geometry = {"delpezzo.algebra", "delpezzo.quotient", "delpezzo.surfaces"}
    assert geometry <= set(report["geometry"])

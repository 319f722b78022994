"""Only algebra.py knows how a monomial is stored: the modules built on it
name no underscore member of algebra (``_raw``, ``_t``, ``_pack``, ...).
The package's import graph is fixed: the package itself and the GF(2)
arithmetic in algebra.py import nothing from it, the integer commands
never load the geometry, and no command loads ``dataclasses``.  Every
function in the package runs in one of four commands, unless it is on a
short list that says why not."""

import ast
import contextlib
import inspect
import io
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
    report["dataclasses"] = ["dataclasses" in sys.modules]
    report["codes"].append(cli.main(["verify", "--suite", "presentation", "--chart", "1"]))
report["geometry"] = loaded()
report["dataclasses"].append("dataclasses" in sys.modules)
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
    # records are NamedTuples, so no command pays for importing dataclasses
    assert report["dataclasses"] == [False, False]


# functions no command reaches, each kept on purpose
UNREACHED = {
    "algebra.VarTable.__repr__": "debugging text",
    "algebra._TermsView.__repr__": "debugging text",
    "algebra.SparsePoly.__repr__": "debugging text",
    "algebra.RingFraction.__repr__": "debugging text",
    "algebra.GeomPoly.__repr__": "debugging text",
    "algebra.VarTable.__eq__": "tables are interned, so commands compare them by identity",
    "algebra.VarTable.__hash__": "the pair of __eq__",
    "algebra._TermsView.__getitem__": "the Mapping protocol of terms",
    "algebra._TermsView.__len__": "the Mapping protocol; the benchmark's tracer reads it",
    "algebra._TermMap.__neg__": "-f = f in characteristic 2, the ring operation",
    "quotient.Presentation.u_names": "the u generators, as t_names are the t ones; tests read it",
    "numerics.inequality_bound": "the paper's bound on q, compared with the sharper one in tests",
    "numerics.exact_lower_bound": "the paper's sharper bound on q, compared in tests",
}


def package_functions() -> dict:
    """Qualified name -> (real path, first line) of every def in the
    package; a decorated def starts at its first decorator, as its code
    object does."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{prefix}.{child.name}"] = (path, line)
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)
    here = os.path.dirname(delpezzo.__file__)
    for name in MODULE_IMPORTS:
        path = os.path.realpath(os.path.join(here, f"{name}.py"))
        with open(path, encoding="utf-8") as fh:
            walk(ast.parse(fh.read()), name, path)
    return found


def test_every_function_is_reached(monkeypatch, tmp_path):
    # a fresh table cache, so the run builds the tables it uses
    monkeypatch.setattr(surfaces, "_CHART_TABLES", {})
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
    out = tmp_path / "presentation.json"
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["verify", "--suite", "all", "--chart", "0", "--json"]),
                     cli.main(["presentation", "--chart", "0", "--out", str(out)]),
                     cli.main(["feasibility", "--p", "3"]),
                     cli.main(["feasibility", "--p", "3", "--format", "json"])]
        cli.load_presentation(json.loads(out.read_text(encoding="utf-8")))
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0]
    reached = {(os.path.realpath(path), line) for path, line in started}
    unreached = {name for name, where in package_functions().items() if where not in reached}
    assert unreached == set(UNREACHED)

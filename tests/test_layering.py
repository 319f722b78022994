"""Only algebra.py knows how a monomial is stored: the modules built on it
name no underscore member of algebra (``_raw``, ``_t``, ``_pack``, ...)."""

import ast
import inspect

import pytest

from delpezzo import algebra, quotient, surfaces


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


@pytest.mark.parametrize("module", [quotient, surfaces], ids=["quotient", "surfaces"])
def test_no_private_algebra_name(module):
    assert names_used(module) & private_algebra_names() == set()

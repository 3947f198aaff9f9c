"""Export lists stay true: every name a module lists in `__all__` resolves.

A name left in `__all__` after its definition is deleted breaks
`from module import *` with an AttributeError, so each list is checked
name by name, and the star import of the calculus package is run.
"""

import importlib

import pytest

MODULES = ("srlab", "srlab.calculus", "srlab.calculus.fields", "srlab.calculus.jets",
           "srlab.calculus.expr")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import_of_calculus():
    namespace = {}
    exec("from srlab.calculus import *", namespace)
    calculus = importlib.import_module("srlab.calculus")
    assert {n: namespace[n] for n in calculus.__all__} == {
        n: getattr(calculus, n) for n in calculus.__all__}

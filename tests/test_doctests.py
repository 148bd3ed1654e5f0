import doctest
import importlib
import pkgutil

import pytest

import permutons

MODULES = ["permutons"] + [f"permutons.{m.name}" for m in pkgutil.iter_modules(permutons.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result


def test_docstring_examples_are_found():
    # at least five in perms and from_perm's in measures: a finder that saw
    # none would pass every module above
    for name, least in (("permutons.perms", 5), ("permutons.measures", 1)):
        assert doctest.testmod(importlib.import_module(name)).attempted >= least, name

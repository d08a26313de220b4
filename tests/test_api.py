"""The package's public names: each module's __all__, re-exported once."""

import inspect

import pytest

import sharpineq
from sharpineq import flat, hyperbolic, norms, quadrature

MODULES = (norms, quadrature, flat, hyperbolic)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_definition_is_in_all(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_name_resolves_from_the_package(module):
    for name in module.__all__:
        assert getattr(sharpineq, name) is getattr(module, name), name

"""The package's public names: each module's __all__, re-exported once."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def test_no_scipy_at_run_time():
    # numpy is the one runtime dependency: importing the package and its CLI
    # in a fresh interpreter loads no scipy module
    src = Path(sharpineq.__file__).resolve().parents[1]
    code = "import sys, sharpineq, sharpineq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

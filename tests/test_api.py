"""The package's public names, each module's __all__ re-exported once, and
the parameter checks of its entry points."""

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


def _entry_points():
    """(parameter, call with a bad value x) for every entry point that takes a lam, an alpha, a beta or an a."""
    t = flat.ExponentTriple(3, 3.0, 1.0)
    return [
        ("lam", lambda x: flat.gaussian_T(3, x)),
        ("lam", lambda x: flat.gaussian_T_grid(3, [1.0, x])),
        ("lam", lambda x: flat.gaussian_hpw_reports(3, [1.0, x])),
        ("lam", lambda x: flat.gaussian_moment_identity(3, x)),
        ("lam", lambda x: flat.pqr(t, x, "P")),
        ("lam", lambda x: flat.check_pqr_identity(t, [1.0, x])),
        ("lam", lambda x: flat.pqr_reports(t, [1.0, x])),
        ("lam", lambda x: flat.check_p_ode(t, [x])),
        ("lam", lambda x: flat.extremal_profile(t, x)),
        ("a", lambda x: flat.gaussian_hardy_reports(3, [1.0, x])),
        ("a", lambda x: hyperbolic.gaussian_hardy_hyperbolic_reports(3, [1.0, x])),
        ("alpha", lambda x: flat.RadialFunction.gaussian(x)),
        ("beta", lambda x: flat.RadialFunction.gaussian(1.0, x)),
        ("alpha", lambda x: hyperbolic.modified_hpw_report(3, alpha=x)),
        ("alpha", lambda x: hyperbolic.modified_hpw_reports(3, [1.0, x])),
        ("alpha", lambda x: hyperbolic.hpw_constant_bounds(3, alphas=[1.0, x])),
        ("beta", lambda x: hyperbolic.hpw_constant_bounds(3, betas=[0.0, x])),
        ("alpha range", lambda x: hyperbolic.ko_alpha_scan(3, (x, 10.0))),
        ("alpha range", lambda x: hyperbolic.ko_alpha_scan(3, (1.0, x))),
        ("alpha", lambda x: quadrature.hyperbolic_gaussian_masses(3, [1.0, x])),
        ("alpha", lambda x: quadrature.hyperbolic_gaussian_moments(3, [1.0, x], 0.0)),
        ("beta", lambda x: quadrature.hyperbolic_gaussian_moments(3, 1.0, [0.0, x])),
    ]


ENTRY_POINTS = _entry_points()
# lam, alpha and a must be positive and finite, beta finite and >= 0
BAD_CASES = [
    (i, bad)
    for i, (name, _) in enumerate(ENTRY_POINTS)
    for bad in (float("nan"), float("inf"), 0.0, -1.0)
    if not (name == "beta" and bad == 0.0)
]


@pytest.mark.parametrize("index, bad", BAD_CASES)
def test_bad_parameter_named_before_any_integral(index, bad, monkeypatch):
    # every integrator is made to fail, so the ValueError comes first
    name, call = ENTRY_POINTS[index]

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran")

    for module, attr in ((quadrature, "gauss_kronrod_batch"), (quadrature, "_adaptive_gk15"),
                         (flat, "radial_integral_rows")):
        monkeypatch.setattr(module, attr, no_integral)
    with pytest.raises(ValueError, match=f"^{name} must be ") as exc:
        call(bad)
    assert repr(bad) in str(exc.value)

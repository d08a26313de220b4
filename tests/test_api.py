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

    for module, attr in ((quadrature, "gauss_kronrod_batch"), (quadrature, "_adaptive_pass"),
                         (flat, "gauss_kronrod_batch")):
        monkeypatch.setattr(module, attr, no_integral)
    with pytest.raises(ValueError, match=f"^{name} must be ") as exc:
        call(bad)
    assert repr(bad) in str(exc.value)


# finite parameters whose rate overflows, or whose integrals fall below the
# least normal float, are named too, instead of a ZeroDivisionError, an
# overflow warning or a mass of 0.0
FLOAT_RANGE_CASES = [
    ("hyperbolic_gaussian_moments", lambda: quadrature.hyperbolic_gaussian_moments(3, [1.0, 1e308], 0.0),
     ValueError, "alpha = 1e+308 is too large: the rate 2 alpha overflows"),
    ("gaussian_hardy_hyperbolic_reports", lambda: hyperbolic.gaussian_hardy_hyperbolic_reports(3, [1.0, 1e308]),
     ValueError, "a = 1e+308 is too large: the rate 2 a overflows"),
    ("gaussian_hpw_reports", lambda: flat.gaussian_hpw_reports(3, [1.0, 1e308]),
     quadrature.QuadratureError, "at 1 of 2 parameters, first at lam = 1e+308 for n = 3"),
    ("gaussian_T_grid", lambda: flat.gaussian_T_grid(3, [1.0, 1e308]),
     quadrature.QuadratureError, "at 1 of 2 parameters, first at lam = 1e+308 for n = 3"),
    # T is a normal float, but the term 8 lam omega_n int rho^(n+3) e^(-2 lam rho^2)
    # of T', about 27.8 (2 lam)^(-5/2) at n = 3, overflows, underflows to 0
    # or is subnormal (about 4.9e-310 at 1e124)
    ("gaussian_T_grid_small", lambda: flat.gaussian_T_grid(3, [1e-125]),
     quadrature.QuadratureError, "at 1 of 1 parameters, first at lam = 1e-125 for n = 3"),
    ("gaussian_T_grid_large", lambda: flat.gaussian_T_grid(3, [1.0, 1e130]),
     quadrature.QuadratureError, "at 1 of 2 parameters, first at lam = 1e+130 for n = 3"),
    ("gaussian_T_grid_subnormal", lambda: flat.gaussian_T_grid(3, [1e124, 1.0]),
     quadrature.QuadratureError, "at 1 of 2 parameters, first at lam = 1e+124 for n = 3"),
    ("gaussian_hardy_reports", lambda: flat.gaussian_hardy_reports(3, [1.0, 1e308]),
     quadrature.QuadratureError, "at 1 of 2 parameters, first at a = 1e+308 for n = 3"),
    ("modified_hpw_reports", lambda: hyperbolic.modified_hpw_reports(3, [1.0, 1e200]),
     quadrature.QuadratureError, "at 1 of 2 parameters, first at (alpha, beta) = (1e+200, 0.0) for n = 3"),
    # the series serves 1.0; the fallback call holds 1e300 alone
    ("hyperbolic_gaussian_masses", lambda: quadrature.hyperbolic_gaussian_masses(3, [1.0, 1e300]),
     quadrature.QuadratureError, "at 1 of 1 parameters, first at 1e+300"),
    ("ko_alpha_scan", lambda: hyperbolic.ko_alpha_scan(3, (1e300, 1e305), 4),
     quadrature.QuadratureError, "at 4 of 4 parameters, first at 1e+300"),
]


@pytest.mark.parametrize("name, call, error, text", FLOAT_RANGE_CASES, ids=[c[0] for c in FLOAT_RANGE_CASES])
def test_parameter_outside_the_float_range_named(name, call, error, text):
    with pytest.raises(error) as exc:
        call()
    if error is quadrature.QuadratureError:
        text = "integral outside the normal floats " + text
    assert str(exc.value) == text


# every integral is a normal float but the ratio's L^2 underflows to 0 (a
# ZeroDivisionError, or for the grid an invalid-value warning), or a scale
# (2 lam)^(-k) overflows (a bare OverflowError)
RATIO = "product X Y or square Z^2 of a ratio X Y / Z^2 outside the float range"
RATIO_CASES = [
    ("gaussian_hpw_reports", lambda: flat.gaussian_hpw_reports(3, [1.0, 1e110]),
     f"{RATIO} at 1 of 2 parameters, first at lam = 1e+110 for n = 3"),
    ("modified_hpw_reports", lambda: hyperbolic.modified_hpw_reports(3, [1e110, 1.0]),
     f"{RATIO} at 1 of 2 parameters, first at alpha = 1e+110 for n = 3"),
    ("hpw_constant_bounds", lambda: hyperbolic.hpw_constant_bounds(3, alphas=[1.0, 1e110]),
     f"{RATIO} at 5 of 10 parameters, first at (alpha, beta) = (1e+110, 0.0) for n = 3"),
    # A M and L^2 are subnormal: the flat ratio, exactly n^2/4 = 2.25, read
    # 2.251275510204082 at 1e107 and 2.250000000000956 at 1e104
    ("gaussian_hpw_reports_subnormal", lambda: flat.gaussian_hpw_reports(3, [1e107]),
     f"{RATIO} at 1 of 1 parameters, first at lam = 1e+107 for n = 3"),
    ("modified_hpw_reports_subnormal", lambda: hyperbolic.modified_hpw_reports(3, [1e107]),
     f"{RATIO} at 1 of 1 parameters, first at alpha = 1e+107 for n = 3"),
    ("hpw_constant_bounds_subnormal", lambda: hyperbolic.hpw_constant_bounds(3, alphas=[1e107], betas=[0.0]),
     f"{RATIO} at 1 of 1 parameters, first at (alpha, beta) = (1e+107, 0.0) for n = 3"),
    ("gaussian_hpw_reports_subnormal_1e104", lambda: flat.gaussian_hpw_reports(3, [1e104]),
     f"{RATIO} at 1 of 1 parameters, first at lam = 1e+104 for n = 3"),
    ("modified_hpw_reports_subnormal_1e104", lambda: hyperbolic.modified_hpw_reports(3, [1e104]),
     f"{RATIO} at 1 of 1 parameters, first at alpha = 1e+104 for n = 3"),
    ("hpw_constant_bounds_subnormal_1e104", lambda: hyperbolic.hpw_constant_bounds(3, alphas=[1e104], betas=[0.0]),
     f"{RATIO} at 1 of 1 parameters, first at (alpha, beta) = (1e+104, 0.0) for n = 3"),
    ("gaussian_hpw_reports_small", lambda: flat.gaussian_hpw_reports(3, [1e-155]),
     "integral outside the normal floats at 1 of 1 parameters, first at lam = 1e-155 for n = 3"),
    ("gaussian_hardy_reports_small", lambda: flat.gaussian_hardy_reports(3, [1.0, 1e-210]),
     "integral outside the normal floats at 1 of 2 parameters, first at a = 1e-210 for n = 3"),
]


@pytest.mark.parametrize("name, call, text", RATIO_CASES, ids=[c[0] for c in RATIO_CASES])
def test_ratio_outside_the_float_range_named(name, call, text):
    with pytest.raises(quadrature.QuadratureError) as exc:
        call()
    assert str(exc.value) == text

import functools
import math
import re
import warnings

import numpy as np
import pytest

from sharpineq import (
    DecayClass,
    MinkowskiNorm,
    QuadratureError,
    QuadratureSpec,
    RadialProfile,
    bh_density,
    ball_volume_constant,
    fd_derivative,
    flat_radial_volume_integral,
    gauss_kronrod_batch,
    gaussian_integrals,
    hyperbolic_gaussian_masses,
    hyperbolic_gaussian_moments,
    hyperbolic_radial_volume_integral,
    monte_carlo_integral,
    radial_integral,
)
from sharpineq import quadrature
from sharpineq.quadrature import (
    _BLOCK_VALUES,
    _FIRST_PANELS,
    _GK21_GAUSS,
    _GK21_KRONROD,
    _GK21_NODES,
    _MAX_SUBINTERVALS,
    _UNIT,
    _mass_series,
    _series_masses,
    radial_integrals,
)

# the nodes of a panel of G10/K21, the rule of every piece of
# radial_integrals and of the batched grids
QK21 = _GK21_NODES.size


def gauss_profile(rate=1.0):
    return RadialProfile(lambda r: math.exp(-rate * r * r), DecayClass.gaussian(rate))


class TestRadialIntegral:
    def test_gaussian_power3(self):
        res = radial_integral(gauss_profile(), ("power", 3))
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_power1(self):
        res = radial_integral(gauss_profile(), ("power", 1))
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_sinh_weight_vs_trapezoid_oracle(self):
        rho = np.linspace(0.0, 40.0, 1_000_001)
        oracle = float(np.trapezoid(np.exp(-rho ** 2) * np.sinh(rho), rho))
        res = radial_integral(gauss_profile(), ("sinh-power", 1))
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_error_estimate_reported(self):
        res = radial_integral(gauss_profile(), ("power", 1))
        assert 0 <= res.error_estimate <= 1e-6 * abs(res.value)
        assert res.nodes_used > 0

    def test_algebraic_decay_against_sinh_rejected(self):
        prof = RadialProfile(lambda r: (1 + r) ** -8, DecayClass.algebraic())
        with pytest.raises(QuadratureError):
            radial_integral(prof, ("sinh-power", 2))

    def test_nonpositive_gaussian_rate_rejected(self):
        prof = RadialProfile(lambda r: 1.0, DecayClass.gaussian(0.0))
        with pytest.raises(QuadratureError):
            radial_integral(prof, ("power", 0))

    def test_compact_support_truncation(self):
        prof = RadialProfile(lambda r: 1.0 if r < 2.0 else 0.0, DecayClass.compact(2.0))
        res = radial_integral(prof, ("power", 1))
        assert res.value == pytest.approx(2.0, rel=1e-10)
        assert res.truncation == 2.0

    def test_compact_support_is_checked(self):
        # a gaussian declared compact would lose its mass past rho = 1
        prof = RadialProfile(lambda r: math.exp(-r * r), DecayClass.compact(1.0))
        with pytest.raises(QuadratureError, match=r"declared compact on \[0, 1.0\] is 0.36787"):
            radial_integral(prof, ("power", 2))

    def test_algebraic_tail(self):
        prof = RadialProfile(lambda r: (1 + r * r) ** -2, DecayClass.algebraic())
        res = radial_integral(prof, ("power", 0))
        assert res.value == pytest.approx(math.pi / 4, rel=1e-9)

    @pytest.mark.parametrize("weight", [("power", 0), ("power", 2), ("sinh-power", 2)])
    def test_profile_overflow_raises(self, weight):
        # e^(-rho^2) through the intermediate e^(71/rho), which overflows below
        # rho ~ 0.1; those nodes are not zeros of the profile
        prof = RadialProfile(
            lambda r: math.exp(-r * r) * math.exp(71 / r) / math.exp(71 / r),
            DecayClass.gaussian(1.0),
        )
        with pytest.raises(QuadratureError, match="profile exceeds the float range at rho="):
            radial_integral(prof, weight)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sinh_weight_overflow_not_dropped(self, n):
        # at small rates sinh^(n-1) alone overflows where e^(-a rho^2)
        # sinh^(n-1) is still large; such nodes must not count as zero
        spec = QuadratureSpec()
        checked = 0
        for a in (0.002, 0.005, 0.01, 0.02):
            try:
                got = hyperbolic_radial_volume_integral(gauss_profile(a), n, spec).value
            except QuadratureError:
                continue
            mass = hyperbolic_gaussian_masses(n, [a], spec)[0][0]
            assert got == pytest.approx(mass, rel=10 * spec.relative_tolerance)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n, a, tol", [(8, 0.02, 1e-9), (6, 0.0112, 1e-9), (4, 0.0043, 1e-12)])
    def test_sinh_weight_profile_underflow_raises(self, n, a, tol):
        # e^(-a rho^2) is 0.0 past sqrt(745/a) while e^(-a rho^2) sinh^(n-1)
        # still holds mass there: 1.5e-4, 9.8e-8 and 1.9e-10 of it
        spec = QuadratureSpec(relative_tolerance=tol)
        with pytest.raises(QuadratureError, match=r"underflows to 0 at rho=\d"):
            hyperbolic_radial_volume_integral(gauss_profile(a), n, spec)

    @pytest.mark.parametrize("a", [0.02, 0.25])
    def test_sinh_weight_without_underflow_accepted(self, a):
        spec = QuadratureSpec()
        got = hyperbolic_radial_volume_integral(gauss_profile(a), 6, spec).value
        mass = hyperbolic_gaussian_masses(6, [a], spec)[0][0]
        assert got == pytest.approx(mass, rel=10 * spec.relative_tolerance)


def closed_form_cases():
    """(id, profile, weight, exact integral) with closed forms."""
    cases = []
    for a in (0.25, 1.0, 4.0):
        for k in (0, 1, 2, 3, 5, 7):
            # int r^k e^(-a r^2) = Gamma((k+1)/2) / (2 a^((k+1)/2))
            exact = math.gamma((k + 1) / 2) / (2 * a ** ((k + 1) / 2))
            cases.append((f"power{k}-a{a}", gauss_profile(a), ("power", k), exact))
        # int e^(-a r^2) sinh r and int e^(-a r^2) sinh^2 r
        exact = 0.5 * math.sqrt(math.pi / a) * math.exp(1 / (4 * a)) * math.erf(1 / (2 * math.sqrt(a)))
        cases.append((f"sinh1-a{a}", gauss_profile(a), ("sinh-power", 1), exact))
        exact = 0.25 * math.sqrt(math.pi / a) * math.expm1(1 / a)
        cases.append((f"sinh2-a{a}", gauss_profile(a), ("sinh-power", 2), exact))
    # int r^2 / (1 + r^2)^2 = pi/4, algebraic decay through the mapped tail
    algebraic = RadialProfile(lambda r: (1 + r * r) ** -2, DecayClass.algebraic())
    cases.append(("algebraic", algebraic, ("power", 2), math.pi / 4))
    # int rho^-1/2 / (1 + rho) = pi, singular at 0 and decaying like
    # rho^-3/2: 2 / (1 + (1 - t)^2) under the tail map rho = (1 - t)^-2
    slow = RadialProfile(lambda r: 1 / (math.sqrt(r) * (1 + r)), DecayClass.algebraic())
    cases.append(("slow-algebraic", slow, ("power", 0), math.pi))
    # r^2 on [0, 1/2] and (1 - r)/2 on [1/2, 1], against r: 1/64 + 1/24
    piecewise = RadialProfile(
        lambda r: r * r if r < 0.5 else (0.5 * (1 - r) if r < 1 else 0.0),
        DecayClass.compact(1.0),
        breakpoints=(0.5,),
    )
    cases.append(("compact-polynomial", piecewise, ("power", 1), 1 / 64 + 1 / 24))
    return cases


class TestRadialIntegralAccuracy:
    """Closed forms at both catalogue tolerances, with no slack on either."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("prof, weight, exact", [pytest.param(*c[1:], id=c[0]) for c in closed_form_cases()])
    def test_closed_form(self, tol, prof, weight, exact):
        res = radial_integral(prof, weight, QuadratureSpec(relative_tolerance=tol))
        assert abs(res.value - exact) <= tol * abs(exact)
        assert res.error_estimate <= tol * abs(res.value)

    def test_nodes_used_counts_evaluations(self):
        calls = []

        def f(r):
            calls.append(r)
            return (1 + r * r) ** -2

        res = radial_integral(RadialProfile(f, DecayClass.algebraic()), ("power", 2))
        assert res.nodes_used == len(calls) > 0
        # a bisection of [0, 1] or of the tail past rho = 1 evaluates both
        # halves on G10/K21
        head = sum(r <= 1.0 for r in calls)
        assert head % (2 * QK21) == 0 and (len(calls) - head) % (2 * QK21) == 0 and head < len(calls)

    def test_rule_exact_on_polynomials(self):
        # on the two first halves of a finite piece K21 is exact to degree 31
        # and G10 to degree 19, and so on those of the tail past rho = 1,
        # t^j in its variable t = 1 - rho^-1/2 (rho = (1 - t)^-2, d rho / dt
        # = 2 rho^3/2), where [0, 1] holds a zero row: this pins every entry
        # of the table and the tail map; at 1e-6 no degree needs a bisection
        for decay, row, evals_of in (
            (DecayClass.compact(1.0), lambda x, j: x**j if x <= 1.0 else 0.0, 2 * QK21),
            (DecayClass.algebraic(), lambda r, j: (1 - r**-0.5) ** j / (2 * r**1.5) if r > 1.0 else 0.0, 2 * 2 * QK21),
        ):
            for j in range(3 * (QK21 // 2) + 2):
                (res,) = radial_integrals(lambda rs, ws: [[row(x, j) for x in rs]], [decay], ("power", 0),
                                          QuadratureSpec(relative_tolerance=1e-6))
                assert res.value == pytest.approx(1 / (j + 1), rel=1e-14)
                assert res.error_estimate <= 1e-15 or j > 19
                assert res.nodes_used == evals_of

    def test_first_sweep_accepts_before_any_key(self, monkeypatch):
        # a call that meets the rule on its first sweep keys and pushes no
        # panel; a call that bisects pushes both halves of each of its
        # evaluations of 2 QK21 nodes, the first sweep's too
        pushed = []
        push = quadrature.heapq.heappush
        monkeypatch.setattr(quadrature.heapq, "heappush", lambda heap, item: pushed.append(item) or push(heap, item))

        def on_unit(g, tol):
            (res,) = radial_integrals(lambda rs, ws: [[g(x) if x <= 1.0 else 0.0 for x in rs]],
                                      [DecayClass.compact(1.0)], ("power", 0), QuadratureSpec(relative_tolerance=tol))
            return res.value, res.error_estimate, res.nodes_used

        value, error, evals = on_unit(lambda x: x**5, 1e-6)
        assert value == pytest.approx(1 / 6, rel=1e-14) and error <= 1e-15
        assert (evals, pushed) == (2 * QK21, [])
        _, _, evals = on_unit(lambda x: abs(x - 0.3) ** 0.5, 1e-9)
        assert evals > 2 * QK21 and len(pushed) == 2 * evals // (2 * QK21)


# radial_integral's value, error estimate and nodes_used for algebraic and
# compact profiles, as the node-by-node loop gives them: the one-row case
# keys on |K - G| over its value, which orders its panels as the plain
# |K - G| does, and keeps QUADPACK's node order and the order of the running
# sums.  A first sweep evaluates 2 QK21 nodes a piece, the tail's too; each
# estimate holds one ulp of its value, and each value lies within its
# estimate of PINNED_EXACT, plus a few ulp of rounding
PINNED = [
    ("algebraic", 1e-09, 0.7853981633974483, 1.596812959636651e-15, 2 * 2 * QK21),
    ("algebraic-breakpoint", 1e-09, 0.06786800974660787, 5.74922726307172e-11, 840),
    ("compact-polynomial", 1e-09, 0.05729166666666666, 1.05574186545776e-17, 2 * 2 * QK21),
    ("compact-ball", 1e-09, 14.654656241891932, 2.6337439174017874e-15, 2 * 2 * QK21),
    ("algebraic", 1e-12, 0.7853981633974483, 1.596812959636651e-15, 2 * 2 * QK21),
    ("algebraic-breakpoint", 1e-12, 0.06786800974335616, 6.294402822754812e-14, 1386),
    ("compact-polynomial", 1e-12, 0.05729166666666666, 1.05574186545776e-17, 2 * 2 * QK21),
    ("compact-ball", 1e-12, 14.654656241891932, 2.6337439174017874e-15, 2 * 2 * QK21),
]
PINNED_EXACT = {
    "algebraic": math.pi / 4,
    # int |r - 5/2|^(1/2) r / (1 + r)^6 dr over [0, oo): mpmath's quad at
    # 40 and 60 digits, split at 1 and 5/2
    "algebraic-breakpoint": 0.06786800974335261,
    "compact-polynomial": 11 / 192,
    # int_0^2 sinh^3 = cosh^3(2)/3 - cosh(2) + 2/3
    "compact-ball": math.cosh(2) ** 3 / 3 - math.cosh(2) + 2 / 3,
}
PINNED_PROFILES = {
    "algebraic": (lambda: RadialProfile(lambda r: (1 + r * r) ** -2, DecayClass.algebraic()), ("power", 2)),
    "algebraic-breakpoint": (
        lambda: RadialProfile(
            lambda r: abs(r - 2.5) ** 0.5 / (1 + r) ** 6, DecayClass.algebraic(), breakpoints=(2.5,)
        ),
        ("power", 1),
    ),
    "compact-polynomial": (
        lambda: RadialProfile(
            lambda r: r * r if r < 0.5 else (0.5 * (1 - r) if r < 1 else 0.0),
            DecayClass.compact(1.0),
            breakpoints=(0.5,),
        ),
        ("power", 1),
    ),
    "compact-ball": (lambda: RadialProfile(lambda r: 1.0 if r < 2.0 else 0.0, DecayClass.compact(2.0)), ("sinh-power", 3)),
}
# P and R of the extremal family, omega_n radial_integral of rho^n h and
# rho^n g (flat.kernel_h, kernel_g), as above: (triple, selector, tol,
# value, error, nodes), each value within its estimate of test_flat's
# closed_p or closed_r
PINNED_PQR = [
    ((3, 3.0, 1.0), "P", 1e-09, 6.283185307179586, 2.0418563498758864e-15, 2 * 2 * QK21),
    ((5, 2.4, 0.2), "R", 1e-09, 0.2263618356561704, 2.9714031664182643e-12, 2 * 2 * QK21),
    ((3, 3.0, 1.0), "P", 1e-12, 6.283185307179586, 2.0418563498758864e-15, 2 * 2 * QK21),
    ((5, 2.4, 0.2), "R", 1e-12, 0.22636183565617046, 1.1086381513207876e-13, 168),
]


class TestRadialIntegralPinned:
    @pytest.mark.parametrize("name, tol, value, error, nodes", [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in PINNED])
    def test_bit_for_bit(self, name, tol, value, error, nodes):
        prof, weight = PINNED_PROFILES[name]
        res = radial_integral(prof(), weight, QuadratureSpec(relative_tolerance=tol))
        assert (res.value, res.error_estimate, res.nodes_used) == (value, error, nodes)
        exact = PINNED_EXACT[name]
        assert abs(value - exact) <= error + 4 * math.ulp(exact)

    @pytest.mark.parametrize(
        "triple, which, tol, value, error, nodes", [pytest.param(*c, id="-".join(map(str, (*c[0], *c[1:3])))) for c in PINNED_PQR]
    )
    def test_scalar_pqr_bit_for_bit(self, triple, which, tol, value, error, nodes):
        from sharpineq import flat
        from test_flat import closed_p, closed_r

        t = flat.ExponentTriple(*triple)
        kernel = flat.kernel_h if which == "P" else flat.kernel_g
        prof = RadialProfile(functools.partial(kernel, t, 1.0), DecayClass.algebraic())
        res = radial_integral(prof, ("power", t.n), QuadratureSpec(relative_tolerance=tol))
        omega = ball_volume_constant(t.n)
        assert (omega * res.value, omega * res.error_estimate, res.nodes_used) == (value, error, nodes)
        exact, slack = (closed_p if which == "P" else closed_r)(t, 1.0)
        assert abs(value - exact) <= error + slack


class TestRadialIntegralFailures:
    """Each way the adaptive rule can give up names its cause and the panel."""

    def test_panel_cap(self):
        # a fast oscillation needs more than _MAX_SUBINTERVALS panels at 1e-12
        prof = RadialProfile(lambda r: math.cos(2e4 * r) if r <= 1 else 0.0, DecayClass.compact(1.0))
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0), QuadratureSpec(relative_tolerance=1e-12))
        assert re.fullmatch(
            rf"requested tolerance 1e-12 not met with {_MAX_SUBINTERVALS} panels, the worst at "
            r"rho in \[\S+, \S+\]: value=\S+, error=\S+",
            str(exc.value),
        )

    def test_panel_too_narrow_to_bisect(self):
        # |r - 1/2|^-0.9 is integrable, but the estimate of the panels next
        # to 1/2 falls only like their width^0.1: bisection runs out of floats
        prof = RadialProfile(
            lambda r: abs(r - 0.5) ** -0.9 if r != 0.5 and r <= 1 else 0.0,
            DecayClass.compact(1.0),
            breakpoints=(0.5,),
        )
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0))
        # one row prints its value and estimate as lists, as q rows do: its
        # running sums, which drop a bisected panel's K and add the sum of
        # its halves' Ks
        assert str(exc.value) == (
            "requested tolerance 1e-09 not met at rho in [0.5, 0.5000000000000001]: "
            "the panel cannot be bisected in floating point: "
            "value=[18.173865651449802], error=[0.002203262457345144]"
        )

    def test_tail_node_at_one(self):
        # P of (3, 3, 1.49975) decays like rho^(-1.0005) times a constant:
        # bisection toward t = 1 must stop before a node rounds to 1.0, where
        # the tail map would divide by zero
        from sharpineq import flat

        t = flat.ExponentTriple(3, 3.0, 1.49975)
        prof = RadialProfile(functools.partial(flat.kernel_h, t, 1.0), DecayClass.algebraic())
        for tol in (1e-9, 1e-12):
            with pytest.raises(QuadratureError) as exc:
                radial_integral(prof, ("power", 3), QuadratureSpec(relative_tolerance=tol))
            assert re.fullmatch(
                rf"requested tolerance {tol!r} not met at rho in \[\S+, inf\]: "
                r"a node of its right half rounds to t = 1\.0: value=\S+, error=\S+",
                str(exc.value),
            )

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_slow_tail_named(self, tol):
        # int (1 + rho)^-6/5 = 5 decays slower than rho^-3/2, like
        # (1 - t)^-3/5 under the tail map rho = (1 - t)^-2: the tail stops at
        # a node that rounds to t = 1.0 and names itself; rho^-3/2 itself is
        # smooth there (closed_form_cases' slow-algebraic)
        prof = RadialProfile(lambda r: (1 + r) ** -1.2, DecayClass.algebraic())
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0), QuadratureSpec(relative_tolerance=tol))
        assert re.fullmatch(
            rf"requested tolerance {tol!r} not met at rho in \[1\.2379400392853803e\+27, inf\]: "
            r"a node of its right half rounds to t = 1\.0: value=\[\S+\], error=\[\S+\]",
            str(exc.value),
        )

    def test_non_finite_piece(self):
        # every value is finite, but a Kronrod sum of 1e308 overflows; the
        # message names the piece [0, 1], not the panel
        prof = RadialProfile(lambda r: 1e308 if r < 8 else 0.0, DecayClass.compact(8.0))
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0))
        assert str(exc.value) == "integral over rho in [0.0, 1.0] is inf: outside the float range"

    def test_non_finite_row_on_a_later_piece(self):
        # of two rows on the pieces [0, 1], [1, 2], [2, 6] and [6, 8], the
        # second is 1e308 on [2, 6] alone, where its Kronrod sums overflow:
        # the message names that piece, not the first, and that row's sum
        with pytest.raises(QuadratureError) as exc:
            radial_integrals(lambda rs, ws: [[1.0 if r <= 8 else 0.0 for r in rs],
                                             [(1e308 if 2 < r < 6 else 1.0) if r <= 8 else 0.0 for r in rs]],
                             [DecayClass.compact(8.0)] * 2, ("power", 0), breakpoints=(2.0, 6.0))
        assert str(exc.value) == "integral over rho in [2.0, 6.0] is inf: outside the float range"

    def test_overflow_on_two_pieces_named_in_piece_order(self):
        # the profile overflows near the right end of [0, 1/2], at its last
        # half's outer Gauss node 0.375 + 0.125 x, and around the first node
        # of [1/2, 1], its left half's centre 0.625: the first sweep
        # evaluates the pieces in order, so the first piece's node is named,
        # as that piece alone names it
        def named(*regions):
            prof = RadialProfile(lambda r: math.exp(800.0) if any(a < r < b for a, b in regions) else float(r <= 1),
                                 DecayClass.compact(1.0), breakpoints=(0.5,))
            with pytest.raises(QuadratureError) as exc:
                radial_integral(prof, ("power", 0))
            return str(exc.value)

        first, second = (0.45, 0.5), (0.6, 0.65)
        rho = 0.375 + 0.125 * float(_GK21_NODES[-2])
        assert named(first, second) == named(first) == f"profile exceeds the float range at rho={rho!r}"
        assert named(second) == "profile exceeds the float range at rho=0.625"


def half_line(rows):
    """gauss_kronrod_batch's integrand of rows over rho in [0, oo), as _extremal_passes maps P and R.

    A parameter (j, c) is rows[j] split at c: the head rho = c x^2 and the
    tail rho = c (1 - x)^-2 added at every node x of [0, 1], times
    d rho / dx.  rows[j] maps an array of radii to (q,) + its shape.
    """
    def integrand(x, p):
        w = 1 / (1 - x)
        rho = p[..., 1] * np.concatenate([x * x, w * w])
        jac = rho * np.concatenate([2 / x, 2 * w])
        f = np.stack([rows[int(j)](r) for j, r in zip(p[:, 0, 0].tolist(), rho)], axis=-2) * jac
        return f[..., : x.size] + f[..., x.size :]

    return integrand


def algebraic_rows(rho):
    """Three algebraic integrands on [0, oo), one singular at 0, far apart in size."""
    return np.stack([rho * rho / (1 + rho * rho) ** 2, 1e-8 / (1 + rho) ** 3, 1e6 / (np.sqrt(rho) * (1 + rho) ** 2)])


ALGEBRAIC_EXACT = [math.pi / 4, 0.5e-8, 1e6 * math.pi / 2]

# rows of a grid: "ok" and "cubic" meet the rule, "late" decays like
# rho^-1.0005 and reaches the panel cap, "early" leaves the float range in
# the first round
GRID_ROWS = [
    lambda rho: np.stack([rho * rho / (1 + rho * rho) ** 2, 1e6 / (np.sqrt(rho) * (1 + rho) ** 2)]),
    lambda rho: np.stack([1 / (1 + rho) ** 3, rho / (1 + rho) ** 4]),
    lambda rho: np.stack([1 / (1 + rho) ** 1.0005, 1 / (1 + rho) ** 3]),
    lambda rho: np.stack([1 / (1 + rho) ** 3, np.where(rho < 0.25, np.inf, 1 / (1 + rho) ** 3)]),
    # "cubic" near the float range: integrals 4e307 and 1.3e307
    lambda rho: 8e307 * np.stack([1 / (1 + rho) ** 3, rho / (1 + rho) ** 4]),
    # a narrow bump on the head, at rho = 0.3, or on the tail, at rho = 3
    lambda rho: np.stack([1 / ((1 + 400 * (rho - 0.3) ** 2) * (1 + rho) ** 3), 1 / (1 + rho) ** 3]),
    lambda rho: np.stack([1 / ((1 + 400 * (rho - 3) ** 2) * (1 + rho) ** 3), rho / (1 + rho) ** 4]),
]
OK, CUBIC, LATE, EARLY, BIG, BUMP_HEAD, BUMP_TAIL = range(len(GRID_ROWS))

# the most panels the batch evaluates: _FIRST_PANELS doubled up to the cap
CAP_PANELS = _FIRST_PANELS * 2 ** int(math.log2(_MAX_SUBINTERVALS / _FIRST_PANELS))


class TestBatchOnTheHalfLine:
    """Integrals over [0, oo) on gauss_kronrod_batch under the extremal family's split map."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_closed_forms(self, tol):
        # every row meets the tolerance on its own, whatever its size
        values, errors, _ = gauss_kronrod_batch(half_line([algebraic_rows]), [[0, 1.0]],
                                                QuadratureSpec(relative_tolerance=tol))
        assert values.shape == errors.shape == (3, 1)
        for value, error, exact in zip(values[:, 0], errors[:, 0], ALGEBRAIC_EXACT):
            assert abs(value - exact) <= tol * abs(exact)
            assert error <= tol * abs(value)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_rows_agree_with_scalar_integrals(self, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        values, errors, _ = gauss_kronrod_batch(half_line([algebraic_rows]), [[0, 1.0]], spec)
        for i, (value, error) in enumerate(zip(values[:, 0], errors[:, 0])):
            prof = RadialProfile(lambda r, i=i: float(algebraic_rows(np.array([r]))[i, 0]), DecayClass.algebraic())
            scalar = radial_integral(prof, ("power", 0), spec)
            assert abs(value - scalar.value) <= error + scalar.error_estimate

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_slow_algebraic_tail(self, tol):
        # int rho^-1/2 / (1 + rho) = pi: 2 / (1 + x^2) on the head and
        # 2 / (1 + (1 - x)^2) on the tail, so the first panels meet the rule
        # at every split
        rows = [lambda rho: (1 / (np.sqrt(rho) * (1 + rho)))[None]]
        values, errors, evals = gauss_kronrod_batch(half_line(rows), [[0, 0.25], [0, 1.0], [0, 4.0]],
                                                    QuadratureSpec(relative_tolerance=tol))
        assert (np.abs(values[0] - math.pi) <= errors[0]).all() and (errors[0] <= tol * math.pi).all()
        assert evals == 3 * _FIRST_PANELS * QK21

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_beta_rows(self, tol):
        # int rho^(a-1) (1 + rho)^-(a+b) = B(a, b): half-integer powers at 0
        # and at infinity, every row within its estimate of the Beta function
        # (plus a few ulp of its lgamma form)
        ab = [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)]
        rows = [lambda rho: np.stack([rho ** (a - 1) * (1 + rho) ** -(a + b) for a, b in ab])]
        values, errors, _ = gauss_kronrod_batch(half_line(rows), [[0, 1.0]], QuadratureSpec(relative_tolerance=tol))
        for value, error, (a, b) in zip(values[:, 0], errors[:, 0], ab):
            exact = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            assert abs(value - exact) <= error + 2.0**-50 * exact
            assert error <= tol * abs(value)

    def test_nodes_inside_the_unit_interval(self):
        # the map divides by x on the head and by 1 - x on the tail: no node
        # of any panel count up to the cap is 0 or rounds to 1.0, so a
        # caller's divide="raise" sees the cap's QuadratureError
        panels = _FIRST_PANELS
        while panels <= _MAX_SUBINTERVALS:
            x, _ = quadrature._panel_table(panels)
            assert x.size == panels * QK21 and 0.0 < x.min() and x.max() < 1.0
            panels *= 2
        from sharpineq.flat import ExponentTriple, check_pqr_identity

        with np.errstate(divide="raise"):
            with pytest.raises(QuadratureError, match=f"not met with {CAP_PANELS} panels at 1 parameters"):
                gauss_kronrod_batch(half_line(GRID_ROWS), [[OK, 1.0], [LATE, 1.0]])
            with pytest.raises(QuadratureError, match=f"not met with {CAP_PANELS} panels at 1 parameters"):
                check_pqr_identity(ExponentTriple(3, 3.0, 1.49975), [1.0])

    def test_non_finite_row_named(self):
        # every value is finite, but the Kronrod sums of the second row
        # overflow, and so do its values times d rho / dx on the tail; the
        # text counts that parameter and names it
        rows = [GRID_ROWS[CUBIC], lambda rho: np.stack([1 / (1 + rho) ** 3, np.full(rho.shape, 1e308)])]
        with pytest.raises(QuadratureError) as exc:
            gauss_kronrod_batch(half_line(rows), [[0, 1.0], [1, 1.0], [0, 2.0]])
        assert str(exc.value) == "non-finite integral at 1 of 3 parameters, first at [1.0, 1.0]: outside the float range"

    def test_panel_cap(self):
        # a row that oscillates on the head, 0 on the tail: the text counts
        # the parameters that miss the rule and names the worst
        rows = [GRID_ROWS[OK], lambda rho: np.where(rho <= 1, np.cos(2e4 * rho), 0.0)[None]]
        with pytest.raises(QuadratureError) as exc:
            gauss_kronrod_batch(half_line(rows[1:]), [[0, 1.0]], QuadratureSpec(relative_tolerance=1e-12))
        assert re.fullmatch(
            rf"requested tolerance 1e-12 not met with {CAP_PANELS} panels at 1 parameters; "
            r"worst at \[0\.0, 1\.0\]: relative error estimate \S+",
            str(exc.value),
        )

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_grid_equals_each_parameter_alone(self, tol):
        # a grid whose parameters refine on the head, on the tail or not at
        # all, at several splits, gives each parameter the bits it gives alone
        spec = QuadratureSpec(relative_tolerance=tol)
        grid = [[BUMP_TAIL, 1.0], [OK, 0.5], [BUMP_HEAD, 1.0], [CUBIC, 2.0], [OK, 1.0]]
        values, errors, evals = gauss_kronrod_batch(half_line(GRID_ROWS), grid, spec)
        alone = [gauss_kronrod_batch(half_line(GRID_ROWS), [p], spec) for p in grid]
        for i, (v, e, n) in enumerate(alone):
            assert values[:, i].tobytes() == v[:, 0].tobytes() and errors[:, i].tobytes() == e[:, 0].tobytes()
        # the bumps refine, the smooth rows do not
        assert evals == sum(n for *_, n in alone) > len(grid) * _FIRST_PANELS * QK21
        assert [n for *_, n in alone][1::2] == [_FIRST_PANELS * QK21] * 2

    @pytest.mark.parametrize(
        "rows, text",
        [
            ([BIG] * 4, None),
            ([BIG, BIG, EARLY, BIG, BIG], r"non-finite integral at 1 of 5 parameters, first at \[3\.0, 1\.0\]: "
                                          r"outside the float range"),
            ([BIG, LATE, BIG], rf"requested tolerance 1e-09 not met with {CAP_PANELS} panels at 1 "
                               r"parameters; worst at \[2\.0, 1\.0\]: relative error estimate \S+"),
        ],
    )
    def test_grid_near_the_float_range(self, rows, text):
        # the integrals of a "big" row are finite, their sum over four such
        # parameters is not: each parameter gives what it gives alone, and a
        # parameter in the middle that fails, in the first round or at the
        # cap, names itself
        big = gauss_kronrod_batch(half_line(GRID_ROWS), [[BIG, 1.0]])[0][:, 0]
        assert big == pytest.approx([4e307, 8e307 / 6], rel=1e-9) and 4 * sum(big.tolist()) == math.inf
        grid = [[j, 1.0] for j in rows]
        if text is None:
            values, _, _ = gauss_kronrod_batch(half_line(GRID_ROWS), grid)
            assert all(values[:, i].tobytes() == big.tobytes() for i in range(len(grid)))
        else:
            with pytest.raises(QuadratureError) as exc:
                gauss_kronrod_batch(half_line(GRID_ROWS), grid)
            assert re.fullmatch(text, str(exc.value))


class TestVolumeIntegrals:
    def test_flat_gaussian(self):
        # int_{R^2} e^{-|x|^2} dx = pi
        prof = RadialProfile(lambda r: math.exp(-r * r), DecayClass.gaussian(1.0))
        res = flat_radial_volume_integral(prof, 2)
        assert res.value == pytest.approx(math.pi, rel=1e-10)

    def test_flat_ball_indicator(self):
        prof = RadialProfile(lambda r: 1.0 if r < 1.0 else 0.0, DecayClass.compact(1.0))
        res = flat_radial_volume_integral(prof, 3)
        assert res.value == pytest.approx(4 * math.pi / 3, rel=1e-10)

    def test_hyperbolic_ball_indicator(self):
        for R in (1.0, 2.0):
            prof = RadialProfile(lambda r, R=R: 1.0 if r < R else 0.0, DecayClass.compact(R))
            res = hyperbolic_radial_volume_integral(prof, 2)
            assert res.value == pytest.approx(2 * math.pi * (math.cosh(R) - 1), rel=1e-10)

    def test_zero_function(self):
        prof = RadialProfile(lambda r: 0.0, DecayClass.compact(1.0))
        assert hyperbolic_radial_volume_integral(prof, 3).value == 0.0

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_scaling_law(self, s):
        prof = gauss_profile()
        scaled = RadialProfile(lambda r: math.exp(-((s * r) ** 2)), DecayClass.gaussian(s * s))
        base = flat_radial_volume_integral(prof, 3).value
        assert flat_radial_volume_integral(scaled, 3).value == pytest.approx(
            s ** -3 * base, rel=1e-8
        )


def gaussian_mass_closed_form(k, alpha):
    """k omega_k int e^(-alpha rho^2) sinh^(k-1) rho d rho via the binomial expansion.

    sinh^m = 2^-m sum_j C(m, j) (-1)^j e^((m - 2j) rho), and
    int_0^oo e^(-alpha rho^2 + c rho) = sqrt(pi/alpha)/2 e^(c^2/4alpha) erfc(-c/(2 sqrt alpha)).
    The alternating sum cancels; for alpha <= 20 and k <= 6 it loses under
    four digits.
    """
    m = k - 1
    total = sum(
        math.comb(m, j) * (-1) ** j * math.exp((m - 2 * j) ** 2 / (4 * alpha))
        * math.erfc(-(m - 2 * j) / (2 * math.sqrt(alpha)))
        for j in range(m + 1)
    )
    return k * ball_volume_constant(k) * math.sqrt(math.pi / alpha) / 2 ** (m + 1) * total


class TestGaussKronrodBatch:
    def test_rule_exact_on_polynomials(self):
        # K21 is exact to degree 31 and G10 to degree 19 on every panel, which
        # pins every entry of the hard-coded node and weight table
        degrees = np.arange(32)
        values, errors, evals = gauss_kronrod_batch(lambda x, j: x ** j, degrees)
        assert values == pytest.approx(1 / (degrees + 1), rel=1e-14)
        assert np.all(errors[:20] <= 1e-15)
        assert evals == degrees.size * 4 * 21

    def test_blocks_bound_memory(self):
        from sharpineq.quadrature import _BLOCK_VALUES

        sizes = []

        def integrand(x, p):
            sizes.append(p.size * x.size)
            return np.exp(-p * x)

        params = np.linspace(0.1, 5.0, 2000)
        values, _, _ = gauss_kronrod_batch(integrand, params)
        assert max(sizes) <= _BLOCK_VALUES and len(sizes) > 1
        assert values == pytest.approx(-np.expm1(-params) / params, rel=1e-12)

    def test_blocks_count_every_integral(self):
        # after the first block, which tells how many integrals a parameter
        # has, a block holds at most _BLOCK_VALUES values of all of them
        from sharpineq.quadrature import _BLOCK_VALUES

        sizes = []

        def integrand(x, p):
            f = np.stack([np.exp(-p * x), x * np.exp(-p * x), np.ones_like(p * x)])
            sizes.append(f.size)
            return f

        params = np.linspace(0.1, 5.0, 2000)
        values, _, _ = gauss_kronrod_batch(integrand, params)
        assert max(sizes[1:]) <= _BLOCK_VALUES < sizes[0]
        assert values[0] == pytest.approx(-np.expm1(-params) / params, rel=1e-12)
        assert values[2] == pytest.approx(1.0, rel=1e-14)

    def test_empty_grid(self):
        # the integrand on the empty block tells q: (q, 0) values and
        # estimates, (0,) for one integral per parameter, and no evaluation
        values, errors, evals = gauss_kronrod_batch(lambda x, p: np.stack([x * p, x + p, np.exp(-p * x)]), [])
        assert values.shape == errors.shape == (3, 0) and evals == 0
        values, errors, evals = gauss_kronrod_batch(lambda x, p: x * p, [])
        assert values.shape == errors.shape == (0,) and evals == 0
        masses, errors, evals = hyperbolic_gaussian_masses(3, [])
        assert masses.shape == errors.shape == (0,) and evals == 0
        masses, errors, evals = hyperbolic_gaussian_masses([3, 4], [])
        assert masses.shape == errors.shape == (2, 0) and evals == 0

    def test_non_finite_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"), np.errstate(all="ignore"):
            gauss_kronrod_batch(lambda x, p: np.exp(p * 1e3 * x), [1.0])

    def test_caller_error_state(self):
        # the integrand runs with overflow and invalid values ignored, but
        # the caller gets its own state back, after a result, an error the
        # batch raises, or an integrand that raises
        def raising(x, p):
            raise ValueError("an integrand failed")

        with np.errstate(over="raise", invalid="raise"):
            state = np.geterr()
            gauss_kronrod_batch(lambda x, p: np.exp(-p * x), [1.0, 2.0])
            assert np.geterr() == state
            with pytest.raises(QuadratureError, match="non-finite"):
                gauss_kronrod_batch(lambda x, p: np.exp(p * 1e3 * x), [1.0])
            assert np.geterr() == state
            with pytest.raises(ValueError):
                gauss_kronrod_batch(raising, [1.0])
            assert np.geterr() == state

    def test_mass_beyond_float_range_named_without_warning(self):
        # at n = 4, alpha = 0.001 the mass is about e^2250; alpha = 0.5 is a
        # series mass, so the count is of the one alpha the fallback took
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as exc:
                hyperbolic_gaussian_masses(4, [0.5, 0.001])
        assert str(exc.value) == (
            "non-finite integral at 1 of 1 parameters, first at 0.001: outside the float range"
        )

    def test_fallback_masses_are_gaussian_integrals_of_their_alpha(self):
        # a ko-refute grid at n = 6 (masses of n - 2 and n): below about
        # alpha = 0.24 the series needs more terms than its cap, and those
        # masses are gaussian_integrals of their (alpha, 0) alone, bit for
        # bit; the rest are series sums
        spec = QuadratureSpec(relative_tolerance=1e-12)
        ns = [4, 6]
        alphas = np.concatenate([np.linspace(0.02, 0.5, 49), [3.0, 50.0]])
        masses, errors, _ = hyperbolic_gaussian_masses(ns, alphas, spec)
        series, series_errors, _, served = _series_masses(ns, alphas)
        met = served & ((series_errors <= 1e-12 * series) & (series >= quadrature._TINY)).all(axis=0)
        assert 0 < met.sum() < alphas.size
        for j in np.flatnonzero(~met):
            values, errs, _ = gaussian_integrals([(n - 1, None) for n in ns], [(alphas[j], 0.0)], spec)
            assert masses[:, j].tolist() == values[:, 0].tolist()
            assert errors[:, j].tolist() == errs[:, 0].tolist()
        assert masses[:, met].tolist() == series[:, met].tolist()
        assert errors[:, met].tolist() == series_errors[:, met].tolist()

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_masses_match_quad_oracle(self, n, tol):
        # every 64th node of a 4096-node scan grid spanning all scan bands
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(0.5, 400.0, 4096)
        for k in (n - 2, n):
            masses, errors, _ = hyperbolic_gaussian_masses(k, alphas, spec)
            assert np.all(errors <= tol * masses)
            for a, got in zip(alphas[::64], masses[::64]):
                oracle = hyperbolic_radial_volume_integral(gauss_profile(a), k, spec).value
                assert got == pytest.approx(oracle, rel=10 * tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_masses_closed_form(self, k, tol):
        # below alpha ~ 0.035 sinh^5 alone overflows on the truncated range
        # while the k = 6 mass is still a finite double
        alphas = np.concatenate([[0.02, 0.05, 0.1, 0.25], np.linspace(0.5, 20.0, 64)])
        masses, _, _ = hyperbolic_gaussian_masses(k, alphas, QuadratureSpec(relative_tolerance=tol))
        for a, got in zip(alphas, masses):
            assert got == pytest.approx(gaussian_mass_closed_form(k, a), rel=10 * tol)

    def test_unattainable_tolerance_raises(self):
        spec = QuadratureSpec(relative_tolerance=1e-20)
        with pytest.raises(QuadratureError, match=r"not met .* worst at (3\.0|50\.0)"):
            hyperbolic_gaussian_masses(4, [3.0, 50.0], spec)

    def test_masses_need_positive_dimension(self):
        with pytest.raises(ValueError):
            hyperbolic_gaussian_masses(0, [1.0])
        with pytest.raises(ValueError):
            hyperbolic_gaussian_masses((0, 2), [1.0])

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mass_pair_matches_single_masses(self, n, tol):
        # both masses stay within rounding (16 ulp) of their own passes, and
        # the evaluations count the series terms of both; the terms serve the
        # unit roundoff, so they do not depend on the tolerance
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(3.0, 100.0, 256)
        pair, errors, evals = hyperbolic_gaussian_masses((n - 2, n), alphas, spec)
        assert pair.shape == errors.shape == (2, alphas.size)
        assert np.all(errors <= tol * pair)
        assert evals == {3: 2481, 4: 4376, 5: 5244, 6: 6041}[n]
        for row, k in zip(pair, (n - 2, n)):
            single = hyperbolic_gaussian_masses(k, alphas, spec)[0]
            assert np.all(np.abs(row - single) <= 16 * np.spacing(single))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k", range(0, 12))
    def test_flat_moments_closed_form(self, k, tol):
        # int_0^oo s^k e^(-s^2) ds = Gamma((k+1)/2) / 2, for k and k + 2 on
        # one pass over [0, 12], past which s^13 e^(-s^2) is below 1e-48
        def integrand(x, p):
            s = 12.0 * x + 0.0 * p
            return np.stack([12.0 * s**j * np.exp(-s * s) for j in (k, k + 2)])

        values, errors, evals = gauss_kronrod_batch(integrand, np.zeros(1), QuadratureSpec(relative_tolerance=tol))
        want = [math.gamma((j + 1) / 2) / 2 for j in (k, k + 2)]
        assert values[:, 0].tolist() == pytest.approx(want, rel=1e-12)
        assert np.all(errors <= tol * values)
        assert evals % (_FIRST_PANELS * _GK21_NODES.size) == 0

    @pytest.mark.parametrize("params", [[1.0, 2.0], [[1.0, 0.0, 0.0]], [[[1.0, 0.0]]], 1.0])
    def test_params_must_be_rate_beta_pairs(self, params):
        with pytest.raises(ValueError, match=r"params must be \(rate, beta\) pairs of shape \(N, 2\)"):
            gaussian_integrals([(1, None)], params)

    def test_several_integrals_per_parameter_row(self):
        # (N, 2) parameters, three integrals each; a parameter is refined
        # until all three meet the tolerance
        grid = np.array([[1.0, 0.0], [2.0, 1.0], [40.0, 3.0]])

        def integrand(x, p):
            a, b = p[..., 0], p[..., 1]
            return np.stack([np.exp(-a * x), x**b, np.cos(a * x)])

        values, errors, _ = gauss_kronrod_batch(integrand, grid)
        a, b = grid[:, 0], grid[:, 1]
        assert values.shape == errors.shape == (3, 3)
        assert values[0] == pytest.approx(-np.expm1(-a) / a, rel=1e-12)
        assert values[1] == pytest.approx(1 / (b + 1), rel=1e-12)
        assert values[2] == pytest.approx(np.sin(a) / a, rel=1e-9)
        assert np.all(errors <= 1e-9 * np.abs(values))


def gauss_kronrod_batch_summed(integrand, params, spec=QuadratureSpec()):
    """gauss_kronrod_batch with its sums as elementwise products and .sum reductions."""
    params = np.asarray(params, dtype=float)
    count = len(params)
    values = errors = None
    tol = spec.relative_tolerance
    todo = np.arange(count)
    panels, evals = _FIRST_PANELS, 0
    while True:
        half = 0.5 / panels
        x = ((np.arange(panels)[:, None] + 0.5) / panels + half * _GK21_NODES).ravel()
        wk = half * _GK21_KRONROD
        wd = half * (_GK21_KRONROD - _GK21_GAUSS)
        rows = max(1, _BLOCK_VALUES // x.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, todo.size, rows):
                idx = todo[start:start + rows]
                f = integrand(x, params[idx, None])
                if values is None:
                    values = np.empty(f.shape[:-2] + (count,))
                    errors = np.empty(values.shape)
                f = f.reshape(f.shape[:-2] + (idx.size, panels, _GK21_NODES.size))
                values[..., idx] = (f * wk).sum(axis=-1).sum(axis=-1)
                errors[..., idx] = np.abs((f * wd).sum(axis=-1)).sum(axis=-1)
        evals += todo.size * x.size
        val = values[..., todo].reshape(-1, todo.size)
        err = errors[..., todo].reshape(-1, todo.size)
        assert np.isfinite(val).all()
        missed = (err > tol * np.abs(val)).any(axis=0)
        if not missed.any():
            return values, errors, evals
        assert 2 * panels <= _MAX_SUBINTERVALS
        todo = todo[missed]
        panels *= 2


def batch_outputs(batch, compute):
    """compute() with quadrature.gauss_kronrod_batch replaced by batch; its (values, evals) per call."""
    seen = []

    def recording(integrand, params, spec=QuadratureSpec(), describe=repr):
        values, errors, evals = batch(integrand, params, spec)
        seen.append((values, evals))
        return values, errors, evals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "gauss_kronrod_batch", recording)
        compute()
    return seen


# the alpha range of each suite-all band in perfbench/workloads.py
SCAN_RANGES = [(0.5, 20.0), (3.0, 100.0), (50.0, 400.0), (2.0, 80.0)]
# a dimension to integrate in over each range
SCAN_BANDS = list(zip((1, 2, 4, 6), SCAN_RANGES))


class TestBatchSums:
    """The (21, 2) weight product against the summed oracle, and its row independence."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("band", SCAN_RANGES)
    def test_masses_within_4_ulp_of_summed_oracle(self, band, tol):
        # the gaussian masses' integrals in s, one row of weight sinh^(dim - 1)
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 4096)
        for dim in range(1, 7):
            grid = np.stack([alphas, np.zeros(alphas.size)], axis=1)
            runs = [batch_outputs(b, lambda: gaussian_integrals([(dim - 1, None)], grid, spec))
                    for b in (gauss_kronrod_batch, gauss_kronrod_batch_summed)]
            (got, got_evals), (want, want_evals) = runs[0][0], runs[1][0]
            assert got_evals == want_evals
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("band", SCAN_RANGES)
    def test_moments_within_4_ulp_of_summed_oracle(self, band, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 512)[:, None]
        betas = np.array([0.0, 0.5, 2.0])
        for n in range(3, 9):
            runs = [batch_outputs(b, lambda: hyperbolic_gaussian_moments(n, alphas, betas, spec))
                    for b in (gauss_kronrod_batch, gauss_kronrod_batch_summed)]
            (got, got_evals), (want, want_evals) = runs[0][0], runs[1][0]
            assert got_evals == want_evals
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k, band", SCAN_BANDS)
    def test_mass_alone_equals_grid_value(self, k, band, tol):
        # a shift by one grid point moves every alpha across its block's
        # boundary, to the last row of one block or the first of the next
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 4096)
        grid = np.stack(hyperbolic_gaussian_masses(k, alphas, spec)[:2])
        alone = np.array([hyperbolic_gaussian_masses(k, [a], spec)[:2] for a in alphas])
        assert np.array_equal(alone[..., 0].T, grid)
        shifted = np.stack(hyperbolic_gaussian_masses(k, alphas[1:], spec)[:2])
        assert np.array_equal(shifted, grid[:, 1:])

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k, band", SCAN_BANDS)
    def test_moments_alone_equal_grid_value(self, k, band, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas, beta, n = np.linspace(*band, 4096), 0.5, k + 2
        grid = np.stack(hyperbolic_gaussian_moments(n, alphas, beta, spec)[:2])
        alone = np.array([hyperbolic_gaussian_moments(n, a, beta, spec)[:2] for a in alphas])
        assert np.array_equal(np.moveaxis(alone, 0, -1), grid)
        shifted = np.stack(hyperbolic_gaussian_moments(n, alphas[1:], beta, spec)[:2])
        assert np.array_equal(shifted, grid[..., 1:])

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n, band", list(zip((3, 4, 5, 6), SCAN_RANGES)))
    def test_mass_pair_alone_equals_grid_value(self, n, band, tol):
        # the two masses of a ko-refute scan share one node set and refine together
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 4096)
        grid = np.stack(hyperbolic_gaussian_masses((n - 2, n), alphas, spec)[:2])
        alone = np.stack([hyperbolic_gaussian_masses((n - 2, n), [a], spec)[:2] for a in alphas], axis=-1)
        assert np.array_equal(alone[..., 0, :], grid)
        shifted = np.stack(hyperbolic_gaussian_masses((n - 2, n), alphas[1:], spec)[:2])
        assert np.array_equal(shifted, grid[..., 1:])

    def test_block_boundary_falls_inside_the_grid(self):
        # the first pass of a 4096-alpha grid spans several blocks
        assert 1 < _BLOCK_VALUES // (_FIRST_PANELS * _GK21_NODES.size) < 4096


def batch_result(call):
    """call()'s (values, estimates, evaluations) as lists, or the text of its QuadratureError."""
    try:
        values, errors, evals = call()
    except QuadratureError as exc:
        return str(exc)
    return values.tolist(), errors.tolist(), evals


# two integrals per parameter on [0, 1]: at 1e-12 the rule meets e^(-p x)
# and cos(p x) on 4 panels for a small p and refines them for a large one
def two_rows(x, p):
    return np.stack([np.exp(-p * x), np.cos(p * x)])


MIXED_GRID = np.array([0.5, 40.0, 1.0, 90.0, 2.0, 160.0, 0.25])


class TestBatchPaths:
    """The first round of one block, and blocks that are slices of params,
    against several blocks and the refining rounds' indexed blocks."""

    @pytest.mark.parametrize("block", [1, 2 * 84, 3 * 84 + 5])
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: gauss_kronrod_batch(two_rows, MIXED_GRID, spec),
            lambda spec: gauss_kronrod_batch(lambda x, p: np.exp(p * 1e3 * x), [0.1, 0.2, 1.0, 0.3, 2.0], spec),
            lambda spec: gauss_kronrod_batch(two_rows, MIXED_GRID, QuadratureSpec(relative_tolerance=1e-15)),
            lambda spec: gaussian_integrals(
                [(4, None), (4, lambda rho, p: rho * rho)], [(a, b) for a in (0.5, 4.0, 50.0) for b in (0.0, 2.0)], spec
            ),
        ],
        ids=["refining", "non-finite", "tolerance", "gaussian"],
    )
    def test_several_first_blocks_equal_one(self, call, block, monkeypatch):
        # a block of 1 value holds one parameter; 2 * 84 values hold two
        # parameters at the first panel count, until the first block tells
        # how many integrals a parameter has, and fewer after it
        spec = QuadratureSpec(relative_tolerance=1e-12)
        with np.errstate(over="ignore"):
            one = batch_result(lambda: call(spec))
            monkeypatch.setattr(quadrature, "_BLOCK_VALUES", block)
            several = batch_result(lambda: call(spec))
        assert several == one

    @pytest.mark.parametrize(
        "call, text, evaluations",
        [
            ("hardy", "at 1 of 1 parameters, first at a = 1e+209 for n = 4", 84),
            ("moments", "at 2 of 2 parameters, first at (alpha, beta) = (1e+209, 0.0) for n = 4", 168),
            ("mixed", "at 1 of 2 parameters, first at a = 1e+209 for n = 4", 168),
        ],
        ids=["hardy", "moments", "mixed"],
    )
    def test_underflowed_parameter_named_in_the_first_round(self, call, text, evaluations, monkeypatch):
        # a row whose integral is subnormal, with a positive estimate, misses
        # the rule at every panel count; its parameter is named after the
        # first round's 84 nodes (it refined up to 512 panels, then read
        # "relative error estimate nan"), and a normal parameter beside it
        # is not refined either
        from sharpineq.hyperbolic import gaussian_hardy_hyperbolic_reports

        calls = {
            "hardy": lambda: gaussian_hardy_hyperbolic_reports(4, [1e209]),
            "moments": lambda: hyperbolic_gaussian_moments(4, [1e209], [0.0, 2.0]),
            "mixed": lambda: gaussian_hardy_hyperbolic_reports(4, [1.0, 1e209]),
        }
        nodes = []
        batch = quadrature.gauss_kronrod_batch

        def counting(integrand, params, spec=QuadratureSpec(), describe=repr):
            def f(x, p):
                nodes.append(x.size * len(p))
                return integrand(x, p)

            return batch(f, params, spec, describe)

        monkeypatch.setattr(quadrature, "gauss_kronrod_batch", counting)
        with pytest.raises(QuadratureError) as exc:
            calls[call]()
        assert str(exc.value) == "integral outside the normal floats " + text
        assert sum(nodes) == evaluations

    def test_refusals_name_the_same_parameter(self):
        # the texts the comparison above holds equal
        with np.errstate(over="ignore"):
            texts = [
                batch_result(lambda: gauss_kronrod_batch(lambda x, p: np.exp(p * 1e3 * x), [0.1, 0.2, 1.0, 0.3, 2.0])),
                batch_result(lambda: gauss_kronrod_batch(two_rows, MIXED_GRID, QuadratureSpec(1e-15))),
            ]
        assert texts[0] == "non-finite integral at 2 of 5 parameters, first at 1.0: outside the float range"
        assert re.fullmatch(
            r"requested tolerance 1e-15 not met with 512 panels at \d parameters; "
            r"worst at \S+: relative error estimate \S+", texts[1]
        )

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_only_some_parameters_refine(self, tol):
        # the parameters that refine are evaluated from indexed blocks in the
        # rounds after the first: the grid gives what each gives alone
        spec = QuadratureSpec(relative_tolerance=tol)
        grid = gauss_kronrod_batch(two_rows, MIXED_GRID, spec)
        alone = [gauss_kronrod_batch(two_rows, MIXED_GRID[i:i + 1], spec) for i in range(MIXED_GRID.size)]
        evals = [a[2] for a in alone]
        assert min(evals) == 4 * 21 < max(evals) and grid[2] == sum(evals)
        for got, want in zip(grid[:2], zip(*(a[:2] for a in alone))):
            assert np.array_equal(got, np.concatenate(want, axis=1))


def series_against_quadrature(n, band, tol):
    """The pair of masses of a 4096-alpha ko-refute scan in dimension n where
    the series serves it: (series masses, their estimates, gaussian_integrals
    masses, their estimates)."""
    spec = QuadratureSpec(relative_tolerance=tol)
    alphas = np.linspace(*band, 4096)
    ns = [n - 2, n]
    masses, errors, _, served = _series_masses(ns, alphas)
    grid = np.stack([alphas, np.zeros(alphas.size)], axis=1)
    values, estimates, _ = gaussian_integrals([(k - 1, None) for k in ns], grid, spec)
    return masses[:, served], errors[:, served], values[:, served], estimates[:, served]


class TestMassSeries:
    """The gaussian masses as a positive series in 1/alpha."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("band", SCAN_RANGES)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_series_agrees_with_quadrature(self, n, band, tol):
        masses, errors, values, estimates = series_against_quadrature(n, band, tol)
        assert masses.shape[1] > 0
        assert np.all(np.abs(masses - values) <= errors + estimates)

    @pytest.mark.parametrize("k, j", [(3, 1), (5, 0), (5, 4)])
    def test_a_wrong_coefficient_is_caught(self, monkeypatch, k, j):
        # one b_(k, j) off by 1e-6 moves the masses of n = k + 1 by up to
        # 1e-6 of that term's share, far outside both estimates
        table = quadrature._mass_series

        def scaled(kk):
            b, m, rho, th = table(kk)
            if kk == k:
                b = b.copy()
                b[j] *= 1 + 1e-6
            return b, m, rho, th

        monkeypatch.setattr(quadrature, "_mass_series", scaled)
        masses, errors, values, estimates = series_against_quadrature(k + 1, (3.0, 100.0), 1e-9)
        assert not np.all(np.abs(masses - values) <= errors + estimates)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_alone_equals_grid_across_the_cap(self, n, tol):
        # the small alphas of the grid need more terms than the cap and take
        # the Gauss-Kronrod pass; every alpha gives its alone value, in any
        # order of the grid
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.geomspace(0.02, 400.0, 64)
        served = _series_masses([n - 2, n], alphas)[3]
        assert served.any() and not served.all()
        grid = np.stack(hyperbolic_gaussian_masses((n - 2, n), alphas, spec)[:2])
        alone = np.stack([hyperbolic_gaussian_masses((n - 2, n), [a], spec)[:2] for a in alphas], axis=-1)
        assert np.array_equal(alone[..., 0, :], grid)
        backwards = np.stack(hyperbolic_gaussian_masses((n - 2, n), alphas[::-1], spec)[:2])
        assert np.array_equal(backwards, grid[..., ::-1])

    @pytest.mark.parametrize("k", range(0, 8))
    def test_coefficients_against_a_convolution(self, k):
        # c_j of (sinh y / y)^k as the k-fold convolution of 1/(2i + 1)!, in
        # integers scaled by L = (2 cap + 1)! per factor, then
        # b_j = c_j Gamma((k + 2j + 1)/2) / 2 with Gamma of a half-integer
        # h + 1/2 as (2h)! sqrt(pi) / (4^h h!); the majorant's m_J and ratio
        # rho_J from their formulas
        b, m, rho, _ = _mass_series(k)
        cap = len(b)
        L = math.factorial(2 * cap + 1)
        a = [L // math.factorial(2 * i + 1) for i in range(cap)]
        c = [1] + [0] * (cap - 1)
        for _ in range(k):
            c = [sum(c[j - i] * a[i] for i in range(j + 1)) for j in range(cap)]
        want = []
        for j, cj in enumerate(c):
            if k % 2:
                want.append(cj * math.factorial((k - 1) // 2 + j) / (2 * L**k))
            else:
                h = k // 2 + j
                want.append(cj * math.factorial(2 * h) / (2 * L**k * 4**h * math.factorial(h)) * math.sqrt(math.pi))
        assert b.tolist() == pytest.approx(want, rel=4 * _UNIT, abs=0)
        J = np.arange(1, cap + 1)
        want = [math.exp(2 * j * math.log(k) + math.lgamma((k + 2 * j + 1) / 2) - math.lgamma(2 * j + 1)) / 2
                if k else 0.0 for j in J]
        assert m[1:].tolist() == pytest.approx(want, rel=1e-12, abs=0)
        assert np.array_equal(rho[1:], k * k * (k + 2 * J + 1) / (2 * (2 * J + 1) * (2 * J + 2)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_estimate_covers_tail_and_rounding(self, n):
        # a series mass's estimate is its tail bound plus the rounding bound
        # of 2J + 4 + ceil(n/2) unit roundoffs
        b, m, rho, th = _mass_series(n - 1)
        alphas = np.geomspace(max(th[-1], 0.01), 1e4, 50)
        masses, errors, terms, served = _series_masses([n], alphas)
        assert served.all()
        c = n * ball_volume_constant(n)
        for alpha, mass, err, J in zip(alphas, masses[0], errors[0], terms[0].tolist()):
            x = 1 / alpha
            tail = c * m[J] * x**J * x ** (n / 2) / (1 - rho[J] * x)
            rounding = (2 * J + 4 + (n + 1) // 2) * _UNIT * mass
            assert err >= (tail + rounding) * (1 - 1e-12)

    @pytest.mark.parametrize("k", range(0, 8))
    def test_tail_bound_holds(self, k):
        # the sum to 2J terms exceeds the sum to J by at most the tail bound
        # m_J x^J / (1 - rho_J x), and the coefficients lie under the majorant
        b, m, rho, th = _mass_series(k)
        assert np.all(b <= m[:-1])
        for alpha in np.geomspace(0.5, 400.0, 12):
            x = 1 / alpha
            terms = [bj * x**j for j, bj in enumerate(b)]
            for J in range(1, len(b) // 2 + 1):
                if rho[J] * x < 1:
                    bound = m[J] * x**J / (1 - rho[J] * x)
                    assert math.fsum(terms[:J]) + bound >= math.fsum(terms[: 2 * J])
                    assert math.fsum(terms[J : 2 * J]) <= bound

    @pytest.mark.parametrize("k", range(0, 8))
    def test_terms_fall_with_alpha_and_serve_the_unit_roundoff(self, k):
        # the number of terms of a mass falls as alpha grows, and at it the
        # tail bound is at most a unit roundoff of the sum
        b, m, rho, th = _mass_series(k)
        assert np.all(np.diff(th) <= 0)
        alphas = np.geomspace(max(th[-1], 0.01), 1e6, 200)
        _, _, terms, served = _series_masses([k + 1], alphas)
        assert served.all() and np.all(np.diff(terms[0]) <= 0)
        for alpha, J in zip(alphas, terms[0].tolist()):
            x = 1 / alpha
            total = math.fsum(bj * x**j for j, bj in enumerate(b[:J]))
            assert rho[J] * x <= 0.5 and m[J] * x**J / (1 - rho[J] * x) <= _UNIT * total


class TestGaussianMoments:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_mass_at_beta_zero_is_gaussian_mass_of_twice_the_rate(self, n, tol):
        # u^2 = e^(-2 alpha rho^2) when beta = 0
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0, 512.0, 2048.0])
        (_, _, L), errors, _ = hyperbolic_gaussian_moments(n, alphas, 0.0, spec)
        masses, _, _ = hyperbolic_gaussian_masses(n, 2 * alphas, spec)
        assert L == pytest.approx(masses, rel=10 * tol)
        assert np.all(errors[2] <= tol * L)

    def test_moments_against_per_point_integrals(self):
        # A = int (2 alpha rho + beta)^2 u^2, M = int rho^2 u^2, L = int u^2
        spec = QuadratureSpec(relative_tolerance=1e-11)
        n, a, b = 5, 0.7, 1.5
        (A, M, L), _, _ = hyperbolic_gaussian_moments(n, a, b, spec)
        rate = DecayClass.gaussian(2 * a)

        def moment(weight):
            prof = RadialProfile(lambda r: weight(r) * math.exp(-2 * a * r * r - 2 * b * r), rate)
            return hyperbolic_radial_volume_integral(prof, n, spec).value

        assert A == pytest.approx(moment(lambda r: (2 * a * r + b) ** 2), rel=1e-10)
        assert M == pytest.approx(moment(lambda r: r * r), rel=1e-10)
        assert L == pytest.approx(moment(lambda r: 1.0), rel=1e-10)

    def test_weight_rows_on_the_same_nodes(self):
        # a weight of 1 repeats L bit for bit; rho^2 repeats M
        alphas, betas = np.array([0.5, 3.0, 40.0]), np.array([0.0, 1.0, 0.5])
        moments, errors, evals = hyperbolic_gaussian_moments(
            5, alphas, betas, weights=[np.ones_like, lambda rho: rho * rho])
        plain, _, plain_evals = hyperbolic_gaussian_moments(5, alphas, betas)
        assert moments.shape == errors.shape == (5, 3)
        assert np.array_equal(moments[3], moments[2]) and np.array_equal(moments[4], moments[1])
        assert evals == 5 * plain_evals // 3

    def test_broadcast_shape(self):
        moments, errors, evals = hyperbolic_gaussian_moments(
            4, np.array([1.0, 2.0, 4.0])[:, None], np.array([0.0, 1.0]))
        assert moments.shape == errors.shape == (3, 3, 2)
        assert evals >= 6 * _FIRST_PANELS * _GK21_NODES.size

    def test_unattainable_tolerance_names_the_cell(self):
        spec = QuadratureSpec(relative_tolerance=1e-20)
        with pytest.raises(QuadratureError) as exc:
            hyperbolic_gaussian_moments(4, [3.0, 50.0], [0.0, 2.0], spec)
        assert re.search(
            r"not met with 512 panels at 2 parameters; worst at "
            r"\(alpha, beta\) = \((3\.0, 0\.0|50\.0, 2\.0)\) for n = 4: relative error",
            str(exc.value),
        )

    def test_moments_beyond_float_range_name_the_cell(self):
        # at n = 4 and alpha = 0.0005, L is the alpha = 0.001 mass, about e^2250
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as exc:
                hyperbolic_gaussian_moments(4, [0.5, 0.0005], [1.0, 0.5])
        assert str(exc.value) == (
            "non-finite integral at 1 of 2 parameters, first at "
            "(alpha, beta) = (0.0005, 0.5) for n = 4: outside the float range"
        )

    @pytest.mark.parametrize("n, alpha, beta", [(0, 1.0, 0.0), (3, 0.0, 0.0), (3, 1.0, -0.5)])
    def test_rejects_invalid_family(self, n, alpha, beta):
        with pytest.raises(ValueError):
            hyperbolic_gaussian_moments(n, alpha, beta)


# gaussian_integrals' values, estimates and evaluation counts in s, as the
# in-place integrand gave them before the integrand became plain numpy
# expressions: sinh^4 over a (rate, beta) grid, with rows with an f, which
# reads the parameter column; the integrals are n omega_n / sqrt(rate) times
# these, n = 5
GAUSSIAN_ROWS = [(4, None), (4, lambda rho, p: rho * rho), (4, lambda rho, p: (p[..., 0] * rho + p[..., 1]) ** 2)]
GAUSSIAN_PARAMS = [(1.0, 0.0), (2.0, 1.5), (16.0, 4.0)]
GAUSSIAN_PINNED = [
    (1e-09, [[5.17612165328033, 0.017808520633893536, 0.00020687586168816944], [25.576728872606388, 0.015356804121400497, 1.8540713068052944e-05], [25.576728872606388, 0.19457738411176426, 0.01550566891491031]], [[4.098795194714426e-12, 4.261765363028743e-15, 1.8394709262287583e-17], [5.867837786651164e-11, 2.1761699282800756e-14, 7.904919349215975e-18], [5.867837786651164e-11, 1.1138085108469628e-13, 4.5244509753344047e-14]], 756),
    (1e-12, [[5.1761216532803305, 0.017808520633893536, 0.0002068758616881694], [25.576728872606388, 0.015356804121400499, 1.854071306805295e-05], [25.576728872606388, 0.19457738411176426, 0.01550566891491031]], [[1.1627003598372042e-15, 2.868174211484205e-18, 4.959946008516931e-20], [7.577838501570963e-15, 1.830347214291081e-18, 4.755517033814771e-21], [7.577838501570963e-15, 2.689254170339994e-17, 3.530805544041384e-18]], 2268),
]


class TestGaussianIntegralsPinned:
    @pytest.mark.parametrize("tol, values, errors, evals", GAUSSIAN_PINNED)
    def test_bit_for_bit(self, tol, values, errors, evals):
        got = gaussian_integrals(GAUSSIAN_ROWS, GAUSSIAN_PARAMS, QuadratureSpec(relative_tolerance=tol))
        c = 5 * ball_volume_constant(5) / np.sqrt(np.array(GAUSSIAN_PARAMS)[:, 0])
        want = (c * np.array(values)).tolist(), (c * np.array(errors)).tolist(), evals
        assert (got[0].tolist(), got[1].tolist(), got[2]) == want


def peak_cut_cases(tol):
    """(relative error, estimate) of large-K gaussian integrals at large rates.

    The L of hyperbolic_gaussian_moments(n, 5e3, 0) against the series mass
    at rate 1e4 (its estimate added).
    """
    spec = QuadratureSpec(relative_tolerance=tol)
    out = {}
    for n in (13, 21, 31):
        moments, errors, _ = hyperbolic_gaussian_moments(n, 5e3, 0.0, spec)
        masses, estimates, _ = hyperbolic_gaussian_masses(n, [1e4], spec)
        L, mass = float(moments[2]), float(masses[0])
        out[f"L, n = {n}"] = ((mass - L) / mass, float(errors[2]) / L + float(estimates[0]) / mass)
    return out


class TestGaussianPeakCut:
    """The cut S must leave room for the peak of s^K e^(-s^2) at sqrt(K/2)."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_large_k_within_the_tolerance(self, tol):
        # the truncation is about tol / 14 where the cut was raised; the
        # estimates do not count it, and it is up to 60 times their sum
        for case, (error, estimate) in peak_cut_cases(tol).items():
            assert abs(error) <= 0.1 * tol, (case, error, estimate)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_large_k_lose_mass_without_the_cut(self, tol, monkeypatch):
        # the budget cut alone, s^2 - g s = budget, puts S near sqrt(budget);
        # there n = 13 (K = 12) loses 5.7e-12 and 5.7e-13, within the tolerance
        monkeypatch.setattr(quadrature, "_peak_cut", lambda S, *args: S)
        for case, (error, estimate) in peak_cut_cases(tol).items():
            if case != "L, n = 13":
                assert error > tol, (case, error, estimate)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_raised_cut_estimates_cover_the_error(self, tol):
        # where the cut is raised, the tail it leaves out is within the
        # estimates of L and of the series mass (n = 13 at 1e-9 is not
        # raised, and its cut still leaves out 5.7e-12 against 2.1e-12)
        spec = QuadratureSpec(relative_tolerance=tol)
        for n in (21, 31, 61):
            moments, errors, _ = hyperbolic_gaussian_moments(n, 5e3, 0.0, spec)
            masses, estimates, _ = hyperbolic_gaussian_masses(n, [1e4], spec)
            assert abs(masses[0] - moments[2]) <= errors[2] + estimates[0], n

    @pytest.mark.parametrize("tol, free", [(1e-9, 14), (1e-12, 9)])
    def test_free_dimensions_move_no_parameter(self, tol, free):
        # up to K = free the per-parameter test moves no sinh parameter of a
        # dense rate x beta grid; past it some parameter moves
        budget = quadrature._tail_budget(tol)
        beta = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 200)])[None, :]
        for K in range(1, 17):
            rate = np.geomspace(2 * K / 3, 1e9, 400)[1:, None]
            root = np.sqrt(rate)
            g = np.maximum(K - 2 * beta, 0) / root
            S = (g + np.sqrt(g * g + 4 * budget)) / 2
            cut = quadrature._peak_cut(S, K, tol, 1 - K / (6 * rate), 2 * beta / root)
            assert np.array_equal(cut, S) == (K <= free), K
            assert (cut >= S).all(), K

    def test_mixed_grid_gives_each_parameter_its_own_floats(self):
        # at n = 21 (K = 20) rates 1e4 and 2e3 raise the cut, and rates 1
        # and 100 or a large beta do not; each column is its parameter's
        # alone, bit for bit
        rows = [(20, None), (20, lambda rho, p: rho * rho)]
        params = [(1e4, 0.0), (1.0, 0.5), (1e4, 500.0), (2e3, 0.0), (100.0, 0.0)]
        spec = QuadratureSpec(relative_tolerance=1e-12)
        rate, beta = np.array(params).T
        root = np.sqrt(rate)
        g = np.maximum(20 - 2 * beta, 0) / root
        S = (g + np.sqrt(g * g + 4 * quadrature._tail_budget(1e-12))) / 2
        raised = quadrature._peak_cut(S, 20, 1e-12, 1 - 20 / (6 * rate), 2 * beta / root) > S
        assert raised.tolist() == [True, False, False, True, False]
        values, errors, _ = gaussian_integrals(rows, params, spec)
        for i, p in enumerate(params):
            alone, alone_errors, _ = gaussian_integrals(rows, [p], spec)
            assert values[:, i].tolist() == alone[:, 0].tolist(), p
            assert errors[:, i].tolist() == alone_errors[:, 0].tolist(), p

    def test_large_beta_cut_at_the_true_peak(self):
        # K = 80 at rate 1e4: the reference peak at the peak of
        # s^K e^(-s^2 - b s) keeps the cut near psi's root; with sqrt(K/2)
        # beta = 1e3 took 588 evaluations (value 2.703017255941374e-181) and
        # beta = 1e5, whose integral underflows, refined to 512 panels
        spec = QuadratureSpec(relative_tolerance=1e-9)
        values, errors, evals = gaussian_integrals([(80, None)], [(1e4, 1e3)], spec)
        assert evals == 252
        assert abs(values[0, 0] - 2.703017255941374e-181) <= errors[0, 0]
        assert f"{values[0, 0]:.8e}" == "2.70301726e-181"
        with pytest.raises(QuadratureError) as exc:
            gaussian_integrals([(80, None)], [(1e4, 1e5)], spec)
        assert str(exc.value) == "integral outside the normal floats at 1 of 1 parameters, first at [10000.0, 100000.0]"

    def test_one_dimension_has_no_peak(self):
        # K = 0 (n = 1): L = 2 int e^(-rate rho^2) = sqrt(pi / rate), rate 2e4
        moments, errors, _ = hyperbolic_gaussian_moments(1, [1e4], 0.0)
        L = math.sqrt(math.pi / 2e4)
        assert abs(moments[2, 0] - L) <= 1e-9 * L
        assert np.isfinite(moments).all() and np.isfinite(errors).all()

    @pytest.mark.parametrize("beta, text", [
        (1e12, "integral outside the normal floats at 1 of 2 parameters, first at [10000.0, 1000000000000.0]"),
        (1e308, "non-finite integral at 1 of 2 parameters, first at [10000.0, 1e+308]: outside the float range"),
    ])
    def test_raised_peak_at_large_b_named_without_warning(self, beta, text):
        # beside a rate-1e4 beta = 0 parameter, whose cut is raised, b =
        # 2 beta / sqrt(rate) is 2e10, where (sqrt(b^2 + 8Ka) - b) / (4a)
        # cancels to 0 and took a log of 0, or 2 beta overflows b to inf
        spec = QuadratureSpec(relative_tolerance=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as exc:
                gaussian_integrals([(80, None)], [(1e4, beta), (1e4, 0.0)], spec)
        assert str(exc.value) == text


class TestMonteCarlo:
    def test_constant_exact(self):
        res = monte_carlo_integral(lambda pts: np.ones(len(pts)), [(0, 1), (0, 1)])
        assert res.value == 1.0
        assert res.error_estimate == 0.0

    def test_gaussian_closed_form(self):
        res = monte_carlo_integral(
            lambda pts: np.exp(-2 * (pts ** 2).sum(axis=1)),
            [(-6, 6), (-6, 6)],
        )
        assert abs(res.value - math.pi / 2) <= 3 * res.error_estimate

    def test_quartic_ball_area(self):
        res = monte_carlo_integral(
            lambda pts: ((np.abs(pts) ** 4).sum(axis=1) < 1.0).astype(float),
            [(-1, 1), (-1, 1)],
        )
        closed = (2 * math.gamma(1.25)) ** 2 / math.gamma(1.5)
        assert abs(res.value - closed) <= 3 * res.error_estimate

    def test_determinism(self):
        spec = QuadratureSpec(mc_samples=1 << 16, mc_seed=42)
        f = lambda pts: np.exp(-(pts ** 2).sum(axis=1))
        a = monte_carlo_integral(f, [(-3, 3), (-3, 3)], spec)
        b = monte_carlo_integral(f, [(-3, 3), (-3, 3)], spec)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_seed_changes_stream(self):
        f = lambda pts: np.exp(-(pts ** 2).sum(axis=1))
        a = monte_carlo_integral(f, [(-3, 3), (-3, 3)], QuadratureSpec(mc_samples=1 << 14, mc_seed=1))
        b = monte_carlo_integral(f, [(-3, 3), (-3, 3)], QuadratureSpec(mc_samples=1 << 14, mc_seed=2))
        assert a.value != b.value

    def test_non_finite_sample_rejected(self):
        with pytest.raises(QuadratureError):
            monte_carlo_integral(
                lambda pts: np.full(len(pts), np.nan),
                [(0, 1), (0, 1)],
                QuadratureSpec(mc_samples=1 << 10),
            )

    # three batches, the last one partial; and seed 200, whose third mean has
    # a libm square (a float's mean**2) one ulp away from mean * mean
    @pytest.mark.parametrize("samples, seed", [((1 << 17) + 4099, 7), (1 << 10, 200)])
    def test_rows_equal_one_integral_calls_bit_for_bit(self, samples, seed):
        spec = QuadratureSpec(mc_samples=samples, mc_seed=seed)
        box = [(-2, 3), (-1, 1), (0, 4)]
        fns = (
            lambda pts: np.exp(-(pts ** 2).sum(axis=1)),
            lambda pts: np.sin(3 * pts[:, 0]) * pts[:, 2],
            lambda pts: 1e6 * np.abs(pts[:, 1]) ** 1.5 + 2.0,
        )
        rows = monte_carlo_integral(lambda pts: np.stack([f(pts) for f in fns]), box, spec)
        assert rows.value.shape == rows.error_estimate.shape == (3,)
        for i, f in enumerate(fns):
            one = monte_carlo_integral(f, box, spec)
            assert type(one.value) is float and type(one.error_estimate) is float
            assert (rows.value[i], rows.error_estimate[i]) == (one.value, one.error_estimate)
            assert rows.nodes_used == one.nodes_used

    def test_non_finite_row_rejected(self):
        with pytest.raises(QuadratureError, match="non-finite integrand sample"):
            monte_carlo_integral(
                lambda pts: np.stack([np.ones(len(pts)), np.full(len(pts), np.inf)]),
                [(0, 1), (0, 1)],
                QuadratureSpec(mc_samples=1 << 10),
            )


class TestNormIndependence:
    def test_five_norms_match_radial(self):
        # computational content of the layer-cake reduction: the BH-weighted
        # integral of f(F(x)) is the same radial integral for every norm
        norms = [
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.eye(2)),
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.diag([4.0, 1.0])),
            MinkowskiNorm(2, "lp", exponent=1.5),
            MinkowskiNorm(2, "lp", exponent=3.0),
            MinkowskiNorm(2, "lp", exponent=4.0),
        ]
        target = flat_radial_volume_integral(gauss_profile(), 2).value

        def values(norm):
            if norm.family == "weighted-euclidean":
                A = norm.matrix
                return lambda pts: np.sqrt(np.einsum("ij,jk,ik->i", pts, A, pts))
            p = norm.exponent
            return lambda pts: (np.abs(pts) ** p).sum(axis=1) ** (1.0 / p)

        for norm in norms:
            c = bh_density(norm)
            F = values(norm)
            res = monte_carlo_integral(
                lambda pts, F=F, c=c: c * np.exp(-F(pts) ** 2),
                [(-8, 8), (-8, 8)],
            )
            assert abs(res.value - target) <= 3 * res.error_estimate


class TestSpecAndProfiles:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(mc_samples=100)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            QuadratureSpec(relative_tolerance=tol)

    def test_scaled_decay(self):
        # decay of |f|^power times a power of rho
        assert DecayClass.gaussian(1.5).scaled(2) == DecayClass.gaussian(3.0)
        assert DecayClass.algebraic().scaled(2) == DecayClass.algebraic()
        assert DecayClass.compact(2.0).scaled(3) == DecayClass.compact(2.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_compact_support_radius_must_be_positive_and_finite(self, radius):
        # a support of radius 0 or below left radial_integral no piece to
        # integrate, and it failed with a bare TypeError
        with pytest.raises(ValueError, match="support_radius must be positive and finite"):
            radial_integral(RadialProfile(lambda r: 0.0, DecayClass.compact(radius)), ("power", 1))
        with pytest.raises(ValueError, match=f"got support_radius = {radius!r}"):
            DecayClass("compact", support_radius=radius)


class TestFiniteDifference:
    def test_square(self):
        assert fd_derivative(lambda x: x * x, 3.0) == pytest.approx(6.0, rel=1e-9)

    def test_reciprocal(self):
        assert fd_derivative(lambda x: 1.0 / x, 2.0) == pytest.approx(-0.25, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_power_rule_at_one(self, n):
        assert fd_derivative(lambda x, n=n: x ** (n / 2), 1.0) == pytest.approx(n / 2, rel=1e-9)

"""Job catalogues, job runners and output checks for the benchmark workloads.

Every job is one catalogue entry: a kind plus explicit parameters.  The seed
picks and orders entries; the stored seed-state reference holds each entry's
outputs, so every job a seed can produce is checked against it.

Workloads (why each exists is in README.md):
  suite-all  cli.parse_config + cli.run_suite(suite=all), one job per scan
  reports    single calls of the flat and hyperbolic report functions
  norms-mc   norm and dual-norm calls, custom-norm maximisation, Monte Carlo
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sharpineq import cli, flat, norms, quadrature as quad
from sharpineq import hyperbolic as hyp

# radial_integral accepts an error up to 100x the requested tolerance per
# integral and the reports combine up to three integrals, so a value built
# from radial quadrature is held to QUAD_SLACK x the requested tolerance.
QUAD_SLACK = 1000
# Values that only floating-point accumulation order may move (closed-form
# norms, Philox-driven Monte Carlo sums, the deterministic maximiser).
FP_REL = 1e-9
NS = (3, 4, 5, 6)


class Out:
    """Named job outputs, each with the rule it is checked by."""

    def __init__(self):
        self.values = {}
        self.rules = {}

    def add(self, name, value, rule, tol=0.0):
        if isinstance(value, (list, tuple)):
            value = [v if isinstance(v, (bool, int)) else float(v) for v in value]
        elif not isinstance(value, (bool, int)):
            value = float(value)
        self.values[name] = value
        self.rules[name] = (rule, tol)

    def rel(self, name, value, tol):
        self.add(name, value, "rel", tol)

    def abs(self, name, value, tol):
        self.add(name, value, "abs", tol)

    def scaled(self, name, value, tol):
        self.add(name, value, "scaled", tol)

    def exact(self, name, value):
        self.add(name, value, "exact")

    def mismatches(self, ref: dict) -> list:
        """Names whose value leaves its tolerance around the reference."""
        bad = sorted(set(ref) ^ set(self.values))
        for name, (rule, tol) in self.rules.items():
            if name not in ref:
                continue
            got, want = self.values[name], ref[name]
            pairs = list(zip(got, want)) if isinstance(want, list) else [(got, want)]
            if isinstance(want, list) and len(got) != len(want):
                bad.append(name)
            elif not all(_close(a, b, rule, tol) for a, b in pairs):
                bad.append(name)
        return bad


def _close(a, b, rule, tol):
    if rule == "exact":
        return a == b
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    if rule == "rel":
        return abs(a - b) <= tol * abs(b)
    if rule == "abs":
        return abs(a - b) <= tol
    return abs(a - b) <= tol * max(1.0, abs(b))  # scaled


@dataclass(frozen=True)
class Entry:
    kind: str
    params: dict

    @functools.cached_property
    def key(self) -> str:
        return self.kind + ":" + json.dumps(self.params, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Kind:
    build: Callable  # params -> inputs, built during set-up
    call: Callable  # (inputs, scratch dir) -> raw result; the timed part
    outputs: Callable  # (params, raw) -> Out


# --------------------------------------------------------------------- inputs

def weighted_matrix(n: int, cond: float, mseed: int) -> np.ndarray:
    """SPD matrix with eigenvalues geomspace(1, cond, n) in a seeded basis."""
    q, _ = np.linalg.qr(np.random.default_rng(mseed).standard_normal((n, n)))
    a = q @ np.diag(np.geomspace(1.0, cond, n)) @ q.T
    return (a + a.T) / 2


def closed_norm(spec: dict) -> norms.MinkowskiNorm:
    n = spec["n"]
    if spec["family"] == "weighted-euclidean":
        return norms.MinkowskiNorm(n, "weighted-euclidean",
                                   matrix=weighted_matrix(n, spec["cond"], spec["mseed"]))
    return norms.MinkowskiNorm(n, "lp", exponent=spec["p"])


def custom_norm(spec: dict) -> norms.MinkowskiNorm:
    """Smooth custom norms: weighted l3, or euclidean-in-A plus l4."""
    n = spec["n"]
    w = np.arange(1.0, n + 1)
    if spec["shape"] == "lp3w":
        def value(y):
            return float(np.sum(w * np.abs(y) ** 3) ** (1 / 3))

        def gradient(y):
            return w * np.sign(y) * y**2 * value(y) ** -2
    else:
        def value(y):
            return float(math.sqrt(y @ (w * y)) + np.sum(y**4) ** 0.25)

        def gradient(y):
            return w * y / math.sqrt(y @ (w * y)) + y**3 * np.sum(y**4) ** -0.75
    return norms.MinkowskiNorm(n, "custom", value_fn=value,
                               gradient_fn=gradient if spec["grad"] else None)


def gaussian_tf(lam: float) -> flat.TestFunction:
    def u(r):
        return math.exp(-lam * r * r)

    return flat.TestFunction.radial(quad.RadialProfile(u, quad.DecayClass.gaussian(lam)),
                                    lambda r: -2 * lam * r * u(r))


def hardy_profile(a: float):
    """u = rho e^(-a rho^2) and its derivative."""
    return (quad.RadialProfile(lambda r: r * math.exp(-a * r * r), quad.DecayClass.gaussian(a)),
            lambda r: (1 - 2 * a * r * r) * math.exp(-a * r * r))


def general_tf(n: int, grad: bool) -> flat.TestFunction:
    """exp(-|x|^2/2) (1 - |x|^2/4)_+^3 on [-2, 2]^n, gradient given or by FD."""
    def u(x):
        r2 = np.sum(x * x, axis=1)
        return np.exp(-r2 / 2) * np.clip(1 - r2 / 4, 0, None) ** 3

    def du(x):
        r2 = np.sum(x * x, axis=1)[:, None]
        cut = np.clip(1 - r2 / 4, 0, None)
        return np.exp(-r2 / 2) * (-x * cut**3 - 1.5 * x * cut**2)

    return flat.TestFunction.general(u, [(-2.0, 2.0)] * n, gradient=du if grad else None)


def spec_of(tol: float) -> quad.QuadratureSpec:
    return quad.QuadratureSpec(relative_tolerance=tol)


# ------------------------------------------------------------------ suite-all

# alpha bands by scan cost (low alpha is cheapest); each pass runs one job
# per band, so every seed gets the same cost mix.  Band 3 is the 1e-12 band.
SUITE_BANDS = (
    (((0.5, 20.0), (1.0, 24.0)), 1e-9),
    (((3.0, 100.0), (4.0, 120.0)), 1e-9),
    (((50.0, 400.0), (40.0, 360.0)), 1e-9),
    (((2.0, 80.0), (2.5, 90.0)), 1e-12),
)
SUITE_FAMILIES = ("euclidean", "weighted-euclidean", "lp")
SUITE_TRIPLES = ((3, 3.0, 1.0), (4, 3.0, 0.5), (3, 2.5, 1.5), (5, 2.4, 0.2), (7, 2.2, 0.1))


def suite_entries() -> list:
    out = []
    for n in NS:
        for band, (ranges, tol) in enumerate(SUITE_BANDS):
            for variant, alpha in enumerate(ranges):
                family = SUITE_FAMILIES[(n + band + variant) % 3]
                out.append(Entry("suite-all", {
                    "n": n, "band": band, "variant": variant, "alpha": list(alpha), "tol": tol,
                    "family": family,
                    "triple": list(SUITE_TRIPLES[(n + 2 * band + variant) % len(SUITE_TRIPLES)]),
                }))
    return out


def suite_ini(p: dict) -> str:
    n = p["n"]
    norm = f"family = {p['family']}\ndimension = {n}\n"
    if p["family"] == "lp":
        norm += "p = 4.0\n"
    elif p["family"] == "weighted-euclidean":
        norm += "matrix = " + " ".join(repr(float(v)) for v in np.diag(np.geomspace(1, 100, n)).ravel()) + "\n"
    tn, tp, tq = p["triple"]
    return (
        f"[run]\nsuite = all\nn = {n}\n\n[norm]\n{norm}\n"
        f"[triple]\nn = {tn}\np = {tp!r}\nq = {tq!r}\n\n"
        f"[grids]\nalpha = {p['alpha'][0]!r} {p['alpha'][1]!r}\nalpha_nodes = 4096\n\n"
        f"[quadrature]\ntolerance = {p['tol']!r}\nseed = 0x5EED\n"
    )


def _suite_call(ini, scratch):
    out = Path(tempfile.mkdtemp(dir=scratch))
    cli.run_suite(cli.parse_config(ini), str(out))
    return out


PHI_STRIDE = 64


def _suite_outputs(p, out_dir):
    o = Out()
    qtol = QUAD_SLACK * p["tol"]
    with open(out_dir / "all.csv", newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            t = max(float(row["tolerance"]), qtol)
            tag = f"row{i}:{row['suite']}/{row['name']}"
            o.exact(tag + ":passed", row["passed"] == "1")
            o.scaled(tag + ":values",
                     [float(row[c]) for c in ("param", "lhs", "rhs", "ratio", "target", "slack")], t)
    with open(out_dir / "phi_vs_alpha.csv", newline="") as fh:
        phi = [float(r["phi"]) for r in csv.DictReader(fh)]
    o.exact("phi:count", len(phi))
    o.rel("phi:sampled", phi[::PHI_STRIDE] + phi[-1:], qtol)
    o.rel("phi:min_max", [min(phi), max(phi)], qtol)
    return o


def mass_share(jobs: list) -> float:
    """Share of gaussian masses C_k(alpha) that another job in the list also needs.

    A scan in dimension n needs C_(n-2) and C_n on its alpha grid, so scans in
    n and n+2 over the same range and tolerance share C_n.
    """
    masses = [(k, tuple(j.params["alpha"]), j.params["tol"])
              for j in jobs for k in (j.params["n"] - 2, j.params["n"])]
    return 1 - len(set(masses)) / len(masses) if masses else 0.0


def suite_passes(rng: np.random.Generator, entries: list, cost: dict) -> list:
    """Sixteen passes of two jobs, so no (n, alpha range, tolerance) scan repeats.

    Round k gives dimension i the band (sigma_i + k) mod 4, a Latin square;
    rounds 4..7 flip every variant.  Each round splits into two passes, bands
    {0, 2} and bands {1, 3}.  Of CANDIDATES draws of sigma and the variants,
    the job list keeps the one whose passes differ least in seed-state cost.
    """
    by = {(e.params["n"], e.params["band"], e.params["variant"]): e for e in entries}
    best, best_gap = None, math.inf
    for _ in range(CANDIDATES):
        sigma = rng.permutation(len(SUITE_BANDS))
        variant = {(n, b): int(rng.integers(2)) for n in NS for b in range(len(SUITE_BANDS))}
        passes = []
        for k in range(2 * len(SUITE_BANDS)):
            for parity in (0, 1):
                passes.append([
                    by[(n, b, variant[(n, b)] ^ (k >= len(SUITE_BANDS)))]
                    for i, n in enumerate(NS)
                    for b in [int(sigma[i] + k) % len(SUITE_BANDS)] if b % 2 == parity
                ])
        totals = [sum(cost[e.key] for e in p) for p in passes]
        if max(totals) - min(totals) < best_gap:
            best, best_gap = passes, max(totals) - min(totals)
    return [[p[i] for i in rng.permutation(len(p))] for p in best]


# -------------------------------------------------------------------- reports

REPORT_TRIPLES = (
    (3, 3.0, 1.0), (4, 3.0, 0.5), (3, 2.5, 1.5), (5, 2.4, 0.2), (6, 2.3, 0.5),
    (7, 2.2, 0.1), (8, 2.2, 0.1),
    # near the integrability edge: q, p - 2 or 2(p-q)/(p-2) - n is small; all
    # but the last lie in ExponentTriple.near_boundary (within 1e-3)
    (3, 3.0, 0.0005), (3, 3.0, 1.49975), (4, 2.0008, 1.0), (3, 2.0005, 1.0),
    (3, 2.002, 1.0),
)
TOLS = (1e-9, 1e-12)
DIMS = (3, 4, 5, 6, 7, 8)
EPS_LISTS = ([10.0**-k for k in range(2, 9)], [10.0**-k for k in range(3, 9)])


def report_entries() -> list:
    e = []
    for tol in TOLS:
        for tr in REPORT_TRIPLES:
            for lams in ([0.5, 1.0, 2.0], [0.25, 4.0]):
                e.append(Entry("pqr_identity", {"triple": list(tr), "lams": lams, "tol": tol}))
            for lams in ([1.0], [0.5, 2.0]):
                e.append(Entry("p_ode", {"triple": list(tr), "lams": lams, "tol": tol}))
        for n in DIMS:
            for lam in (0.5, 2.0):
                e.append(Entry("gaussian_T", {"n": n, "lam": lam, "tol": tol}))
                e.append(Entry("hpw", {"n": n, "lam": lam, "tol": tol,
                                       "family": ("weighted-euclidean", "lp")[n % 2]}))
                e.append(Entry("moment_identity", {"n": n, "lam": lam, "tol": tol}))
                e.append(Entry("hardy", {"n": n, "a": lam, "tol": tol}))
            for i, eps in enumerate(EPS_LISTS):
                e.append(Entry("hardy_sweep", {"n": n, "r": (1.0, 0.5)[i], "R": (2.0, 1.5)[i],
                                               "eps": eps, "tol": tol}))
            for R, ell in ((1.5, 1.0), (2.0, 0.5), (4.0, 1.0)):
                e.append(Entry("double_hardy", {"n": n, "R": R, "uniformity": ell, "tol": tol}))
            for alpha in (0.25, 1.0, 4.0, 16.0):
                e.append(Entry("modified_hpw", {"n": n, "alpha": alpha, "tol": tol}))
            for ab in ((1.0, 0.0), (0.5, 0.5), (4.0, 1.0)):
                e.append(Entry("hpw_hyperbolic", {"n": n, "alpha": ab[0], "beta": ab[1], "tol": tol}))
            for a in (1.0, 2.0):
                e.append(Entry("hardy_hyperbolic", {"n": n, "a": a, "tol": tol}))
            for alphas in ([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [8.0, 64.0, 512.0, 2048.0]):
                e.append(Entry("hpw_bounds", {"n": n, "alphas": alphas, "tol": tol}))
            for rhos in ([0.01, 0.5, 1.0, 2.0, 3.0], [0.1, 1.0, 4.0]):
                e.append(Entry("volume_ratio", {"n": n, "rhos": rhos, "tol": tol}))
    return e


def _reports_out(p, reps):
    o = Out()
    for i, rep in enumerate(reps):
        o.rel(f"{i}:lhs_rhs_ratio", [rep.lhs, rep.rhs, rep.ratio], QUAD_SLACK * p["tol"])
        o.exact(f"{i}:target", rep.target)
    return o


def _p_ode_out(p, res):
    o = Out()
    o.abs("residuals", res, 1e-5)  # the p-ode-residual check of the identities suite
    return o


def _gaussian_T_out(p, d):
    o = Out()
    o.rel("value_closed", [d["value"], d["closed_form"]], QUAD_SLACK * p["tol"])
    o.abs("closed_form_relative_error", d["closed_form_relative_error"], 1e-9)
    o.abs("ode_relative_residual", d["ode_relative_residual"], 1e-6)
    return o


def _moment_out(p, res):
    o = Out()
    o.abs("defect", res, 1e-8)  # the moment-identity check of the flat-hpw suite
    return o


def _sweep_out(p, d):
    o = Out()
    o.rel("quotients", d["quotients"], QUAD_SLACK * p["tol"])
    o.abs("extrapolated_limit", d["extrapolated_limit"], 0.01)  # the sharpness-sweep check
    o.exact("target", d["target"])
    return o


def _bounds_out(p, d):
    o = Out()
    o.exact("lower", d["lower"])
    o.rel("upper", d["upper"], QUAD_SLACK * p["tol"])
    o.exact("argmin", [d["argmin_alpha"], d["argmin_beta"]])
    return o


def _volume_out(p, d):
    o = Out()
    o.rel("ratios", d["ratios"], QUAD_SLACK * p["tol"])
    o.exact("flags", [d["non_decreasing"], d["all_above_omega"]])
    return o


def _euclid(n):
    return norms.MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))


def _hyp_fn(a):
    prof, du = hardy_profile(a)
    return hyp.RadialHypFunction(prof, du)


def _bump():
    psi, dpsi = flat.smoothstep_cutoff(0.5, 1.0)
    return flat.TestFunction.radial(
        quad.RadialProfile(psi, quad.DecayClass.compact(1.0), breakpoints=(0.5,)), dpsi)


REPORT_KINDS = {
    "pqr_identity": Kind(
        lambda p: (flat.ExponentTriple(*p["triple"]), p["lams"], spec_of(p["tol"])),
        lambda a, _: flat.check_pqr_identity(*a),
        _reports_out),
    "p_ode": Kind(
        lambda p: (flat.ExponentTriple(*p["triple"]), p["lams"], spec_of(p["tol"])),
        lambda a, _: flat.check_p_ode(*a),
        _p_ode_out),
    "gaussian_T": Kind(
        lambda p: (p["n"], p["lam"], spec_of(p["tol"])),
        lambda a, _: flat.gaussian_T(*a),
        _gaussian_T_out),
    "hpw": Kind(
        lambda p: (closed_norm({"family": p["family"], "n": p["n"], "p": 4.0, "cond": 10.0,
                                "mseed": p["n"]}),
                   p["n"], gaussian_tf(p["lam"]), spec_of(p["tol"])),
        lambda a, _: [flat.hpw_report(*a)],
        _reports_out),
    "moment_identity": Kind(
        lambda p: (p["n"], p["lam"], spec_of(p["tol"])),
        lambda a, _: flat.gaussian_moment_identity(*a),
        _moment_out),
    "hardy": Kind(
        lambda p: (_euclid(p["n"]), p["n"],
                   flat.TestFunction.radial(*hardy_profile(p["a"])), 0.0, spec_of(p["tol"])),
        lambda a, _: [flat.hardy_report(*a)],
        _reports_out),
    "hardy_sweep": Kind(
        lambda p: (_euclid(p["n"]), p["n"], p["r"], p["R"], p["eps"], spec_of(p["tol"])),
        lambda a, _: flat.hardy_sharpness_sweep(*a),
        _sweep_out),
    "double_hardy": Kind(
        lambda p: (_euclid(p["n"]), p["n"], _bump(), p["R"], p["uniformity"], spec_of(p["tol"])),
        lambda a, _: [flat.double_hardy_report(*a)],
        _reports_out),
    "modified_hpw": Kind(
        lambda p: (p["n"], p["alpha"], None, spec_of(p["tol"])),
        lambda a, _: [hyp.modified_hpw_report(*a)],
        _reports_out),
    "hpw_hyperbolic": Kind(
        lambda p: (hyp.RadialHypFunction.gaussian(p["alpha"], p["beta"]), p["n"], spec_of(p["tol"])),
        lambda a, _: [hyp.hpw_hyperbolic_report(*a)],
        _reports_out),
    "hardy_hyperbolic": Kind(
        lambda p: (_hyp_fn(p["a"]), p["n"], spec_of(p["tol"])),
        lambda a, _: list(hyp.hardy_hyperbolic_report(*a)),
        _reports_out),
    "hpw_bounds": Kind(
        lambda p: (p["n"], p["alphas"], (0.0, 0.5, 1.0, 2.0, 4.0), spec_of(p["tol"])),
        lambda a, _: hyp.hpw_constant_bounds(*a),
        _bounds_out),
    "volume_ratio": Kind(
        lambda p: (p["n"], p["rhos"], spec_of(p["tol"])),
        lambda a, _: hyp.hyp_volume_ratio_check(*a),
        _volume_out),
}


# ------------------------------------------------------------------- norms-mc

BATCH_POINTS = 32


def norms_entries() -> list:
    e = []
    closed = [{"family": "weighted-euclidean", "cond": c} for c in (1.0, 10.0, 100.0)]
    closed += [{"family": "lp", "p": p} for p in (1.5, 4.0)]
    for i, spec in enumerate(closed):
        for n in (2, 3, 4, 6):
            for s in range(3):
                e.append(Entry("norm_batch", {"norm": dict(spec, n=n, mseed=n),
                                              "pseed": 100 * i + 10 * n + s}))
    rng = np.random.default_rng(0x5EED)
    for shape in ("lp3w", "mix"):
        for n in (2, 3):
            for _ in range(6):
                alpha = [round(float(v), 6) for v in rng.standard_normal(n)]
                for grad in (True, False):
                    e.append(Entry("custom_dual", {"norm": {"shape": shape, "n": n, "grad": grad},
                                                   "alpha": alpha}))
        for _ in range(6):
            alpha = [round(float(v), 6) for v in rng.standard_normal(2)]
            for grad in (True, False):
                e.append(Entry("custom_legendre", {"norm": {"shape": shape, "n": 2, "grad": grad},
                                                   "alpha": alpha}))
        for n in (2, 3):
            for bits in (14, 15, 16):
                fn = ("bh_density", "unit_ball_volume")[(n + bits) % 2]
                e.append(Entry("ball_volume", {"norm": {"shape": shape, "n": n, "grad": True},
                                               "fn": fn, "samples": 1 << bits}))
    for n in (3, 4):
        for p in (1.5, 3.0, 4.0):
            e.append(Entry("uniformity", {"n": n, "p": p}))
    for triple in ((3, 3.0, 1.0), (4, 3.0, 0.5)):
        for spec in ({"family": "lp", "p": 4.0}, {"family": "weighted-euclidean", "cond": 10.0}):
            for grad in (True, False):
                e.append(Entry("interpolation_general", {
                    "norm": dict(spec, n=triple[0], mseed=triple[0]), "triple": list(triple),
                    "grad": grad, "samples": 1 << 14}))
    return e


def _batch_build(p):
    pts = np.random.Generator(np.random.Philox(key=p["pseed"])).standard_normal(
        (BATCH_POINTS, p["norm"]["n"]))
    return closed_norm(p["norm"]), list(pts)


def _batch_call(a, _):
    norm, pts = a
    return ([norms.norm_value(norm, y) for y in pts],
            [norms.dual_norm_value(norm, y) for y in pts])


def _batch_out(p, r):
    o = Out()
    o.rel("norm", r[0], 1e-12)
    o.rel("dual", r[1], 1e-12)
    return o


def _value_out(p, v):
    o = Out()
    o.rel("value", v, FP_REL)
    return o


def _legendre_out(p, c):
    o = Out()
    o.rel("primal_dual", [c.primal_value, c.dual_value], FP_REL)
    # central difference of F*^2/2 with step 1e-6 F*(alpha)
    o.scaled("maximizer", list(c.maximizer), 1e-6)
    o.abs("residuals", list(c.residuals()), 1e-6)
    return o


def _interp_build(p):
    t = flat.ExponentTriple(*p["triple"])
    spec = quad.QuadratureSpec(mc_samples=p["samples"])
    return closed_norm(p["norm"]), t, general_tf(t.n, p["grad"]), spec


def _interp_out(p, rep):
    o = Out()
    o.rel("lhs_rhs_ratio", [rep.lhs, rep.rhs, rep.ratio], FP_REL)
    return o


NORMS_KINDS = {
    "norm_batch": Kind(_batch_build, _batch_call, _batch_out),
    "custom_dual": Kind(
        lambda p: (custom_norm(p["norm"]), np.array(p["alpha"])),
        lambda a, _: norms.dual_norm_value(*a),
        _value_out),
    "custom_legendre": Kind(
        lambda p: (custom_norm(p["norm"]), np.array(p["alpha"])),
        lambda a, _: norms.legendre_map(*a),
        _legendre_out),
    "uniformity": Kind(
        lambda p: norms.MinkowskiNorm(p["n"], "lp", exponent=p["p"]),
        lambda a, _: norms.uniformity_constant(a),
        _value_out),
    "ball_volume": Kind(
        lambda p: (p["fn"], custom_norm(p["norm"]), p["samples"]),
        lambda a, _: getattr(norms, a[0])(a[1], mc_samples=a[2]),
        _value_out),
    "interpolation_general": Kind(
        _interp_build,
        lambda a, _: flat.interpolation_report(*a),
        _interp_out),
}

KINDS = {"suite-all": Kind(suite_ini, _suite_call, _suite_outputs), **REPORT_KINDS, **NORMS_KINDS}

# Jobs per pass, drawn one per cost stratum of the kind's catalogue.  The
# heaviest kind of each workload holds over 10% of a pass's jobs, so job_s.p90
# falls inside one kind instead of on the edge between two.
PASS_DRAWS = {
    "reports": {k: (8 if k == "hpw_bounds" else 4) for k in REPORT_KINDS},
    "norms-mc": {"norm_batch": 45, "custom_dual": 6, "custom_legendre": 1, "uniformity": 1,
                 "ball_volume": 1, "interpolation_general": 1},
}
MAX_PASSES = {"reports": 400, "norms-mc": 100}
# Stratified draws tried per pass; the pass keeps the one whose seed-state
# cost is closest to the mean, so passes of every seed cost about the same.
CANDIDATES = 32


def catalogue(workload: str) -> list:
    return {"suite-all": suite_entries, "reports": report_entries,
            "norms-mc": norms_entries}[workload]()


def stratified_passes(rng: np.random.Generator, entries: list, draws: dict, cost: dict,
                      count: int) -> list:
    """Passes with a fixed cost mix.

    Per kind, entries sorted by their seed-state cost are cut into `draws`
    strata and a pass draws one entry from each stratum; of CANDIDATES such
    draws it keeps the one whose total cost is closest to the mean.
    """
    strata = []
    for kind, k in draws.items():
        ranked = sorted((e for e in entries if e.kind == kind), key=lambda e: (cost[e.key], e.key))
        strata += [ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k] for i in range(k)]
    costs = [np.array([cost[e.key] for e in s]) for s in strata]
    picks = np.stack([rng.integers(len(s), size=(count, CANDIDATES)) for s in strata], axis=-1)
    total = sum(c[picks[..., j]] for j, c in enumerate(costs))
    best = np.abs(total - sum(c.mean() for c in costs)).argmin(axis=1)
    passes = []
    for p in range(count):
        jobs = [s[picks[p, best[p], j]] for j, s in enumerate(strata)]
        passes.append([jobs[i] for i in rng.permutation(len(jobs))])
    return passes


def job_passes(workload: str, seed: int, reference: dict) -> list:
    """The seeded job list of a run, as passes.  Entries with a known seed-state
    failure are not in the catalogue used here; they run as probes."""
    entries = [e for e in catalogue(workload) if e.key in reference["entries"]]
    rng = np.random.Generator(np.random.Philox(key=seed))
    cost = {k: v["cost_s"] for k, v in reference["entries"].items()}
    if workload == "suite-all":
        return suite_passes(rng, entries, cost)
    return stratified_passes(rng, entries, PASS_DRAWS[workload], cost, MAX_PASSES[workload])


def digest(passes: list) -> str:
    keys = [[e.key for e in p] for p in passes]
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()[:16]

"""Span tracing of sharpineq's public functions, installed from outside the package.

The tracer replaces every module binding that holds one of the wrapped public
functions (the defining module, the package re-export and each ``from .x
import f`` site) with a wrapper that records a span: name, parent span, job
id, start, end.  Spans live in memory and are written out when the run ends.

Per-point calls (``norm_value`` inside a Monte Carlo loop, ``dual_norm_value``
inside a maximiser) can number millions in one run.  After
``COALESCE_AFTER`` calls of one function under one parent span in one job, further calls
fold into a single coalesced span that carries their count and summed busy
time, so memory stays bounded while counts, busy and self times stay exact.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from pathlib import Path

# Public functions wrapped per layer.  Left out on purpose: pointwise helpers
# evaluated inside integrands or constructors (norms.ball_volume_constant,
# flat.kernel_h/kernel_g/smoothstep_cutoff/extremal_profile, hyperbolic.ct/
# curvature_defect/hyp_distance/conformal_factor/radial_laplacian); their cost
# belongs to the layer evaluating them, and a span per integrand node would
# swamp the trace.  cli.main is not called by the benchmark.
LAYERS = {
    "norms": (
        "norm_value",
        "dual_norm_value",
        "legendre_map",
        "uniformity_constant",
        "unit_ball_volume",
        "bh_density",
    ),
    "quadrature": (
        "radial_integral",
        "flat_radial_volume_integral",
        "hyperbolic_radial_volume_integral",
        "monte_carlo_integral",
        "fd_derivative",
    ),
    "flat": (
        "pqr",
        "check_pqr_identity",
        "check_p_ode",
        "interpolation_report",
        "gaussian_T",
        "hpw_report",
        "gaussian_moment_identity",
        "hardy_report",
        "hardy_sharpness_sweep",
        "double_hardy_report",
    ),
    "hyperbolic": (
        "laplace_comparison_check",
        "hyp_volume_ratio_check",
        "hyp_ball_volume",
        "hpw_hyperbolic_report",
        "modified_hpw_report",
        "hardy_hyperbolic_report",
        "ko_alpha_scan",
        "hpw_constant_bounds",
    ),
    "cli": ("parse_config", "render_config", "build_norm", "run_suite", "emit_plot_data"),
}

# Import sites that call or re-export a wrapped function besides its defining
# module.  A refactor that drops one of these makes install() fail loudly
# instead of silently zeroing a layer.
EXPECTED_IMPORT_SITES = (
    ("sharpineq.flat", "bh_density"),
    ("sharpineq.flat", "dual_norm_value"),
    ("sharpineq.flat", "flat_radial_volume_integral"),
    ("sharpineq.flat", "monte_carlo_integral"),
    ("sharpineq.flat", "fd_derivative"),
    ("sharpineq.hyperbolic", "hyperbolic_radial_volume_integral"),
    ("sharpineq.cli", "dual_norm_value"),
    ("sharpineq.cli", "uniformity_constant"),
) + tuple(
    ("sharpineq", name) for layer, names in LAYERS.items() if layer != "cli" for name in names
)

COALESCE_AFTER = 4

# Per-layer metric -> (unit, better).  Counts and busy times are per pass.
PER_LAYER = {
    "quadrature.radial.calls": ("count", "lower"),
    "quadrature.radial.busy_s": ("s", "lower"),
    "quadrature.radial.evals": ("count", "lower"),
    "quadrature.radial.evals_per_call": ("count", "lower"),
    "quadrature.radial.evals_per_s": ("1/s", "higher"),
    "quadrature.radial.worst_rel_err": ("ratio", "lower"),
    "quadrature.radial.failed": ("count", "lower"),
    "quadrature.share": ("ratio", "lower"),
    "quadrature.mc.calls": ("count", "lower"),
    "quadrature.mc.busy_s": ("s", "lower"),
    "quadrature.mc.samples": ("count", "lower"),
    "quadrature.mc.samples_per_s": ("1/s", "higher"),
    "quadrature.fd.calls": ("count", "lower"),
    "quadrature.fd.busy_s": ("s", "lower"),
    "norms.norm_value.calls": ("count", "lower"),
    "norms.norm_value.busy_s": ("s", "lower"),
    "norms.dual.closed.calls": ("count", "lower"),
    "norms.dual.closed.busy_s": ("s", "lower"),
    "norms.dual.closed.evals_per_s": ("1/s", "higher"),
    "norms.dual.custom.calls": ("count", "lower"),
    "norms.dual.custom.busy_s": ("s", "lower"),
    "norms.dual.custom.evals_per_s": ("1/s", "higher"),
    "norms.norm_calls_per_custom_dual": ("count", "lower"),
    "norms.uniformity.busy_s": ("s", "lower"),
    "norms.unit_ball_volume.busy_s": ("s", "lower"),
    "norms.legendre.busy_s": ("s", "lower"),
    "norms.share": ("ratio", "lower"),
    "flat.calls": ("count", "lower"),
    "flat.self_s": ("s", "lower"),
    "hyperbolic.calls": ("count", "lower"),
    "hyperbolic.self_s": ("s", "lower"),
    "hyperbolic.ko_scan.busy_s": ("s", "lower"),
    "hyperbolic.ko_scan.phi_evals": ("count", "lower"),
    "hyperbolic.ko_scan.s_per_phi": ("s", "lower"),
    "cli.run_suite.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "cli.parse_config.busy_s": ("s", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}
SPAN_FIELDS = ("name", "parent", "job", "start", "end", "count", "busy_s", "stats")


class TraceSiteError(RuntimeError):
    """A wrapped function or one of its expected import sites is missing."""


def _radial_stats(args, kwargs, result):
    rel = result.error_estimate / abs(result.value) if result.value else 0.0
    return {"evals": result.nodes_used, "max_rel_err": rel}


def _mc_stats(args, kwargs, result):
    return {"samples": result.nodes_used}


def _ko_stats(args, kwargs, result):
    return {"phi_evals": len(result["phi"])}


def _run_suite_stats(args, kwargs, result):
    cfg = args[0]
    out = kwargs.get("out_dir", args[1] if len(args) > 1 else None) or cfg.output_dir
    return {"artifact_bytes": sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())}


OBSERVERS = {
    "quadrature.radial_integral": _radial_stats,
    "quadrature.monte_carlo_integral": _mc_stats,
    "hyperbolic.ko_alpha_scan": _ko_stats,
    "cli.run_suite": _run_suite_stats,
}


def _dual_kind(args, kwargs):
    norm = args[0] if args else kwargs["norm"]
    return "custom" if norm.family == "custom" else "closed"


# Span names split by an argument: closed-form and maximised dual norms are
# different algorithms and get their own rates.
CLASSIFIERS = {"norms.dual_norm_value": _dual_kind}


def function_sites(package_name: str = "sharpineq") -> dict:
    """Map 'layer.function' -> list of (module, attribute) bindings holding it."""
    sites = {}
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == package_name or k.startswith(package_name + ".")) and m is not None]
    for layer, names in LAYERS.items():
        mod = sys.modules.get(f"{package_name}.{layer}")
        if mod is None:
            raise TraceSiteError(f"module {package_name}.{layer} is not imported")
        for name in names:
            fn = getattr(mod, name, None)
            if not callable(fn):
                raise TraceSiteError(f"{package_name}.{layer}.{name} no longer exists")
            sites[f"{layer}.{name}"] = [
                (m, attr) for m in modules for attr, val in vars(m).items() if val is fn
            ]
    return sites


def missing_sites(sites: dict) -> list:
    """Expected import sites that no longer hold their function."""
    found = {(m.__name__, attr) for binds in sites.values() for m, attr in binds}
    return [f"{m}.{a}" for m, a in EXPECTED_IMPORT_SITES if (m, a) not in found]


class Tracer:
    """Records spans for every call to a wrapped function while installed."""

    def __init__(self):
        self.spans = []  # lists laid out as SPAN_FIELDS
        self.job = -1
        self.clock = time.perf_counter  # a run sets the clock that leaves calibration out
        self._stack = [-1]
        self._groups = {}
        self._saved = []

    def install(self, package_name: str = "sharpineq") -> None:
        sites = function_sites(package_name)
        missing = missing_sites(sites)
        if missing:
            raise TraceSiteError("import sites gone: " + ", ".join(missing))
        for qualname, binds in sites.items():
            fn = getattr(binds[0][0], binds[0][1])
            wrapper = self._wrap(qualname, fn)
            for mod, attr in binds:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, qualname, fn):
        observe = OBSERVERS.get(qualname)
        classify = CLASSIFIERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{qualname}:{classify(args, kwargs)}" if classify else qualname
            return self._call(name, fn, observe, args, kwargs)

        return traced

    def _open(self, name):
        parent = self._stack[-1]
        group = self._groups.setdefault((self.job, parent, name), [0, -1])
        if group[0] < COALESCE_AFTER:
            group[0] += 1
            sid = len(self.spans)
            self.spans.append([name, parent, self.job, 0.0, 0.0, 1, 0.0, None])
        else:
            sid = group[1]
            if sid < 0:
                sid = group[1] = len(self.spans)
                self.spans.append([name, parent, self.job, 0.0, 0.0, 0, 0.0, None])
            self.spans[sid][5] += 1
        return sid

    def _call(self, name, fn, observe, args, kwargs):
        sid = self._open(name)
        span = self.spans[sid]
        self._stack.append(sid)
        t0 = self.clock()
        if span[3] == 0.0:
            span[3] = t0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(span, t0, {f"raised.{type(exc).__name__}": 1})
            raise
        stats = None
        t1 = self.clock()
        if observe is not None:
            stats = observe(args, kwargs, result)
        self._close(span, t0, stats, t1)
        return result

    def _close(self, span, t0, stats, t1=None):
        t1 = self.clock() if t1 is None else t1
        self._stack.pop()
        span[4] = t1
        span[6] += t1 - t0
        if stats:
            acc = span[7] if span[7] is not None else {}
            for k, v in stats.items():
                if k.startswith("max_"):
                    acc[k] = max(acc.get(k, v), v)
                else:
                    acc[k] = acc.get(k, 0) + v
            span[7] = acc


def _sum(spans, pred, field=6):
    return sum(s[field] for s in spans if pred(s[0]))


def layer_metrics(spans: list, traced_wall_s: float, passes: int, trace_overhead: float) -> dict:
    """Per-layer metrics derived from spans.

    Counts, busy times and self times are per pass of the job list; rates and
    ratios are over the whole traced run.  A span's self time is its busy
    time minus the busy time of its direct children.
    """
    child_busy = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_busy[s[1]] += s[6]
    self_s = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + s[6] - child_busy[i]

    def calls(name):
        return sum(s[5] for s in spans if s[0] == name)

    def busy(name):
        return _sum(spans, lambda n: n == name)

    def stat(name, key, agg=sum):
        vals = [s[7][key] for s in spans if s[0] == name and s[7] and key in s[7]]
        return agg(vals) if vals else 0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    per = 1.0 / max(passes, 1)
    wall = traced_wall_s
    rad, mc, fd = "quadrature.radial_integral", "quadrature.monte_carlo_integral", "quadrature.fd_derivative"
    nv, dc, du = "norms.norm_value", "norms.dual_norm_value:closed", "norms.dual_norm_value:custom"
    ko = "hyperbolic.ko_alpha_scan"
    custom_ids = {i for i, s in enumerate(spans) if s[0] == du}
    norm_in_custom = sum(s[5] for s in spans if s[0] == nv and s[1] in custom_ids)
    rad_evals = stat(rad, "evals")
    mc_samples = stat(mc, "samples")
    phi = stat(ko, "phi_evals")
    m = {
        "quadrature.radial.calls": calls(rad) * per,
        "quadrature.radial.busy_s": busy(rad) * per,
        "quadrature.radial.evals": rad_evals * per,
        "quadrature.radial.evals_per_call": rate(rad_evals, calls(rad)),
        "quadrature.radial.evals_per_s": rate(rad_evals, busy(rad)),
        "quadrature.radial.worst_rel_err": stat(rad, "max_rel_err", max),
        "quadrature.radial.failed": stat(rad, "raised.QuadratureError") * per,
        "quadrature.share": rate(self_s.get("quadrature", 0.0), wall),
        "quadrature.mc.calls": calls(mc) * per,
        "quadrature.mc.busy_s": busy(mc) * per,
        "quadrature.mc.samples": mc_samples * per,
        "quadrature.mc.samples_per_s": rate(mc_samples, busy(mc)),
        "quadrature.fd.calls": calls(fd) * per,
        "quadrature.fd.busy_s": busy(fd) * per,
        "norms.norm_value.calls": calls(nv) * per,
        "norms.norm_value.busy_s": busy(nv) * per,
        "norms.dual.closed.calls": calls(dc) * per,
        "norms.dual.closed.busy_s": busy(dc) * per,
        "norms.dual.closed.evals_per_s": rate(calls(dc), busy(dc)),
        "norms.dual.custom.calls": calls(du) * per,
        "norms.dual.custom.busy_s": busy(du) * per,
        "norms.dual.custom.evals_per_s": rate(calls(du), busy(du)),
        "norms.norm_calls_per_custom_dual": rate(norm_in_custom, calls(du)),
        "norms.uniformity.busy_s": busy("norms.uniformity_constant") * per,
        "norms.unit_ball_volume.busy_s": busy("norms.unit_ball_volume") * per,
        "norms.legendre.busy_s": busy("norms.legendre_map") * per,
        "norms.share": rate(self_s.get("norms", 0.0), wall),
        "flat.calls": sum(s[5] for s in spans if s[0].startswith("flat.")) * per,
        "flat.self_s": self_s.get("flat", 0.0) * per,
        "hyperbolic.calls": sum(s[5] for s in spans if s[0].startswith("hyperbolic.")) * per,
        "hyperbolic.self_s": self_s.get("hyperbolic", 0.0) * per,
        "hyperbolic.ko_scan.busy_s": busy(ko) * per,
        "hyperbolic.ko_scan.phi_evals": phi * per,
        "hyperbolic.ko_scan.s_per_phi": rate(busy(ko), phi),
        "cli.run_suite.busy_s": busy("cli.run_suite") * per,
        "cli.self_s": self_s.get("cli", 0.0) * per,
        "cli.artifact_bytes": stat("cli.run_suite", "artifact_bytes") * per,
        "cli.parse_config.busy_s": busy("cli.parse_config") * per,
        "bench.trace_overhead": trace_overhead,
    }
    if any(not math.isfinite(v) for v in m.values()):
        raise ValueError("non-finite layer metric")
    return m

"""Command-line front end: config parsing, suite execution, CSV/JSON artifacts.

Config files are INI (``key = value`` sections); see the repository README
for the grammar.  Identical config gives byte-identical CSVs: no suite
draws a Monte Carlo sample, so the seed reaches only the JSON's seed and
config_hash.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import flat, hyperbolic as hyp
# dual_norm_value is not called here; perfbench/tracer.py lists this import
# site and refuses to install without it
from .norms import MinkowskiNorm, dual_norm_value, uniformity_constant
from .quadrature import DecayClass, QuadratureSpec, RadialProfile


class ConfigError(ValueError):
    """Invalid configuration, with a precise message per error."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    suite: str
    n: int = 3
    norm_spec: dict = field(default_factory=lambda: {"family": "euclidean", "dimension": 3})
    triple: Optional[tuple] = None  # (n, p, q)
    lambda_grid: tuple = (0.5, 1.0, 2.0)
    epsilon_grid: tuple = tuple(10.0**-k for k in range(2, 9))
    rho_grid: tuple = (0.01, 0.5, 1.0, 2.0, 3.0)
    alpha_range: tuple = (3.0, 100.0)
    alpha_nodes: int = 4096
    tolerance: float = 1e-9
    seed: int = 0x5EED
    output_dir: str = "out"

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(relative_tolerance=self.tolerance, mc_seed=self.seed)

    def norm(self) -> MinkowskiNorm:
        return build_norm(self.norm_spec)


def build_norm(spec: dict) -> MinkowskiNorm:
    family = spec.get("family", "euclidean")
    n = int(spec.get("dimension", 3))
    if family == "euclidean":
        return MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))
    if family == "weighted-euclidean":
        flat_vals = [float(v) for v in spec["matrix"]]
        A = np.array(flat_vals).reshape(n, n)
        return MinkowskiNorm(n, "weighted-euclidean", matrix=A)
    if family == "lp":
        return MinkowskiNorm(n, "lp", exponent=float(spec["p"]))
    raise ConfigError([f"unknown norm family {family!r}"])


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


# section -> key -> parser of its text: the grammar in README.md
GRAMMAR = {
    "run": {"suite": str, "n": int, "output_dir": str},
    "norm": {"family": str, "dimension": int, "p": float, "matrix": lambda s: list(_floats(s))},
    "triple": {"n": int, "p": float, "q": float},
    "grids": {"lambda": _floats, "epsilon": _floats, "rho": _floats, "alpha": _floats, "alpha_nodes": int},
    "quadrature": {"tolerance": float, "seed": lambda s: int(s, 0)},
}


# the least [run] n each suite holds for; identities reads only the triple's n
MIN_N = {"flat-hpw": 2, "flat-hardy": 3, "hyperbolic": 2, "ko-refute": 3, "chpw-bounds": 2, "all": 3}
# suites that evaluate the [norm] in dimension [run] n
NORM_SUITES = ("flat-hpw", "flat-hardy", "all")


def parse_config(text: str, suite: Optional[str] = None) -> RunConfig:
    """Parse and validate an INI config block; raise ConfigError listing defects.

    ';' starts an inline comment.  A section or key outside GRAMMAR is an
    error, and so is a value its parser rejects, named as section.key; a
    section holding such a value gets no further checks.  run.n must reach
    the suite's MIN_N, norm.dimension defaults to run.n and must equal it
    for NORM_SUITES, identities and all need a [triple], grids.lambda,
    grids.rho and grids.alpha hold positive finite values, and grids.epsilon
    needs two distinct values in (0, 1) for the sweep's extrapolation.
    suite, when given (the --suite flag), replaces run.suite before any check.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc
    errors = []
    values, broken = {}, set()
    for name in cp.sections():
        if name not in GRAMMAR:
            errors.append(f"unknown section [{name}]; expected one of {tuple(GRAMMAR)}")
            continue
        sec = values[name] = {}
        for key, raw in cp[name].items():
            if key not in GRAMMAR[name]:
                errors.append(f"unknown key {name}.{key}; expected one of {tuple(GRAMMAR[name])}")
                continue
            try:
                sec[key] = GRAMMAR[name][key](raw)
            except ValueError:
                errors.append(f"{name}.{key}: cannot parse {raw!r}")
                broken.add(name)
    run = values.get("run", {})
    suite = suite or run.get("suite", "")
    if suite not in SUITES:
        errors.append(f"unknown or missing suite {suite!r}; expected one of {SUITES}")
    cfg = RunConfig(suite=suite or "all")
    if "n" in run:
        cfg.n = run["n"]
    if cfg.n < MIN_N.get(cfg.suite, cfg.n):
        errors.append(f"run.n = {cfg.n} is below {MIN_N[cfg.suite]}, the least n of suite {cfg.suite!r}")
    if "output_dir" in run:
        cfg.output_dir = run["output_dir"]
    if cfg.n >= 2:
        # a norm without a dimension lives in run.n; below 2 there is no norm,
        # and only identities, which never builds one, accepts such an n
        cfg.norm_spec = {"family": "euclidean", "dimension": cfg.n}
    if "norm" in values and "norm" not in broken:
        sec = values["norm"]
        spec = {"family": sec.get("family", "euclidean"),
                "dimension": sec.get("dimension", cfg.norm_spec["dimension"])}
        spec.update((k, sec[k]) for k in ("p", "matrix") if k in sec)
        cfg.norm_spec = spec
        try:
            build_norm(spec)
        except ConfigError as exc:
            errors.extend(exc.errors)
        except Exception as exc:
            errors.append(f"bad norm config: {exc}")
    if cfg.suite in NORM_SUITES and cfg.norm_spec["dimension"] != cfg.n:
        errors.append(
            f"norm.dimension = {cfg.norm_spec['dimension']} differs from run.n = {cfg.n}: "
            f"suite {cfg.suite!r} evaluates the norm in dimension run.n"
        )
    if "triple" in values and "triple" not in broken:
        sec = values["triple"]
        try:
            tn, tp, tq = sec["n"], sec["p"], sec["q"]
            flat.ExponentTriple(tn, tp, tq)
            cfg.triple = (tn, tp, tq)
        except flat.AdmissibilityError as exc:
            errors.append(f"inadmissible exponent triple: {exc}")
        except KeyError as exc:
            errors.append(f"bad triple section: missing {exc}")
    grids = values.get("grids", {})
    for key in ("lambda", "epsilon", "rho"):
        if key in grids:
            setattr(cfg, f"{key}_grid", grids[key])
    for key in ("lambda", "rho"):
        bad = [v for v in grids.get(key, ()) if not 0 < v < math.inf]
        if bad:
            need = "positive" if not bad[0] > 0 else "finite"
            errors.append(f"grids.{key} holds {bad[0]!r}: every {key} must be {need}")
    if "alpha" in grids:
        rng = grids["alpha"]
        if len(rng) != 2 or not (0 < rng[0] < rng[1] < math.inf):
            errors.append("grids.alpha must be two increasing positive finite numbers")
        else:
            cfg.alpha_range = rng
    if "alpha_nodes" in grids:
        cfg.alpha_nodes = grids["alpha_nodes"]
        if cfg.alpha_nodes < 2:
            errors.append("grids.alpha_nodes must be at least 2: the scan needs two alphas")
    quadrature = values.get("quadrature", {})
    if "tolerance" in quadrature:
        cfg.tolerance = quadrature["tolerance"]
        errors.extend(_tolerance_errors(cfg.tolerance, "quadrature.tolerance"))
    if "seed" in quadrature:
        cfg.seed = quadrature["seed"]
    if cfg.suite in ("identities", "all") and cfg.triple is None:
        errors.append(f"suite {cfg.suite!r} requires a [triple] section")
    for name in ("lambda_grid", "rho_grid"):
        if not getattr(cfg, name):
            errors.append(f"{name} must be non-empty")
    eps = cfg.epsilon_grid
    if len(eps) < 2:
        errors.append("grids.epsilon needs at least two values: the sharpness sweep extrapolates over them")
    if len(set(eps)) < len(eps):
        errors.append("grids.epsilon repeats a value: the sharpness sweep fits over distinct values")
    bad = [v for v in eps if not 0 < v < 1]
    if bad:
        errors.append(f"grids.epsilon holds {bad[0]!r}: every epsilon must lie in (0, 1), below the sweep's r = 1")
    if errors:
        raise ConfigError(errors)
    return cfg


def _tolerance_errors(tolerance: float, source: str) -> list:
    """QuadratureSpec's check of a relative tolerance, as config errors naming source."""
    try:
        QuadratureSpec(relative_tolerance=tolerance)
    except ValueError as exc:
        return [f"{source}: {exc}"]
    return []


def render_config(cfg: RunConfig) -> str:
    """Inverse of parse_config for generated configs (round-trip safe)."""
    cp = configparser.ConfigParser()
    # parse_config reads %% as %, the only value here that may hold one
    cp["run"] = {"suite": cfg.suite, "n": str(cfg.n), "output_dir": cfg.output_dir.replace("%", "%%")}
    norm = {k: (" ".join(_fmt(v) for v in val) if isinstance(val, list) else str(val))
            for k, val in cfg.norm_spec.items()}
    cp["norm"] = norm
    if cfg.triple is not None:
        cp["triple"] = {"n": str(cfg.triple[0]), "p": _fmt(cfg.triple[1]), "q": _fmt(cfg.triple[2])}
    cp["grids"] = {
        "lambda": " ".join(_fmt(v) for v in cfg.lambda_grid),
        "epsilon": " ".join(_fmt(v) for v in cfg.epsilon_grid),
        "rho": " ".join(_fmt(v) for v in cfg.rho_grid),
        "alpha": " ".join(_fmt(v) for v in cfg.alpha_range),
        "alpha_nodes": str(cfg.alpha_nodes),
    }
    cp["quadrature"] = {"tolerance": _fmt(cfg.tolerance), "seed": str(cfg.seed)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _fmt(x: float) -> str:
    """17 significant digits, lowercase scientific; lossless double round-trip."""
    return f"{float(x):.16e}"


@dataclass
class CheckRow:
    suite: str
    name: str
    param: float
    lhs: float
    rhs: float
    ratio: float
    target: float
    slack: float
    err: float
    tolerance: float
    passed: bool
    error: str = ""  # "Type: message" of the exception behind an error row


class Series(NamedTuple):
    """An xy plot series as two columns of equal length."""

    x: list | np.ndarray
    y: list | np.ndarray


@dataclass
class SuiteResult:
    suite: str
    checks: list
    wall_time: float
    config_hash: str
    seed: int
    # xy plot data per trace name
    series: dict = field(default_factory=dict)
    # wall seconds per runner, for summary.txt only
    runner_s: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _row(suite, name, param, report, tolerance, predicate=None) -> CheckRow:
    slack = report.slack
    ok = slack >= -tolerance if predicate is None else predicate(report)
    finite = all(
        math.isfinite(v) for v in (report.lhs, report.rhs, report.ratio, report.slack)
    )
    return CheckRow(
        suite=suite,
        name=name,
        param=param,
        lhs=report.lhs,
        rhs=report.rhs,
        ratio=report.ratio,
        target=report.target,
        slack=slack,
        err=report.combined_error,
        tolerance=tolerance,
        passed=bool(ok and finite),
    )


def _scalar_row(suite, name, param, value, target, tolerance) -> CheckRow:
    return CheckRow(
        suite=suite,
        name=name,
        param=param,
        lhs=value,
        rhs=target,
        ratio=value / target if target else value,
        target=target,
        slack=abs(value - target),
        err=0.0,
        tolerance=tolerance,
        passed=bool(math.isfinite(value) and abs(value - target) <= tolerance),
    )


def _bound_row(suite, name, param, value, target, err, tolerance, passed) -> CheckRow:
    """value against target: ratio value / target, slack value - target."""
    return CheckRow(
        suite, name, param, value, target, value / target, target, value - target, err, tolerance, bool(passed)
    )


def _run_identities(cfg: RunConfig) -> tuple[list, dict]:
    if cfg.triple is None:
        raise ConfigError([f"suite {cfg.suite!r} requires a [triple] section"])
    spec = cfg.quadrature_spec()
    t = flat.ExponentTriple(*cfg.triple)
    pairs = flat.pqr_reports(t, cfg.lambda_grid, spec)
    rows = []
    for lam, (rep, _) in zip(cfg.lambda_grid, pairs):
        rows.append(
            _row(
                "identities",
                "pqr-identity",
                lam,
                rep,
                1e-6,
                predicate=lambda r: abs(r.ratio - r.target) <= 1e-6,
            )
        )
    for lam, (_, res) in zip(cfg.lambda_grid, pairs):
        rows.append(_scalar_row("identities", "p-ode-residual", lam, res, 0.0, 1e-5))
    for lam, gt in zip(cfg.lambda_grid, flat.gaussian_T_grid(t.n, cfg.lambda_grid, spec)):
        rows.append(
            _scalar_row(
                "identities", "gaussian-T-closed-form", lam,
                gt["closed_form_relative_error"], 0.0, 1e-9,
            )
        )
        rows.append(
            _scalar_row(
                "identities", "gaussian-T-ode", lam,
                gt["ode_relative_residual"], 0.0, 1e-6,
            )
        )
    return rows, {}


def _run_flat_hpw(cfg: RunConfig) -> tuple[list, dict]:
    spec = cfg.quadrature_spec()
    rows = []
    # radial integrals are norm-independent, so the rows read only n
    reports = flat.gaussian_hpw_reports(cfg.n, cfg.lambda_grid, spec)
    for lam, (rep, res) in zip(cfg.lambda_grid, reports):
        rows.append(
            _row(
                "flat-hpw",
                "hpw-gaussian-equality",
                lam,
                rep,
                1e-6,
                predicate=lambda r: abs(r.ratio - r.target) <= 1e-6,
            )
        )
        rows.append(_scalar_row("flat-hpw", "moment-identity", lam, res, 0.0, 1e-8))
    return rows, {}


def _run_flat_hardy(cfg: RunConfig) -> tuple[list, dict]:
    spec = cfg.quadrature_spec()
    norm = cfg.norm()
    n = cfg.n
    rows = []
    # the Hardy test function of the flat and hyperbolic suites is r e^(-r^2)
    rows.append(_row("flat-hardy", "hardy-quotient", 0.0, flat.gaussian_hardy_reports(n, [1.0], spec)[0], 0.0))
    sweep = flat.hardy_sharpness_sweep(norm, n, 1.0, 2.0, cfg.epsilon_grid, spec)
    mono = all(
        b <= a + 1e-12 for a, b in zip(sweep["quotients"], sweep["quotients"][1:])
    )
    above = all(q >= sweep["target"] - 1e-10 for q in sweep["quotients"])
    limit_ok = abs(sweep["extrapolated_limit"] - sweep["target"]) <= 0.01
    rows.append(
        _bound_row(
            "flat-hardy", "sharpness-sweep", 0.0, sweep["extrapolated_limit"], sweep["target"],
            0.0, 0.01, mono and above and limit_ok,
        )
    )
    psi, dpsi = flat.smoothstep_cutoff(0.5, 1.0)
    bump = flat.RadialFunction(
        RadialProfile(lambda r: psi(r), DecayClass.compact(1.0), breakpoints=(0.5,)),
        dpsi,
    )
    l_star = uniformity_constant(norm)
    rows.append(
        _row(
            "flat-hardy", "double-hardy", l_star,
            flat.double_hardy_report(norm, n, bump, 2.0, l_star, spec), 1e-9,
        )
    )
    series = {"hardy_quotient_vs_logeps": Series([math.log(1.0 / e) for e in sweep["eps"]], sweep["quotients"])}
    return rows, series


def _run_hyperbolic(cfg: RunConfig) -> tuple[list, dict]:
    spec = cfg.quadrature_spec()
    n = cfg.n
    rows = []
    lap = hyp.laplace_comparison_check(n, [-1.0, 0.0], cfg.rho_grid)
    rows.append(
        _scalar_row("hyperbolic", "laplace-comparison-equality", -1.0,
                    lap["max_equality_defect"], 0.0, 1e-12)
    )
    vol = hyp.hyp_volume_ratio_check(n, cfg.rho_grid, spec)
    rows.append(
        _bound_row(
            "hyperbolic", "volume-ratio-monotone", 0.0, min(vol["ratios"]), vol["omega_n"],
            0.0, 1e-10, vol["non_decreasing"] and vol["all_above_omega"],
        )
    )
    # alpha = 1 serves the equality and the strictness row
    reports = hyp.modified_hpw_reports(n, (0.25, 1.0, 4.0), spec)
    for alpha, (rep, _) in zip((0.25, 1.0, 4.0), reports):
        rows.append(
            _row(
                "hyperbolic", "modified-hpw-equality", alpha, rep, 1e-6,
                predicate=lambda r: abs(r.ratio - r.target) / r.target <= 1e-6,
            )
        )
    rep = reports[1][1]
    rows.append(
        _row(
            "hyperbolic", "hpw-strictness", 1.0, rep, 0.0,
            predicate=lambda r: r.slack > 100 * r.combined_error * r.target,
        )
    )
    if n >= 3:
        ((rep1, rep2),) = hyp.gaussian_hardy_hyperbolic_reports(n, [1.0], spec)
        rows.append(_row("hyperbolic", "hardy-quantitative", 0.0, rep1, 1e-9))
        rows.append(_row("hyperbolic", "hardy-improved", 0.0, rep2, 1e-9))
    series = {"volume_ratio_vs_rho": Series(vol["rho"], vol["ratios"])}
    return rows, series


def _run_ko_refute(cfg: RunConfig) -> tuple[list, dict]:
    spec = cfg.quadrature_spec()
    scan = hyp.ko_alpha_scan(cfg.n, cfg.alpha_range, cfg.alpha_nodes, spec)
    # a scan that examined no alpha refutes nothing
    rows = [
        CheckRow(
            "ko-refute", "no-sign-change", float(cfg.n),
            float(len(scan["brackets"])), 0.0,
            float(len(scan["brackets"])), 0.0,
            -float(len(scan["brackets"])), scan["worst_rel_err"], 0.0,
            len(scan["alphas"]) > 0 and len(scan["brackets"]) == 0,
        )
    ]
    series = {"phi_vs_alpha": Series(scan["alphas"], scan["phi"])}
    return rows, series


def _run_chpw_bounds(cfg: RunConfig) -> tuple[list, dict]:
    spec = cfg.quadrature_spec()
    b = hyp.hpw_constant_bounds(cfg.n, spec=spec)
    return [
        _bound_row(
            "chpw-bounds", "upper-above-lower", float(cfg.n), b["upper"], b["lower"],
            b["worst_rel_err"], 0.0, b["upper"] >= b["lower"],
        )
    ], {}


# suite name -> runner returning (rows, plot series); 'all' runs them in order
RUNNERS = {
    "identities": _run_identities,
    "flat-hpw": _run_flat_hpw,
    "flat-hardy": _run_flat_hardy,
    "hyperbolic": _run_hyperbolic,
    "ko-refute": _run_ko_refute,
    "chpw-bounds": _run_chpw_bounds,
}
SUITES = (*RUNNERS, "all")


def run_suite(cfg: RunConfig, out_dir: Optional[str] = None) -> SuiteResult:
    """Execute the configured suite and write CSV/JSON/summary artifacts."""
    start = time.perf_counter()
    suites = tuple(RUNNERS) if cfg.suite == "all" else (cfg.suite,)
    checks: list = []
    series: dict = {}
    runner_s: dict = {}
    for s in suites:
        t0 = time.perf_counter()
        try:
            rows, ser = RUNNERS[s](cfg)
            checks.extend(rows)
            series.update(ser)
        except ConfigError:
            raise
        except Exception as exc:  # record, keep running the rest of the suite
            checks.append(
                CheckRow(s, f"error:{type(exc).__name__}", 0.0, math.nan, math.nan,
                         math.nan, math.nan, math.nan, math.nan, 0.0, False,
                         error=f"{type(exc).__name__}: {exc}")
            )
        runner_s[s] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    cfg_hash = hashlib.sha256(render_config(cfg).encode()).hexdigest()[:16]
    result = SuiteResult(cfg.suite, checks, wall, cfg_hash, cfg.seed, series, runner_s)
    target = Path(out_dir or cfg.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    _write_artifacts(result, target)
    return result


# the CSV columns are every CheckRow field but error, which only the JSON and
# summary carry; one % template writes a row
_CSV_FIELDS = [f for f in fields(CheckRow) if f.name != "error"]
_CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS) + "\n"
_CSV_ROW = ",".join({"str": "%s", "float": "%.16e", "bool": "%d"}[f.type] for f in _CSV_FIELDS) + "\n"
_csv_values = attrgetter(*(f.name for f in _CSV_FIELDS))
# indent=2's separators inside a check row, and between the top-level keys
_json_rows = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
_json_top = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": ")).encode


def _json_text(result: SuiteResult) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) of the run's payload, and a newline.

    indent makes json.dumps take the pure-Python encoder.  Here the C
    encoder writes the check rows in one call and the top-level scalars in
    another, with indent=2's separators inside a row and between the keys;
    the braces and brackets then go where indent=2 puts them.  Rows meet at
    the only "},\\n      {" of the text, since a string holds its newlines
    escaped.  CheckRow holds no containers, so a row's __dict__ is what
    asdict's deep copy gives.
    """
    checks = "[]"
    if result.checks:
        rows = _json_rows([vars(c) for c in result.checks])[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        checks = f"[\n    {{\n      {rows}\n    }}\n  ]"
    top = _json_top({
        "suite": result.suite,
        "passed": result.passed,
        "config_hash": result.config_hash,
        "seed": result.seed,
    })
    # "checks" sorts before every other key
    return f'{{\n  "checks": {checks},\n  {top[1:-1]}\n}}\n'


def _write_artifacts(result: SuiteResult, out: Path) -> None:
    start = time.perf_counter()
    name = result.suite
    rows = "".join(_CSV_ROW % _csv_values(c) for c in result.checks)
    (out / f"{name}.csv").write_text(_CSV_HEADER + rows)
    (out / f"{name}.json").write_text(_json_text(result))
    emit_plot_data(result, out)
    summary = [f"suite: {result.suite}"]
    summary.append(f"config: {result.config_hash}  seed: {result.seed}")
    for c in result.checks:
        summary.append(
            f"[{'PASS' if c.passed else 'FAIL'}] {c.suite}/{c.name} param={c.param:g} "
            f"slack={c.slack:.3e} tolerance={c.tolerance:.3e}"
            + (f" error={c.error}" if c.error else "")
        )
    # timings stay out of the CSV and JSON, which are byte-identical between runs
    for s, t in result.runner_s.items():
        summary.append(f"time: {s} {t * 1e3:.2f} ms")
    summary.append(f"time: artifacts {(time.perf_counter() - start) * 1e3:.2f} ms")
    summary.append(f"overall: {'PASS' if result.passed else 'FAIL'} ({result.wall_time:.2f}s)")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")


def emit_plot_data(result: SuiteResult, out: Path) -> list:
    """Write xy-series CSVs for external plotting; returns the paths written.

    Every value is written as ``"%.16e"`` would write it.
    """
    written = []
    columns = {
        "hardy_quotient_vs_logeps": "log_inv_eps,quotient",
        "phi_vs_alpha": "alpha,phi",
        "volume_ratio_vs_rho": "rho,ratio",
    }
    for trace, xy in result.series.items():
        if len(xy.x) != len(xy.y):
            raise ValueError(
                f"series {trace}: x has {len(xy.x)} values, y has {len(xy.y)}"
            )
        if len(xy.x) == 0:
            print(f"warning: empty series {trace}", file=sys.stderr)
            continue
        path = Path(out) / f"{trace}.csv"
        path.write_bytes(f"{columns[trace]}\n".encode() + _series_bytes(xy))
        written.append(path)
    return written


# A series row is two 24-byte records, one per value: six little-endian
# words "-d.d", "dddd", "dddd", "dddd", "ddde", "+dd," of the 17 significant
# digits, exponent and separator (',' after x, '\n' after y).  A non-negative
# value drops the sign slot, byte 0.  A block of rows keeps its records within
# _BLOCK_BYTES, 128 kB: each block pays some 40 numpy calls, so the 4 096-row
# phi series takes two.  A series of fewer than _SHORT_ROWS rows goes to the
# % pass whole, which writes it faster than one block's calls.
_RECORD = 24
_BLOCK_BYTES = 1 << 17
_BLOCK_ROWS = _BLOCK_BYTES // (2 * _RECORD)
_SHORT_ROWS = 40
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
_POW10_MIN, _POW10_MAX = -84, 117  # the k of 10^k that _format_block scales by


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _words(*columns) -> np.ndarray:
    """The little-endian words whose four bytes are the given columns of byte values."""
    return np.stack(columns, 1).astype(np.uint8).view("<u4").ravel()


@functools.cache
def _tables() -> tuple:
    """_format_block's tables, built on its first call.

    pow10 holds 10^k for k in [_POW10_MIN, _POW10_MAX], column k −
    _POW10_MIN, as rows hi, rest and hi's Dekker halves: hi the nearest
    double, rest the nearest double to 10^k − hi.  The others map an index
    to a record's word: lead 10·d0 + d1 to "-d0.d1", group 0..9999 to four
    digits, last 0..999 to three digits and 'e', exponent e + 99 to its
    sign, two digits and ','.
    """
    pow10 = []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k >= 0:
            hi = float(10**k)
            rest = float(10**k - int(hi))
        else:
            m = 10**-k
            hi = 1 / m  # int true division rounds correctly
            num, den = hi.as_integer_ratio()
            rest = (den - num * m) / (den * m)
        pow10.append((hi, rest, *_split(hi)))
    zero, i = ord("0"), np.arange(10_000)
    e = np.abs(np.arange(-99, 100))
    lead = _words(np.full(100, ord("-")), i[:100] // 10 + zero, np.full(100, ord(".")), i[:100] % 10 + zero)
    group = _words(i // 1000 + zero, i // 100 % 10 + zero, i // 10 % 10 + zero, i % 10 + zero)
    last = _words(i[:1000] // 100 + zero, i[:1000] // 10 % 10 + zero, i[:1000] % 10 + zero, np.full(1000, ord("e")))
    exponent = _words(np.repeat([ord("-"), ord("+")], [99, 100]), e // 10 + zero, e % 10 + zero, np.full(199, ord(",")))
    return np.array(pow10).T.copy(), lead, group, last, exponent


def _scaled(a, k, pow10):
    """floor(x) as int64 and x − floor(x) for x = a·10^k below 2^57.

    10^k is hi + rest (_tables' pow10). a·hi is p + err exactly by Dekker's
    product, since numpy has no fma; p is an integer once x ≥ 2^53, and
    err + a·rest is off by about 1e-14 at most.
    """
    hi, rest, bh, bl = np.take(pow10, k - _POW10_MIN, axis=1)
    p = a * hi
    ah, al = _split(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * rest
    whole = np.floor(e)
    return p.astype(np.int64) + whole.astype(np.int64), e - whole


def _format_block(v):
    """Bytes of "%.16e,%.16e\\n" rows of the interleaved values v, or None.

    None where a value cannot be proven: ±0, subnormal, inf, nan, a final
    exponent of 100 or more, or a rounding within 1e-6 of a tie, which %
    breaks half-even.  Otherwise the 17 digits are split by int64 division
    into the two leading digits, three groups of four and a last three, each
    looked up as a word of ASCII, and so is the exponent; the block is its
    records, row-major, in one tobytes.
    """
    a = np.abs(v)
    if not (a.min() >= 1e-100 and a.max() < 1e100):
        return None
    pow10, lead, group, last, exponent = _tables()
    # 17 digits: round(a·10^(16 − exp)) in [10^16, 10^17], exp = ⌊log10 a⌋
    exp = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, 16 - exp, pow10)
    if whole.min() < 10**16 or whole.max() >= 10**17:
        # log10 missed by one next to a power of ten
        exp += (whole >= 10**17).astype(np.int64) - (whole < 10**16)
        whole, frac = _scaled(a, 16 - exp, pow10)
        if whole.min() < 10**16 or whole.max() >= 10**17:
            return None
    if np.abs(frac - 0.5).min() < 1e-6:
        return None
    digits = whole + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    exp += carry
    if exp.min() < -99 or exp.max() > 99:
        return None
    words = np.empty((v.size, _RECORD // 4), "<u4")
    head = digits // 10**15
    words[:, 0] = lead[head]
    digits -= head * 10**15
    for col, place in enumerate((10**11, 10**7, 10**3), 1):
        four = digits // place
        words[:, col] = group[four]
        digits -= four * place
    words[:, 4] = last[digits]
    words[:, 5] = exponent[exp + 99]
    records = words.view(np.uint8)
    records[1::2, -1] = ord("\n")
    neg = v < 0
    if not neg.any():
        return records[:, 1:].tobytes()
    keep = np.ones(records.shape, bool)
    keep[:, 0] = neg
    return records[keep].tobytes()


def _series_bytes(xy: Series) -> bytes:
    """The rows of xy as "%.16e,%.16e\\n" writes them.

    A series of fewer than _SHORT_ROWS rows, and a block of rows that
    _format_block cannot prove, goes through that % pass.
    """
    rows = len(xy.x)
    values = np.empty(2 * rows)
    values[::2] = xy.x
    values[1::2] = xy.y
    if rows < _SHORT_ROWS:
        return _percent(values)
    chunks = []
    for start in range(0, values.size, 2 * _BLOCK_ROWS):
        block = values[start:start + 2 * _BLOCK_ROWS]
        text = _format_block(block)
        chunks.append(_percent(block) if text is None else text)
    return b"".join(chunks)


def _percent(values) -> bytes:
    """The interleaved values as rows of one "%.16e,%.16e\\n" pass."""
    return (("%.16e,%.16e\n" * (values.size // 2)) % tuple(values.tolist())).encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="sharpineq",
        description="Verify sharp functional inequalities on flat normed space "
        "and the hyperbolic ball.",
    )
    ap.add_argument("--config", type=Path, help="INI config file")
    ap.add_argument("--suite", choices=SUITES, help="override the configured suite")
    ap.add_argument("--out", type=Path, help="output directory")
    ap.add_argument("--seed", type=lambda s: int(s, 0), help="Monte Carlo seed")
    ap.add_argument("--tolerance", type=float, help="quadrature relative tolerance")
    args = ap.parse_args(argv)
    try:
        if args.config is not None:
            cfg = parse_config(args.config.read_text(), suite=args.suite)
        else:
            cfg = RunConfig(suite=args.suite or "all")
            if cfg.suite in ("identities", "all"):
                cfg.triple = (3, 3.0, 1.0)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tolerance is not None:
            cfg.tolerance = args.tolerance
            if errors := _tolerance_errors(cfg.tolerance, "--tolerance"):
                raise ConfigError(errors)
        result = run_suite(cfg, str(args.out) if args.out else None)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out or cfg.output_dir)
    print((out / "summary.txt").read_text(), end="")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

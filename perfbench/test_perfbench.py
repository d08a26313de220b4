"""Self-checks of the benchmark: wrap sites, layer coverage, trace transparency,
seeded job lists and the contract between BENCHMARK.json and the code.

    python3 -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())
WORKLOADS = ("suite-all", "reports", "norms-mc")
# Layers each workload is predicted to use (README.md, per-layer table).
PREDICTED_LAYERS = {
    "suite-all": ("cli", "hyperbolic", "flat", "quadrature"),
    "reports": ("flat", "hyperbolic", "quadrature"),
    "norms-mc": ("norms", "quadrature", "flat"),
}


def test_benchmark_json_names_the_metrics_the_code_reports():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tr.PER_LAYER
    res = run.RunResult()
    res.pass_walls, res.job_times = [1.0], [[0.5, 0.5]]
    res.job_clock = [[(0.0, 0.5, 0.5), (0.5, 1.0, 1.0)]]
    res.sampler = run.cal.Sampler()
    res.sampler.starts, res.sampler.times = [0.2, 0.7], [0.002, 0.002]
    e2e = run.end_to_end(res, [(0.9, [0.002])])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: v[1] for k, v in e2e.items()}


def _spin(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_sampler_clock_leaves_kernel_runs_out_and_restores_the_handler():
    old = signal.getsignal(signal.SIGALRM)
    sampler = run.cal.Sampler()
    with sampler:
        _spin(0.15)
        w0, c0 = time.perf_counter(), sampler.clock()
        _spin(0.3)
        w1, c1 = time.perf_counter(), sampler.clock()
        _spin(0.15)
    assert signal.getsignal(signal.SIGALRM) is old
    inside = [t for s, t in zip(sampler.starts, sampler.times) if c0 <= s < c1]
    assert len(inside) >= 3
    assert (w1 - w0) - (c1 - c0) == pytest.approx(sum(inside), abs=5e-3)
    assert len(sampler.around(c0, c1)) == len(inside) + 2 * run.cal.NEIGHBOURS


def test_every_wrapped_function_exists_at_each_import_site():
    sites = tr.function_sites()
    assert tr.missing_sites(sites) == []
    assert all(sites.values())


def test_uninstall_restores_every_binding():
    before = {q: [getattr(m, a) for m, a in b] for q, b in tr.function_sites().items()}
    with tr.Tracer():
        pass
    after = {q: [getattr(m, a) for m, a in b] for q, b in tr.function_sites().items()}
    assert before == after


def _cheapest_jobs(workload):
    """One pass made of the cheapest catalogue entry of every kind."""
    best = {}
    for e in wl.catalogue(workload):
        ref = REFERENCE["entries"].get(e.key)
        if ref and (e.kind not in best or ref["cost_s"] < best[e.kind][0]):
            best[e.kind] = (ref["cost_s"], e)
    return [[e for _, e in best.values()]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_covers_predicted_layers(workload, tmp_path):
    passes = _cheapest_jobs(workload)
    inputs = {e.key: wl.KINDS[e.kind].build(e.params) for e in passes[0]}
    plain = run.run_passes(wl, REFERENCE, passes, inputs, tmp_path, limit=1)
    tracer = tr.Tracer()
    with tracer:
        traced = run.run_passes(wl, REFERENCE, passes, inputs, tmp_path, limit=1, tracer=tracer)
    assert plain.failures == [] and traced.failures == []
    assert traced.outputs == plain.outputs
    layers = {s[0].split(".", 1)[0] for s in tracer.spans}
    assert set(PREDICTED_LAYERS[workload]) <= layers
    metrics = tr.layer_metrics(tracer.spans, sum(traced.pass_walls), 1, 0.0)
    assert set(metrics) == set(tr.PER_LAYER)


def test_coalesced_spans_keep_exact_counts():
    import sharpineq.norms as norms
    import numpy as np

    norm = norms.MinkowskiNorm(3, "lp", exponent=4.0)
    tracer = tr.Tracer()
    with tracer:
        for _ in range(3 * tr.COALESCE_AFTER):
            norms.norm_value(norm, np.ones(3))
    calls = [s for s in tracer.spans if s[0] == "norms.norm_value"]
    assert len(calls) == tr.COALESCE_AFTER + 1
    assert sum(s[5] for s in calls) == 3 * tr.COALESCE_AFTER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_is_generated_from_the_seed(workload):
    a = wl.job_passes(workload, 7, REFERENCE)
    assert wl.digest(a) == wl.digest(wl.job_passes(workload, 7, REFERENCE))
    assert wl.digest(a) != wl.digest(wl.job_passes(workload, 8, REFERENCE))
    assert all(e.key in REFERENCE["entries"] for p in a for e in p)
    kinds = [sorted(e.kind for e in p) for p in a]
    assert all(k == kinds[0] for k in kinds)  # every pass has the same kind mix


@pytest.mark.parametrize("seed", range(5))
def test_suite_all_never_repeats_a_scan(seed):
    cost = {k: v["cost_s"] for k, v in REFERENCE["entries"].items()}
    passes = wl.suite_passes(np.random.Generator(np.random.Philox(key=seed)), wl.suite_entries(), cost)
    scans = [(e.params["n"], tuple(e.params["alpha"]), e.params["tol"]) for p in passes for e in p]
    assert len(scans) == len(set(scans)) == 32
    assert all(sorted(e.params["band"] for e in p) in ([0, 2], [1, 3]) for p in passes)


def test_reference_covers_every_catalogue_entry():
    failed = {f["key"] for f in REFERENCE["known_failures"]}
    for workload in WORKLOADS:
        for e in wl.catalogue(workload):
            assert (e.key in REFERENCE["entries"]) != (e.key in failed), e.key

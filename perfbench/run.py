"""sharpineq benchmark: one closed-loop client issuing a seeded job list.

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``sharpineq`` from its
``src/``.  Passes of the job list run until --seconds have elapsed (the pass
in flight finishes); every job is checked against the seed-state reference.
Timings are seconds at reference speed: they are scaled by a calibration
kernel timed alongside the jobs (calibrate.py), which takes out the speed
swings of a shared machine.
--trace 0 prints the end-to-end metrics; --trace 1 runs the same passes
again with spans recorded and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  A JSON record
of the run (environment, job-list digest, failures, spans) goes to
``.perfbench/results/``.  See README.md for the metrics.

    python3 perfbench/run.py --make-reference

recomputes ``perfbench/reference.json`` from the current source.
"""

from __future__ import annotations

import os
import sys
import time

# Pin BLAS/OpenMP pools before numpy loads; set-up probes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate as cal  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 4


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_program():
    """Import sharpineq from this checkout's src/, never from elsewhere."""
    if not (SRC / "sharpineq" / "__init__.py").is_file():
        raise BenchError(f"no sharpineq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sharpineq

    if Path(sharpineq.__file__).resolve().parent != (SRC / "sharpineq").resolve():
        raise BenchError(f"sharpineq imported from {sharpineq.__file__}, not {SRC}")
    import sharpineq.cli  # noqa: F401  (the cli layer is wrapped by the tracer)

    return sharpineq


def setup(workload: str, seed: int):
    """Import the program, load the reference, generate and build the job list."""
    import_program()
    import workloads as wl

    reference = json.loads(REFERENCE.read_text())
    passes = wl.job_passes(workload, seed, reference)
    entries = {e.key: e for p in passes for e in p}
    inputs = {key: wl.KINDS[e.kind].build(e.params) for key, e in entries.items()}
    return wl, reference, passes, inputs


class RunResult:
    def __init__(self):
        self.pass_walls = []  # per pass: job and check time, calibration excluded
        self.job_times = []  # per pass: the latency of each of its jobs
        self.outputs = []  # per job: dict of values, or None when it raised
        self.failures = []  # (job index, key, "Type: message")
        self.jobs = []
        self.job_clock = []  # per pass: (issue, return, checked) of each job, sampler clock
        self.sampler = None

    @property
    def attempted(self):
        return sum(map(len, self.job_times))

    def ref_pass_walls(self):
        """Pass times at reference speed, each job scaled by the kernel runs around it."""
        return [sum(cal.to_reference(c2 - c0, self.sampler.around(c0, c2)) for c0, _, c2 in cs)
                for cs in self.job_clock]

    def ref_job_times(self):
        return [[cal.to_reference(c1 - c0, self.sampler.around(c0, c2)) for c0, c1, c2 in cs]
                for cs in self.job_clock]


def run_passes(wl, reference, passes, inputs, scratch, seconds=None, limit=None, tracer=None):
    """Closed loop, one client: each job is issued after the previous one completes.

    The calibration sampler runs throughout; job and pass times leave its
    kernel runs out.
    """
    res = RunResult()
    with cal.Sampler() as sampler:
        res.sampler = sampler
        clock = sampler.clock
        if tracer is not None:
            tracer.clock = clock
        t_run = time.perf_counter()
        for p, jobs in enumerate(passes):
            if limit is not None and p >= limit:
                break
            if seconds is not None and p > 0 and time.perf_counter() - t_run >= seconds:
                break
            res.job_times.append([])
            res.job_clock.append([])
            for job in jobs:
                idx = len(res.jobs)
                res.jobs.append(job)
                if tracer is not None:
                    tracer.job = idx
                kind = wl.KINDS[job.kind]
                t0 = clock()
                try:
                    raw = kind.call(inputs[job.key], scratch)
                    t1 = clock()
                    out = kind.outputs(job.params, raw)
                    bad = out.mismatches(reference["entries"][job.key]["out"])
                    res.outputs.append(out.values)
                    if bad:
                        res.failures.append((idx, job.key, "MismatchError: outside tolerance: "
                                             + ", ".join(bad[:5])))
                except Exception as exc:  # a failed job is counted, the run goes on
                    t1 = clock()
                    res.outputs.append(None)
                    res.failures.append((idx, job.key, f"{type(exc).__name__}: {exc}"))
                t2 = clock()
                res.job_times[-1].append(t1 - t0)
                res.job_clock[-1].append((t0, t1, t2))
            res.pass_walls.append(sum(t2 - t0 for t0, _, t2 in res.job_clock[-1]))
    return res


def probe_known_failures(wl, reference, workload):
    """Re-run the workload's catalogue entries that raised at seed state (untimed)."""
    keys = {e.key for e in wl.catalogue(workload)}
    status = []
    for item in (f for f in reference["known_failures"] if f["key"] in keys):
        kind = wl.KINDS[item["kind"]]
        try:
            kind.call(kind.build(item["params"]), None)
            now = "returns"
        except Exception as exc:
            now = f"{type(exc).__name__}: {exc}"
        status.append({"key": item["key"], "seed_state": item["error"], "now": now})
    return status


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_setup(workload: str, seed: int):
    """setup() on the clock of a sampler running the interpreted-loop kernel.

    Returns setup()'s results and (set-up seconds, kernel times).
    """
    sampler = cal.Sampler(cal.loop_work)
    with sampler:
        t0 = sampler.clock()
        built = setup(workload, seed)
        seconds = sampler.clock() - t0
    return built, (seconds, sampler.times)


def setup_probe_times(args):
    """Set-up time of fresh processes, each importing and building the workload."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def end_to_end(res, setup_times):
    """End-to-end metrics, timings in seconds at reference speed (calibrate.py).

    `setup_times` holds (set-up seconds, interpreted-loop kernel times).
    """
    walls = res.ref_pass_walls()
    jobs = [t for ts in res.ref_job_times() for t in ts]
    setups = [cal.to_reference(t, c, cal.REF_LOOP_S) for t, c in setup_times]
    tail = "" if len(jobs) >= 100 else "; fewer than 100 jobs"
    return {
        "wall_s": (statistics.median(walls), "s", len(walls), "median over passes"),
        "job_s.p50": (quantile(jobs, 0.5), "s", len(jobs), "over all jobs"),
        "job_s.p90": (quantile(jobs, 0.9), "s", len(jobs), "over all jobs" + tail),
        "setup_s": (statistics.median(setups), "s", len(setups), "median over set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1,
                        "this process"),
    }


def measure(wl, reference, passes, inputs, seconds, trace):
    """Untraced passes for `seconds`; with `trace`, the same passes again traced."""
    scratch = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        res = run_passes(wl, reference, passes, inputs, scratch, seconds=seconds)
        if not trace:
            return res, None
        import tracer as tr

        tracer = tr.Tracer()
        with tracer:
            traced = run_passes(wl, reference, passes, inputs, scratch,
                                limit=len(res.pass_walls), tracer=tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return res, {
        "identical": traced.outputs == res.outputs,
        "per_layer": tr.layer_metrics(tracer.spans, sum(traced.pass_walls), len(traced.pass_walls),
                                      sum(traced.ref_pass_walls()) / sum(res.ref_pass_walls()) - 1),
        "spans": {"fields": tr.SPAN_FIELDS, "spans": tracer.spans},
    }


def summary_lines(record, metrics, res, known):
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  job list {record['job_list_digest']}  "
        f"passes {record['passes']}  jobs {res.attempted}",
        f"environment {json.dumps(record['environment'], sort_keys=True)}",
    ]
    for k, (v, unit, n, note) in metrics.items():
        lines.append(f"  {k:<14} {v:14.6g} {unit:<3} n={n:<6} {note}")
    lines.append(f"  {'failed_ratio':<14} {len(res.failures) / res.attempted:14.6g}     "
                 f"n={res.attempted:<6} {len(res.failures)} failed of {res.attempted} attempted")
    for i, k, m in res.failures[:10]:
        lines.append(f"  FAILED job {i} {k}: {m}")
    if "shared_mass_share" in record:
        lines.append(f"  shared C_k(alpha) masses across jobs: {record['shared_mass_share']:.4f}")
    if known:
        still = sum(item["now"] == item["seed_state"] for item in known)
        lines.append(f"  known seed failures (probed untimed, not in the job list): {len(known)}, "
                     f"{still} still raise as at seed state; e.g. {known[0]['key']}: {known[0]['now']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("suite-all", "reports", "norms-mc"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.make_reference:
        import_program()
        import make_reference

        make_reference.main(REFERENCE)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    (wl, reference, passes, inputs), setup_main = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup_main))
        return 0
    setup_times = [setup_main]
    if args.trace == 0:
        setup_times += setup_probe_times(args)
    known = probe_known_failures(wl, reference, args.workload)
    res, traced = measure(wl, reference, passes, inputs, args.seconds, args.trace)
    metrics = end_to_end(res, setup_times)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "job_list_digest": wl.digest(passes),
        "passes": len(res.pass_walls), "attempted": res.attempted, "failed": len(res.failures),
        "pass_walls_s": res.pass_walls, "pass_walls_ref_s": res.ref_pass_walls(),
        "calibration_s": res.sampler.times, "setup_samples_s": setup_times,
        "failures": [{"job": i, "key": k, "error": m} for i, k, m in res.failures],
        "known_seed_failures": known,
        "end_to_end": {k: {"value": v[0], "unit": v[1], "samples": v[2], "note": v[3]}
                       for k, v in metrics.items()},
    }
    if args.workload == "suite-all":
        record["shared_mass_share"] = wl.mass_share(
            [e for p in passes[:len(res.pass_walls)] for e in p])
    lines = summary_lines(record, metrics, res, known)
    printed = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced is not None:
        import tracer as tr

        record["per_layer"] = traced["per_layer"]
        record["traced_outputs_identical"] = traced["identical"]
        printed = {k: {"value": v, "unit": tr.PER_LAYER[k][0]} for k, v in traced["per_layer"].items()}
        lines.append(f"  traced outputs identical to untraced: {traced['identical']}")
        lines += [f"  {k:<38} {v['value']:14.6g} {v['unit']}" for k, v in printed.items()]
        (results / f"{stem}.spans.json").write_text(json.dumps(traced["spans"]) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not res.failures and (traced is None or traced["identical"]),
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)

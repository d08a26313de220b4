"""The CLI and the catalogue digests, each run in a fresh process.

Every run is a new sys.executable with the package's src on PYTHONPATH, no
bytecode written and the BLAS thread variables unset unless a case pins one.
Two runs compare every artifact but summary.txt, which carries the wall
time, byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SUITE_ALL = {"all": (["--suite", "all"], None)}


def python(args: list, cwd: Path, **env) -> None:
    """sys.executable on args in cwd, with env added to the environment; fails the test unless it exits 0."""
    base = {k: v for k, v in os.environ.items() if k not in THREADS}
    base.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=base, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def cli(out: Path, runs: dict, prelude: str = "", **env) -> Path:
    """sharpineq.cli.main in one fresh process (prelude run first) on each
    name -> (argv, config text or None) of runs, into out/name; returns out."""
    out.mkdir(parents=True, exist_ok=True)
    argvs = []
    for name, (argv, config) in runs.items():
        if config is not None:
            (out / f"{name}.ini").write_text(config)
            argv = ["--config", str(out / f"{name}.ini"), *argv]
        argvs.append([*argv, "--out", str(out / name)])
    code = ["import sys", prelude, "from sharpineq.cli import main",
            f"sys.exit(max([main(argv) for argv in {argvs!r}]))"]
    python(["-c", "\n".join(code)], out, **env)
    return out


def assert_same_artifacts(a: Path, b: Path) -> None:
    files = [{str(f.relative_to(d)): f.read_bytes() for f in sorted(d.rglob("*"))
              if f.is_file() and f.name != "summary.txt"} for d in (a, b)]
    assert files[0].keys() == files[1].keys()
    assert [name for name, data in files[0].items() if files[1][name] != data] == []


@pytest.fixture(scope="module")
def suite_all(tmp_path_factory) -> Path:
    """The default --suite all run, BLAS unpinned: what the next three cases compare with."""
    return cli(tmp_path_factory.mktemp("suite-all"), SUITE_ALL)


def test_artifacts_are_deterministic(suite_all, tmp_path):
    # every artifact but summary.txt is byte-identical between two runs of
    # one config and seed
    assert_same_artifacts(cli(tmp_path, SUITE_ALL), suite_all)


def test_artifacts_do_not_depend_on_the_blas_thread_count(suite_all, tmp_path):
    # the Gauss-Kronrod sums are BLAS products: the artifacts must not depend
    # on how many threads BLAS may use
    assert_same_artifacts(cli(tmp_path, SUITE_ALL, OPENBLAS_NUM_THREADS="1"), suite_all)


def test_runs_without_scipy(suite_all, tmp_path):
    # with every scipy import made to fail, --suite all runs and writes the
    # same artifacts as a normal run
    assert_same_artifacts(cli(tmp_path, SUITE_ALL, prelude="sys.modules['scipy'] = None"), suite_all)


N6 = "[run]\nn = 6\n\n[triple]\nn = 6\np = 2.3\nq = 0.5\n"
# at 1e-12 and n = 6 the batched Gauss-Kronrod grids double their panels
# for some parameters: flat space's Gaussian rows are Gamma values,
# with no pass, and the one pass of flat-hardy's sweep, over its
# smoothstep piece, stays at 4 panels; on the ball chpw-bounds reaches
# 16 panels and the hyperbolic moments and Hardy rows 8; the identities
# batch sums its panels with a product too, and at 1e-12 the lambdas of
# this triple and of deep's (3, 2.5, 1.5) meet the rule on its first 4
# G10/K21 panels.  ko-refute's masses on its default alpha range are series
# sums, with no Gauss-Kronrod pass; below about alpha = 0.24 at n = 6 a mass
# needs more terms than the series' cap, so low's alpha = 0.02 0.5 sends
# 1857 of its 4096 alphas through the Gauss-Kronrod pass, which refines
# them up to 32 panels.  At n = 21 (K = 20) chpw-bounds' rates 2 alpha = 16
# lie past the peak gate, 2K/3 = 13.3, so the ball's cut runs its
# per-parameter peak test; on the default grid that test keeps every budget
# cut (no CLI run raises one: tests/test_quadrature.py covers the raised cut)
REFINED = {
    **{f"n6-{s}": (["--suite", s], N6)
       for s in ("ko-refute", "chpw-bounds", "identities", "flat-hpw", "hyperbolic", "flat-hardy")},
    "low": ([], "[run]\nsuite = ko-refute\nn = 6\n\n[grids]\nalpha = 0.02 0.5\n"),
    "deep": ([], "[run]\nsuite = identities\n\n[triple]\nn = 3\np = 2.5\nq = 1.5\n"),
    "n21": ([], "[run]\nsuite = chpw-bounds\nn = 21\n"),
}
REFINED = {name: ([*argv, "--tolerance", "1e-12"], config) for name, (argv, config) in REFINED.items()}


def test_refined_batch_passes_do_not_depend_on_the_blas_thread_count(tmp_path):
    pinned = cli(tmp_path / "pinned", REFINED, OPENBLAS_NUM_THREADS="1")
    assert_same_artifacts(pinned, cli(tmp_path / "unpinned", REFINED))


def test_lp_dual_hessian_path_is_deterministic(tmp_path):
    # the lp norm takes uniformity_constant through its finite-difference
    # dual Hessian, which the euclidean default never reaches
    lp4 = {"lp4": ([], "[run]\nsuite = flat-hardy\nn = 4\n\n[norm]\nfamily = lp\np = 4.0\n")}
    assert_same_artifacts(cli(tmp_path / "a", lp4), cli(tmp_path / "b", lp4))


def test_every_catalogue_entry_is_deterministic_and_within_the_reference(tmp_path):
    # each digest pass runs every entry of the three perfbench workloads and
    # exits 1 unless each is within perfbench/reference.json; two passes give
    # the same digests: artifact hashes for suite-all, the repr of the raw
    # result for the others
    script = str(ROOT / "scripts" / "catalogue_outputs.py")
    for name in ("a.json", "b.json"):
        python([script, name], tmp_path)
    python([script, "--diff", "a.json", "b.json"], tmp_path)

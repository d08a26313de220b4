"""Golden outputs of three ``sharpineq`` runs.

tests/golden/ holds the default ``sharpineq --suite all`` run: all.csv, the
Hardy and volume-ratio series and every PHI_STRIDE-th row of
phi_vs_alpha.csv.  tests/golden/lp4/ holds flat-hardy.csv and the Hardy
series of the LP4_CONFIG run, the one whose double-Hardy row goes through
the finite-difference dual Hessian of ``uniformity_constant`` (the euclidean
norm of the default run returns 1 without it).  tests/golden/near/ holds
identities.csv of the NEAR_CONFIG run, whose triple has q within 1e-3 of 0,
at the edge of integrability.  A refactor that claims to keep the numbers
keeps these: names and pass flags exactly, every number to GOLDEN_REL x
max(1, |golden|), the slack numpy's SIMD exp and log may take by one ulp
between CPUs.  A golden file changes only together with a
CHANGES.md line saying why: copy the files of the run, keeping only the
header and every PHI_STRIDE-th data row of phi_vs_alpha.csv
(``sed -n '1p;2~64p'``).
"""

import csv
from pathlib import Path

import pytest

from sharpineq.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_REL = 1e-12
PHI_STRIDE = 64
LP4_CONFIG = "[run]\nsuite = flat-hardy\nn = 4\n\n[norm]\nfamily = lp\np = 4.0\n"
NEAR_CONFIG = "[run]\nsuite = identities\n\n[triple]\nn = 3\np = 3.0\nq = 0.0005\n"
# run -> (golden directory, files compared)
RUNS = {
    "all": (GOLDEN, ("all.csv", "hardy_quotient_vs_logeps.csv", "volume_ratio_vs_rho.csv", "phi_vs_alpha.csv")),
    "lp4": (GOLDEN / "lp4", ("flat-hardy.csv", "hardy_quotient_vs_logeps.csv")),
    "near": (GOLDEN / "near", ("identities.csv",)),
}
# all.csv columns compared as text; every other column is a number
TEXT_COLUMNS = ("suite", "name", "passed")


def read_rows(path: Path, stride: int = 1) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))[::stride]


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_runs")
    args = {"all": ["--suite", "all"]}
    for run, config in (("lp4", LP4_CONFIG), ("near", NEAR_CONFIG)):
        (root / f"{run}.ini").write_text(config)
        args[run] = ["--config", str(root / f"{run}.ini")]
    for run, argv in args.items():
        assert main([*argv, "--out", str(root / run)]) == 0
    return root


# ids: the file name for the default run, "<run>/<file>" for the others
CASES = [
    pytest.param(run, name, id=name if run == "all" else f"{run}/{name}")
    for run, (_, files) in RUNS.items()
    for name in files
]


@pytest.mark.parametrize("run, name", CASES)
def test_matches_golden(run_dirs, run, name):
    golden = RUNS[run][0]
    stride = PHI_STRIDE if name == "phi_vs_alpha.csv" else 1
    got, want = read_rows(run_dirs / run / name, stride), read_rows(golden / name)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys(), f"{name}: columns differ"
        for col, text in w.items():
            if col in TEXT_COLUMNS:
                assert g[col] == text, f"{name} row {i}: {col} {g[col]!r} != {text!r}"
            else:
                b = float(text)
                assert abs(float(g[col]) - b) <= GOLDEN_REL * max(1.0, abs(b)), (
                    f"{name} row {i}: {col} {g[col]} != {text}"
                )

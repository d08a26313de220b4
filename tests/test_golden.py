"""Golden outputs of the default ``sharpineq --suite all`` run.

The files under tests/golden/ hold all.csv, the Hardy and volume-ratio
series and every PHI_STRIDE-th row of phi_vs_alpha.csv.  A refactor that
claims to keep the numbers keeps these: names and pass flags exactly, every
number to GOLDEN_REL x max(1, |golden|), the slack numpy's SIMD exp and log
may take by one ulp between CPUs.  A golden file changes only together with
a CHANGES.md line saying why: copy the files of ``sharpineq --suite all``,
keeping only the header and every PHI_STRIDE-th data row of phi_vs_alpha.csv
(``sed -n '1p;2~64p'``).
"""

import csv
from pathlib import Path

import pytest

from sharpineq.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_REL = 1e-12
PHI_STRIDE = 64
FILES = ("all.csv", "hardy_quotient_vs_logeps.csv", "volume_ratio_vs_rho.csv", "phi_vs_alpha.csv")
# all.csv columns compared as text; every other column is a number
TEXT_COLUMNS = ("suite", "name", "passed")


def read_rows(path: Path, stride: int = 1) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))[::stride]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite_all")
    assert main(["--suite", "all", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", FILES)
def test_matches_golden(run_dir, name):
    stride = PHI_STRIDE if name == "phi_vs_alpha.csv" else 1
    got, want = read_rows(run_dir / name, stride), read_rows(GOLDEN / name)
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


"""scripts/catalogue_outputs.py --diff on digest files written by hand."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "catalogue_outputs.py"


def diff(tmp_path, a: dict, b: dict) -> subprocess.CompletedProcess:
    for name, digests in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(digests))
    return subprocess.run([sys.executable, str(SCRIPT), "--diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
                          capture_output=True, text=True)


def test_repadded_array_reads_as_a_relative_change(tmp_path):
    # numpy pads an array's elements to the widest: a shorter first
    # element pads it with spaces, and the text around the numbers differs
    # only in whitespace
    key = 'custom_legendre:{"n":3}'
    before = "{'gradient': array([-0.22263482528936918,  0.15900000000000001]), 'value': 1.0}"
    after = "{'gradient': array([-0.222634825189002  ,  0.15900000000000001]), 'value': 1.0}"
    out = diff(tmp_path, {key: before, "same": "1.0"}, {key: after, "same": "1.0"})
    assert out.returncode == 1
    assert out.stdout.splitlines() == [f"{key}: largest relative change gradient 4.51e-10", "1 of 2 keys moved"]


def test_other_text_still_differs(tmp_path):
    out = diff(tmp_path, {"k": "Report(lhs=1.0)"}, {"k": "QuadratureError: failed at 1.0"})
    assert out.returncode == 1
    assert out.stdout.splitlines() == ["k: text differs", "1 of 1 keys moved"]


def test_equal_digests_exit_0(tmp_path):
    out = diff(tmp_path, {"k": "array([1.0,  2.0])"}, {"k": "array([1.0,  2.0])"})
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0 of 1 keys moved"]

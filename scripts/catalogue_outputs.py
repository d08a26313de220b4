"""Digest the outputs of every perfbench catalogue entry, to check that a change keeps the same numbers.

    python3 scripts/catalogue_outputs.py OUT.json [--root CHECKOUT]
    python3 scripts/catalogue_outputs.py --diff A.json B.json
    python3 scripts/catalogue_outputs.py --against REV [--root CHECKOUT]
    python3 scripts/catalogue_outputs.py --times N [TIMES.json] [--against REV] [--root CHECKOUT]

Runs every entry of the suite-all, reports and norms-mc catalogues once,
with sharpineq imported from CHECKOUT/src (default: the checkout holding
this script) and the catalogues from CHECKOUT/perfbench, and writes one
digest per entry key to OUT.json:
  * suite-all: the SHA-256 of every artifact but summary.txt, by path, and
    the text of all.csv;
  * the other kinds: the repr of the raw result, floats and arrays printed
    as their shortest unique decimals;
  * an entry that raises: "Type: message".
Artifacts go to a temporary directory, no bytecode is written, and BLAS
pools are pinned to one thread, as perfbench/run.py pins them.  --diff
lists the keys whose digests differ between two such files (or that only
one holds), each with the largest relative change of its numbers by name
(the fields of the repr, the columns of all.csv for suite-all) where both
hold the same text around them, and exits 1 if there is any.  --against
REV digests the commit REV of CHECKOUT's git repository and CHECKOUT
itself, each in its own process, and prints their --diff: REV's files come
from git archive into a temporary directory, which is removed afterwards,
so the repository gains no worktree, not even from a run that is cut
short.

--times N times the entries instead: after one untimed pass over them,
N timed passes, each entry's inputs built outside its timer, and prints,
for each kind, its entry count and the mean and largest of its entries'
best-of-N call times, and the sum of all best times, one pass at each
entry's best.  With --against REV, REV's tree and CHECKOUT run in
alternating processes, N of each, each tree first in every second round,
every process one untimed and one timed pass, an entry's time its best
over the N processes of its tree, and the table gains their ratio.
TIMES.json, if given, receives the best time of every entry by key, in
seconds.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("suite-all", "reports", "norms-mc")


def digests(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads as wl

    out, raised = {}, 0
    with tempfile.TemporaryDirectory() as scratch, np.printoptions(floatmode="unique", threshold=sys.maxsize):
        for entry in (e for w in WORKLOADS for e in wl.catalogue(w)):
            kind = wl.KINDS[entry.kind]
            try:
                raw = kind.call(kind.build(entry.params), scratch)
            except Exception as exc:
                out[entry.key] = f"{type(exc).__name__}: {exc}"
                raised += 1
                continue
            if entry.kind == "suite-all":
                out[entry.key] = {
                    "sha256": {
                        str(f.relative_to(raw)): hashlib.sha256(f.read_bytes()).hexdigest()
                        for f in sorted(raw.rglob("*")) if f.is_file() and f.name != "summary.txt"
                    },
                    "all.csv": (raw / "all.csv").read_text(),
                }
            else:
                out[entry.key] = repr(raw)
    print(f"{len(out)} entries, {raised} raised", file=sys.stderr)
    return out


# a decimal number, inf or nan that is not part of a name such as float64
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
# a name a repr gives the numbers after it, as in lhs=1.0, 'value': 1.0 or err=(1.0, 2.0)
_LABEL = re.compile(r"(\w+)'?(?:=|: )")


def _labelled(text: str) -> list:
    """(name, number) for every number of text, named by the last name before it."""
    out, label, at = [], "", 0
    for m in _NUMBER.finditer(text):
        for named in _LABEL.finditer(text, at, m.start()):
            label = named.group(1)
        out.append((label, float(m.group())))
        at = m.end()
    return out


def _csv_as_repr(text: str) -> str:
    """all.csv as column=value pairs, so that each number is named by its column."""
    header, *rows = text.splitlines()
    names = header.split(",")
    return "\n".join(", ".join(f"{n}={v}" for n, v in zip(names, row.split(","))) for row in rows)


def size(a, b) -> str:
    """How far the digest a moved to b: the largest relative change of its
    numbers by name (the field of a repr, the column of all.csv) where the
    text around them is the same, or why they cannot be compared."""
    if a is None or b is None:
        return "only in " + ("B" if a is None else "A")
    a, b = (_csv_as_repr(d["all.csv"]) if isinstance(d, dict) else d for d in (a, b))
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "text differs"
    worst = {}
    for (label, x), (_, y) in zip(_labelled(a), _labelled(b)):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst[label] = max(worst.get(label, 0.0), abs(y - x) / abs(x) if x else math.inf)
    if not worst:
        return "same numbers, other artifact bytes"
    return "largest relative change " + ", ".join(f"{label or '-'} {w:.3g}" for label, w in worst.items())


def _archive(rev: str, root: Path, into: Path) -> bool:
    """The files of commit rev of root's repository, extracted into the directory into."""
    tree = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev], capture_output=True)
    if tree.returncode:
        print(tree.stderr.decode().strip(), file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(tree.stdout)) as tar:
        tar.extractall(into, filter="data")
    return True


def against(rev: str, root: Path) -> int:
    """The --diff of the digests of rev and of the checkout root, each taken in a fresh process."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        if not _archive(rev, root, scratch / "rev"):
            return 2
        for out, checkout in (("before.json", scratch / "rev"), ("after.json", root)):
            subprocess.run([sys.executable, __file__, str(scratch / out), "--root", str(checkout)], check=True)
        return main(["--diff", str(scratch / "before.json"), str(scratch / "after.json")])


def best_times(root: Path, passes: int) -> dict:
    """key -> (kind, best call time in seconds over passes timed passes), after one untimed pass."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as wl

    entries = [e for w in WORKLOADS for e in wl.catalogue(w)]
    best = {e.key: (e.kind, math.inf) for e in entries}
    with tempfile.TemporaryDirectory() as scratch:
        for timed in [False] + [True] * passes:
            for entry in entries:
                kind = wl.KINDS[entry.kind]
                args = kind.build(entry.params)
                t0 = time.perf_counter()
                try:
                    kind.call(args, scratch)
                except Exception:
                    pass
                t = time.perf_counter() - t0
                if timed and t < best[entry.key][1]:
                    best[entry.key] = (entry.kind, t)
    return best


def _by_kind(best: dict) -> dict:
    """kind -> the best times of its entries."""
    kinds = {}
    for kind, t in best.values():
        kinds.setdefault(kind, []).append(t)
    return kinds


def print_times(tables: list, names: list) -> None:
    """Each kind's entry count and the mean and largest time of its entries, in µs, for each table, and their ratio."""
    kinds = [_by_kind(t) for t in tables]
    head = f"{'kind':<18}{'entries':>8}" + "".join(f"{name + ' mean':>14}{name + ' max':>13}" for name in names)
    print(head + (f"{'mean ratio':>12}" if len(tables) == 2 else ""))
    for kind in kinds[0]:
        means = [sum(k[kind]) / len(k[kind]) for k in kinds]
        line = f"{kind:<18}{len(kinds[0][kind]):>8}" + "".join(
            f"{1e6 * mean:>14.1f}{1e6 * max(k[kind]):>13.1f}" for mean, k in zip(means, kinds))
        print(line + (f"{means[1] / means[0]:>12.3f}" if len(tables) == 2 else ""))
    totals = [sum(t for _, t in table.values()) for table in tables]
    line = f"{'one pass':<18}{len(tables[0]):>8}" + "".join(f"{1e3 * total:>12.3f}ms{'':>13}" for total in totals)
    print(line + (f"{totals[1] / totals[0]:>12.3f}" if len(tables) == 2 else ""))


def times_against(rev: str, root: Path, passes: int, out) -> int:
    """--times of rev and of the checkout root in alternating processes, passes of each."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        if not _archive(rev, root, scratch / "rev"):
            return 2
        trees = {rev: scratch / "rev", "tree": root}
        best = {name: {} for name in trees}
        for i in range(passes):
            # each tree runs first in every second round
            for name, checkout in list(trees.items())[:: 1 - 2 * (i % 2)]:
                part = scratch / f"{name}.json"
                subprocess.run([sys.executable, __file__, "--times", "1", str(part), "--root", str(checkout)],
                               check=True, stdout=subprocess.DEVNULL)
                for key, (kind, t) in json.loads(part.read_text()).items():
                    best[name][key] = (kind, min(t, best[name].get(key, (kind, math.inf))[1]))
    print_times(list(best.values()), [rev[:10], "tree"])
    if out:
        Path(out).write_text(json.dumps(best, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="where to write the digests (JSON), or with --times the best times")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source checkout to run (default: this one)")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="list the keys whose digests differ")
    ap.add_argument("--against", metavar="REV", help="list the keys whose digests differ from those of commit REV")
    ap.add_argument("--times", type=int, metavar="N", help="time every entry, best of N")
    args = ap.parse_args(argv)
    if args.times is not None:
        if args.times < 1:
            ap.error("--times needs N >= 1")
        if args.against:
            return times_against(args.against, args.root.resolve(), args.times, args.out)
        best = best_times(args.root.resolve(), args.times)
        print_times([best], ["best"])
        if args.out:
            Path(args.out).write_text(json.dumps(best, indent=1, sort_keys=True) + "\n")
        return 0
    if args.against:
        return against(args.against, args.root.resolve())
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        moved = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        print("\n".join([f"{k}: {size(a.get(k), b.get(k))}" for k in moved]
                        + [f"{len(moved)} of {len(a.keys() | b.keys())} keys moved"]))
        return 1 if moved else 0
    if args.out is None:
        ap.error("give OUT.json, --diff A B, --against REV or --times N")
    found = digests(args.root.resolve())
    Path(args.out).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"{len(found)} entries written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

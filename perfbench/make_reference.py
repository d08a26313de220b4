"""Recompute the seed-state reference of every catalogue entry.

The whole catalogue runs three times over; every run of an entry must give
the same outputs.  Entries that raise are stored as known failures with their
exception type and message and are left out of the job lists.  An entry's
cost is its fastest run; the three runs lie minutes apart, so the fastest one
is the least disturbed by other load on the machine.  Costs only sort entries
into cost strata and balance passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import workloads as wl

WORKLOAD_NAMES = ("suite-all", "reports", "norms-mc")
ROUNDS = 3


def main(path) -> None:
    scratch = path.parent.parent / ".perfbench" / "tmp-reference"
    scratch.mkdir(parents=True, exist_ok=True)
    catalogue = [e for w in WORKLOAD_NAMES for e in wl.catalogue(w)]
    entries, failures = {}, {}
    try:
        for rnd in range(ROUNDS):
            for e in catalogue:
                if e.key in failures:
                    continue
                kind = wl.KINDS[e.kind]
                inputs = kind.build(e.params)
                t0 = time.perf_counter()
                try:
                    raw = kind.call(inputs, scratch)
                except Exception as exc:
                    if e.key in entries:
                        raise RuntimeError(f"{e.key} raised only in round {rnd}") from exc
                    failures[e.key] = {"key": e.key, "kind": e.kind, "params": e.params,
                                       "error": f"{type(exc).__name__}: {exc}"}
                    continue
                cost = time.perf_counter() - t0
                out = kind.outputs(e.params, raw).values
                if e.key not in entries:
                    entries[e.key] = {"out": out, "cost_s": cost}
                elif entries[e.key]["out"] != out:
                    raise RuntimeError(f"non-deterministic outputs for {e.key}")
                else:
                    entries[e.key]["cost_s"] = min(cost, entries[e.key]["cost_s"])
            print(f"round {rnd}: {len(entries)} entries, {len(failures)} known failures",
                  file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps({"entries": entries, "known_failures": list(failures.values())},
                               indent=1, sort_keys=True) + "\n")

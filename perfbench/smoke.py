#!/usr/bin/env python3
"""Harness smoke check: the benchmark's own code path on small meshes.

Run from the repository root:

    python3 perfbench/smoke.py

Runs each workload at icosphere level 2 (seconds, not minutes) through
`run.bench`, untraced and traced, and checks that every metric named in
BENCHMARK.json prints with its unit, that the known-defect probe counts as
failed, and that an operation given a deliberately wrong expected status
is counted in `failed` (and so in `pass_share`).  Exits 0 when every check
holds, 1 otherwise.
"""

import contextlib
import io
import json
import sys
from argparse import Namespace
from dataclasses import replace

import run
from workloads import WORKLOADS, Workload

LEVEL = 2


def small(workload, suffix="-smoke"):
    """The workload with every operation's mesh cut to LEVEL."""
    def cut(op):
        level = min(LEVEL, dict(op.settings)["seed.level"])
        return op.with_settings({"seed.level": level})
    probe = cut(workload.probe) if workload.probe else None
    return Workload(workload.name + suffix, cut(workload.timed), probe)


def main():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = {w.name: w for w in map(small, WORKLOADS.values())}
    flat = small(WORKLOADS["flat_l4"], "-wrong-status")
    workloads[flat.name] = replace(
        flat, timed=replace(flat.timed, expected_status="ok"))

    problems = []

    def bench(name, trace):
        args = Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
        with contextlib.redirect_stdout(io.StringIO()):
            return run.bench(args, workloads)

    for w in WORKLOADS.values():
        name = small(w).name
        for trace in (0, 1):
            res = bench(name, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in set(got) & set(wanted[trace])
                               if got[k] != wanted[trace][k])
                problems.append(f"{name} trace={trace}: missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            probes = 1 if w.probe else 0
            if not res["correct"] or res["failed"] != probes:
                problems.append(f"{name} trace={trace}: correct="
                                f"{res['correct']} failed={res['failed']}, "
                                f"expected {probes} failed probe(s)")
            print(f"{name} trace={trace}: {len(got)} metrics, "
                  f"attempted={res['attempted']} failed={res['failed']}")

    res = bench(flat.name, 0)
    share = res["metrics"]["pass_share"]["value"]
    if res["correct"] or res["failed"] != res["attempted"] or share != 0.0:
        problems.append(f"wrong expected status not counted: {res}")
    print(f"{flat.name}: attempted={res['attempted']} failed={res['failed']} "
          f"pass_share={share}")

    for line in problems:
        print("SMOKE FAIL " + line)
    print("smoke: " + ("fail" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

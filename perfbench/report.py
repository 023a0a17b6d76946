"""Summarise the results log that run.py appends to.

    python3 perfbench/report.py

Prints, from the runs recorded under .perfbench_results/:

* each workload's median end-to-end metrics over its untraced runs;
* the tracing overhead: traced minus untraced time per operation (per
  solve, or per 10,000 simulated steps for rollouts);
* how much of the traced operation time the layer self times cover;
* the derived paper comparison, not gated: the sure-vs-tree cost gap
  and solve-time ratio from the two workloads' medians, beside the
  paper's +4.87 % and 0.44.

The speed of a shared machine can drift by half between minutes, so
make the runs compared here (traced with untraced, sure with tree)
alternately.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from run import RESULTS, STEPS_PER_OP

PAPER_COST_GAP_PCT = 4.87
PAPER_TIME_RATIO = 0.44


def load(workload):
    path = os.path.join(RESULTS, f"{workload}.jsonl")
    if not os.path.exists(path):
        return [], []
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    failed = [r for r in records if r["failed"]]
    if failed:
        print(f"{workload}: {len(failed)} runs with failed operations left out")
    records = [r for r in records if not r["failed"]]
    return ([r for r in records if not r["trace"]],
            [r for r in records if r["trace"]])


def op_time(record):
    """Wall time per operation, on the same basis as op_s."""
    if record["steps"]:
        return STEPS_PER_OP * record["wall_s"] / record["steps"]
    return record["wall_s"] / record["ops"]


def median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def main():
    medians = {}
    for workload in ("sure", "tree", "rollouts"):
        plain, traced = load(workload)
        if not plain and not traced:
            continue
        print(f"{workload}: {len(plain)} untraced, {len(traced)} traced runs")
        if plain:
            names = plain[0]["metrics"]
            medians[workload] = {k: median(r["metrics"][k] for r in plain)
                                 for k in names}
            if "cost" in plain[0]:
                medians[workload]["cost"] = plain[0]["cost"]
            for k, v in medians[workload].items():
                print(f"  {k:16s} {v:.6g}")
        if plain and traced:
            base = median(op_time(r) for r in plain)
            with_trace = median(op_time(r) for r in traced)
            print(f"  tracing overhead {with_trace - base:+.4g} s per op "
                  f"({100 * (with_trace - base) / base:+.1f} % of {base:.4g})")
        if traced:
            share = median(r["metrics"]["trace.unattributed_s"]
                           / r["metrics"]["trace.op_s"] for r in traced)
            print(f"  layer self times cover {100 * (1 - share):.3f} % "
                  f"of the traced operation time")
    if "sure" in medians and "tree" in medians:
        sure, tree = medians["sure"], medians["tree"]
        gap = 100.0 * (sure["cost"] - tree["cost"]) / tree["cost"]
        ratio = sure["op_s"] / tree["op_s"]
        print(f"paper comparison (not gated): sure cost {sure['cost']:.6f} "
              f"vs tree {tree['cost']:.6f}: {gap:+.2f} % "
              f"(paper {PAPER_COST_GAP_PCT:+.2f} %); solve-time ratio "
              f"sure/tree {ratio:.2f} (paper {PAPER_TIME_RATIO})")
    else:
        print("paper comparison needs untraced runs of both sure and tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

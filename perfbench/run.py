"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sure --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  Workloads (see NOTES.md for why these):

  sure      pipeline.solve_sure on cart-pole condition 0 (fixed problem)
  tree      pipeline.solve_tree on the same problem
  rollouts  seeded 10 s closed-loop rollouts of checked-in references

Operations repeat until --seconds have passed (at least one).  Every
solve must pass the KKT and cost gate and every rollout must match its
fixture; one that does not counts as failed and is not timed as a
success.  When no operation passes, the result has no metrics and the
exit code is 1.

The last line of output is the result.  With --trace 0 it holds the
end-to-end metrics: setup_s (median over fresh processes of the CPU
time to import and set up), op_s (median CPU time of one solve; for
rollouts, the CPU time per 10,000 simulated steps, which is one full
10 s rollout) and peak_rss_mb.  Both times are scaled to a fixed machine
speed (see speed.py).  With --trace 1 it holds the per-layer metrics of
a traced run (see tracing.py).  The line before it repeats the run's
details, with the numbers that are not gated (the unscaled op_cpu_s,
solve_s and cost, or sim_steps_per_s and rollouts_per_s); the same line
is appended to .perfbench_results/<workload>.jsonl, which report.py
summarises.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# one BLAS thread: the solves are sequential, and the fixtures were
# recorded this way
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import speed  # noqa: E402  (imports numpy, after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".perfbench_results")

WORKLOADS = ("sure", "tree", "rollouts")
# rollout metrics are per full-horizon rollout: 10 s at 1 ms
STEPS_PER_OP = 10_000
SETUP_RUNS = 3
# CPU seconds between speed samples: a set-up process lasts about a
# second, so it samples more often than the operations do
SAMPLE_EVERY_S = 0.25
SETUP_SAMPLE_EVERY_S = 0.05


def measure_setup(workload):
    """Median scaled CPU time of fresh processes that import and set up."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--setup-only"],
            cwd=ROOT, check=True, timeout=120, capture_output=True,
            text=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def set_up(workload):
    """Import the program and build the workload's inputs."""
    sys.path.insert(0, SRC)
    import workloads as wl
    return (wl.setup_rollouts() if workload == "rollouts"
            else wl.setup_solve(workload))


def end_to_end(workload, passed, setup_s):
    """The end-to-end metrics from the operations that passed the gate,
    and the ungated details."""
    wall = sum(op["wall_s"] for op in passed)
    if workload == "rollouts":
        steps = sum(op["steps"] for op in passed)
        op_s = STEPS_PER_OP * sum(op["scaled_s"] for op in passed) / steps
        info = {"op_cpu_s": STEPS_PER_OP * sum(op["cpu_s"] for op in passed)
                / steps,
                "sim_steps_per_s": steps / wall,
                "rollouts_per_s": len(passed) / wall}
    else:
        op_s = statistics.median(op["scaled_s"] for op in passed)
        info = {"op_cpu_s": statistics.median(op["cpu_s"] for op in passed),
                "solve_s": statistics.median(op["wall_s"] for op in passed),
                "cost": passed[0]["cost"]}
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        meter = speed.SpeedMeter(SETUP_SAMPLE_EVERY_S)
        with meter.sampling():
            set_up(args.workload)
        # the scaled CPU time of this process since it started
        print(meter.scaled(0.0, time.process_time())[1])
        return 0

    setup_ = set_up(args.workload)
    import tracing
    import workloads as wl

    # the traced run does not sample the machine's speed: the samples
    # would fall inside the layers' spans
    tracer = tracing.Tracer() if args.trace else None
    meter = None if args.trace else speed.SpeedMeter(SAMPLE_EVERY_S)
    with meter.sampling() if meter else contextlib.nullcontext():
        if args.workload == "rollouts":
            ops, errors = wl.rollout_loop(setup_, args.seed, args.seconds,
                                          tracer)
        else:
            ops, errors = wl.solve_loop(setup_, args.seconds, tracer)
    if meter is not None:
        for op in ops:
            op["cpu_s"], op["scaled_s"], sampled = meter.scaled(
                op["cpu0"], op["cpu1"])
            op["wall_s"] -= sampled
    passed = [op for op in ops if op["passed"]]
    failed = len(ops) - len(passed)
    for e in errors[:20]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "ops": len(ops), "failed": failed,
              "wall_s": sum(op["wall_s"] for op in ops),
              "steps": sum(op.get("steps", 0) for op in ops)}
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, ops)
    elif passed:
        metrics, info = end_to_end(args.workload, passed,
                                   measure_setup(args.workload))
        record.update(info, reference_s=statistics.median(meter.durations))
    else:
        # nothing passed the gate, so there is no time to report
        metrics = {}
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the benchmark's checked-in fixtures.

    python3 perfbench/make_fixtures.py refs      # ~3.5 min per condition
    python3 perfbench/make_fixtures.py trials    # verdicts for the pool
    python3 perfbench/make_fixtures.py solves    # recorded sure/tree costs

``refs`` solves the rollout references once per default cart-pole
condition with the program's own pipeline at the default config, the
same way ``bench.montecarlo`` builds them: a sure solve for the
scheduling bundle and its robust single reference, plus the unbranched
nominal solve.  ``trials`` samples the pool of (condition, reference,
x_wall, e) trials the ``rollouts`` workload draws from and records each
trial's verdicts.  ``solves`` records the cost of the two fixed solves
after checking them against the KKT tolerances.

Run from the root of the repository.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

# one BLAS thread: the solves are sequential, and the fixtures were
# recorded this way
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from branchopt import bench, config, nlp, pipeline  # noqa: E402
from branchopt import transcription as tr  # noqa: E402

import workloads as wl  # noqa: E402

# Trials per (condition, reference type) cell in the pool; the pool is
# sampled from its own fixed seed, and --seed only picks the order.
POOL_PER_CELL = 25
POOL_SEED = 2602


def _write(name, data):
    path = os.path.join(wl.FIXTURES, name)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", flush=True)


def make_refs():
    run = config.load_config(None)
    adapter, p, _ = config.build_plant(run)
    opts = config.solver_opts(run)
    for ci, x_init in enumerate(run.conditions):
        t0 = time.perf_counter()
        cfg = config.transcription_config(run, "sure", x_init, bench.X_END)
        res = pipeline.solve_sure(adapter, cfg, opts)
        nom = pipeline.solve_nominal(
            adapter, pipeline.nominal_stage_config(cfg), opts)
        for label, r in (("sure", res), ("nominal", nom)):
            if r.solution.status != "converged":
                raise SystemExit(f"condition {ci}: {label} solve ended "
                                 f"{r.solution.status}")
        robust = tr.robust_nominal_branch(res.bundle, dt_impact=p.dt_impact)
        _write(f"refs_c{ci}.json", {
            "condition": [float(v) for v in x_init],
            "nominal": wl.trajectory_to_dict(nom.bundle.common),
            "robust_nominal": wl.trajectory_to_dict(robust),
            "scheduling": tr.bundle_to_dict(res.bundle),
        })
        print(f"condition {ci}: {time.perf_counter() - t0:.1f} s", flush=True)


def sample_pool(run):
    x_wall_range = tuple(run.exp("x_wall_range", (-0.7, -0.3)))
    e_range = tuple(run.exp("e_range", (0.7, 0.9)))
    trials = []
    for ci in range(len(run.conditions)):
        for ri, ref in enumerate(bench.REFERENCE_TYPES):
            for idx in range(POOL_PER_CELL):
                rng = np.random.default_rng(np.random.SeedSequence(
                    POOL_SEED, spawn_key=(ci, ri, idx)))
                trials.append({
                    "condition_id": ci, "reference": ref, "index": idx,
                    "x_wall": float(rng.uniform(*x_wall_range)),
                    "e": float(rng.uniform(*e_range)),
                })
    return trials


def make_trials():
    run = config.load_config(None)
    trials = sample_pool(run)
    setup = wl.setup_rollouts(trials=trials)
    t0 = time.perf_counter()
    for trial in trials:
        trace, report = wl.run_rollout(setup, trial)
        trial["expected"] = wl.trial_outcome(trace, report)
    print(f"{len(trials)} rollouts: {time.perf_counter() - t0:.1f} s")
    _write("trials.json", {"pool_seed": POOL_SEED, "trials": trials})


def make_solves():
    recorded = {}
    for kind in ("sure", "tree"):
        case = wl.setup_solve(kind, recorded_cost=math.nan)
        t0 = time.perf_counter()
        res = wl.run_solve(case)
        sol = res.solution
        kkt = nlp.kkt_residual(res.problem, sol.x, sol.multipliers_eq,
                               sol.multipliers_ineq)
        case.recorded_cost = float(sol.objective_value)
        errors = wl.check_solve(case, res)
        if errors:
            raise SystemExit(f"{kind} solve fails the gate: {errors}")
        recorded[kind] = {
            "cost": float(sol.objective_value),
            "n_vars": int(res.problem.n_vars),
            "outer_iterations": int(sol.iterations),
            "stationarity": kkt.stationarity,
            "eq_viol": kkt.eq_viol,
            "ineq_viol": kkt.ineq_viol,
        }
        print(f"{kind}: {recorded[kind]} in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    _write("solves.json", recorded)


if __name__ == "__main__":
    steps = {"refs": make_refs, "trials": make_trials, "solves": make_solves}
    if len(sys.argv) != 2 or sys.argv[1] not in steps:
        raise SystemExit(__doc__)
    steps[sys.argv[1]]()

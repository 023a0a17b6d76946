"""The benchmark's workloads, built only from branchopt's public functions.

``sure`` and ``tree`` are fixed, deterministic solves of cart-pole
condition 0; ``rollouts`` replays checked-in references in closed loop
against seeded walls.  ``make_fixtures.py`` and ``run.py`` share this
module, so the fixtures are produced by exactly the code the benchmark
times.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from branchopt import bench, config, control, nlp, pipeline, simulation
from branchopt import transcription as tr
from branchopt.plants import cartpole

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# Cart-pole condition 0 at half the paper's resolution: N=30 intervals
# of at most 0.1 s keep the 3 s maximum horizon of the default N=60.
SOLVE_CONDITION = 0
SOLVE_TRANSCRIPTION = {"N": 30, "dt_max": 0.1, "k_first": 9, "k_last": 11,
                       "n_rejoin": 4, "n_branch_full": 18}

# Tolerances of the correctness gate on a solve.
COST_RTOL = 1e-6
CONTACT_TIME_ATOL = 1e-9


def load_json(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


# -- solves ------------------------------------------------------------------


@dataclass
class SolveCase:
    """One fixed solve: plant, configs and the recorded answer."""

    kind: str
    adapter: object
    cfg: tr.TranscriptionConfig
    opts: object
    recorded_cost: float


def setup_solve(kind, recorded_cost=None):
    """The fixed solve; its recorded cost comes from the fixture unless
    given."""
    run = config.load_config(None)
    adapter, _, _ = config.build_plant(run)
    if recorded_cost is None:
        recorded_cost = load_json("solves.json")[kind]["cost"]
    cfg = config.transcription_config(
        run, kind, run.conditions[SOLVE_CONDITION], bench.X_END,
        **SOLVE_TRANSCRIPTION)
    return SolveCase(kind, adapter, cfg, config.solver_opts(run),
                     float(recorded_cost))


def run_solve(case: SolveCase):
    solver = pipeline.solve_sure if case.kind == "sure" else pipeline.solve_tree
    return solver(case.adapter, case.cfg, case.opts)


def check_solve(case: SolveCase, res):
    """Reasons the solve fails the gate; empty when it passes.

    The status alone is not trusted: the KKT residual is recomputed at
    the returned point, so an objective-stall "converged" is caught.
    """
    sol = res.solution
    errors = []
    if sol.status != "converged":
        errors.append(f"status {sol.status}")
    kkt = nlp.kkt_residual(res.problem, sol.x, sol.multipliers_eq,
                           sol.multipliers_ineq)
    opts = case.opts
    if kkt.eq_viol > opts.tol_eq:
        errors.append(f"eq_viol {kkt.eq_viol:.3e} > {opts.tol_eq:.0e}")
    if kkt.ineq_viol > opts.tol_ineq:
        errors.append(f"ineq_viol {kkt.ineq_viol:.3e} > {opts.tol_ineq:.0e}")
    if kkt.stationarity > opts.tol_stat:
        errors.append(
            f"stationarity {kkt.stationarity:.3e} > {opts.tol_stat:.0e}")
    cost = float(sol.objective_value)
    if abs(cost - case.recorded_cost) > COST_RTOL * abs(case.recorded_cost):
        errors.append(f"cost {cost!r} != recorded {case.recorded_cost!r}")
    return errors


# -- rollouts ----------------------------------------------------------------


@dataclass
class RolloutSetup:
    params: cartpole.CartPoleParams
    gains: control.Gains
    conditions: list
    refs: dict          # (condition, reference type) -> Trajectory/bundle
    trials: list        # fixture pool, one dict per trial
    horizon: float
    dt_sim: float
    tolerances: list
    debounce: float


def trajectory_to_dict(traj):
    return {"states": traj.states.tolist(), "inputs": traj.inputs.tolist(),
            "dts": traj.dts.tolist()}


def trajectory_from_dict(d):
    return tr.Trajectory(states=np.asarray(d["states"], dtype=float),
                         inputs=np.asarray(d["inputs"], dtype=float),
                         dts=np.asarray(d["dts"], dtype=float))


def load_references(ci):
    d = load_json(f"refs_c{ci}.json")
    return {
        "nominal": trajectory_from_dict(d["nominal"]),
        "robust_nominal": trajectory_from_dict(d["robust_nominal"]),
        "scheduling": tr.bundle_from_dict(d["scheduling"]),
    }


def setup_rollouts(trials=None):
    run = config.load_config(None)
    _, p, env = config.build_plant(run)
    gains = control.design_gains(cartpole.make_system(p, env), cartpole.X_EQ)
    conditions = run.conditions
    refs = {}
    for ci in range(len(conditions)):
        for name, ref in load_references(ci).items():
            refs[ci, name] = ref
    if trials is None:
        trials = load_json("trials.json")["trials"]
    return RolloutSetup(
        params=p, gains=gains, conditions=conditions, refs=refs,
        trials=trials,
        horizon=float(run.exp("horizon", 10.0)),
        dt_sim=float(run.exp("dt_sim", 1e-3)),
        tolerances=list(run.exp("final_tol", (0.05, 0.05, 0.1, 0.1))),
        debounce=float(run.exp("debounce_window", 0.05)))


def _fell(t, state, n_events):
    """The Monte-Carlo study's early stop: the pole left the upper half.

    Same float expression as ``bench``'s stop rule, so the step at which
    a rollout stops matches the study bit for bit.
    """
    deviation = (state[1] - math.pi + math.pi) % (2.0 * math.pi) - math.pi
    return "fell" if abs(deviation) > 0.5 * math.pi else None


def run_rollout(setup: RolloutSetup, trial, wrap_system=None,
                wrap_controller=None):
    """One closed-loop rollout; returns (trace, TrialReport)."""
    ci, ref_name = trial["condition_id"], trial["reference"]
    env = cartpole.CartPoleEnv(x_wall=trial["x_wall"], e=trial["e"],
                               mu=setup.params.mu)
    sys = cartpole.make_system(setup.params, env)
    controller = control.TrackingController(setup.refs[ci, ref_name],
                                            setup.gains)
    if wrap_system is not None:
        sys = wrap_system(sys)
    if wrap_controller is not None:
        controller = wrap_controller(controller)
    trace = simulation.simulate(
        sys, controller, setup.conditions[ci], env=env,
        horizon=setup.horizon, dt_sim=setup.dt_sim, stop_condition=_fell)
    spec = bench.TrialSpec(condition_id=ci, reference=ref_name,
                           x_wall=trial["x_wall"], e=trial["e"],
                           seed=0, index=trial["index"])
    report = bench.evaluate_trial(trace, spec, setup.tolerances,
                                  setup.params, bench.X_END, setup.debounce)
    return trace, report


def trial_outcome(trace, report):
    """The parts of a rollout the fixture records and the gate compares."""
    return {
        "reached_target": report.reached_target,
        "single_contact": report.single_contact,
        "stayed_up": report.stayed_up,
        "no_penetration": report.no_penetration,
        "contact_count": report.contact_count,
        "contact_times": [float(ev.time) for ev in trace.contact_events],
        "steps": int(len(trace.times) - 1),
    }


def check_rollout(trial, outcome):
    """Reasons the rollout disagrees with its fixture; empty when it agrees."""
    expected = trial["expected"]
    errors = [f"{key} {outcome[key]!r} != {expected[key]!r}"
              for key in ("reached_target", "single_contact", "stayed_up",
                          "no_penetration", "contact_count", "steps")
              if outcome[key] != expected[key]]
    got, want = outcome["contact_times"], expected["contact_times"]
    if len(got) != len(want) or any(
            abs(a - b) > CONTACT_TIME_ATOL for a, b in zip(got, want)):
        errors.append(f"contact times {got} != {want}")
    return errors


def trial_cells(trials):
    """Pool positions of the trials in each (condition, reference) cell."""
    cells = {}
    for i, t in enumerate(trials):
        cells.setdefault((t["condition_id"], t["reference"]), []).append(i)
    return cells


def trial_order(trials, seed):
    """Seeded order over the pool that cycles through every
    (condition, reference) cell, so any prefix keeps the cells balanced."""
    rng = np.random.default_rng(seed)
    cells = trial_cells(trials)
    keys = sorted(cells)
    queues = [list(rng.permutation(cells[k])) for k in keys]
    order = []
    for rank in range(max(len(q) for q in queues)):
        for k in rng.permutation(len(keys)):
            if rank < len(queues[k]):
                order.append(int(queues[k][rank]))
    return order


# -- measurement loops -------------------------------------------------------


def _timed(fn, *args):
    """fn(*args) and a record of its wall time and of the process CPU
    time at its start and end."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, {"wall_s": time.perf_counter() - w0, "cpu0": c0,
                    "cpu1": time.process_time()}


def solve_loop(case: SolveCase, seconds, tracer=None):
    """Repeat the solve until `seconds` have passed (at least once);
    returns per-solve records and the gate's error messages."""
    ops, errors = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.solve_index = 0
        with (tracing.solver_layers(tracer) if tracer is not None
              else contextlib.nullcontext()):
            res, op = _timed(run_solve, case)
        errs = check_solve(case, res)
        op.update(passed=not errs, cost=float(res.solution.objective_value))
        ops.append(op)
        errors.extend(errs)
        if time.perf_counter() >= deadline:
            return ops, errors


def rollout_loop(setup: RolloutSetup, seed, seconds, tracer=None):
    """Rollouts in the seeded order until `seconds` have passed (at least
    one); returns per-rollout records and the gate's errors."""
    order = trial_order(setup.trials, seed)
    wrap_system = wrap_controller = None
    if tracer is not None:
        def wrap_system(sys):
            return tracing.traced_system(tracer, sys)

        def wrap_controller(controller):
            return tracing.TracedController(tracer, controller)

    ops, errors = [], []
    deadline = time.perf_counter() + seconds
    with (tracing.simulation_layers(tracer) if tracer is not None
          else contextlib.nullcontext()):
        while True:
            trial = setup.trials[order[len(ops) % len(order)]]
            (trace, report), op = _timed(
                run_rollout, setup, trial, wrap_system, wrap_controller)
            outcome = trial_outcome(trace, report)
            errs = check_rollout(trial, outcome)
            op.update(passed=not errs, steps=outcome["steps"],
                      contacts=len(outcome["contact_times"]))
            ops.append(op)
            errors.extend(
                f"trial {trial['condition_id']}/{trial['reference']}/"
                f"{trial['index']}: {e}" for e in errs)
            if time.perf_counter() >= deadline:
                return ops, errors

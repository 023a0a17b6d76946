"""Benchmark studies: robustness Monte-Carlo, optimality/computation
trade-off, and catch-speed sweep.

Every study is deterministic under a master seed: per-trial generators
are spawned from ``SeedSequence(master, spawn_key=(condition, reference,
index))`` so any cell can be reproduced in isolation, and reports are
sorted before writing.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from . import control
from . import pipeline
from . import simulation
from . import transcription as tr
from .plants import arm, cartpole

__all__ = [
    "TrialSpec", "TrialReport", "evaluate_trial",
    "pole_fell", "cartpole_rollout", "montecarlo", "tradeoff",
    "catch_pose", "velocity_sweep", "export",
    "REFERENCE_TYPES", "PAPER_TOTALS",
]

REFERENCE_TYPES = ("nominal", "robust_nominal", "scheduling")

# published totals for the corresponding study, reported alongside ours
# for context (not asserted)
PAPER_TOTALS = {"nominal": 44.8, "robust_nominal": 55.3, "scheduling": 66.4}

X_END = np.array([0.0, math.pi, 0.0, 0.0])


# -- trial domain ------------------------------------------------------------


@dataclass(frozen=True)
class TrialSpec:
    condition_id: int
    reference: str
    x_wall: float
    e: float
    seed: int
    index: int


@dataclass
class TrialReport:
    spec: TrialSpec
    reached_target: bool        # (i)  final state within tolerance
    single_contact: bool        # (ii) debounced contact count <= 1
    stayed_up: bool             # (iii) pole never departs the half circle
    no_penetration: bool        # (iv) cart edge clear of the wall
    contact_count: int
    final_error: list
    min_clearance: float
    termination: str

    @property
    def success(self):
        return (self.reached_target and self.single_contact
                and self.stayed_up and self.no_penetration)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["success"] = self.success
        return d


def _debounced_count(event_times, window):
    count = 0
    last = -math.inf
    for t in sorted(event_times):
        if t - last > window:
            count += 1
        last = t
    return count


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def evaluate_trial(trace, spec: TrialSpec, tolerances, params,
                   x_end, debounce_window) -> TrialReport:
    """Apply the four success criteria to a finished rollout.

    (i) final state within ``tolerances`` of the target; (ii) at most one
    debounced wall contact; (iii) the pole never leaves the upper half
    circle; (iv) the cart edge never crosses the wall plane.
    """
    x_end = np.asarray(x_end, dtype=float)
    tol = np.asarray(tolerances, dtype=float)
    states = trace.states

    err = states[-1] - x_end
    err[1] = _wrap_angle(err[1])
    reached = bool(np.all(np.abs(err) <= tol)) and trace.termination == "horizon"

    n_contacts = _debounced_count(
        [ev.time for ev in trace.contact_events], debounce_window)
    single_contact = n_contacts <= 1

    theta_dev = np.abs(states[:, 1] - math.pi)
    stayed_up = bool(np.max(theta_dev) <= 0.5 * math.pi)

    clearance = states[:, 0] - 0.5 * params.w_cart - spec.x_wall
    min_clearance = float(np.min(clearance))
    no_penetration = min_clearance > 0.0

    return TrialReport(
        spec=spec,
        reached_target=reached,
        single_contact=single_contact,
        stayed_up=stayed_up,
        no_penetration=no_penetration,
        contact_count=n_contacts,
        final_error=[float(v) for v in err],
        min_clearance=min_clearance,
        termination=trace.termination,
    )


# -- reference construction --------------------------------------------------


def _solve_condition(args):
    """Solve the branched problem for one initial condition.

    Returns picklable reference material: the unbranched trajectory (the
    solution of the branched solve's first stage), the robust single
    reference, and the full branched bundle.
    """
    run, x_init = args
    adapter, p, env = cfgmod.build_plant(run)
    opts = cfgmod.solver_opts(run)
    cfg = cfgmod.transcription_config(run, "sure", x_init, X_END)
    res = pipeline.solve_sure(adapter, cfg, opts)
    if res.solution.status != "converged":
        raise RuntimeError(
            f"branched solve failed ({res.solution.status}) for "
            f"condition {np.array2string(np.asarray(x_init))}")
    robust = tr.robust_nominal_branch(res.bundle, dt_impact=p.dt_impact)
    return res.nominal.common, robust, res.bundle


def pole_fell(t, state, n_events):
    """Stop condition of cart-pole rollouts: the pole left the upper half."""
    if abs(_wrap_angle(state[1] - math.pi)) > 0.5 * math.pi:
        return "fell"
    return None


def cartpole_rollout(run: cfgmod.RunConfig, reference, x0, gains, **env_over):
    """Closed-loop rollout of the configured cart-pole tracking ``reference``.

    ``env_over`` replaces fields of the configured env (e.g. a sampled
    ``x_wall``/``e``); the experiment's ``horizon`` and ``dt_sim`` set the
    rollout, which stops when the pole falls.  Returns (trace, params).
    """
    _, p, env = cfgmod.build_plant(run)
    env = dataclasses.replace(env, **env_over)
    trace = simulation.simulate(
        cartpole.make_system(p, env),
        control.TrackingController(reference, gains), x0, env=env,
        horizon=float(run.experiment["horizon"]),
        dt_sim=float(run.experiment["dt_sim"]), stop_condition=pole_fell)
    return trace, p


def _run_trial(args):
    run, spec, reference, gains = args
    trace, p = cartpole_rollout(run, reference,
                                run.conditions[spec.condition_id], gains,
                                x_wall=spec.x_wall, e=spec.e)
    return evaluate_trial(
        trace, spec, list(run.experiment["final_tol"]), p, X_END,
        float(run.experiment["debounce_window"])).to_dict()


def _sample_specs(master_seed, conditions, n_samples, x_wall_range, e_range):
    specs = []
    for ci in range(len(conditions)):
        for ri, ref in enumerate(REFERENCE_TYPES):
            for idx in range(n_samples):
                ss = np.random.SeedSequence(
                    master_seed, spawn_key=(ci, ri, idx))
                rng = np.random.default_rng(ss)
                x_wall = float(rng.uniform(*x_wall_range))
                e = float(rng.uniform(*e_range))
                specs.append(TrialSpec(
                    condition_id=ci, reference=ref, x_wall=x_wall, e=e,
                    seed=int(ss.generate_state(1)[0]), index=idx))
    return specs


def montecarlo(run: cfgmod.RunConfig, progress=None):
    """Robustness study: seeded trials over the wall/restitution box.

    For each initial condition and reference type, ``n_samples`` closed
    -loop rollouts are run against environments sampled uniformly from
    the configured box, and the four-criteria success rate is aggregated:
    ``totals`` and ``per_condition`` are percentages per reference type,
    ``samples`` holds every trial's report.
    """
    _require_plant(run, "cartpole", "montecarlo")
    conditions = run.conditions
    n_samples = int(run.experiment["n_samples"])
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    x_wall_range = tuple(run.experiment["x_wall_range"])
    e_range = tuple(run.experiment["e_range"])
    for name, (lo, hi) in (("x_wall_range", x_wall_range),
                           ("e_range", e_range)):
        if not lo <= hi:
            raise ValueError(f"{name} [{lo}, {hi}] is reversed")
    _check_rollout_settings(run.experiment)

    # references: one staged (unbranched, then branched) solve per condition
    solve_args = [(run, [float(v) for v in state]) for state in conditions]
    refs = _pmap(_solve_condition, solve_args, run.workers)
    ref_by_cond = {}
    for ci, (nominal_traj, robust_traj, bundle) in enumerate(refs):
        ref_by_cond[ci] = {
            "nominal": nominal_traj,
            "robust_nominal": robust_traj,
            "scheduling": bundle,
        }
        if progress:
            progress(f"references for condition {ci} solved")

    adapter, p, env = cfgmod.build_plant(run)
    gains = _controller_gains(run, p, env)

    specs = _sample_specs(run.seed, conditions, n_samples,
                          x_wall_range, e_range)
    trial_args = [(run, s, ref_by_cond[s.condition_id][s.reference], gains)
                  for s in specs]
    results = _pmap(_run_trial, trial_args, run.workers)
    results.sort(key=lambda d: (d["spec"]["condition_id"],
                                d["spec"]["reference"], d["spec"]["index"]))

    totals = {}
    per_condition = {}
    for ref in REFERENCE_TYPES:
        rows = [d for d in results if d["spec"]["reference"] == ref]
        totals[ref] = round(100.0 * np.mean([d["success"] for d in rows]), 2)
        per_condition[ref] = [
            round(100.0 * np.mean(
                [d["success"] for d in rows
                 if d["spec"]["condition_id"] == ci]), 2)
            for ci in range(len(conditions))
        ]
    return {"seed": run.seed, "n_samples": n_samples, "totals": totals,
            "per_condition": per_condition,
            "paper_totals": dict(PAPER_TOTALS), "samples": results}


def _check_rollout_settings(experiment):
    """Reject the settings ``simulate`` or ``evaluate_trial`` would fail
    on, naming the key, before the study's first solve."""
    horizon = float(experiment["horizon"])
    dt_sim = float(experiment["dt_sim"])
    for name, value in (("horizon", horizon), ("dt_sim", dt_sim)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive, got {value}")
    # the step count of ``simulate``
    if round(horizon / dt_sim) < 1:
        raise ValueError(f"horizon {horizon} is shorter than one step of "
                         f"dt_sim {dt_sim}")
    final_tol = experiment["final_tol"]
    try:
        tol = np.asarray(final_tol, dtype=float)
    except (TypeError, ValueError):
        tol = None
    if tol is None or tol.shape != X_END.shape or not np.all(tol >= 0.0):
        raise ValueError(f"final_tol must be {len(X_END)} non-negative "
                         f"numbers, one per state, got {final_tol!r}")
    debounce = float(experiment["debounce_window"])
    if not debounce >= 0.0:
        raise ValueError(
            f"debounce_window must be non-negative, got {debounce}")


_PLANT_LABELS = {"cartpole": "cart-pole", "arm": "arm"}


def _require_plant(run: cfgmod.RunConfig, name, study):
    if run.plant_name != name:
        raise ValueError(f"{study} is defined for the {_PLANT_LABELS[name]} "
                         f"plant, not {run.plant_name!r}")


def _controller_gains(run: cfgmod.RunConfig, p, env):
    return control.design_gains(
        cartpole.make_system(p, env), cartpole.X_EQ,
        Q=np.diag(np.asarray(run.controller["q_diag"], dtype=float)),
        r=float(run.controller["r"]))


def _pmap(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


# -- optimality / computation trade-off --------------------------------------


def _tradeoff_cell(args):
    """One (condition, formulation) solve for the trade-off sweep."""
    run, x_init, kind, n_r, budget = args
    adapter, _, _ = cfgmod.build_plant(run)
    opts = cfgmod.solver_opts(run)
    k_first = int(run.transcription["k_first"])
    k_last = int(run.transcription["k_last"])
    if kind == "sure":
        n_final = budget - n_r
        cfg = cfgmod.transcription_config(
            run, "sure", x_init, X_END,
            N=k_last + 1 + n_final, n_rejoin=n_r,
            k_first=k_first, k_last=k_last)
        res = pipeline.solve_sure(adapter, cfg, opts)
    elif kind == "tree":
        cfg = cfgmod.transcription_config(
            run, "tree", x_init, X_END,
            N=k_last + 1 + budget, n_branch_full=budget,
            k_first=k_first, k_last=k_last)
        res = pipeline.solve_tree(adapter, cfg, opts)
    elif kind == "baseline":
        # exact-knowledge reference: contact node known in advance
        cfg = cfgmod.transcription_config(
            run, "nominal", x_init, X_END,
            N=n_r + 1 + budget, contact_node=n_r)
        res = pipeline.solve_nominal(adapter, cfg, opts)
    else:
        raise ValueError(kind)
    s = res.solution
    return {"kind": kind, "n_r": n_r, "cost": float(s.objective_value),
            "wall_time": float(s.wall_time), "status": s.status}


def tradeoff(run: cfgmod.RunConfig, include_baseline=False, progress=None):
    """Cost/solve-time sweep of the rejoining horizon against the tree.

    Post-impact node budget is fixed; each rejoining variant spends
    ``n_r`` of it per branch and the rest on the shared final segment,
    while the tree spends the whole budget on every branch.  Costs and
    cumulative (warm-start included) wall times are averaged over the
    configured initial conditions.  ``n_r7_cost_pct`` and
    ``n_r7_time_ratio`` compare the N_r = 7 row with the tree; they are
    left out when 7 is not among ``n_r_values``.
    """
    _require_plant(run, "cartpole", "tradeoff")
    conditions = run.conditions
    n_r_values = [int(v) for v in run.experiment["n_r_values"]]
    budget = int(run.experiment["post_impact_budget"])

    cells = []
    for state in conditions:
        x0 = [float(v) for v in state]
        for n_r in n_r_values:
            cells.append((run, x0, "sure", n_r, budget))
        cells.append((run, x0, "tree", budget, budget))
        if include_baseline:
            k_first = int(run.transcription["k_first"])
            k_last = int(run.transcription["k_last"])
            for node in range(k_first, k_last + 1):
                cells.append((run, x0, "baseline", node, budget))
    results = _pmap(_tradeoff_cell, cells, run.workers)
    if progress:
        for r in results:
            progress(f"{r['kind']} n_r={r['n_r']}: cost {r['cost']:.4f} "
                     f"({r['status']}, {r['wall_time']:.0f}s)")

    rows = []
    for n_r in n_r_values:
        cell = [r for r in results if r["kind"] == "sure" and r["n_r"] == n_r]
        rows.append(_avg_row("sure", n_r, cell))
    tree_rows = [r for r in results if r["kind"] == "tree"]
    tree = _avg_row("tree", budget, tree_rows)
    out = {"rows": rows, "tree": tree,
           "paper_comparison": {"cost_pct": 4.87, "time_pct": -55.85}}
    if include_baseline:
        base = [r for r in results if r["kind"] == "baseline"]
        out["baseline_cost"] = float(np.mean([r["cost"] for r in base]))
    # the paper's headline comparison is at N_r = 7
    seven = next((row for row in rows if row["n_r"] == 7), None)
    if seven is not None:
        out["n_r7_cost_pct"] = (100.0 * (seven["cost"] - tree["cost"])
                                / tree["cost"])
        out["n_r7_time_ratio"] = seven["wall_time"] / tree["wall_time"]
    return out


def _avg_row(kind, n_r, cell):
    return {
        "kind": kind,
        "n_r": n_r,
        "cost": float(np.mean([r["cost"] for r in cell])),
        "wall_time": float(np.mean([r["wall_time"] for r in cell])),
        "statuses": sorted(r["status"] for r in cell),
    }


# -- catch-speed sweep (arm plant) -------------------------------------------


def _catch_speed(p, reference, gains, z0, dt_sim):
    """Track ``reference`` while a ball falls from height ``z0``.

    Returns the contact time and the relative speed of ball and end
    effector there, or (None, None) when the ball is not caught within
    1.5 s.  The ball follows its closed form, so contact timing
    reflects the actual drop height, not the planned one.
    """
    env = dataclasses.replace(p, p_ball0=(p.p_ball0[0], z0))

    def caught(t, state, n_events):
        return "caught" if n_events else None

    trace = simulation.simulate(
        arm.make_system(p), control.TrackingController(reference, gains),
        reference.states[0], env=env,
        horizon=1.5, dt_sim=dt_sim, stop_condition=caught)
    if not trace.contact_events:
        return None, None
    ev = trace.contact_events[0]
    _, (bvx, bvz) = arm.ball_state(ev.time, env.p_ball0, env.v_ball0, env.g)
    vx, vz = arm.ee_velocity(ev.pre_state[:3], ev.pre_state[3:], p)
    return ev.time, float(math.hypot(bvx - vx, bvz - vz))


def _replay_drops(p, refs, gains, heights, dt_sim, progress=None):
    """Catch each reference's ball from every drop height.

    Returns the table rows and each reference's largest catch speed;
    raises RuntimeError when a reference catches at no height.
    """
    rows = []
    max_dv = {}
    for name, ref in refs.items():
        for h0 in heights:
            tc, dv = _catch_speed(p, ref, gains, float(h0), dt_sim)
            rows.append({"reference": name, "h0": round(float(h0), 6),
                         "contact_time": tc, "dv": dv})
            if progress:
                progress(f"{name} h0={h0:.3f}: t_c={tc} |dv|={dv}")
        caught = [r["dv"] for r in rows
                  if r["reference"] == name and r["dv"] is not None]
        if not caught:
            raise RuntimeError(f"the {name} reference catches the ball at "
                               f"no drop height")
        max_dv[name] = max(caught)
    return rows, max_dv


def catch_pose(run: cfgmod.RunConfig, p):
    """The arm at rest with its level tool at the configured catch target:
    the boundary state of every arm solve."""
    q = arm.level_configuration(tuple(run.experiment["catch_target"]), p)
    return np.concatenate([q, np.zeros(3)])


def _rk4_growth(p, pose, gains: control.Gains, dt_sim):
    """Largest RK4 amplification of the PD-tracked arm held at ``pose``.

    Linearizes the arm about ``pose`` under its gravity torque, closes
    the loop with τ = −K_p δq − K_d δq̇, and returns max |R(λ·dt_sim)|
    over the closed loop's eigenvalues λ, where
    R(z) = 1 + z + z²/2 + z³/6 + z⁴/24 is RK4's stability function.
    Above 1, a rollout at dt_sim grows without bound.
    """
    A, B = control.linearize(arm.make_system(p), pose,
                             arm.gravity_torque(pose[:3], p))
    K = np.empty((3, 6))  # linearize's interleaved [q1, q̇1, q2, ...] order
    K[:, 0::2], K[:, 1::2] = gains.k_p, gains.k_d
    z = np.linalg.eigvals(A - B @ K) * dt_sim
    return float(np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)))


def velocity_sweep(run: cfgmod.RunConfig, progress=None):
    """Catch speed over a range of drop heights, planned vs. robust.

    Solves the arm-catch problem once per formulation at the configured
    drop height, then replays both references against balls released from
    heights spanning the configured half-range, recording the relative
    speed at contact.
    """
    _require_plant(run, "arm", "sweep")
    adapter, p, _ = cfgmod.build_plant(run)
    opts = cfgmod.solver_opts(run)
    n_heights = int(run.experiment["sweep_heights"])
    half = float(run.experiment["sweep_half_range"])
    dt_sim = float(run.experiment["dt_sim"])

    x0 = catch_pose(run, p)
    kp = float(run.controller["arm_kp"])
    kd = float(run.controller["arm_kd"])
    gains = control.Gains(np.diag(np.full(3, kp)), np.diag(np.full(3, kd)))
    growth = _rk4_growth(p, x0, gains, dt_sim)
    if growth > 1.0:
        raise ValueError(
            f"the arm's tracking loop is unstable under RK4: arm_kp {kp}, "
            f"arm_kd {kd} at dt_sim {dt_sim} give |R(λ·dt_sim)| = "
            f"{growth:.3g} > 1 at the catch pose")

    nom = pipeline.solve_nominal(
        adapter, cfgmod.transcription_config(run, "nominal", x0, x0), opts)
    if progress:
        progress(f"nominal arm solve: {nom.solution.status} "
                 f"cost {nom.solution.objective_value:.4f}")

    sure = pipeline.solve_sure(
        adapter, cfgmod.transcription_config(run, "sure", x0, x0), opts)
    if progress:
        progress(f"robust arm solve: {sure.solution.status} "
                 f"cost {sure.solution.objective_value:.4f}")
    for res, label in ((nom, "unbranched"), (sure, "branched")):
        if res.solution.status != "converged":
            raise RuntimeError(f"{label} arm solve failed "
                               f"({res.solution.status})")
    v_lim = float(sure.solution.x[sure.layout.arrays["vlim"][0]])

    refs = {
        "nominal": nom.bundle.common,
        "robust_nominal": tr.robust_nominal_branch(sure.bundle,
                                                   dt_impact=1e-3),
    }
    z_nom = p.p_ball0[1]
    heights = np.linspace(z_nom - half, z_nom + half, n_heights)
    rows, max_dv = _replay_drops(p, refs, gains, heights, dt_sim, progress)
    return {
        "rows": rows,
        "v_lim": v_lim,
        "max_dv": max_dv,
        "paper_comparison": {"nominal": 3.93, "robust_nominal": 2.67},
    }


# -- persistence --------------------------------------------------------------


# what a study's rows are compared against: the CSV repeats these on
# every row (nested ones flattened, e.g. ``max_dv.nominal``)
_CSV_CONTEXT = ("baseline_cost", "v_lim", "max_dv")


def export(data, path, format="json"):
    """Write a study's result to disk; JSON keeps full structure, CSV
    flattens the sample/row table, with the ``tree`` row appended and the
    ``_CSV_CONTEXT`` values as columns."""
    if format == "json":
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if format != "csv":
        raise ValueError(f"unknown export format {format!r}")
    rows = data.get("samples") or data.get("rows") or []
    if "tree" in data:
        rows = rows + [data["tree"]]
    context = _flatten({k: data[k] for k in _CSV_CONTEXT if k in data})
    flat = [{**_flatten(r), **context} for r in rows]
    keys = sorted({k for r in flat for k in r})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for r in flat:
            writer.writerow(r)


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            for i, vi in enumerate(v):
                out[f"{key}.{i}"] = vi
        else:
            out[key] = v
    return out

"""Benchmark studies: robustness Monte-Carlo, optimality/computation
trade-off, and catch-speed sweep.

Every study is deterministic under a master seed: per-trial generators
are spawned from ``SeedSequence(master, spawn_key=(condition, reference,
index))`` so any cell can be reproduced in isolation, and reports are
sorted before writing.  The studies check no setting: ``RunConfig``
rejects a bad one at load, before any solve.  Nor do they define a plant's
boundary: every solve ends at the adapter's ``target``, the gains hold it
under ``hold``, and the robust reference's impact takes ``dt_impact``.
Every study, and ``cli solve``, solves through ``_solve``, and a failed
solve names the stage it stopped at.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
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
    "velocity_sweep", "export",
    "REFERENCE_TYPES", "PAPER_TOTALS",
]

REFERENCE_TYPES = ("nominal", "robust_nominal", "scheduling")

# published totals for the corresponding study, reported alongside ours
# for context (not asserted)
PAPER_TOTALS = {"nominal": 44.8, "robust_nominal": 55.3, "scheduling": 66.4}

X_END = cartpole.X_EQ  # the cart-pole adapter's target, which trials reach


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


def _solve(run: cfgmod.RunConfig, adapter, variant, x_init, **over):
    """The configured ``variant`` from ``x_init`` to ``adapter.target``,
    with ``over`` replacing transcription keys, solved under the
    configured solver options."""
    cfg = cfgmod.transcription_config(run, variant, x_init, adapter.target,
                                      **over)
    return pipeline.solve(adapter, cfg, cfgmod.solver_opts(run))


def _require_converged(res, what, where=""):
    """Raise unless the staged solve ``res`` converged, naming the stage
    that failed: one whose unbranched stage failed has no ``nominal``."""
    if res.solution.status != "converged":
        stage = "branched" if res.nominal is not None else "unbranched"
        raise RuntimeError(f"{stage} {what} failed "
                           f"({res.solution.status}){where}")


# -- reference construction --------------------------------------------------


def _solve_condition(args):
    """Solve the branched problem for one initial condition.

    Returns picklable reference material keyed by ``REFERENCE_TYPES``:
    the unbranched trajectory (the solution of the branched solve's first
    stage), the robust single reference, and the full branched bundle.
    """
    run, x_init = args
    adapter, _, _ = cfgmod.build_plant(run)
    res = _solve(run, adapter, "sure", x_init)
    _require_converged(res, "solve", " for condition "
                       + np.array2string(np.asarray(x_init)))
    robust = tr.robust_nominal_branch(res.bundle,
                                      dt_impact=adapter.dt_impact)
    return dict(zip(REFERENCE_TYPES, (res.nominal.common, robust, res.bundle)))


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
    adapter, p, env = cfgmod.build_plant(run)
    env = dataclasses.replace(env, **env_over)
    trace = simulation.simulate(
        adapter.system(),
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
    n_samples = run.experiment["n_samples"]
    gains = _controller_gains(run, cfgmod.build_plant(run)[0])

    # references: one staged (unbranched, then branched) solve per condition
    solve_args = [(run, [float(v) for v in state]) for state in conditions]
    ref_by_cond = _pmap(_solve_condition, solve_args,
                        run.experiment["workers"])
    if progress:
        for ci in range(len(conditions)):
            progress(f"references for condition {ci} solved")

    specs = _sample_specs(run.experiment["seed"], conditions, n_samples,
                          tuple(run.experiment["x_wall_range"]),
                          tuple(run.experiment["e_range"]))
    trial_args = [(run, s, ref_by_cond[s.condition_id][s.reference], gains)
                  for s in specs]
    results = _pmap(_run_trial, trial_args, run.experiment["workers"])
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
    return {"seed": run.experiment["seed"], "n_samples": n_samples,
            "totals": totals, "per_condition": per_condition,
            "paper_totals": dict(PAPER_TOTALS), "samples": results}


_PLANT_LABELS = {"cartpole": "cart-pole", "arm": "arm"}


def _require_plant(run: cfgmod.RunConfig, name, study):
    if run.plant_name != name:
        raise ValueError(f"{study} is defined for the {_PLANT_LABELS[name]} "
                         f"plant, not {run.plant_name!r}")


def _controller_gains(run: cfgmod.RunConfig, adapter):
    """LQR gains of the configured weights about the state the plant's
    solves end at, ``adapter.target``, under the input that holds it,
    ``adapter.hold``; rejected unless RK4-stable at ``dt_sim`` on the
    same linear model."""
    dt_sim = float(run.experiment["dt_sim"])
    A, B = control.linearize(adapter.system(), adapter.target, adapter.hold)
    q_diag, r = run.controller["q_diag"], run.controller["r"]
    gains = control.lqr_gains(A, B, np.diag(q_diag), r)
    growth = _rk4_growth(A, B, gains, dt_sim)
    if growth > 1.0:
        raise ValueError(
            f"the {_PLANT_LABELS[run.plant_name]}'s tracking loop is "
            f"unstable under RK4: q_diag {q_diag}, r {r} at dt_sim "
            f"{dt_sim} give |R(λ·dt_sim)| = {growth:.3g} > 1")
    return gains


def _pmap(fn, items, workers):
    """``[fn(it) for it in items]`` on at most ``workers`` processes, and
    never more processes than items or CPUs: the pool starts all of them
    at its first task."""
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


# -- optimality / computation trade-off --------------------------------------


# each cell kind: its formulation, the name of its number ``n``, and its
# transcription overrides at ``n``, given ``k_last`` and the node budget
_TRADEOFF_KINDS = {
    "sure": ("sure", "n_r", lambda n, k_last, budget: {
        "N": k_last + 1 + budget - n, "n_rejoin": n}),
    "tree": ("tree", "budget", lambda n, k_last, budget: {
        "N": k_last + 1 + budget, "n_branch_full": budget}),
    # exact-knowledge reference: contact node known in advance
    "baseline": ("nominal", "node", lambda n, k_last, budget: {
        "N": n + 1 + budget, "k_first": n, "k_last": n}),
}


def _tradeoff_cell(args):
    """One (condition, formulation) solve for the trade-off sweep."""
    run, x_init, kind, n = args
    variant, label, over = _TRADEOFF_KINDS[kind]
    res = _solve(run, cfgmod.build_plant(run)[0], variant, x_init, **over(
        n, run.transcription["k_last"], run.experiment["post_impact_budget"]))
    s = res.solution
    return {"kind": kind, label: n, "cost": float(s.objective_value),
            "wall_time": float(s.wall_time), "status": s.status}


def tradeoff(run: cfgmod.RunConfig, include_baseline=False, progress=None):
    """Cost/solve-time sweep of the rejoining horizon against the tree.

    Post-impact node budget is fixed; each rejoining variant spends
    ``n_r`` of it per branch and the rest on the shared final segment,
    while the tree spends the whole budget on every branch.  Costs and
    cumulative (warm-start included) wall times are averaged over the
    configured initial conditions.  A ``sure`` row is labelled by its
    ``n_r`` and the tree row by its ``budget``.  ``n_r7_cost_pct`` and
    ``n_r7_time_ratio`` compare the N_r = 7 row with the tree; they are
    left out when 7 is not among ``n_r_values``.  With
    ``include_baseline``, ``baseline_cost`` is the mean cost of the
    exact-knowledge solves and ``baseline_statuses`` their statuses, in
    cell order.
    """
    _require_plant(run, "cartpole", "tradeoff")
    conditions = run.conditions
    n_r_values = run.experiment["n_r_values"]
    budget = run.experiment["post_impact_budget"]
    k_first, k_last = run.transcription["k_first"], run.transcription["k_last"]

    # each kind's numbers; the cells run condition by condition
    numbers = {"sure": n_r_values, "tree": [budget],
               "baseline": range(k_first, k_last + 1) if include_baseline
               else []}
    cells = [(run, [float(v) for v in state], kind, n) for state in conditions
             for kind, ns in numbers.items() for n in ns]
    results = _pmap(_tradeoff_cell, cells, run.experiment["workers"])
    if progress:
        for r in results:
            label = _TRADEOFF_KINDS[r["kind"]][1]
            progress(f"{r['kind']} {label}={r[label]}: cost {r['cost']:.4f} "
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
        # the mean takes every solve; the statuses, in cell order, show
        # which of them did not converge
        out["baseline_cost"] = float(np.mean([r["cost"] for r in base]))
        out["baseline_statuses"] = [r["status"] for r in base]
    # the paper's headline comparison is at N_r = 7
    seven = next((row for row in rows if row["n_r"] == 7), None)
    if seven is not None:
        out["n_r7_cost_pct"] = (100.0 * (seven["cost"] - tree["cost"])
                                / tree["cost"])
        out["n_r7_time_ratio"] = seven["wall_time"] / tree["wall_time"]
    return out


def _avg_row(kind, n, cell):
    return {
        "kind": kind,
        _TRADEOFF_KINDS[kind][1]: n,
        "cost": float(np.mean([r["cost"] for r in cell])),
        "wall_time": float(np.mean([r["wall_time"] for r in cell])),
        "statuses": sorted(r["status"] for r in cell),
    }


# -- catch-speed sweep (arm plant) -------------------------------------------


def _catch_speed(adapter, reference, gains, z0, dt_sim):
    """Track ``reference`` while a ball falls from height ``z0``.

    Returns the contact time and the relative speed of ball and end
    effector there, or (None, None) when the ball is not caught within
    1.5 s.  The ball follows its closed form, so contact timing
    reflects the actual drop height, not the planned one.
    """
    p = adapter.p
    env = dataclasses.replace(p, p_ball0=(p.p_ball0[0], z0))

    def caught(t, state, n_events):
        return "caught" if n_events else None

    trace = simulation.simulate(
        adapter.system(), control.TrackingController(reference, gains),
        reference.states[0], env=env,
        horizon=1.5, dt_sim=dt_sim, stop_condition=caught)
    if not trace.contact_events:
        return None, None
    ev = trace.contact_events[0]
    _, (bvx, bvz) = arm.ball_state(ev.time, env.p_ball0, env.v_ball0, env.g)
    vx, vz = arm.ee_velocity(ev.pre_state[:3], ev.pre_state[3:], p)
    return ev.time, float(math.hypot(bvx - vx, bvz - vz))


def _replay_drops(adapter, refs, gains, heights, dt_sim, progress=None):
    """Catch each reference's ball from every drop height.

    Returns the table rows and each reference's largest catch speed;
    raises RuntimeError when a reference catches at no height.
    """
    rows = []
    max_dv = {}
    for name, ref in refs.items():
        for h0 in heights:
            tc, dv = _catch_speed(adapter, ref, gains, float(h0), dt_sim)
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


def _rk4_growth(A, B, gains: control.Gains, dt_sim):
    """Largest RK4 amplification of the linear model (A, B) tracked by
    ``gains``.

    Closes the loop with τ = −K δx and returns max |R(λ·dt_sim)| over
    the eigenvalues λ of A − B K, where R(z) = 1 + z + z²/2 + z³/6 +
    z⁴/24 is RK4's stability function.  Above 1, a rollout at dt_sim
    grows without bound.
    """
    z = np.linalg.eigvals(A - B @ np.array(gains.rows)) * dt_sim
    return float(np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)))


def velocity_sweep(run: cfgmod.RunConfig, progress=None):
    """Catch speed over a range of drop heights, planned vs. robust.

    Solves the staged arm-catch problem, from and to the catch pose, once
    at the configured drop height: its unbranched first stage is the
    planned reference, its middle branch the robust one.  Replays both
    references against balls released from heights spanning the
    configured half-range, recording the relative speed at contact,
    tracked with ``_controller_gains``.
    """
    _require_plant(run, "arm", "sweep")
    adapter, p, _ = cfgmod.build_plant(run)
    n_heights = run.experiment["sweep_heights"]
    half = float(run.experiment["sweep_half_range"])
    dt_sim = float(run.experiment["dt_sim"])
    gains = _controller_gains(run, adapter)

    sure = _solve(run, adapter, "sure", adapter.target)
    if progress:
        progress(f"robust arm solve: {sure.solution.status} "
                 f"cost {sure.solution.objective_value:.4f}")
    _require_converged(sure, "arm solve")
    v_lim = float(sure.solution.x[sure.layout.arrays["vlim"][0]])

    refs = {
        "nominal": sure.nominal.common,
        "robust_nominal": tr.robust_nominal_branch(
            sure.bundle, dt_impact=adapter.dt_impact),
    }
    z_nom = p.p_ball0[1]
    heights = np.linspace(z_nom - half, z_nom + half, n_heights)
    rows, max_dv = _replay_drops(adapter, refs, gains, heights, dt_sim,
                                 progress)
    return {
        "rows": rows,
        "v_lim": v_lim,
        "max_dv": max_dv,
        "paper_comparison": {"nominal": 3.93, "robust_nominal": 2.67},
    }


# -- persistence --------------------------------------------------------------


# what a study's rows are compared against: the CSV repeats these on
# every row (nested ones flattened, e.g. ``max_dv.nominal``)
_CSV_CONTEXT = ("baseline_cost", "baseline_statuses", "v_lim", "max_dv")


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

"""Staged solving of the formulations ``TranscriptionConfig.variant`` names.

Branched problems (branching window, rejoin or tree) rarely converge from
an interpolated cold start: the feasibility phase has to discover the
impact transition on its own.  Solving the unbranched problem first and
transplanting its trajectory — common part copied, each branch seeded by
the plant's transition map applied at its branching node — makes the
remaining correction local and cheap.

Every solve reports failure through ``solution.status``; none raises.
A branched solve whose unbranched stage fails returns that stage's
result and never builds the branched problem.  Reported wall time and
iteration counts are cumulative over both stages.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nlp
from . import transcription as tr

__all__ = [
    "PipelineResult",
    "nominal_stage_config",
    "guess_from_nominal",
    "sure_guess_from_nominal",
    "tree_guess_from_nominal",
    "solve", "solve_nominal", "solve_sure", "solve_tree",
]


@dataclass
class PipelineResult:
    """A solve and what it was solved on.

    ``solution.status`` is the only failure report.  A sure or tree solve
    whose unbranched stage failed returns that stage: its problem, layout
    and bundle, with ``nominal`` None.  ``solution.wall_time``,
    ``iterations`` and ``inner_iterations`` of a branched solve include
    its unbranched stage.
    """

    solution: nlp.NlpSolution
    bundle: tr.SolutionBundle
    layout: tr.TranscriptionLayout
    problem: nlp.NlpProblem
    # branched solves: the unbranched stage's solution they started from
    nominal: Optional[tr.SolutionBundle] = None


def nominal_stage_config(cfg: tr.TranscriptionConfig) -> tr.TranscriptionConfig:
    """Unbranched counterpart of a branched config: the same window, so
    contact at its middle node, where the robust reference branches."""
    return dataclasses.replace(cfg, variant="nominal")


def _resample(states, inputs, dts, n_new, dt_min, dt_max):
    """Re-grid a trajectory onto n_new uniform-in-time intervals."""
    if len(dts) == n_new:
        return states, inputs, np.clip(dts, dt_min, dt_max)
    t = np.concatenate([[0.0], np.cumsum(dts)])
    duration = t[-1]
    t_new = np.linspace(0.0, duration, n_new + 1)
    out_x = np.column_stack(
        [np.interp(t_new, t, states[:, j]) for j in range(states.shape[1])]
    )
    # inputs are piecewise-constant per interval; sample at interval starts
    t_u = t[:-1]
    out_u = np.column_stack(
        [
            np.interp(t_new[:-1], t_u, inputs[:, j])
            for j in range(inputs.shape[1])
        ]
    )
    out_dt = np.full(n_new, np.clip(duration / n_new, dt_min, dt_max))
    return out_x, out_u, out_dt


def _free_step(adapter, x, u, dt):
    """One contact-free integration step, recovered from the defect.

    Defects have the explicit form x_next - step(x, u, dt), so evaluating
    them with x_next := x isolates the step.
    """
    d = adapter.dynamics_defect(x, np.atleast_1d(u), float(dt), x)
    return x - np.array([float(di) for di in d])


def guess_from_nominal(adapter, layout, nominal_bundle):
    """Initial vector for a branched formulation from an unbranched solve
    on the same window.

    The common part copies the unbranched states, inputs and steps,
    truncated to the layout's length, with the states after the contact
    node continued contact-free across the window (the window is a ghost
    segment: transition constraints live on the branches, not the common
    part).  Each branch is seeded with the plant's transition at its own
    root.  A rejoining branch then runs linearly onto the rejoin state; a
    tree branch follows the unbranched post-contact tail, re-gridded onto
    the branch's node budget.
    """
    cfg = layout.cfg
    arrays = layout.arrays
    nom = nominal_bundle.common
    c = cfg.contact_node
    x0 = tr.default_initial_guess(adapter, layout)
    states = np.array(nom.states[: len(arrays["x"])])
    for i in range(c, cfg.k_last):
        states[i + 1] = _free_step(adapter, states[i], nom.inputs[i],
                                   nom.dts[i])
    x0[arrays["x"]] = states
    x0[arrays["u"]] = nom.inputs[: len(arrays["u"])]
    x0[arrays["dt"]] = nom.dts[: len(arrays["dt"])]
    # recompute plant-specific slots (elapsed times, force seeds, ...) from
    # the transplanted time steps before the per-branch seeds overwrite them
    adapter.initial_guess_extras(layout, x0)
    for k, i in enumerate(cfg.branch_nodes):
        post, extras = adapter.branch_seed(states[i], nom.inputs[i])
        if cfg.rejoin_node is not None:
            bx = tr.interpolate_rows(post, states[cfg.rejoin_node],
                                     cfg.branch_len)
            bu, bdt = nom.inputs[i], nom.dts[i]
        else:
            # branch node 0 replaces the unbranched node c+1
            bx, bu, bdt = _resample(
                np.vstack([post, nom.states[c + 2 :]]), nom.inputs[c + 1 :],
                nom.dts[c + 1 :], cfg.branch_len, cfg.dt_min, cfg.dt_max)
        x0[arrays["bx"][k]] = bx
        x0[arrays["bu"][k]] = bu
        x0[arrays["bdt"][k]] = bdt
        for name, row in extras.items():
            x0[arrays[name][k]] = row
    return x0


# the names ``solve`` calls, so that each can be wrapped on its own
sure_guess_from_nominal = guess_from_nominal
tree_guess_from_nominal = guess_from_nominal


def solve(adapter, cfg, opts=None) -> PipelineResult:
    """Solve ``cfg.variant``: a nominal config from the default guess; a
    sure or tree config by its unbranched stage, then the branched problem
    warm-started from it."""
    if cfg.variant == "nominal":
        problem, layout = tr.build_nominal(adapter, cfg)
        x0 = tr.default_initial_guess(adapter, layout)
        sol = nlp.solve(problem, x0, opts)
        return PipelineResult(sol, tr.extract_solution(layout, sol.x), layout,
                              problem)
    nom = solve(adapter, nominal_stage_config(cfg), opts)
    if nom.solution.status != "converged":
        return nom
    if cfg.variant == "sure":
        problem, layout = tr.build_sure(adapter, cfg)
        x0 = sure_guess_from_nominal(adapter, layout, nom.bundle)
    else:
        problem, layout = tr.build_tree(adapter, cfg)
        x0 = tree_guess_from_nominal(adapter, layout, nom.bundle)
    sol = nlp.solve(problem, x0, opts)
    sol.wall_time += nom.solution.wall_time
    sol.iterations += nom.solution.iterations
    sol.inner_iterations += nom.solution.inner_iterations
    return PipelineResult(sol, tr.extract_solution(layout, sol.x), layout,
                          problem, nom.bundle)


# the names the benchmark calls; they go with ``tr.build_*`` (ROADMAP
# item 16)
solve_nominal = solve_sure = solve_tree = solve

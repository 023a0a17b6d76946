"""Staged solving of the branched optimal-control formulations.

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
    "sure_guess_from_nominal",
    "tree_guess_from_nominal",
    "solve_nominal",
    "solve_sure",
    "solve_tree",
]


@dataclass
class PipelineResult:
    """A solve and what it was solved on.

    ``solution.status`` is the only failure report.  A branched solve
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


def _window_free_states(adapter, nom, c, last):
    """Common-part states with the post-transition tail replaced by a
    contact-free continuation from node c (the window is a ghost segment:
    transition constraints live on the branches, not the common part)."""
    states = np.array(nom.states[: last + 1])
    for i in range(c, last):
        states[i + 1] = _free_step(adapter, states[i], nom.inputs[i], nom.dts[i])
    return states


def _seed_branch_extras(layout, x0, k, extras):
    for name, row in extras.items():
        if name in layout.arrays:
            x0[layout.arrays[name][k]] = row


def sure_guess_from_nominal(adapter, layout, nominal_bundle):
    """Initial vector for the rejoining formulation from an unbranched solve
    on the same horizon.

    Each branch is seeded with the plant's transition at its own root,
    interpolated linearly onto the rejoin state.
    """
    cfg = layout.cfg
    nom = nominal_bundle.common
    x0 = tr.default_initial_guess(adapter, layout)
    x0[layout.arrays["x"]] = nom.states
    x0[layout.arrays["u"]] = nom.inputs
    x0[layout.arrays["dt"]] = nom.dts
    rejoin = x0[layout.arrays["x"][cfg.k_last + 1]]
    c = cfg.contact_node
    free = _window_free_states(adapter, nom, c, cfg.k_last)
    x0[layout.arrays["x"][c + 1 : cfg.k_last + 1]] = free[c + 1 :]
    # recompute plant-specific slots (elapsed times, force seeds, ...) from
    # the transplanted time steps before the per-branch seeds overwrite them
    adapter.initial_guess_extras(layout, cfg, x0)
    for k, i in enumerate(cfg.branch_nodes):
        post, extras = adapter.branch_seed(free[i], nom.inputs[i], cfg)
        x0[layout.arrays["bx"][k]] = tr.interpolate_rows(post, rejoin,
                                                         layout.branch_len)
        x0[layout.arrays["bu"][k]] = nom.inputs[i]
        x0[layout.arrays["bdt"][k]] = nom.dts[i]
        _seed_branch_extras(layout, x0, k, extras)
    return x0


def tree_guess_from_nominal(adapter, layout, nominal_bundle):
    """Initial vector for the tree formulation from an unbranched solve.

    Each branch is seeded with the plant's transition at its own root
    followed by the unbranched post-contact tail, re-gridded onto the
    branch's node budget.
    """
    cfg = layout.cfg
    nom = nominal_bundle.common
    x0 = tr.default_initial_guess(adapter, layout)
    n_c = layout.n_common  # tree common part ends at k_last
    c = cfg.contact_node
    free = _window_free_states(adapter, nom, c, n_c)
    x0[layout.arrays["x"]] = free
    x0[layout.arrays["u"]] = nom.inputs[: len(layout.arrays["u"])]
    x0[layout.arrays["dt"]] = nom.dts[:n_c]
    adapter.initial_guess_extras(layout, cfg, x0)
    for k, i in enumerate(cfg.branch_nodes):
        post, extras = adapter.branch_seed(free[i], nom.inputs[i], cfg)
        # branch node 0 replaces the unbranched node c+1
        seq_x = np.vstack([post, nom.states[c + 2 :]])
        seq_u = nom.inputs[c + 1 :]
        seq_dt = nom.dts[c + 1 :]
        bx, bu, bdt = _resample(
            seq_x, seq_u, seq_dt, layout.branch_len, cfg.dt_min, cfg.dt_max
        )
        x0[layout.arrays["bx"][k]] = bx
        x0[layout.arrays["bu"][k]] = bu
        x0[layout.arrays["bdt"][k]] = bdt
        _seed_branch_extras(layout, x0, k, extras)
    return x0


def solve_nominal(adapter, cfg, opts=None) -> PipelineResult:
    problem, layout = tr.build_nominal(adapter, cfg)
    x0 = tr.default_initial_guess(adapter, layout)
    sol = nlp.solve(problem, x0, opts)
    return PipelineResult(sol, tr.extract_solution(layout, sol.x), layout, problem)


def _solve_branched(adapter, cfg, build, guess_from_nominal, opts):
    nom = solve_nominal(adapter, nominal_stage_config(cfg), opts)
    if nom.solution.status != "converged":
        return nom
    problem, layout = build(adapter, cfg)
    x0 = guess_from_nominal(adapter, layout, nom.bundle)
    sol = nlp.solve(problem, x0, opts)
    sol.wall_time += nom.solution.wall_time
    sol.iterations += nom.solution.iterations
    sol.inner_iterations += nom.solution.inner_iterations
    return PipelineResult(sol, tr.extract_solution(layout, sol.x), layout,
                          problem, nom.bundle)


def solve_sure(adapter, cfg, opts=None) -> PipelineResult:
    """Unbranched solve, then the rejoining formulation warm-started from it."""
    return _solve_branched(adapter, cfg, tr.build_sure,
                           sure_guess_from_nominal, opts)


def solve_tree(adapter, cfg, opts=None) -> PipelineResult:
    """Unbranched solve, then the tree formulation warm-started from it."""
    return _solve_branched(adapter, cfg, tr.build_tree,
                           tree_guess_from_nominal, opts)

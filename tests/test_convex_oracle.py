"""The whole solver stack against an independent solve of a convex problem.

A point mass (p, v) under a force u, stepped by semi-implicit Euler,
meets a wall at p = -0.5 and bounces off it with restitution 0.5.  With
every step fixed at 0.1 s, each constraint of each formulation is affine
and its cost is a convex quadratic, so each has one minimum value, which
``scipy.optimize`` finds on the same ``NlpProblem`` without the
program's solver.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from branchopt import nlp, pipeline
from branchopt import transcription as tr

DT = 0.1
RESTITUTION = 0.5
WALL = -0.5
# state, velocity and input weights of the node cost
W_P, W_V, W_U = 3.0, 1.0, 1.0
N, K_FIRST, K_LAST, N_REJOIN = 16, 6, 9, 3
# the tree's branches as long as a rejoining branch and the common tail
# after it together, so the tree can follow the sure answer and cost no more
N_BRANCH_FULL = N_REJOIN + N - K_LAST - 1
X_INIT = np.array([0.5, -1.0])
X_END = np.array([0.0, 0.0])
OPTS = nlp.SolverOpts()


class PointMassOcp(tr.PlantOcp):
    n_x = 2
    n_u = 1
    dt_impact = DT

    def dynamics_defect(self, x, u, dt, x_next):
        v = x[1] + u[0] * dt
        return [x_next[0] - (x[0] + v * dt), x_next[1] - v]

    def node_cost(self, x, u, scale):
        return [scale * math.sqrt(W_P) * x[0], scale * math.sqrt(W_V) * x[1],
                scale * math.sqrt(W_U) * u[0]]

    def guard_expr(self, v):
        return v[0] - WALL

    def emit_transition(self, builder, layout, post_rows):
        pre_rows = layout.arrays["x"][layout.cfg.contact_nodes]
        builder.add_eq("bounce",
                       lambda v: [v[2] - v[0], v[3] + RESTITUTION * v[1]],
                       np.hstack([pre_rows, post_rows]))

    def branch_seed(self, x_pre, u_pre):
        return np.array([x_pre[0], -RESTITUTION * x_pre[1]]), {}


def _cfg(variant):
    return tr.TranscriptionConfig(
        N=N, variant=variant, k_first=K_FIRST, k_last=K_LAST,
        n_rejoin=N_REJOIN, n_branch_full=N_BRANCH_FULL, dt_min=DT, dt_max=DT,
        x_init=X_INIT, x_end=X_END)


@pytest.fixture(scope="module")
def solves():
    return {variant: pipeline.solve(PointMassOcp(), _cfg(variant), OPTS)
            for variant in ("nominal", "sure", "tree")}


def _jacobian(blocks, x):
    """Dense constraint jacobian, assembled from each block's local one."""
    parts = []
    for b in blocks:
        _, jac = nlp.block_outputs(b, x)
        dense = np.zeros((b.batch, b.n_out, x.size))
        batch = np.arange(b.batch)[:, None, None]
        out = np.arange(b.n_out)[None, :, None]
        np.add.at(dense, (batch, out, b.indices[:, None, :]), jac)
        parts.append(dense.reshape(-1, x.size))
    return np.vstack(parts)


def _oracle_cost(problem, layout):
    """SLSQP on the same NlpProblem, from the default guess."""
    x0 = tr.default_initial_guess(PointMassOcp(), layout)
    constraints = [{"type": "eq",
                    "fun": lambda x: nlp.eval_constraints(problem.eq_blocks, x),
                    "jac": lambda x: _jacobian(problem.eq_blocks, x)}]
    if problem.ineq_blocks:
        # the program's inequalities read g <= 0, scipy's g >= 0
        constraints.append({
            "type": "ineq",
            "fun": lambda x: -nlp.eval_constraints(problem.ineq_blocks, x),
            "jac": lambda x: -_jacobian(problem.ineq_blocks, x)})
    res = optimize.minimize(
        lambda x: nlp.eval_objective(problem, x), x0,
        jac=lambda x: nlp.objective_gradient(problem, x), method="SLSQP",
        bounds=optimize.Bounds(problem.lower, problem.upper),
        constraints=constraints, options={"maxiter": 500, "ftol": 1e-12})
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("variant", ["nominal", "sure", "tree"])
def test_converges_by_a_recomputed_kkt_test(solves, variant):
    res = solves[variant]
    sol = res.solution
    assert sol.status == "converged"
    kkt = nlp.kkt_residual(res.problem, sol.x, sol.multipliers_eq,
                           sol.multipliers_ineq)
    assert kkt.stationarity <= OPTS.tol_stat
    assert kkt.eq_viol <= OPTS.tol_eq
    assert kkt.ineq_viol <= OPTS.tol_ineq


@pytest.mark.parametrize("variant", ["sure", "tree"])
def test_cost_matches_an_independent_solve(solves, variant):
    # SLSQP fails on the nominal problem: the input at its contact node
    # is uncosted and constrains nothing, so the QP has a flat direction
    res = solves[variant]
    want = _oracle_cost(res.problem, res.layout)
    assert res.solution.objective_value == pytest.approx(want, rel=1e-5)


def test_tree_costs_no_more_than_sure(solves):
    assert (solves["tree"].solution.objective_value
            <= solves["sure"].solution.objective_value)


@pytest.mark.parametrize("variant", ["nominal", "sure", "tree"])
def test_repeat_solve_is_bit_for_bit(solves, variant):
    again = pipeline.solve(PointMassOcp(), _cfg(variant), OPTS).solution
    sol = solves[variant].solution
    assert again.x.tobytes() == sol.x.tobytes()
    assert again.objective_value == sol.objective_value

"""Augmented-Lagrangian solver on small problems with known solutions."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from branchopt import autodiff as ad
from branchopt import bench, config, nlp, pipeline
from branchopt import transcription as tr
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp

from test_transcription import ARM_END, ARM_INIT, _cfg


def _problem(n, cost=(), eq=(), ineq=(), lower=None, upper=None):
    return nlp.NlpProblem(
        n_vars=n,
        lower=np.full(n, -np.inf) if lower is None else np.asarray(lower, float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, float),
        cost_blocks=list(cost),
        eq_blocks=list(eq),
        ineq_blocks=list(ineq),
    )


def _block(name, fun, indices, n_out):
    return nlp.Block(name, fun, np.asarray(indices, dtype=int), n_out)


def test_equality_constrained_quadratic_kkt_oracle():
    # min x^2 + y^2  s.t. x + y = 1.
    # Oracle (Lagrangian stationarity, derived by hand, not quoted):
    #   2x + lam = 0, 2y + lam = 0, x + y = 1  =>  x = y = 1/2, lam = -1.
    cost = _block("r", lambda v: [v[0], v[1]], [[0, 1]], 2)
    eq = _block("c", lambda v: [v[0] + v[1] - 1.0], [[0, 1]], 1)
    p = _problem(2, cost=[cost], eq=[eq])
    sol = nlp.solve(p, np.array([3.0, -2.0]))
    assert sol.status == "converged"
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-6)
    assert sol.multipliers_eq[0] == pytest.approx(-1.0, abs=1e-4)
    assert sol.objective_value == pytest.approx(0.5, abs=1e-5)


def test_kkt_residual_zero_at_optimum():
    cost = _block("r", lambda v: [v[0], v[1]], [[0, 1]], 2)
    eq = _block("c", lambda v: [v[0] + v[1] - 1.0], [[0, 1]], 1)
    p = _problem(2, cost=[cost], eq=[eq])
    kkt = nlp.kkt_residual(p, np.array([0.5, 0.5]), np.array([-1.0]),
                           np.zeros(0))
    assert kkt.stationarity == pytest.approx(0.0, abs=1e-10)
    assert kkt.eq_viol == pytest.approx(0.0, abs=1e-12)


def test_inequality_active_at_solution():
    # min (x-2)^2 s.t. x <= 1 -> x* = 1, mu* = 2(2-1) = 2
    cost = _block("r", lambda v: [v[0] - 2.0], [[0]], 1)
    ineq = _block("g", lambda v: [v[0] - 1.0], [[0]], 1)
    p = _problem(1, cost=[cost], ineq=[ineq])
    sol = nlp.solve(p, np.array([5.0]))
    assert sol.status == "converged"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.multipliers_ineq[0] == pytest.approx(2.0, abs=1e-3)


def test_inactive_inequality_has_zero_multiplier():
    cost = _block("r", lambda v: [v[0] - 0.25], [[0]], 1)
    ineq = _block("g", lambda v: [v[0] - 1.0], [[0]], 1)
    p = _problem(1, cost=[cost], ineq=[ineq])
    sol = nlp.solve(p, np.array([0.9]))
    assert sol.status == "converged"
    assert sol.x[0] == pytest.approx(0.25, abs=1e-6)
    assert sol.multipliers_ineq[0] == pytest.approx(0.0, abs=1e-6)


def test_bounds_are_respected():
    # min (x+3)^2 with x in [-1, 5]
    cost = _block("r", lambda v: [v[0] + 3.0], [[0]], 1)
    p = _problem(1, cost=[cost], lower=[-1.0], upper=[5.0])
    sol = nlp.solve(p, np.array([4.0]))
    assert sol.x[0] == pytest.approx(-1.0, abs=1e-8)


def test_fixed_variables_are_pinned():
    cost = _block("r", lambda v: [v[0] - 7.0, v[1]], [[0, 1]], 2)
    p = _problem(2, cost=[cost], lower=[2.0, -10], upper=[2.0, 10])
    sol = nlp.solve(p, np.array([2.0, 5.0]))
    assert sol.x[0] == 2.0
    assert sol.x[1] == pytest.approx(0.0, abs=1e-8)


def test_rosenbrock_valley_unconstrained():
    def rb(v):
        return [10.0 * (v[1] - v[0] * v[0]), 1.0 - v[0]]

    cost = _block("r", rb, [[0, 1]], 2)
    p = _problem(2, cost=[cost])
    sol = nlp.solve(p, np.array([-1.2, 1.0]))
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-6)


def test_batched_block_matches_loop():
    # sum_i (x_i - i)^2 with one batched block; the targets are fixed
    # variables, since a recorded constant is one number
    n = 6
    idx = np.column_stack([np.arange(n), n + np.arange(n)])
    target = np.arange(n, dtype=float)
    cost = _block("r", lambda v: [v[0] - v[1]], idx, 1)
    p = _problem(2 * n, cost=[cost],
                 lower=np.r_[np.full(n, -np.inf), target],
                 upper=np.r_[np.full(n, np.inf), target])
    sol = nlp.solve(p, np.r_[np.zeros(n), target])
    assert sol.x[:n] == pytest.approx(target, abs=1e-8)


def test_nonconvex_equality_circle():
    # min (x-2)^2 + y^2 s.t. x^2 + y^2 = 1 -> (1, 0)
    cost = _block("r", lambda v: [v[0] - 2.0, v[1]], [[0, 1]], 2)
    eq = _block("c", lambda v: [v[0] * v[0] + v[1] * v[1] - 1.0], [[0, 1]], 1)
    p = _problem(2, cost=[cost], eq=[eq])
    sol = nlp.solve(p, np.array([0.1, 0.9]))
    assert sol.status == "converged"
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-5)


def test_infeasible_problem_reports_infeasible():
    eq1 = _block("a", lambda v: [v[0] - 1.0], [[0]], 1)
    eq2 = _block("b", lambda v: [v[0] + 1.0], [[0]], 1)
    p = _problem(1, eq=[eq1, eq2])
    sol = nlp.solve(p, np.array([0.0]), nlp.SolverOpts(max_outer=20))
    assert sol.status != "converged"
    assert max(sol.kkt.eq_viol, 0.0) > 1e-3


def test_solution_reports_iteration_and_time():
    cost = _block("r", lambda v: [v[0]], [[0]], 1)
    p = _problem(1, cost=[cost])
    sol = nlp.solve(p, np.array([1.0]))
    assert sol.iterations >= 1
    assert sol.wall_time >= 0.0


def test_deterministic_iterates():
    def rb(v):
        return [10.0 * (v[1] - v[0] * v[0]), 1.0 - v[0]]

    cost = _block("r", rb, [[0, 1]], 2)
    eq = _block("c", lambda v: [v[0] + v[1] - 1.5], [[0, 1]], 1)
    p = _problem(2, cost=[cost], eq=[eq])
    a = nlp.solve(p, np.array([-1.0, 2.0]))
    b = nlp.solve(p, np.array([-1.0, 2.0]))
    assert np.array_equal(a.x, b.x)
    assert a.objective_value == b.objective_value


def test_x0_dimension_checked():
    p = _problem(2, cost=[_block("r", lambda v: [v[0]], [[0]], 1)])
    with pytest.raises(ValueError):
        nlp.solve(p, np.zeros(3))


@pytest.mark.parametrize("x0", [0.2, np.zeros(3), np.zeros((2, 1))],
                         ids=["scalar", "too_long", "column"])
def test_x0_must_be_a_vector_of_n_vars(x0):
    # checked before the bounds clip would broadcast it
    p = _problem(2, cost=[_block("r", lambda v: [v[0]], [[0]], 1)],
                 lower=[-1.0, -1.0], upper=[1.0, 1.0])
    with pytest.raises(ValueError, match="wrong dimension"):
        nlp.solve(p, x0)


def test_block_rejects_a_repeated_variable():
    with pytest.raises(ValueError, match="repeats"):
        _block("r", lambda v: [v[0] - v[1]], [[0, 1], [2, 2]], 1)


# -- AL Jacobian assembly ---------------------------------------------------


def _coo_al_residuals(problem, lam, mu, rho, free, x):
    """The AL residuals and Jacobian assembled from COO triplets through
    COO -> CSC -> free-column slice -> CSR, the reference for the fixed
    pattern of ``_AlResiduals``."""
    sq = np.sqrt(rho / 2.0)
    res, rows, cols, data = [], [], [], []
    row, off_eq, off_ineq = 0, 0, 0
    for kind, blocks in (("cost", problem.cost_blocks),
                         ("eq", problem.eq_blocks),
                         ("ineq", problem.ineq_blocks)):
        for b in blocks:
            vals, jac = nlp.block_values_and_jac(b, x)
            if kind == "cost":
                res.append(vals.ravel())
            elif kind == "eq":
                lb = lam[off_eq:off_eq + b.size].reshape(vals.shape)
                res.append((sq * (vals + lb / rho)).ravel())
                jac = jac * sq
                off_eq += b.size
            else:
                mb = mu[off_ineq:off_ineq + b.size].reshape(vals.shape)
                shifted = vals + mb / rho
                active = (shifted > 0).astype(float)
                res.append((sq * np.clip(shifted, 0.0, None)).ravel())
                jac = (jac * sq) * active[:, :, None]
                off_ineq += b.size
            batch, m, k = jac.shape
            r = row + np.arange(batch * m).reshape(batch, m, 1)
            rows.append(np.broadcast_to(r, jac.shape).ravel())
            cols.append(np.broadcast_to(b.indices[:, None, :],
                                        jac.shape).ravel())
            data.append(jac.ravel())
            row += b.size
    J = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row, problem.n_vars),
    ).tocsc()[:, free].tocsr()
    return np.concatenate(res), J


def _plant_problems():
    for variant in ("nominal", "sure", "tree"):
        for adapter, kw in ((CartPoleOcp(), {}),
                            (ArmCatchOcp(), dict(x_init=ARM_INIT,
                                                 x_end=ARM_END))):
            cfg = _cfg(variant, **kw)
            problem, layout = getattr(tr, f"build_{variant}")(adapter, cfg)
            yield problem, tr.default_initial_guess(adapter, layout)


@pytest.mark.parametrize("freeze", [False, True])
def test_al_jacobian_is_bit_identical_to_coo_assembly(freeze):
    rng = np.random.default_rng(7)
    n_active = n_inactive = 0
    for problem, x0 in _plant_problems():
        free = problem.lower < problem.upper
        if freeze:
            # as restoration's touched-column freeze: some free columns
            # are held at their current value
            free = free.copy()
            free[np.flatnonzero(free)[::4]] = False
        for scale in (0.0, 0.05):
            x = np.clip(x0 + scale * rng.standard_normal(x0.size),
                        problem.lower, problem.upper)
            lam = rng.standard_normal(problem.n_eq)
            mu = np.abs(rng.standard_normal(problem.n_ineq))
            rho = 100.0
            helper = nlp._AlResiduals(problem, lam, mu, rho, free, x)
            res, J = helper.residuals(x[free]), helper.jac(x[free])
            want_res, want_J = _coo_al_residuals(problem, lam, mu, rho,
                                                 free, x)
            shifted = nlp.eval_constraints(problem.ineq_blocks, x) + mu / rho
            n_active += int(np.sum(shifted > 0))
            n_inactive += int(np.sum(shifted <= 0))
            assert np.array_equal(res, want_res)
            assert J.shape == want_J.shape
            assert np.array_equal(J.indptr, want_J.indptr)
            assert np.array_equal(J.indices, want_J.indices)
            assert np.array_equal(J.data, want_J.data)
            assert np.signbit(J.data).tolist() == \
                np.signbit(want_J.data).tolist()
    # both kinds of inequality rows were exercised
    assert n_active > 0 and n_inactive > 0


def _stored(values, stored):
    """CSR matrix storing ``values`` where ``stored`` is set, explicit
    zeros and -0.0 included."""
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(np.sum(stored, axis=1))])
    return sp.csr_matrix((values[rows, cols], cols, indptr),
                         shape=values.shape)


def _normal_matrices():
    """AL Jacobians of the plants, with all columns free and with every
    fourth one frozen, and small Jacobians with explicit zeros, products
    that cancel to 0, -0.0 products and all-zero columns; each with its
    free mask."""
    rng = np.random.default_rng(5)
    for problem, x0 in _plant_problems():
        lam = rng.standard_normal(problem.n_eq)
        mu = np.abs(rng.standard_normal(problem.n_ineq))
        free = problem.lower < problem.upper
        J = nlp._AlResiduals(problem, lam, mu, 100.0, free, x0).jac(x0[free])
        yield "free", J, np.ones(J.shape[1], dtype=bool)
        frozen = np.ones(J.shape[1], dtype=bool)
        frozen[::4] = False
        yield "frozen", J, frozen
    values = rng.standard_normal((9, 6))
    stored = rng.random((9, 6)) < 0.6
    values[rng.random((9, 6)) < 0.3] = 0.0
    yield "explicit_zeros", _stored(values, stored), np.ones(6, dtype=bool)
    # columns 0 and 1: 1*1 + 1*(-1) + 0*2 cancels, so (0, 1) is dropped
    values = np.array([[1.0, 1.0, 3.0], [1.0, -1.0, 0.0], [0.0, 2.0, 1.0]])
    yield "cancel", _stored(values, np.ones((3, 3), bool)), np.ones(3, bool)
    # every product with column 0 is -0.0 or +0.0
    values = np.array([[-0.0, 2.0, 1.0], [0.0, -3.0, 1.0], [-0.0, -1.0, 2.0]])
    yield "negative_zero", _stored(values, np.ones((3, 3), bool)), \
        np.ones(3, bool)
    # column 2 stores only zeros, column 4 stores nothing
    values = rng.standard_normal((8, 6))
    values[:, 2] = 0.0
    stored = rng.random((8, 6)) < 0.6
    stored[:, 2], stored[:, 4] = True, False
    free = np.array([True, True, True, False, True, True])
    yield "zero_column", _stored(values, stored), free


def _assert_normal_equations_match_scipy(J, free, r):
    """The plan's damped normal matrix against scipy's product and sum,
    damped as ``_bounded_lm`` damps it, and the step's right-hand side
    against ``-(Jf.T @ r)``, byte for byte, for several dampings."""
    Jf = J.tocsc()[:, free]
    A_want = (Jf.T @ Jf).tocsc()
    d_want = np.maximum(A_want.diagonal(), 1e-10)
    A, diag = nlp._NormalPlan(J.indptr, J.indices,
                              J.shape[1]).normal_matrix(J.data, free)
    a = A.data[diag]
    d = np.maximum(a, 1e-10)
    assert d.tobytes() == d_want.tobytes()
    for sigma in (1e-14, 1e-5, 0.37, 2e3, 1e9):
        A.data[diag] = a + sigma * d
        want = (A_want + sp.diags(sigma * d_want)).tocsc()
        assert A.shape == want.shape
        for name in ("data", "indices", "indptr"):
            got, exp = getattr(A, name), getattr(want, name)
            assert got.dtype == exp.dtype, name
            assert got.tobytes() == exp.tobytes(), name
    rhs = -(J.T @ r)[free]
    assert rhs.tobytes() == (-(Jf.T @ r)).tobytes()


def test_damped_normal_matrix_is_bit_identical_to_scipy_sum():
    rng = np.random.default_rng(11)
    kinds = set()
    for kind, J, free in _normal_matrices():
        _assert_normal_equations_match_scipy(
            J, free, rng.standard_normal(J.shape[0]))
        kinds.add(kind)
    assert kinds == {"free", "frozen", "explicit_zeros", "cancel",
                     "negative_zero", "zero_column"}


# a few values whose products cancel or are signed zeros, and any others
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                     st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_damped_normal_matrix_matches_scipy_on_any_pattern(data):
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 7))
    stored = data.draw(hnp.arrays(bool, (m, n)))
    values = data.draw(hnp.arrays(float, (m, n), elements=_ENTRIES))
    free = data.draw(hnp.arrays(bool, n).filter(np.any))
    r = data.draw(hnp.arrays(float, m, elements=_ENTRIES))
    _assert_normal_equations_match_scipy(_stored(values, stored), free, r)


def test_al_jacobian_survives_evaluating_another_point():
    problem, x0 = next(_plant_problems())
    rng = np.random.default_rng(2)
    free = problem.lower < problem.upper
    helper = nlp._AlResiduals(problem, rng.standard_normal(problem.n_eq),
                              np.abs(rng.standard_normal(problem.n_ineq)),
                              100.0, free, x0)
    z = x0[free]
    J = helper.jac(z)
    kept = [J.data.copy(), J.indices.copy(), J.indptr.copy()]
    other = np.clip(z + 0.1 * rng.standard_normal(z.size),
                    problem.lower[free], problem.upper[free])
    helper.residuals(other)
    assert helper.jac(other).data.tobytes() != kept[0].tobytes()
    for got, want in zip((J.data, J.indices, J.indptr), kept):
        assert got.tobytes() == want.tobytes()


# -- determinism ------------------------------------------------------------


def _benchmark_config(variant):
    """The benchmark's cart-pole condition 0 at N=30 as a ``variant``
    config, and the plant adapter."""
    run = config.load_config(None)
    adapter, _, _ = config.build_plant(run)
    cfg = config.transcription_config(
        run, variant, run.conditions[0], bench.X_END, N=30, dt_max=0.1,
        k_first=9, k_last=11, n_rejoin=4, n_branch_full=18)
    return adapter, cfg


def _short_solve(adapter, cfg):
    problem, layout = tr.build(adapter, cfg)
    return nlp.solve(problem, tr.default_initial_guess(adapter, layout),
                     nlp.SolverOpts(max_outer=1, max_inner=5))


def _recorded(name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path) as fh:
        return json.load(fh)


def _assert_matches(sol, recorded):
    assert sol.inner_iterations == recorded["inner_iterations"]
    assert sol.objective_value == recorded["objective_value"]
    assert sol.x.tolist() == recorded["x"]


def test_short_solve_matches_recorded_bit_for_bit(monkeypatch):
    # A short solve of the benchmark's cart-pole nominal stage (N=30) from
    # the default guess: restoration plus one outer iteration.  The solver
    # does not absorb a 1-ulp change in its arithmetic, so the iterate,
    # the evaluation count and the objective are compared exactly.  Its
    # restoration runs both trf passes, so the record also covers the
    # unit-scaled pass, and both passes get the CSR Jacobian.
    passes = []
    least_squares = nlp.least_squares

    def counted(fun, z0, jac, **kwargs):
        passes.append((kwargs["x_scale"], type(jac(z0))))
        return least_squares(fun, z0, jac=jac, **kwargs)

    monkeypatch.setattr(nlp, "least_squares", counted)
    adapter, cfg = _benchmark_config("sure")
    sol = _short_solve(adapter, pipeline.nominal_stage_config(cfg))
    _assert_matches(sol, _recorded("short_nominal_solve.json"))
    assert passes == [("jac", sp.csr_matrix), (1.0, sp.csr_matrix)]


def _feasibility_problem():
    """The residuals and Jacobian of the restoration on the short solve's
    problem, the benchmark's nominal stage from the default guess, with
    the start and bounds of its free variables."""
    adapter, cfg = _benchmark_config("sure")
    problem, layout = tr.build(adapter, pipeline.nominal_stage_config(cfg))
    x = np.clip(tr.default_initial_guess(adapter, layout), problem.lower,
                problem.upper)
    free = problem.lower < problem.upper
    feas = dataclasses.replace(problem, cost_blocks=[])
    helper = nlp._AlResiduals(feas, np.zeros(problem.n_eq),
                              np.zeros(problem.n_ineq), 2.0, free, x)
    return helper, x[free], (problem.lower[free], problem.upper[free])


@pytest.mark.parametrize("variant", ["sure", "tree"])
def test_short_branched_solve_matches_recorded_bit_for_bit(variant):
    # The same short solve on the benchmark's branched problems, whose
    # Jacobians add branch, rejoin and inequality rows.
    sol = _short_solve(*_benchmark_config(variant))
    _assert_matches(sol, _recorded("short_branched_solves.json")[variant])


# -- imports ----------------------------------------------------------------


_NO_OPTIMIZE_SCRIPT = """
import sys

from branchopt import (bench, cli, config, control, nlp, pipeline,
                       simulation, transcription)
from branchopt.plants import arm_ocp, cartpole_ocp
import workloads

workloads.setup_rollouts()
assert "scipy.optimize" not in sys.modules, "loaded without a solve"

run = config.load_config(None)
adapter, _, _ = config.build_plant(run)
cfg = pipeline.nominal_stage_config(config.transcription_config(
    run, "sure", run.conditions[0], bench.X_END, N=30, dt_max=0.1,
    k_first=9, k_last=11, n_rejoin=4, n_branch_full=18))
problem, layout = transcription.build(adapter, cfg)
nlp.solve(problem, transcription.default_initial_guess(adapter, layout),
          nlp.SolverOpts(max_outer=1, max_inner=5))
assert "scipy.optimize" not in sys.modules, "the solve loaded it"
"""


def test_scipy_optimize_is_never_imported():
    # A fresh interpreter: this one may already hold scipy.optimize.
    # Importing the program, setting up the rollouts and a short solve,
    # restoration included, must not load it (0.23 s and 17 MB): the
    # restoration runs branchopt.trf, and scipy.optimize is the tests'
    # oracle only.
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _NO_OPTIMIZE_SCRIPT],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

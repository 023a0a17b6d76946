"""Augmented-Lagrangian solver on small problems with known solutions."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse._base import _spbase

from branchopt import bench, config, nlp, pipeline
from branchopt import transcription as tr
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp

import record
from test_transcription import ARM_END, ARM_INIT, _cfg


def _problem(n, cost=(), eq=(), ineq=(), lower=None, upper=None):
    return nlp.NlpProblem(
        lower=np.full(n, -np.inf) if lower is None else np.asarray(lower, float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, float),
        cost_blocks=list(cost),
        eq_blocks=list(eq),
        ineq_blocks=list(ineq),
    )


def _block(name, fun, indices):
    return nlp.Block(name, fun, np.asarray(indices, dtype=int))


def test_equality_constrained_quadratic_kkt_oracle():
    # min x^2 + y^2  s.t. x + y = 1.
    # Oracle (Lagrangian stationarity, derived by hand, not quoted):
    #   2x + lam = 0, 2y + lam = 0, x + y = 1  =>  x = y = 1/2, lam = -1.
    cost = _block("r", lambda v: [v[0], v[1]], [[0, 1]])
    eq = _block("c", lambda v: [v[0] + v[1] - 1.0], [[0, 1]])
    p = _problem(2, cost=[cost], eq=[eq])
    sol = nlp.solve(p, np.array([3.0, -2.0]))
    assert sol.status == "converged"
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-6)
    assert sol.multipliers_eq[0] == pytest.approx(-1.0, abs=1e-4)
    assert sol.objective_value == pytest.approx(0.5, abs=1e-5)


def test_kkt_residual_zero_at_optimum():
    cost = _block("r", lambda v: [v[0], v[1]], [[0, 1]])
    eq = _block("c", lambda v: [v[0] + v[1] - 1.0], [[0, 1]])
    p = _problem(2, cost=[cost], eq=[eq])
    kkt = nlp.kkt_residual(p, np.array([0.5, 0.5]), np.array([-1.0]),
                           np.zeros(0))
    assert kkt.stationarity == pytest.approx(0.0, abs=1e-10)
    assert kkt.eq_viol == pytest.approx(0.0, abs=1e-12)


def test_inequality_active_at_solution():
    # min (x-2)^2 s.t. x <= 1 -> x* = 1, mu* = 2(2-1) = 2
    cost = _block("r", lambda v: [v[0] - 2.0], [[0]])
    ineq = _block("g", lambda v: [v[0] - 1.0], [[0]])
    p = _problem(1, cost=[cost], ineq=[ineq])
    sol = nlp.solve(p, np.array([5.0]))
    assert sol.status == "converged"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.multipliers_ineq[0] == pytest.approx(2.0, abs=1e-3)


def test_inactive_inequality_has_zero_multiplier():
    cost = _block("r", lambda v: [v[0] - 0.25], [[0]])
    ineq = _block("g", lambda v: [v[0] - 1.0], [[0]])
    p = _problem(1, cost=[cost], ineq=[ineq])
    sol = nlp.solve(p, np.array([0.9]))
    assert sol.status == "converged"
    assert sol.x[0] == pytest.approx(0.25, abs=1e-6)
    assert sol.multipliers_ineq[0] == pytest.approx(0.0, abs=1e-6)


def test_bounds_are_respected():
    # min (x+3)^2 with x in [-1, 5]
    cost = _block("r", lambda v: [v[0] + 3.0], [[0]])
    p = _problem(1, cost=[cost], lower=[-1.0], upper=[5.0])
    sol = nlp.solve(p, np.array([4.0]))
    assert sol.x[0] == pytest.approx(-1.0, abs=1e-8)


def test_fixed_variables_are_pinned():
    cost = _block("r", lambda v: [v[0] - 7.0, v[1]], [[0, 1]])
    p = _problem(2, cost=[cost], lower=[2.0, -10], upper=[2.0, 10])
    sol = nlp.solve(p, np.array([2.0, 5.0]))
    assert sol.x[0] == 2.0
    assert sol.x[1] == pytest.approx(0.0, abs=1e-8)


def test_rosenbrock_valley_unconstrained():
    def rb(v):
        return [10.0 * (v[1] - v[0] * v[0]), 1.0 - v[0]]

    cost = _block("r", rb, [[0, 1]])
    p = _problem(2, cost=[cost])
    sol = nlp.solve(p, np.array([-1.2, 1.0]))
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-6)


def test_batched_block_matches_loop():
    # sum_i (x_i - i)^2 with one batched block; the targets are fixed
    # variables, since a recorded constant is one number
    n = 6
    idx = np.column_stack([np.arange(n), n + np.arange(n)])
    target = np.arange(n, dtype=float)
    cost = _block("r", lambda v: [v[0] - v[1]], idx)
    p = _problem(2 * n, cost=[cost],
                 lower=np.r_[np.full(n, -np.inf), target],
                 upper=np.r_[np.full(n, np.inf), target])
    sol = nlp.solve(p, np.r_[np.zeros(n), target])
    assert sol.x[:n] == pytest.approx(target, abs=1e-8)


def test_nonconvex_equality_circle():
    # min (x-2)^2 + y^2 s.t. x^2 + y^2 = 1 -> (1, 0)
    cost = _block("r", lambda v: [v[0] - 2.0, v[1]], [[0, 1]])
    eq = _block("c", lambda v: [v[0] * v[0] + v[1] * v[1] - 1.0], [[0, 1]])
    p = _problem(2, cost=[cost], eq=[eq])
    sol = nlp.solve(p, np.array([0.1, 0.9]))
    assert sol.status == "converged"
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-5)


def test_restoration_of_one_free_variable():
    # min x^2 s.t. x^3 = 2 in [-100, 100] from x0 = 0.01: restoration
    # starts far from feasibility with a single free variable, which
    # trf's two-dimensional trust-region subproblem cannot take
    cost = _block("r", lambda v: [v[0]], [[0]])
    eq = _block("c", lambda v: [v[0] * v[0] * v[0] - 2.0], [[0]])
    p = _problem(1, cost=[cost], eq=[eq], lower=[-100.0], upper=[100.0])
    sol = nlp.solve(p, np.array([0.01]))
    assert sol.status == "converged"
    assert sol.x[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-6)


def test_restoration_freezes_the_columns_no_constraint_moves():
    # x0 * x1 = 1 from (2, 0, 3): the constraint's entry for x0 is
    # x1 = 0, stored as an explicit zero, and none touches x2, so the
    # restoration moves x1 alone
    eq = _block("c", lambda v: [v[0] * v[1] - 1.0], [[0, 1]])
    p = _problem(3, eq=[eq], lower=[-10.0] * 3, upper=[10.0] * 3)
    x, _ = nlp._restoration(p, np.array([2.0, 0.0, 3.0]), nlp.SolverOpts())
    assert x[[0, 2]].tolist() == [2.0, 3.0]
    assert x[1] == pytest.approx(0.5, abs=1e-9)


def test_infeasible_problem_reports_infeasible():
    eq1 = _block("a", lambda v: [v[0] - 1.0], [[0]])
    eq2 = _block("b", lambda v: [v[0] + 1.0], [[0]])
    p = _problem(1, eq=[eq1, eq2])
    sol = nlp.solve(p, np.array([0.0]), nlp.SolverOpts(max_outer=20))
    assert sol.status != "converged"
    assert max(sol.kkt.eq_viol, 0.0) > 1e-3


def test_solution_reports_iteration_and_time():
    cost = _block("r", lambda v: [v[0]], [[0]])
    p = _problem(1, cost=[cost])
    sol = nlp.solve(p, np.array([1.0]))
    assert sol.iterations >= 1
    assert sol.wall_time >= 0.0


def test_deterministic_iterates():
    def rb(v):
        return [10.0 * (v[1] - v[0] * v[0]), 1.0 - v[0]]

    cost = _block("r", rb, [[0, 1]])
    eq = _block("c", lambda v: [v[0] + v[1] - 1.5], [[0, 1]])
    p = _problem(2, cost=[cost], eq=[eq])
    a = nlp.solve(p, np.array([-1.0, 2.0]))
    b = nlp.solve(p, np.array([-1.0, 2.0]))
    assert np.array_equal(a.x, b.x)
    assert a.objective_value == b.objective_value


def test_x0_dimension_checked():
    p = _problem(2, cost=[_block("r", lambda v: [v[0]], [[0]])])
    with pytest.raises(ValueError):
        nlp.solve(p, np.zeros(3))


@pytest.mark.parametrize("x0", [0.2, np.zeros(3), np.zeros((2, 1))],
                         ids=["scalar", "too_long", "column"])
def test_x0_must_be_a_vector_of_n_vars(x0):
    # checked before the bounds clip would broadcast it
    p = _problem(2, cost=[_block("r", lambda v: [v[0]], [[0]])],
                 lower=[-1.0, -1.0], upper=[1.0, 1.0])
    with pytest.raises(ValueError, match="wrong dimension"):
        nlp.solve(p, x0)


def test_problem_takes_its_size_from_bounds_of_one_length():
    assert _problem(3).n_vars == 3
    with pytest.raises(ValueError, match="vectors of one length"):
        nlp.NlpProblem(lower=np.zeros(3), upper=np.ones(1), cost_blocks=[],
                       eq_blocks=[], ineq_blocks=[])


@pytest.mark.parametrize("lower, upper", [([1.0, 0.0], [0.0, 1.0]),
                                          ([math.nan, 0.0], [1.0, math.nan]),
                                          ([0.0], [math.nan])],
                         ids=["reversed", "nan_each_side", "nan_upper"])
def test_problem_rejects_bounds_that_are_not_ordered(lower, upper):
    # a NaN bound compares False both ways: it used to load, and the
    # solver then took the variable as fixed at NaN
    with pytest.raises(ValueError, match="lower <= upper"):
        _problem(len(lower), lower=lower, upper=upper)


def test_block_rejects_a_repeated_variable():
    with pytest.raises(ValueError, match="repeats"):
        _block("r", lambda v: [v[0] - v[1]], [[0, 1], [2, 2]])


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
            vals, jac = nlp.block_outputs(b, x)
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


def _assert_al_matches_coo(problem, lam, mu, rho, free, x):
    """``_AlResiduals`` at x against the COO assembly, byte for byte and
    sign bit for sign bit; returns its helper."""
    helper = nlp._AlResiduals(nlp._AlPlan(problem, free), lam, mu, rho, x)
    res, J = helper.residuals(x[free]), helper.jac(x[free])
    want_res, want_J = _coo_al_residuals(problem, lam, mu, rho, free, x)
    assert np.array_equal(res, want_res)
    assert J.shape == want_J.shape
    assert np.array_equal(J.indptr, want_J.indptr)
    assert np.array_equal(J.indices, want_J.indices)
    assert np.array_equal(J.data, want_J.data)
    assert np.signbit(J.data).tolist() == np.signbit(want_J.data).tolist()
    return helper


@pytest.mark.parametrize("freeze", [False, True])
def test_al_jacobian_is_bit_identical_to_coo_assembly(freeze):
    rng = np.random.default_rng(7)
    n_active = n_inactive = n_untouched = 0
    for problem, x0 in _plant_problems():
        free = problem.lower < problem.upper
        if freeze:
            # as the LM loop's bound freeze: some free columns are held
            # at their current value
            free = free.copy()
            free[np.flatnonzero(free)[::4]] = False
        feas = dataclasses.replace(problem, cost_blocks=[])
        for scale in (0.0, 0.05):
            x = np.clip(x0 + scale * rng.standard_normal(x0.size),
                        problem.lower, problem.upper)
            lam = rng.standard_normal(problem.n_eq)
            mu = np.abs(rng.standard_normal(problem.n_ineq))
            rho = 100.0
            _assert_al_matches_coo(problem, lam, mu, rho, free, x)
            shifted = nlp.eval_constraints(problem.ineq_blocks, x) + mu / rho
            n_active += int(np.sum(shifted > 0))
            n_inactive += int(np.sum(shifted <= 0))
            # the restoration's cost-free problem, before and after its
            # freeze of the columns that no constraint touches
            zeros = (np.zeros(problem.n_eq), np.zeros(problem.n_ineq))
            J0 = _assert_al_matches_coo(feas, *zeros, 2.0, free, x).jac(
                x[free])
            touched = np.zeros(J0.shape[1], dtype=bool)
            touched[J0.indices[J0.data != 0]] = True
            if not np.all(touched):
                sub = free.copy()
                sub[np.flatnonzero(free)[~touched]] = False
                _assert_al_matches_coo(feas, *zeros, 2.0, sub, x)
                n_untouched += 1
    # both kinds of inequality rows were exercised, and the touched-column
    # freeze
    assert n_active > 0 and n_inactive > 0
    assert n_untouched > 0


def _csr(J):
    """scipy's CSR matrix on the arrays of a solver Jacobian."""
    return sp.csr_matrix((J.data, J.indices, J.indptr), shape=J.shape)


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
        J = _csr(nlp._AlResiduals(nlp._AlPlan(problem, free), lam, mu,
                                  100.0, x0).jac(x0[free]))
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


def _assert_normal_equations_match_scipy(
        J, free, r, plan=None, sigmas=(1e-14, 1e-5, 0.37, 2e3, 1e9)):
    """The CSC arrays of the damped normal matrix of ``plan`` (by default
    a new plan of J's pattern) against those of scipy's product and sum,
    damped as ``_bounded_lm`` damps it, and the step's right-hand side
    against ``-(Jf.T @ r)``, byte for byte, for each damping of
    ``sigmas``."""
    if plan is None:
        plan = nlp._NormalPlan(J.indptr, J.indices, J.shape[1])
    Jf = J.tocsc()[:, free]
    A_want = (Jf.T @ Jf).tocsc()
    d_want = np.maximum(A_want.diagonal(), 1e-10)
    A, diag = plan.normal_matrix(J.data, free)
    a = A[0][diag]
    d = np.maximum(a, 1e-10)
    assert d.tobytes() == d_want.tobytes()
    for sigma in sigmas:
        A[0][diag] = a + sigma * d
        want = (A_want + sp.diags(sigma * d_want)).tocsc()
        assert (A[2].size - 1,) * 2 == want.shape
        for name, got in zip(("data", "indices", "indptr"), A):
            exp = getattr(want, name)
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


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_one_normal_plan_matches_scipy_through_any_mask_sequence(data):
    # one plan, as the LM loop uses it: each step draws new values on the
    # pattern, so exact zeros come and go, and a free mask that is either
    # one already used (the plan's kept layout, or an older one) or new
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 7))
    stored = data.draw(hnp.arrays(bool, (m, n)))
    J = _stored(np.ones((m, n)), stored)
    plan = nlp._NormalPlan(J.indptr, J.indices, n)
    masks = []
    for _ in range(data.draw(st.integers(2, 8))):
        pick = data.draw(st.integers(0, len(masks)))
        if pick == len(masks):
            masks.append(data.draw(hnp.arrays(bool, n).filter(np.any)))
        J.data = data.draw(hnp.arrays(float, J.nnz, elements=_ENTRIES))
        _assert_normal_equations_match_scipy(J, masks[pick], np.ones(m),
                                             plan, sigmas=(0.37,))


def _damped_normal_matrix(plan, data, free, sigma):
    """The normal matrix's arrays, damped as ``_bounded_lm`` damps it."""
    A, diag = plan.normal_matrix(data, free)
    A[0][diag] += sigma * np.maximum(A[0][diag], 1e-10)
    return A


def _assert_solve_is_scipys(plan, A, b):
    """``plan.solve(A, b)`` against ``spla.factorized(A)(b)``, byte for
    byte; when scipy finds A exactly singular, the plan raises too and
    keeps the pattern it had.  Returns whether the plan raised."""
    n = A[2].size - 1
    kept = plan._pattern
    try:
        want = spla.factorized(sp.csc_matrix(A, shape=(n, n)))(b)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            plan.solve(A, b)
        assert plan._pattern == kept
        return True
    got = plan.solve(A, b)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # the last pattern that factored is the one kept
    assert plan._pattern == (A[2].tobytes(), A[1].tobytes())
    return False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normal_plan_solve_is_scipys_through_hits_and_misses(data):
    # one plan through a sequence of normal matrices, as the LM loop
    # makes them: each step draws new continuous values on J's pattern
    # (some exact zeros, so the normal matrix's pattern changes or not)
    # or keeps the last ones, a used or new free mask, and one to three
    # dampings; the first solve on a new pattern is a miss and the
    # others hit the kept column order.  Continuous values keep the
    # pivot candidates from tying in magnitude.
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 8))
    stored = data.draw(hnp.arrays(bool, (m, n)))
    J = _stored(np.ones((m, n)), stored)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    plan = nlp._NormalPlan(J.indptr, J.indices, n)
    masks = [np.ones(n, dtype=bool)]
    for _ in range(data.draw(st.integers(1, 6))):
        pick = data.draw(st.integers(0, len(masks)))
        if pick == len(masks):
            masks.append(data.draw(hnp.arrays(bool, n).filter(np.any)))
        if data.draw(st.booleans()):
            J.data = rng.standard_normal(J.nnz) * 10.0 ** rng.uniform(
                -3, 3, J.nnz)
            J.data[rng.random(J.nnz) < 0.2] = 0.0
        sigmas = data.draw(st.lists(st.sampled_from(
            [1e-14, 1e-5, 0.37, 2e3]), min_size=1, max_size=3))
        b = rng.standard_normal(np.count_nonzero(masks[pick]))
        for sigma in sigmas:
            _assert_solve_is_scipys(
                plan, _damped_normal_matrix(plan, J.data, masks[pick], sigma),
                b)


def test_normal_plan_raises_on_an_exactly_singular_matrix():
    # J = [1, 1] makes [[1, 1], [1, 1]], and a damping below one ulp of
    # the diagonal leaves it exactly singular: the plan raises as
    # spla.factorized does, so _bounded_lm's retry with a larger sigma
    # still runs, both when the pattern is new and when it is kept
    J = sp.csr_matrix(np.ones((1, 2)))
    plan = nlp._NormalPlan(J.indptr, J.indices, 2)
    free = np.ones(2, dtype=bool)
    b = np.array([1.0, -1.0])
    singular = _damped_normal_matrix(plan, J.data, free, 1e-17)
    assert singular[0].tolist() == [1.0, 1.0, 1.0, 1.0]
    # a miss that raises keeps no column order
    assert _assert_solve_is_scipys(plan, singular, b)
    assert plan._pattern is None
    assert not _assert_solve_is_scipys(
        plan, _damped_normal_matrix(plan, J.data, free, 1.0), b)
    # a hit
    assert _assert_solve_is_scipys(plan, singular, b)
    assert not _assert_solve_is_scipys(
        plan, _damped_normal_matrix(plan, J.data, free, 0.5), b)


def test_natural_lu_is_splus_natural_order():
    # the hit path calls SuperLU's gstrf directly, with the options of
    # splu(B, permc_spec="NATURAL"); a scipy whose splu calls it
    # otherwise fails here.  B: damped normal matrices of the plants and
    # the small cases, their columns in COLAMD's final order and in a
    # random one
    rng = np.random.default_rng(3)
    for _, J, free in _normal_matrices():
        plan = nlp._NormalPlan(J.indptr, J.indices, J.shape[1])
        n = int(np.count_nonzero(free))
        A = sp.csc_matrix(_damped_normal_matrix(plan, J.data, free, 1e-5),
                          shape=(n, n))
        b = rng.standard_normal(n)
        for order in (np.argsort(spla.splu(A).perm_c), rng.permutation(n)):
            B = A[:, order].tocsc()
            indices, indptr = B.indices.astype(np.intc), B.indptr.astype(
                np.intc)
            got = nlp._natural_lu(B.data, indices, indptr)
            want = spla.splu(B, permc_spec="NATURAL")
            for name in ("perm_r", "perm_c"):
                assert (getattr(got, name).tobytes()
                        == getattr(want, name).tobytes()), name
            for factor in ("L", "U"):
                for name in ("data", "indices", "indptr"):
                    g = getattr(getattr(got, factor), name)
                    w = getattr(getattr(want, factor), name)
                    assert g.dtype == w.dtype, (factor, name)
                    assert g.tobytes() == w.tobytes(), (factor, name)
            assert got.solve(b).tobytes() == want.solve(b).tobytes()


def test_al_jacobian_survives_evaluating_another_point():
    problem, x0 = next(_plant_problems())
    rng = np.random.default_rng(2)
    free = problem.lower < problem.upper
    helper = nlp._AlResiduals(nlp._AlPlan(problem, free),
                              rng.standard_normal(problem.n_eq),
                              np.abs(rng.standard_normal(problem.n_ineq)),
                              100.0, x0)
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
    """A short solve from the default guess, as its record keeps it: the
    iterate, both multiplier vectors, the objective, the four KKT
    residuals (whose stationarity sums every block's scattered
    Jacobian-transpose products) and the iteration counts."""
    problem, layout = tr.build(adapter, cfg)
    sol = nlp.solve(problem, tr.default_initial_guess(adapter, layout),
                    nlp.SolverOpts(max_outer=1, max_inner=5))
    return {"x": sol.x.tolist(), "inner_iterations": sol.inner_iterations,
            "objective_value": sol.objective_value,
            "multipliers_eq": sol.multipliers_eq.tolist(),
            "multipliers_ineq": sol.multipliers_ineq.tolist(),
            "kkt": dataclasses.asdict(sol.kkt),
            "iterations": sol.iterations}


def short_nominal_solve():
    adapter, cfg = _benchmark_config("sure")
    return _short_solve(adapter, pipeline.nominal_stage_config(cfg))


def record_short_solves():
    return {"short_nominal_solve.json": short_nominal_solve(),
            "short_branched_solves.json": {
                variant: _short_solve(*_benchmark_config(variant))
                for variant in ("sure", "tree")}}


def test_short_solve_matches_recorded_bit_for_bit(monkeypatch):
    # A short solve of the benchmark's cart-pole nominal stage (N=30) from
    # the default guess: restoration plus one outer iteration.  The solver
    # does not absorb a 1-ulp change in its arithmetic, so the iterate,
    # the evaluation count and the objective are compared exactly.  Its
    # restoration runs both trf passes, so the record also covers the
    # unit-scaled pass, and both passes get the CSR Jacobian's arrays.
    passes = []
    least_squares = nlp.least_squares

    def counted(fun, z0, jac, **kwargs):
        passes.append((kwargs["x_scale"], type(jac(z0))))
        return least_squares(fun, z0, jac=jac, **kwargs)

    monkeypatch.setattr(nlp, "least_squares", counted)
    assert short_nominal_solve() == record.load("short_nominal_solve.json")
    assert passes == [("jac", nlp._CsrJacobian), (1.0, nlp._CsrJacobian)]


def test_solver_products_skip_scipys_sparse_dispatch(monkeypatch):
    # The same short solve, with scipy's sparse `@` counted: trf and the
    # LM loop multiply by their CSR Jacobians through the compiled
    # kernels that `@` ends in (trf.matvec and trf.rmatvec), so no
    # product of theirs pays for its Python dispatch.
    entered, open_calls, reached = set(), [], []
    matmul = _spbase.__matmul__

    def counted_matmul(self, other):
        if open_calls:
            reached.append(open_calls[-1])
        return matmul(self, other)

    def traced(name, fn):
        def call(*args, **kwargs):
            entered.add(name)
            open_calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()
        return call

    monkeypatch.setattr(_spbase, "__matmul__", counted_matmul)
    monkeypatch.setattr(nlp, "least_squares",
                        traced("trf", nlp.least_squares))
    monkeypatch.setattr(nlp, "_bounded_lm",
                        traced("_bounded_lm", nlp._bounded_lm))
    short_nominal_solve()
    assert entered == {"trf", "_bounded_lm"}
    assert reached == []


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
    helper = nlp._AlResiduals(nlp._AlPlan(feas, free), np.zeros(problem.n_eq),
                              np.zeros(problem.n_ineq), 2.0, x)
    return helper, x[free], (problem.lower[free], problem.upper[free])


@pytest.mark.parametrize("variant", ["sure", "tree"])
def test_short_branched_solve_matches_recorded_bit_for_bit(variant):
    # The same short solve on the benchmark's branched problems, whose
    # Jacobians add branch, rejoin and inequality rows.
    assert (_short_solve(*_benchmark_config(variant))
            == record.load("short_branched_solves.json")[variant])


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

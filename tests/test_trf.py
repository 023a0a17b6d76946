"""The restoration's trust-region reflective solver (``branchopt.trf``)
against scipy's ``least_squares(method="trf", tr_solver="lsmr")``, the
code it ports: the same ``x`` bytes, ``nfev`` and ``status``."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import least_squares as scipy_least_squares

from branchopt import trf

from test_nlp import _ENTRIES, _csr, _feasibility_problem, _stored


class _Quadratic:
    """Residuals ``r_i(x) = sum_j A_ij x_j + B_ij x_j**2 - y_i`` over a
    fixed CSR pattern, whose Jacobian stores every pattern entry, zero or
    not."""

    def __init__(self, stored, A, B, y):
        self.A, self.B, self.y = A * stored, B * stored, y
        self.rows, self.cols = np.nonzero(stored)
        self.indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
        self.shape = stored.shape

    def residuals(self, x):
        return (self.A * x + self.B * x * x).sum(axis=1) - self.y

    def jac(self, x):
        values = self.A + 2.0 * self.B * x
        return sp.csr_matrix((values[self.rows, self.cols], self.cols,
                              self.indptr), shape=self.shape)


def _random_case(seed, empty_row, empty_col, on_bound, unbounded=False):
    """A small problem, its start, bounds and solver settings; bounded
    unless ``unbounded``, which makes every bound infinite."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 6))
    stored = rng.random((m, n)) < 0.7
    if empty_row:
        stored[rng.integers(m)] = False
    if empty_col:
        stored[:, rng.integers(n)] = False
    A = rng.standard_normal((m, n))
    B = 0.5 * rng.standard_normal((m, n))
    # explicit zeros: stored entries whose value is 0.0
    A[rng.random((m, n)) < 0.2] = 0.0
    B[rng.random((m, n)) < 0.3] = 0.0
    problem = _Quadratic(stored, A, B, rng.standard_normal(m))
    lb = np.where(rng.random(n) < 0.7, rng.uniform(-2.0, 0.0, n), -np.inf)
    ub = np.where(rng.random(n) < 0.7, rng.uniform(0.1, 2.0, n), np.inf)
    if unbounded:
        lb[:], ub[:] = -np.inf, np.inf
    elif np.isinf(lb[0]) and np.isinf(ub[0]):
        lb[0] = -1.0
    x0 = rng.uniform(np.maximum(lb, -3.0), np.minimum(ub, 3.0))
    if on_bound:
        finite = np.flatnonzero(np.isfinite(lb))
        x0[finite[: 1 + len(finite) // 2]] = lb[finite[: 1 + len(finite) // 2]]
        finite = np.flatnonzero(np.isfinite(ub))
        x0[finite[len(finite) // 2:]] = ub[finite[len(finite) // 2:]]
    tols = [1e-14, 1e-10, 1e-6, 1e-3]
    kwargs = dict(bounds=(lb, ub), max_nfev=int(rng.integers(2, 40)),
                  ftol=tols[rng.integers(4)], xtol=tols[rng.integers(4)],
                  gtol=tols[rng.integers(4)])
    return problem, x0, kwargs


def _assert_same_as_scipy(fun, jac, x0, x_scale, **kwargs):
    want = scipy_least_squares(fun, x0, jac=lambda x: _csr(jac(x)),
                               method="trf", tr_solver="lsmr",
                               x_scale=x_scale, **kwargs)
    got = trf.least_squares(fun, x0, jac=jac, x_scale=x_scale, **kwargs)
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.nfev, got.status) == (want.nfev, want.status)
    return got


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), empty_row=st.booleans(),
       empty_col=st.booleans(), on_bound=st.booleans(),
       unbounded=st.booleans(), x_scale=st.sampled_from(["jac", 1.0]))
def test_trf_is_scipys_bit_for_bit(seed, empty_row, empty_col, on_bound,
                                   unbounded, x_scale):
    problem, x0, kwargs = _random_case(seed, empty_row, empty_col, on_bound,
                                       unbounded)
    _assert_same_as_scipy(problem.residuals, problem.jac, x0, x_scale,
                          **kwargs)


def _counting(monkeypatch):
    """Counts of the port's statuses, reflected steps and ``np.roots``
    solves of the 2-D trust-region problem."""
    seen = {"status": set(), "reflected": 0, "roots": 0}
    select_step, solve_2d = trf._select_step, trf._solve_trust_region_2d

    def counted_select_step(x, J_h, diag_h, g_h, p, *args):
        step, step_h, value = select_step(x, J_h, diag_h, g_h, p, *args)
        # the trust-region step returns p itself and the Cauchy step a
        # multiple of -g_h; anything else is the reflected step
        cauchy = abs(np.dot(step_h, g_h)) == pytest.approx(
            np.linalg.norm(step_h) * np.linalg.norm(g_h), rel=1e-12)
        seen["reflected"] += step is not p and not cauchy
        return step, step_h, value

    def counted_solve_2d(B, g, Delta):
        p, newton = solve_2d(B, g, Delta)
        seen["roots"] += not newton
        return p, newton

    monkeypatch.setattr(trf, "_select_step", counted_select_step)
    monkeypatch.setattr(trf, "_solve_trust_region_2d", counted_solve_2d)
    return seen


# cases of _random_case (seed, empty row, empty column, start on a
# bound, unbounded) and x_scale that, between them, stop on statuses 0,
# 2, 3 and 4 and take reflected and np.roots steps; status 4 is rare,
# about 1 random problem in 40; the last case has no bounds
_COVERING = [((0, True, True, True, False), "jac"),
             ((2, True, False, True, False), "jac"),
             ((4, True, False, False, False), "jac"),
             ((58, True, False, True, False), "jac"),
             ((29, False, False, False, True), 1.0)]


def test_trf_cases_reach_every_status_reflection_and_roots(monkeypatch):
    seen = _counting(monkeypatch)
    for case, x_scale in _COVERING:
        problem, x0, kwargs = _random_case(*case)
        res = _assert_same_as_scipy(problem.residuals, problem.jac, x0,
                                    x_scale, **kwargs)
        seen["status"].add(res.status)
    assert {0, 2, 3, 4} <= seen["status"]
    assert seen["reflected"] > 0
    assert seen["roots"] > 0


@pytest.mark.parametrize("x_scale", ["jac", 1.0])
def test_restoration_passes_are_scipys_bit_for_bit(x_scale):
    # the restoration's problem on the benchmark's nominal stage, 15
    # evaluations of each pass
    helper, z0, bounds = _feasibility_problem()
    _assert_same_as_scipy(helper.residuals, helper.jac, z0, x_scale,
                          bounds=bounds, max_nfev=15, xtol=1e-14, ftol=1e-14,
                          gtol=1e-14)


# test_nlp's entries, whose products cancel or are signed zeros, and the
# non-finite values
_ANY_ENTRIES = st.one_of(_ENTRIES, st.sampled_from([np.inf, -np.inf, np.nan]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_products_are_scipys_on_any_pattern(data):
    # The kernels the port calls directly against scipy's `@`, byte for
    # byte: J @ x, J.T @ y and the column sums of squares that jac
    # scaling takes, on test_nlp's patterns with empty rows and columns,
    # stored zeros and non-finite values, with either index dtype, and
    # with contiguous vectors and strided views.
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 7))
    stored = data.draw(hnp.arrays(bool, (m, n))).copy()
    if data.draw(st.booleans()):
        stored[data.draw(st.integers(0, m - 1))] = False
    if data.draw(st.booleans()):
        stored[:, data.draw(st.integers(0, n - 1))] = False
    values = data.draw(hnp.arrays(float, (m, n), elements=_ANY_ENTRIES))
    vectors = data.draw(hnp.arrays(float, 2 * (n + m),
                                   elements=_ANY_ENTRIES))
    J = _stored(values, stored)
    squares = np.asarray(J.power(2).sum(axis=0)).ravel()
    for index in (np.int32, np.int64):
        J.indptr, J.indices = J.indptr.astype(index), J.indices.astype(index)
        for x, y in ((vectors[:n], vectors[n:n + m]),
                     (vectors[::2][:n], vectors[::-2][:m])):
            assert trf.matvec(J, x).tobytes() == (J @ x).tobytes()
            assert trf.rmatvec(J, y).tobytes() == (J.T @ y).tobytes()
        assert (trf.rmatvec(J, np.ones(m), J.data ** 2).tobytes()
                == squares.tobytes())

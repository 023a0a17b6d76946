"""Constrained NLP solver: augmented Lagrangian outer loop with
projected Levenberg-Marquardt inner solves.

Problems are expressed as *blocks*: a block evaluates the same small
callback at many slices of the decision vector simultaneously (one row
per instance, one column per local variable).  Cost blocks return
least-squares residuals (the objective is the sum of their squares);
equality blocks target zero; inequality blocks target <= 0.  The solver
gets exact derivatives from each block's tape (``autodiff.Tape``): a
block's callback runs once on symbolic inputs, at its first derivative
evaluation, and every later one replays the recorded operations.  So a
callback is straight-line code over ``+ - *``, ``/`` with a variable as
the numerator, unary minus and ``autodiff.sin``/``cos``/``sqrt``, and
every constant it reads is one number, read once, at that first
evaluation.

Each outer iteration minimizes the augmented Lagrangian

    sum ||r_cost||^2 + rho/2 ||c_eq + lam/rho||^2
                     + rho/2 ||max(0, c_ineq + mu/rho)||^2

which is itself a bound-constrained nonlinear least-squares problem;
the inner solver is a projected Levenberg-Marquardt method
(``_bounded_lm``) on the exact block-sparse Jacobian.  Its normal
equations come from a product map planned once per Jacobian pattern
(``_NormalPlan``): each iteration multiplies and adds ``J.data`` in the
order of scipy's sparse product, row by row, and drops the exact zeros
that product drops, so the iterates are bit for bit those of
``Jf.T @ Jf``.  Variables with equal lower and upper bounds are
eliminated from the inner problem.
The restoration phase, which minimizes the constraint violation alone,
runs a trust-region reflective method (``least_squares``) and, when
that leaves the violation high, a second unit-scaled pass polished by
the same LM method.  The first pass scales the variables by the
Jacobian's column norms (``x_scale="jac"``); both get the CSR Jacobian.
``least_squares`` is the module ``trf``: scipy's ``least_squares(
method="trf", tr_solver="lsmr")`` ported operation for operation, so
its iterates are scipy's to the last bit, without the stacked
``LinearOperator`` dispatch that was most of scipy's time on these
small Jacobians (each pass's ``lsmr`` subproblems make about 350 sparse
products per evaluation).  The program therefore never imports
``scipy.optimize``, which costs about 0.23 s of CPU and 17 MB of memory;
the tests keep it as the port's oracle.  ``perfbench/tracing.py``
patches ``nlp.least_squares`` to time and count the ``trf`` calls.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import autodiff as ad
from .trf import least_squares

__all__ = [
    "Block",
    "NlpProblem",
    "NlpSolution",
    "SolverOpts",
    "KktResidual",
    "solve",
    "kkt_residual",
]


@dataclass
class Block:
    """A batched callback over slices of the decision vector.

    ``fun`` receives a list with one entry per local variable (column of
    ``indices``) and returns ``n_out`` outputs.  Plain evaluation passes
    float arrays of shape (batch,); the first derivative evaluation
    passes ``autodiff.Node`` inputs once, to record ``tape``, which every
    derivative evaluation replays.  So ``fun`` is straight-line code over
    ``+ - *``, ``/`` with a variable as the numerator, unary minus and
    ``autodiff.sin``/``cos``/``sqrt``, and the constants it reads are
    single numbers, read once, when the tape is recorded.  A row of
    ``indices`` names each variable at most once.
    """

    name: str
    fun: Callable
    indices: np.ndarray  # (batch, k) int
    n_out: int
    tape: ad.Tape | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        if self.indices.ndim != 2:
            raise ValueError(f"block {self.name}: indices must be 2-D")
        s = np.sort(self.indices, axis=1)
        if np.any(s[:, 1:] == s[:, :-1]):
            raise ValueError(f"block {self.name}: a row repeats a variable")

    @property
    def batch(self):
        return self.indices.shape[0]

    @property
    def size(self):
        return self.batch * self.n_out


@dataclass
class NlpProblem:
    n_vars: int
    lower: np.ndarray
    upper: np.ndarray
    cost_blocks: list
    eq_blocks: list
    ineq_blocks: list

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ValueError("need lower <= upper elementwise")

    @property
    def n_eq(self):
        return sum(b.size for b in self.eq_blocks)

    @property
    def n_ineq(self):
        return sum(b.size for b in self.ineq_blocks)


@dataclass
class KktResidual:
    stationarity: float
    eq_viol: float
    ineq_viol: float
    comp_slackness: float


@dataclass
class NlpSolution:
    x: np.ndarray
    multipliers_eq: np.ndarray
    multipliers_ineq: np.ndarray
    objective_value: float
    kkt: KktResidual
    iterations: int
    inner_iterations: int
    wall_time: float
    status: str  # converged | max_iter | infeasible


# fixed parameters of the augmented-Lagrangian outer loop
RHO0 = 10.0
RHO_MAX = 1e8
RHO_FACTOR = 10.0
VIOL_DROP_FACTOR = 4.0
INNER_GTOL = 1e-9
# penalty level anchoring the iterate after a restoration phase
RHO_RESTORE = 1e5
STALL_LIMIT = 5
# feasible iterates whose objective stops moving are accepted even if
# the stationarity measure stays noisy (large ill-conditioned problems)
OBJ_STALL_RTOL = 1e-4
OBJ_STALL_ITERS = 3


@dataclass
class SolverOpts:
    """Acceptance tolerances and iteration limits, the solver's settings."""

    tol_eq: float = 1e-6
    tol_ineq: float = 1e-6
    tol_stat: float = 1e-4
    max_outer: int = 60
    max_inner: int = 600

    def __post_init__(self):
        # bool is a numbers.Integral, and YAML reads on, yes and true as
        # True
        for name in ("max_outer", "max_inner"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 1):
                raise ValueError(f"solver {name} must be an integer of at "
                                 f"least 1, got {value!r}")
        for name in ("tol_eq", "tol_ineq", "tol_stat"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Real) or not value > 0):
                raise ValueError(f"solver {name} must be a positive number, "
                                 f"got {value!r}")


# -- block evaluation -------------------------------------------------------


def block_values(block: Block, x):
    vars_ = [x[block.indices[:, j]] for j in range(block.indices.shape[1])]
    outs = block.fun(vars_)
    values = np.empty((block.batch, len(outs)))
    for i, y in enumerate(outs):
        values[:, i] = y
    return values


def block_values_and_jac(block: Block, x):
    """Values (batch, m) and local jacobian (batch, m, k) in one pass.

    The first call records the block's tape; every call replays it.
    """
    tape = block.tape
    if tape is None:
        tape = block.tape = ad.Tape(block.fun, block.indices.shape[1],
                                    block.batch, f"block {block.name}")
    return tape.evaluate(x[block.indices])


def eval_constraints(blocks, x):
    if not blocks:
        return np.zeros(0)
    return np.concatenate([block_values(b, x).ravel() for b in blocks])


def eval_objective(problem: NlpProblem, x):
    """Sum of squared cost-block residuals."""
    return float(
        sum(np.sum(block_values(b, x) ** 2) for b in problem.cost_blocks)
    )


def objective_gradient(problem: NlpProblem, x):
    grad = np.zeros(problem.n_vars)
    for b in problem.cost_blocks:
        vals, jac = block_values_and_jac(b, x)
        grad += _scatter(jac, 2.0 * vals, b.indices, problem.n_vars)
    return grad


def constraint_jacobian_t_vec(blocks, x, w):
    """J(x)^T w accumulated over blocks; w is a stacked row weighting."""
    grad = np.zeros(x.size)
    offset = 0
    for b in blocks:
        wb = w[offset : offset + b.size].reshape(b.batch, b.n_out)
        _, jac = block_values_and_jac(b, x)
        grad += _scatter(jac, wb, b.indices, x.size)
        offset += b.size
    return grad


def _scatter(jac, w, indices, n):
    out = np.zeros(n)
    np.add.at(out, indices, np.einsum("bmk,bm->bk", jac, w))
    return out


def _block_coords(block, row_offset):
    """Row and column of each entry of a block jacobian placed at
    row_offset, in the order of ``jac.ravel()``."""
    batch, k = block.indices.shape
    m = block.n_out
    rows = row_offset + (
        np.arange(batch)[:, None, None] * m + np.arange(m)[None, :, None]
    )
    rows = np.broadcast_to(rows, (batch, m, k))
    cols = np.broadcast_to(block.indices[:, None, :], (batch, m, k))
    return rows.ravel(), cols.ravel()


# -- KKT --------------------------------------------------------------------


def kkt_residual(problem: NlpProblem, x, multipliers_eq, multipliers_ineq):
    """Infinity norms of the standard KKT residual blocks.

    Stationarity is measured as the projected gradient of the Lagrangian
    onto the box constraints.
    """
    x = np.asarray(x, dtype=float)
    grad = objective_gradient(problem, x)
    ceq = eval_constraints(problem.eq_blocks, x)
    cineq = eval_constraints(problem.ineq_blocks, x)
    if len(multipliers_eq):
        grad += constraint_jacobian_t_vec(problem.eq_blocks, x, multipliers_eq)
    if len(multipliers_ineq):
        grad += constraint_jacobian_t_vec(problem.ineq_blocks, x, multipliers_ineq)
    proj = x - np.clip(x - grad, problem.lower, problem.upper)
    return KktResidual(
        stationarity=float(np.max(np.abs(proj), initial=0.0)),
        eq_viol=float(np.max(np.abs(ceq), initial=0.0)),
        ineq_viol=float(np.max(np.clip(cineq, 0.0, None), initial=0.0)),
        comp_slackness=float(
            np.max(np.abs(multipliers_ineq * cineq), initial=0.0)
        ) if len(multipliers_ineq) else 0.0,
    )


# -- augmented Lagrangian ---------------------------------------------------


class _AlResiduals:
    """Stacked least-squares form of the AL subproblem on free variables.

    Residuals: [cost residuals; sqrt(rho/2)(c_eq + lam/rho);
    sqrt(rho/2) max(0, c_ineq + mu/rho)].  Fixed variables (equal
    bounds) are substituted and removed from the column space.

    The Jacobian's sparsity pattern depends only on the blocks' indices
    and the free mask, so it is built once: the CSR ``indptr`` and
    ``indices`` on the free columns, and ``_perm``, which gathers the
    concatenated block jacobians (``jac.ravel()`` per block, in residual
    order) into CSR order.  A block never repeats a variable within a
    row, so every CSR entry is exactly one block-jacobian entry and an
    evaluation only computes the data.  Entries of inactive inequality
    rows stay in the pattern as explicit zeros.  ``normal_plan``, built
    at first use, forms the LM normal equations on the same pattern.
    """

    def __init__(self, problem, lam, mu, rho, free, x_template):
        self._sq = np.sqrt(rho / 2.0)
        self._lam_rho = lam / rho
        self._mu_rho = mu / rho
        self.free = free
        self.template = x_template
        self._blocks = (problem.cost_blocks + problem.eq_blocks
                        + problem.ineq_blocks)
        empty = np.zeros(0, dtype=int)
        rows, cols, row = [empty], [empty], 0
        for b in self._blocks:
            r, c = _block_coords(b, row)
            rows.append(r)
            cols.append(c)
            row += b.size
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        # residual rows [0, e0) cost, [e0, e1) equality, [e1, row)
        # inequality; block-jacobian entries [0, d0), [d0, d1), [d1, ...)
        e0 = sum(b.size for b in problem.cost_blocks)
        e1 = e0 + problem.n_eq
        d0, d1 = np.searchsorted(rows, [e0, e1])
        self._eq_rows, self._ineq_rows = slice(e0, e1), slice(e1, row)
        self._eq_entries, self._ineq_entries = slice(d0, d1), slice(d1, None)
        self._ineq_entry_rows = rows[d1:] - e1
        keep = np.flatnonzero(free[cols])
        rows, cols = rows[keep], (np.cumsum(free) - 1)[cols[keep]]
        order = np.lexsort((cols, rows))
        self._perm = keep[order]
        counts = np.bincount(rows, minlength=row)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        # scipy picks the index dtype once, here
        pattern = sp.csr_matrix((np.zeros(order.size), cols[order], indptr),
                                shape=(row, int(np.sum(free))))
        self._indices, self._indptr = pattern.indices, pattern.indptr
        self._shape = pattern.shape
        self._cache_key = None
        self._cache = None

    @cached_property
    def normal_plan(self):
        return _NormalPlan(self._indptr, self._indices, self._shape[1])

    def full_x(self, z):
        x = self.template.copy()
        x[self.free] = z
        return x

    def _evaluate(self, z):
        key = z.tobytes()
        if self._cache_key == key:
            return self._cache
        x = self.full_x(z)
        res, data = [np.zeros(0)], [np.zeros(0)]
        for b in self._blocks:
            vals, jac = block_values_and_jac(b, x)
            res.append(vals.ravel())
            data.append(jac.ravel())
        res, data = np.concatenate(res), np.concatenate(data)
        sq, eq, ineq = self._sq, self._eq_rows, self._ineq_rows
        res[eq] = sq * (res[eq] + self._lam_rho)
        data[self._eq_entries] *= sq
        shifted = res[ineq] + self._mu_rho
        res[ineq] = sq * np.clip(shifted, 0.0, None)
        active = (shifted > 0).astype(float)[self._ineq_entry_rows]
        data[self._ineq_entries] = (data[self._ineq_entries] * sq) * active
        J = sp.csr_matrix((data[self._perm], self._indices, self._indptr),
                          shape=self._shape)
        self._cache_key = key
        self._cache = (res, J)
        return self._cache

    def residuals(self, z):
        return self._evaluate(z)[0].copy()

    def jac(self, z):
        return self._evaluate(z)[1]


class _NormalPlan:
    """``JᵀJ`` on the unfrozen columns, for every J on one CSR pattern,
    with the floats and the pattern of scipy's ``(Jf.T @ Jf).tocsc()``,
    ``Jf = J[:, free]``.

    scipy's product is Gustavson's algorithm (``csr_matmat``): entry
    (i, k) starts at 0.0 and adds ``J[j, i] * J[j, k]`` over the rows j
    that store both columns, in ascending j, and an entry whose sum is
    exactly zero is dropped.  The plan lists, once per pattern, the pairs
    of ``J.data`` positions behind each upper-triangle entry (i <= k), in
    that row order.  ``normal_matrix`` multiplies the pairs and adds them
    with ``np.bincount``, which adds its weights one at a time in input
    order, so every sum is scipy's to the last bit; a pairwise ``np.sum``
    or ``np.add.reduceat`` is not, as they reorder sums of 8 or more
    terms.  The lower triangle reads the same sums, since the products
    commute.  Exact zeros are dropped as scipy drops them: SuperLU's
    column ordering depends on the pattern, so a stored zero changes the
    step.  A frozen column changes no other column's sums, so one plan
    serves every free mask.  Every diagonal entry is kept, with no pairs
    where its column stores nothing, because the damping adds to all.

    ``indices`` are sorted within each row, as ``_AlResiduals`` builds
    them.  Plan arrays are int32 to keep them small.
    """

    def __init__(self, indptr, indices, n):
        # pair each stored position with itself and every later position
        # of its row, rows in ascending order, so that every sum adds its
        # products in row order; temporaries are int32 where they can be
        nnz = indices.size
        count = np.repeat(indptr[1:], np.diff(indptr)) - np.arange(nnz)
        pa = np.repeat(np.arange(nnz, dtype=np.int32), count)
        pb = np.arange(pa.size, dtype=np.int32)
        pb -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
        pb += pa
        # row-sorted indices put the pair's lower column first: the key of
        # upper-triangle entry (i, k) is i * n + k
        keys = np.take(indices, pa).astype(np.int64)
        keys *= n
        keys += np.take(indices, pb)
        diagonal = np.arange(n, dtype=np.int64) * (n + 1)
        tri = np.union1d(np.unique(keys), diagonal)
        self._pa, self._pb = pa, pb
        self._entry = np.searchsorted(tri, keys).astype(np.int32)
        self._n_tri = tri.size
        # the entries of both triangles in CSC order, each naming its sum
        ti, tk = tri // n, tri % n
        off = np.flatnonzero(ti != tk)
        rows = np.concatenate([ti, tk[off]])
        cols = np.concatenate([tk, ti[off]])
        order = np.lexsort((rows, cols))
        self._rows = rows[order].astype(np.int32)
        self._cols = cols[order].astype(np.int32)
        self._sum = np.concatenate([np.arange(tri.size), off])[order].astype(
            np.int32)
        self._diag = self._rows == self._cols
        # per column: the position of its diagonal entry and of its last
        # entry (every column stores its diagonal, so none is empty)
        self._diag_at = np.flatnonzero(self._diag).astype(np.int32)
        self._col_end = (np.cumsum(np.bincount(self._cols, minlength=n))
                         - 1).astype(np.int32)

    def normal_matrix(self, data, free):
        """``(Jf.T @ Jf).tocsc()`` for ``Jf = J[:, free]``, with every
        diagonal entry stored, and the positions in its ``data`` of the
        diagonal, in column order."""
        prod = np.take(data, self._pa)
        prod *= np.take(data, self._pb)
        # (bincount returns integers when J stores nothing)
        sums = np.bincount(self._entry, weights=prod,
                           minlength=self._n_tri).astype(float, copy=False)
        vals = np.take(sums, self._sum)
        keep = (vals != 0) | self._diag
        keep &= np.take(free, self._rows)
        keep &= np.take(free, self._cols)
        # kept entries up to and including each entry
        kept = np.cumsum(keep, dtype=np.int32)
        n_free = int(np.count_nonzero(free))
        indptr = np.zeros(n_free + 1, dtype=np.int32)
        indptr[1:] = kept[self._col_end[free]]
        new = np.cumsum(free, dtype=np.int32) - 1
        A = sp.csc_matrix((vals[keep], np.take(new, self._rows[keep]),
                           indptr), shape=(n_free, n_free))
        return A, kept[self._diag_at[free]] - 1


def _bounded_lm(helper, z0, lb, ub, max_iter, gtol):
    """Projected Levenberg-Marquardt on a bound-constrained least-squares.

    Normal equations with adaptive diagonal damping, solved by sparse LU;
    variables pinned to an active bound with an outward gradient are
    frozen for the step, and trial points are projected back into the box.
    Deterministic.

    Each iteration forms ``JᵀJ`` on the unfrozen columns from the
    helper's ``normal_plan`` and takes the right-hand side from the
    gradient's product ``Jᵀr``: bit for bit what scipy's ``Jf.T @ Jf``
    and ``Jf.T @ r`` give, without re-slicing J.  Damping adds
    ``sigma * max(diag, 1e-10)`` to the stored diagonal, the sums that
    ``A + sp.diags(...)`` forms.
    """
    z = np.clip(z0, lb, ub)
    r = helper.residuals(z)
    J = helper.jac(z)
    nfev = 1
    f = float(r @ r)
    sigma = 1e-5
    for _ in range(max_iter):
        jtr = J.T @ r
        g = 2.0 * jtr
        pg = z - np.clip(z - g, lb, ub)
        if np.max(np.abs(pg), initial=0.0) < gtol * (1.0 + abs(f)):
            break
        on_lb = (z <= lb + 1e-14) & (g > 0)
        on_ub = (z >= ub - 1e-14) & (g < 0)
        free = ~(on_lb | on_ub)
        if not np.any(free):
            break
        rhs = -jtr[free]
        A, diag = helper.normal_plan.normal_matrix(J.data, free)
        a = A.data[diag]
        d = np.maximum(a, 1e-10)
        accepted = False
        for _trial in range(30):
            A.data[diag] = a + sigma * d
            try:
                p = spla.factorized(A)(rhs)
            except RuntimeError:
                sigma *= 10.0
                continue
            step = np.zeros_like(z)
            step[free] = p
            zt = np.clip(z + step, lb, ub)
            rt = helper.residuals(zt)
            nfev += 1
            ft = float(rt @ rt)
            lin = r + J @ (zt - z)
            predicted = f - float(lin @ lin)
            if ft < f and predicted > 0:
                ratio = (f - ft) / predicted
                z, f, r = zt, ft, rt
                J = helper.jac(z)
                if ratio > 0.75:
                    sigma = max(sigma / 5.0, 1e-14)
                elif ratio < 0.25:
                    sigma *= 2.0
                accepted = True
                break
            sigma *= 5.0
        if not accepted:
            break
    return z, nfev


def _inner_solve(problem, x, lam, mu, rho, opts):
    """One bound-constrained Gauss-Newton minimization of the AL."""
    free = problem.lower < problem.upper
    template = x.copy()
    template[~free] = problem.lower[~free]
    if not np.any(free):
        return template, 0
    helper = _AlResiduals(problem, lam, mu, rho, free, template)
    z, nfev = _bounded_lm(
        helper, x[free], problem.lower[free], problem.upper[free],
        opts.max_inner, INNER_GTOL,
    )
    return helper.full_x(z), nfev


def _violation(problem, x):
    ceq = eval_constraints(problem.eq_blocks, x)
    cineq = eval_constraints(problem.ineq_blocks, x)
    return max(
        float(np.max(np.abs(ceq), initial=0.0)),
        float(np.max(np.clip(cineq, 0.0, None), initial=0.0)),
    )


def _restoration(problem, x, opts):
    """Drive constraint violation down with the objective switched off.

    Minimizing ||c_eq||^2 + ||max(0, c_ineq)||^2 over the bounds pulls the
    iterate (near) the feasible manifold; used before the first outer
    iteration and as stall recovery, mirroring the restoration phases of
    interior-point practice.
    """
    free = problem.lower < problem.upper
    if not np.any(free) or (problem.n_eq + problem.n_ineq) == 0:
        return x, 0
    feas = NlpProblem(
        n_vars=problem.n_vars,
        lower=problem.lower,
        upper=problem.upper,
        cost_blocks=[],
        eq_blocks=problem.eq_blocks,
        ineq_blocks=problem.ineq_blocks,
    )
    helper = _AlResiduals(
        feas, np.zeros(problem.n_eq), np.zeros(problem.n_ineq), 2.0, free,
        x.copy(),
    )
    # variables no constraint touches cannot help; freeze them so the
    # trust-region column scaling stays finite
    J0 = helper.jac(x[free])
    touched = np.asarray((J0 != 0).sum(axis=0)).ravel() > 0
    if not np.all(touched):
        sub = free.copy()
        sub[np.where(free)[0][~touched]] = False
        free = sub
        helper = _AlResiduals(
            feas, np.zeros(problem.n_eq), np.zeros(problem.n_ineq), 2.0,
            free, x.copy(),
        )
    if not np.any(free):
        return x, 0
    # trust-region reflective handles bound-trapped feasibility searches
    # better than clipped LM steps.  Both passes run module trf's port of
    # scipy's trf on the helper's CSR Jacobian, through the module-level
    # name least_squares, which perfbench/tracing.py wraps
    def trf(z0, scale, budget):
        return least_squares(
            helper.residuals,
            z0,
            jac=helper.jac,
            bounds=(problem.lower[free], problem.upper[free]),
            x_scale=scale,
            max_nfev=budget,
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
        )

    tol = max(opts.tol_eq, opts.tol_ineq)
    # per-column ("jac") scaling is best when variables have very different
    # magnitudes but assigns huge trust regions to weakly-coupled variables
    # (e.g. impact forces acting through a millisecond interval), where unit
    # scaling is stable; try the former, fall back to the latter
    res = trf(x[free], "jac", 2 * opts.max_inner)
    best_z, nfev = res.x, res.nfev
    best_viol = _violation(problem, helper.full_x(best_z))
    if best_viol > 10.0 * tol:
        # restart from the caller's point: the first phase may have moved
        # into a worse basin than the (possibly warm-started) input
        res = trf(x[free], 1.0, 2 * opts.max_inner)
        nfev += res.nfev
        # lsmr's inexact steps leave a slow tail that exact
        # normal-equation LM solves clean up quickly
        z, lm_iters = _bounded_lm(
            helper, res.x, problem.lower[free], problem.upper[free],
            3 * opts.max_inner, 1e-12,
        )
        nfev += lm_iters
        if _violation(problem, helper.full_x(z)) < best_viol:
            best_z = z
            best_viol = _violation(problem, helper.full_x(z))
    x_new = helper.full_x(best_z)
    if best_viol < _violation(problem, x):
        return x_new, nfev
    return x, nfev


def solve(problem: NlpProblem, x0, opts: SolverOpts = None) -> NlpSolution:
    """Augmented-Lagrangian solve with bound-constrained inner iterations.

    Deterministic: identical (problem, x0, opts) produce identical
    iterate sequences.
    """
    opts = opts if opts is not None else SolverOpts()
    t_start = time.perf_counter()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n_vars,):
        raise ValueError("x0 has wrong dimension")
    x = np.clip(x0, problem.lower, problem.upper)
    lam = np.zeros(problem.n_eq)
    mu = np.zeros(problem.n_ineq)
    rho = RHO0
    prev_viol = np.inf
    prev_obj = None
    obj_stall = 0
    stall = 0
    status = "max_iter"
    inner_total = 0
    outer_done = 0
    best = None
    kkt = None
    restored = False

    if _violation(problem, x) > 10.0 * max(opts.tol_eq, opts.tol_ineq):
        x, nfev = _restoration(problem, x, opts)
        inner_total += nfev
        restored = True
        rho = max(rho, RHO_RESTORE)

    for outer in range(opts.max_outer):
        x, nfev = _inner_solve(problem, x, lam, mu, rho, opts)
        inner_total += nfev
        outer_done = outer + 1
        ceq = eval_constraints(problem.eq_blocks, x)
        cineq = eval_constraints(problem.ineq_blocks, x)
        lam = lam + rho * ceq
        mu = np.clip(mu + rho * cineq, 0.0, None)
        eq_viol = float(np.max(np.abs(ceq), initial=0.0))
        ineq_viol = float(np.max(np.clip(cineq, 0.0, None), initial=0.0))
        viol = max(eq_viol, ineq_viol)
        kkt = kkt_residual(problem, x, lam, mu)
        obj = eval_objective(problem, x)
        if best is None or viol <= best[0]:
            best = (viol, x.copy(), lam.copy(), mu.copy(), kkt)
        feasible = eq_viol <= opts.tol_eq and ineq_viol <= opts.tol_ineq
        if feasible and kkt.stationarity <= opts.tol_stat:
            status = "converged"
            break
        if (feasible and prev_obj is not None
                and abs(obj - prev_obj) <= OBJ_STALL_RTOL * max(1.0, abs(obj))):
            obj_stall += 1
            if obj_stall >= OBJ_STALL_ITERS:
                status = "converged"
                break
        else:
            obj_stall = 0
        prev_obj = obj if feasible else None
        if viol > prev_viol / VIOL_DROP_FACTOR:
            rho = min(rho * RHO_FACTOR, RHO_MAX)
        if rho >= RHO_MAX and viol > max(opts.tol_eq, opts.tol_ineq):
            stall += 1
            if stall == 1 and not restored:
                x, nfev = _restoration(problem, x, opts)
                inner_total += nfev
                restored = True
                # multipliers accumulated off-manifold are stale
                lam = np.zeros(problem.n_eq)
                mu = np.zeros(problem.n_ineq)
            if stall >= STALL_LIMIT:
                status = "infeasible"
                break
        else:
            stall = 0
        prev_viol = viol

    if status != "converged" and best is not None:
        _, x, lam, mu, kkt = best
    return NlpSolution(
        x=x,
        multipliers_eq=lam,
        multipliers_ineq=mu,
        objective_value=eval_objective(problem, x),
        kkt=kkt,
        iterations=outer_done,
        inner_iterations=inner_total,
        wall_time=time.perf_counter() - t_start,
        status=status,
    )

"""Constrained NLP solver: augmented Lagrangian outer loop with
projected Levenberg-Marquardt inner solves.

Problems are expressed as *blocks*: a block evaluates the same small
callback at many slices of the decision vector simultaneously (one row
per instance, one column per local variable).  Cost blocks return
least-squares residuals (the objective is the sum of their squares);
equality blocks target zero; inequality blocks target <= 0.  The solver
gets exact derivatives from each block's tape (``autodiff.Tape``): a
block's callback runs once on symbolic inputs when the block is made,
which also fixes its output count, and every derivative evaluation
replays the recorded operations.  So a callback is straight-line code
over ``+ - *``, ``/`` with a variable as the numerator, unary minus and
``autodiff.sin``/``cos``/``sqrt``, and every constant it reads is one
number, read once, when the block is made.  A problem's variable count
is the length of its bounds.

Each outer iteration minimizes the augmented Lagrangian

    sum ||r_cost||^2 + rho/2 ||c_eq + lam/rho||^2
                     + rho/2 ||max(0, c_ineq + mu/rho)||^2

which is itself a bound-constrained nonlinear least-squares problem;
the inner solver is a projected Levenberg-Marquardt method
(``_bounded_lm``) on the exact block-sparse Jacobian.  Its residuals and
Jacobian follow an evaluation plan (``_AlPlan``) made once per problem
and free mask: each block replays its tape once, and the replay's
outputs are gathered from the tape's slot buffer straight into the
residual vector and the CSR data, with no per-block copy, concatenation
or permutation.  The normal equations come from a product map planned
once per Jacobian pattern (``_NormalPlan``): each iteration multiplies
and adds ``J.data`` in the order of scipy's sparse product, row by row,
and drops the exact zeros that product drops, so the iterates are bit
for bit those of ``Jf.T @ Jf``; what depends only on the free mask is
kept for the last mask.  The same plan solves the damped equations with
SuperLU's column order computed once per pattern of the normal matrix:
``spla.factorized`` factors a new pattern, and the damping trials and
later iterations on that pattern factor its columns pre-permuted, with
no COLAMD pass and no sparse matrix, which is what
``spla.factorized(A)(b)`` gives unless pivot candidates tie exactly
(``_NormalPlan.solve``).  Variables with equal lower and upper bounds
are eliminated from the inner problem.
The restoration phase, which minimizes the constraint violation alone,
runs a trust-region reflective method (``least_squares``) and, when
that leaves the violation high, a second unit-scaled pass polished by
the same LM method.  The first pass scales the variables by the
Jacobian's column norms (``x_scale="jac"``); both get the CSR Jacobian,
as the plain record ``_CsrJacobian`` of the arrays the products read.
``least_squares`` is the module ``trf``: scipy's ``least_squares(
method="trf", tr_solver="lsmr")`` ported operation for operation, so
its iterates are scipy's to the last bit, without the stacked
``LinearOperator`` dispatch that was most of scipy's time on these
small Jacobians (each pass's ``lsmr`` subproblems make about 350 sparse
products per evaluation).  The program therefore never imports
``scipy.optimize``, which costs about 0.23 s of CPU and 17 MB of memory;
the tests keep it as the port's oracle.  The port's products with the
Jacobian, and the LM method's, call the compiled kernels that scipy's
``@`` ends in (``trf.matvec`` and ``trf.rmatvec``): the same floats,
without the ``@`` dispatch or a transposed copy of J.
``perfbench/tracing.py`` patches ``nlp.least_squares`` to time and count
the ``trf`` calls, ``nlp.block_values_and_jac``, inside which every
tape replay of the solver happens, to time the block evaluations, and
``spla.factorized``, which the LM method calls only on a new pattern
of the normal matrix.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

from . import autodiff as ad
from .trf import least_squares, matvec, rmatvec

__all__ = [
    "Block",
    "NlpProblem",
    "NlpSolution",
    "SolverOpts",
    "KktResidual",
    "solve",
    "kkt_residual",
    "is_number",
]


@dataclass
class Block:
    """A batched callback over slices of the decision vector.

    ``fun`` receives a list with one entry per local variable (column of
    ``indices``) and returns a list of outputs.  Plain evaluation passes
    float arrays of shape (batch,).  When the block is made, ``fun`` runs
    once on ``autodiff.Node`` inputs to record ``tape``, which every
    derivative evaluation replays; ``n_out`` is the number of outputs it
    returned.  So ``fun`` is straight-line code over ``+ - *``, ``/``
    with a variable as the numerator, unary minus and
    ``autodiff.sin``/``cos``/``sqrt``, and the constants it reads are
    single numbers, read once, when the block is made; anything else
    raises ``TypeError`` naming the block.  A row of ``indices`` names
    each variable at most once.
    """

    name: str
    fun: Callable
    indices: np.ndarray  # (batch, k) int
    n_out: int = field(init=False)
    tape: ad.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        if self.indices.ndim != 2:
            raise ValueError(f"block {self.name}: indices must be 2-D")
        s = np.sort(self.indices, axis=1)
        if np.any(s[:, 1:] == s[:, :-1]):
            raise ValueError(f"block {self.name}: a row repeats a variable")
        self.tape = ad.Tape(self.fun, self.indices.shape[1], self.batch,
                            f"block {self.name}")
        self.n_out = self.tape.n_out

    @property
    def batch(self):
        return self.indices.shape[0]

    @property
    def size(self):
        return self.batch * self.n_out


@dataclass
class NlpProblem:
    """Blocks over a decision vector whose length, ``n_vars``, is that
    of its bounds ``lower`` and ``upper``."""

    lower: np.ndarray
    upper: np.ndarray
    cost_blocks: list
    eq_blocks: list
    ineq_blocks: list

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError(f"lower and upper must be vectors of one "
                             f"length, got shapes {self.lower.shape} and "
                             f"{self.upper.shape}")
        # NaN compares False both ways, so test for the order it breaks
        if not np.all(self.lower <= self.upper):
            raise ValueError("need lower <= upper elementwise")

    @property
    def n_vars(self):
        return self.lower.size

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


def is_number(value):
    """A real number, but not a bool: bool is a ``numbers.Integral``,
    and YAML reads on, yes and true as True.  Every numeric setting is
    checked with it: ``SolverOpts``, ``TranscriptionConfig`` and the run
    config's own keys."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SolverOpts:
    """Acceptance tolerances and iteration limits, the solver's settings."""

    tol_eq: float = 1e-6
    tol_ineq: float = 1e-6
    tol_stat: float = 1e-4
    max_outer: int = 60
    max_inner: int = 600

    def __post_init__(self):
        for name in ("max_outer", "max_inner"):
            value = getattr(self, name)
            if not (is_number(value) and isinstance(value, numbers.Integral)
                    and value >= 1):
                raise ValueError(f"solver {name} must be an integer of at "
                                 f"least 1, got {value!r}")
        for name in ("tol_eq", "tol_ineq", "tol_stat"):
            value = getattr(self, name)
            # an infinite tolerance accepts every iterate
            if not (is_number(value) and 0.0 < value < math.inf):
                raise ValueError(f"solver {name} must be a positive finite "
                                 f"number, got {value!r}")


# -- block evaluation -------------------------------------------------------


def block_values(block: Block, x):
    vars_ = [x[block.indices[:, j]] for j in range(block.indices.shape[1])]
    outs = block.fun(vars_)
    values = np.empty((block.batch, len(outs)))
    for i, y in enumerate(outs):
        values[:, i] = y
    return values


def block_values_and_jac(block, x):
    """Replay the tape of ``block`` at x and return the tape's flat slot
    buffer, which its next replay overwrites.  ``block_outputs`` copies
    the values and the local jacobian out of the buffer; the AL
    evaluation gathers them straight into its residual and CSR data."""
    return block.tape.evaluate(x[block.indices])


def block_outputs(block: Block, x):
    """Values (batch, m) and local jacobian (batch, m, k) in one pass: a
    replay of the block's tape, copied out."""
    return block.tape.outputs(block_values_and_jac(block, x))


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
        vals, jac = block_outputs(b, x)
        grad += _scatter(jac, 2.0 * vals, b.indices, problem.n_vars)
    return grad


def constraint_jacobian_t_vec(blocks, x, w):
    """J(x)^T w accumulated over blocks; w is a stacked row weighting."""
    grad = np.zeros(x.size)
    offset = 0
    for b in blocks:
        wb = w[offset : offset + b.size].reshape(b.batch, b.n_out)
        _, jac = block_outputs(b, x)
        grad += _scatter(jac, wb, b.indices, x.size)
        offset += b.size
    return grad


def _scatter(jac, w, indices, n):
    out = np.zeros(n)
    np.add.at(out, indices, np.einsum("bmk,bm->bk", jac, w))
    return out


# -- KKT --------------------------------------------------------------------


def _violations(ceq, cineq):
    """The largest equality residual and the largest inequality excess."""
    return (float(np.max(np.abs(ceq), initial=0.0)),
            float(np.max(np.clip(cineq, 0.0, None), initial=0.0)))


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
    eq_viol, ineq_viol = _violations(ceq, cineq)
    return KktResidual(
        stationarity=float(np.max(np.abs(proj), initial=0.0)),
        eq_viol=eq_viol,
        ineq_viol=ineq_viol,
        comp_slackness=float(
            np.max(np.abs(multipliers_ineq * cineq), initial=0.0)
        ) if len(multipliers_ineq) else 0.0,
    )


# -- augmented Lagrangian ---------------------------------------------------


class _CsrJacobian(NamedTuple):
    """A CSR matrix as the solver reads it: scipy's three arrays and the
    shape, which is all ``trf.matvec``, ``trf.rmatvec`` and
    ``_NormalPlan`` take, without the cost of a ``csr_matrix`` per
    evaluation."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


class _AlPlan:
    """How ``_AlResiduals`` evaluates one problem with one free mask,
    made once per problem and mask.

    Every block replays its own tape, and the replay's outputs are
    gathered straight from the tape's flat slot buffer into the residual
    vector and into the Jacobian's data in CSR order, entries of frozen
    columns left out.  ``pieces`` has one entry per block: the block,
    its residual rows, its values' positions in the slot buffer, its
    range of CSR data entries and its derivatives' positions, in CSR
    order.

    The Jacobian's pattern depends only on the blocks' indices and the
    free mask: CSR ``indptr`` and ``indices`` on the free columns, rows
    in residual order (cost, equality, inequality), each row's columns
    ascending.  A block never repeats a variable within a row, so every
    CSR entry is exactly one block-jacobian entry, and the equality and
    the inequality entries are two adjacent ranges of the data.
    ``normal_plan``, built at first use, forms the LM normal equations on
    the same pattern.
    """

    def __init__(self, problem, free):
        self.free = free
        new = np.cumsum(free) - 1
        counts, indices, row, nnz = [np.zeros(0, dtype=int)], [], 0, 0
        self.pieces = []
        for b in problem.cost_blocks + problem.eq_blocks + problem.ineq_blocks:
            val_at, der_at = b.tape.positions()
            # each row's columns ascending, frozen ones left out
            order = np.argsort(b.indices, axis=1)
            cols = np.take_along_axis(b.indices, order, axis=1)
            keep = np.broadcast_to(free[cols][:, None, :], der_at.shape)
            der_at = np.take_along_axis(der_at, order[:, None, :],
                                        axis=2)[keep]
            counts.append(np.repeat(free[cols].sum(axis=1), b.n_out))
            indices.append(np.broadcast_to(new[cols][:, None, :],
                                           keep.shape)[keep])
            self.pieces.append((b, slice(row, row + b.size), val_at.ravel(),
                                slice(nnz, nnz + der_at.size), der_at))
            row += b.size
            nnz += der_at.size
        counts = np.concatenate(counts)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        # residual rows [0, e0) cost, [e0, e1) equality, [e1, row)
        # inequality
        e0 = sum(b.size for b in problem.cost_blocks)
        e1 = e0 + problem.n_eq
        self.eq_rows, self.ineq_rows = slice(e0, e1), slice(e1, row)
        self.eq_entries = slice(int(indptr[e0]), int(indptr[e1]))
        self.ineq_entries = slice(int(indptr[e1]), int(indptr[-1]))
        self.ineq_entry_rows = np.repeat(np.arange(row - e1), counts[e1:])
        # scipy picks the index dtype once, here
        pattern = sp.csr_matrix(
            (np.zeros(indptr[-1]),
             np.concatenate([np.zeros(0, dtype=int)] + indices), indptr),
            shape=(row, int(np.sum(free))))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        self.shape = pattern.shape

    @cached_property
    def normal_plan(self):
        return _NormalPlan(self.indptr, self.indices, self.shape[1])


class _AlResiduals:
    """Stacked least-squares form of the AL subproblem on free variables.

    Residuals: [cost residuals; sqrt(rho/2)(c_eq + lam/rho);
    sqrt(rho/2) max(0, c_ineq + mu/rho)].  Fixed variables (equal
    bounds, or frozen by the plan's mask) are substituted and removed
    from the column space.

    An evaluation follows ``plan``: one replay per block, gathered into a
    fresh residual vector and a fresh CSR data array (callers hold a
    Jacobian while they evaluate trial points), then the equality and
    inequality scaling on their row and entry ranges.  Entries of
    inactive inequality rows stay in the pattern as explicit zeros.
    """

    def __init__(self, plan, lam, mu, rho, x_template):
        self.plan = plan
        self._sq = np.sqrt(rho / 2.0)
        self._lam_rho = lam / rho
        self._mu_rho = mu / rho
        self.template = x_template
        self._cache_key = None
        self._cache = None

    def full_x(self, z):
        x = self.template.copy()
        x[self.plan.free] = z
        return x

    def _evaluate(self, z):
        key = z.tobytes()
        if self._cache_key == key:
            return self._cache
        plan = self.plan
        x = self.full_x(z)
        res = np.empty(plan.shape[0])
        data = np.empty(plan.indices.size)
        for block, rows, val_at, entries, der_at in plan.pieces:
            flat = block_values_and_jac(block, x)
            res[rows] = flat[val_at]
            data[entries] = flat[der_at]
        sq, eq, ineq = self._sq, plan.eq_rows, plan.ineq_rows
        res[eq] = sq * (res[eq] + self._lam_rho)
        data[plan.eq_entries] *= sq
        shifted = res[ineq] + self._mu_rho
        res[ineq] = sq * np.clip(shifted, 0.0, None)
        active = (shifted > 0).astype(float)[plan.ineq_entry_rows]
        entries = plan.ineq_entries
        data[entries] = (data[entries] * sq) * active
        J = _CsrJacobian(data, plan.indices, plan.indptr, plan.shape)
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
    serves every free mask; what the mask alone decides of the result's
    layout is kept for the last mask, so a call with the same mask as
    the one before only tests for zeros, counts and gathers.  Every
    diagonal entry is kept, with no pairs where its column stores
    nothing, because the damping adds to all.

    ``indices`` are sorted within each row, as ``_AlPlan`` builds
    them.  Plan arrays are int32 to keep them small.  ``solve`` keeps
    SuperLU's column order for the last pattern of the normal matrix:
    the LM damping changes only the diagonal's values, and most
    iterations keep the pattern of the one before.
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
        self._mask = None
        self._pattern = None

    def _layout(self, free):
        """What the free mask alone fixes of the normal matrix: the
        entries whose row and column are both free, those of them on the
        diagonal, every entry's row renumbered over the free columns, the
        free columns' last and diagonal positions, and their count.  The
        last mask's layout is kept: most LM iterations freeze the same
        columns as the one before."""
        key = free.tobytes()
        if key != self._mask:
            both = np.take(free, self._rows)
            both &= np.take(free, self._cols)
            new = np.cumsum(free, dtype=np.int32) - 1
            self._mask = key
            self._mask_layout = (both, both & self._diag,
                                 np.take(new, self._rows),
                                 self._col_end[free], self._diag_at[free],
                                 int(np.count_nonzero(free)))
        return self._mask_layout

    def normal_matrix(self, data, free):
        """The arrays ``(data, indices, indptr)`` of ``(Jf.T @ Jf).tocsc()``
        for ``Jf = J[:, free]``, with every diagonal entry stored, and the
        positions in its ``data`` of the diagonal, in column order."""
        both, diag, rows, col_end, diag_at, n_free = self._layout(free)
        prod = np.take(data, self._pa)
        prod *= np.take(data, self._pb)
        # (bincount returns integers when J stores nothing)
        sums = np.bincount(self._entry, weights=prod,
                           minlength=self._n_tri).astype(float, copy=False)
        vals = np.take(sums, self._sum)
        keep = vals != 0
        keep &= both
        keep |= diag
        # kept entries up to and including each entry
        kept = np.cumsum(keep, dtype=np.int32)
        indptr = np.zeros(n_free + 1, dtype=np.int32)
        indptr[1:] = kept[col_end]
        return (vals[keep], rows[keep], indptr), kept[diag_at] - 1

    def solve(self, A, b):
        """``spla.factorized(A)(b)`` for a normal matrix ``A = (data,
        indices, indptr)`` from ``normal_matrix``, with SuperLU's column
        order computed once per pattern.

        A pattern other than the last one (a miss) is factored by
        ``spla.factorized`` itself, and its final column order (COLAMD's,
        post-ordered by the column elimination tree) is kept with the
        gather that permutes A's columns into it; a miss that raises
        keeps nothing.  On the kept pattern (a hit), ``_natural_lu``
        factors the permuted columns in their given order, so SuperLU
        runs no COLAMD pass and no sparse matrix is built, and
        ``x[order] = y`` undoes the permutation as the COLAMD
        factorization's solve does.  Both raise ``RuntimeError`` on an
        exactly singular matrix, which ``_bounded_lm`` retries with more
        damping.

        A hit is bit for bit the miss's factorization unless a column's
        pivot candidates tie exactly in magnitude.  At SuperLU's
        ``DiagPivotThresh`` of 1.0 such a tie goes to the column's
        "diagonal" row: under COLAMD the row of the column's original
        index, on the permuted columns the row of its new position.  So
        every divergence leaves an off-diagonal multiplier of magnitude
        one in L.
        Random integer-valued matrices diverge now and then; continuous
        values, as the solver's, practically never.
        """
        data, indices, indptr = A
        pattern = (indptr.tobytes(), indices.tobytes())
        if pattern != self._pattern:
            n = indptr.size - 1
            solve = spla.factorized(sp.csc_matrix(A, shape=(n, n)))
            x = solve(b)
            order = np.argsort(solve.__self__.perm_c)
            counts = np.diff(indptr)[order]
            perm_indptr = np.zeros(n + 1, dtype=indptr.dtype)
            np.cumsum(counts, out=perm_indptr[1:])
            # column j of the permuted matrix is column order[j]
            gather = (np.arange(indices.size)
                      + np.repeat(indptr[order] - perm_indptr[:-1], counts))
            self._pattern = pattern
            self._order = (order, gather, indices[gather], perm_indptr)
            return x
        order, gather, perm_indices, perm_indptr = self._order
        x = np.empty(order.size)
        x[order] = _natural_lu(data[gather], perm_indices,
                               perm_indptr).solve(b)
        return x


# the options spla.splu(B, permc_spec="NATURAL") gives SuperLU
_NATURAL = dict(DiagPivotThresh=None, ColPerm="NATURAL", PanelSize=None,
                Relax=None, SymmetricMode=True)


def _natural_lu(data, indices, indptr):
    """``spla.splu(B, permc_spec="NATURAL")`` on the CSC arrays of a
    canonical B with int32 indices: the same call of SuperLU, without
    the checks and the sparse matrix of ``splu``."""
    return _superlu.gstrf(indptr.size - 1, data.size, data, indices, indptr,
                          csc_construct_func=sp.csc_array, ilu=False,
                          options=_NATURAL)


def _bounded_lm(helper, z0, lb, ub, max_iter, gtol):
    """Projected Levenberg-Marquardt on a bound-constrained least-squares.

    Normal equations with adaptive diagonal damping, solved by sparse LU;
    variables pinned to an active bound with an outward gradient are
    frozen for the step, and trial points are projected back into the box.
    Deterministic.

    Each iteration forms ``JᵀJ`` on the unfrozen columns from the
    helper plan's ``normal_plan`` and takes the right-hand side from the
    gradient's product ``Jᵀr``: bit for bit what scipy's ``Jf.T @ Jf``
    and ``Jf.T @ r`` give, without re-slicing J.  ``Jᵀr`` and each
    trial's model product ``J @ (zt - z)`` call scipy's kernels through
    ``trf.rmatvec`` and ``trf.matvec``: scipy's floats, without a
    transposed copy of J per iteration or the dispatch of ``@``.
    Damping adds ``sigma * max(diag, 1e-10)`` to the stored diagonal, the
    sums that ``A + sp.diags(...)`` forms.  Each damping trial solves
    through ``normal_plan.solve``: SuperLU with the column order kept for
    the matrix's pattern, which is ``spla.factorized(A)(rhs)`` but for
    exact pivot ties (see there).  An exactly singular matrix raises
    ``RuntimeError`` there, and the trial retries with ten times the
    damping.
    """
    z = np.clip(z0, lb, ub)
    r = helper.residuals(z)
    J = helper.jac(z)
    nfev = 1
    f = float(r @ r)
    sigma = 1e-5
    for _ in range(max_iter):
        jtr = rmatvec(J, r)
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
        normal = helper.plan.normal_plan
        A, diag = normal.normal_matrix(J.data, free)
        a = A[0][diag]
        d = np.maximum(a, 1e-10)
        accepted = False
        for _trial in range(30):
            A[0][diag] = a + sigma * d
            try:
                p = normal.solve(A, rhs)
            except RuntimeError:
                sigma *= 10.0
                continue
            step = np.zeros_like(z)
            step[free] = p
            zt = np.clip(z + step, lb, ub)
            rt = helper.residuals(zt)
            nfev += 1
            ft = float(rt @ rt)
            lin = r + matvec(J, zt - z)
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


def _inner_solve(problem, plan, x, lam, mu, rho, opts):
    """One bound-constrained Gauss-Newton minimization of the AL, on the
    plan of the problem's free variables."""
    free = plan.free
    template = x.copy()
    template[~free] = problem.lower[~free]
    if not np.any(free):
        return template, 0
    helper = _AlResiduals(plan, lam, mu, rho, template)
    z, nfev = _bounded_lm(
        helper, x[free], problem.lower[free], problem.upper[free],
        opts.max_inner, INNER_GTOL,
    )
    return helper.full_x(z), nfev


def _violation(problem, x):
    return max(_violations(eval_constraints(problem.eq_blocks, x),
                           eval_constraints(problem.ineq_blocks, x)))


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
        lower=problem.lower,
        upper=problem.upper,
        cost_blocks=[],
        eq_blocks=problem.eq_blocks,
        ineq_blocks=problem.ineq_blocks,
    )
    helper = _AlResiduals(_AlPlan(feas, free), np.zeros(problem.n_eq),
                          np.zeros(problem.n_ineq), 2.0, x.copy())
    # variables no constraint touches cannot help; freeze them so the
    # trust-region column scaling stays finite
    J0 = helper.jac(x[free])
    touched = np.zeros(J0.shape[1], dtype=bool)
    touched[J0.indices[J0.data != 0]] = True
    if not np.all(touched):
        sub = free.copy()
        sub[np.where(free)[0][~touched]] = False
        free = sub
        helper = _AlResiduals(_AlPlan(feas, free), np.zeros(problem.n_eq),
                              np.zeros(problem.n_ineq), 2.0, x.copy())
    if not np.any(free):
        return x, 0
    lb, ub = problem.lower[free], problem.upper[free]
    if np.count_nonzero(free) == 1:
        # trf's two-dimensional trust-region subproblem needs two
        # variables; with one, the LM solve that cleans up its tail runs
        # alone
        best_z, nfev = _bounded_lm(helper, x[free], lb, ub,
                                   3 * opts.max_inner, 1e-12)
        x_new = helper.full_x(best_z)
        if _violation(problem, x_new) < _violation(problem, x):
            return x_new, nfev
        return x, nfev

    # trust-region reflective handles bound-trapped feasibility searches
    # better than clipped LM steps.  Both passes run module trf's port of
    # scipy's trf on the helper's CSR Jacobian, through the module-level
    # name least_squares, which perfbench/tracing.py wraps
    def trf(z0, scale, budget):
        return least_squares(
            helper.residuals,
            z0,
            jac=helper.jac,
            bounds=(lb, ub),
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
        z, lm_iters = _bounded_lm(helper, res.x, lb, ub,
                                  3 * opts.max_inner, 1e-12)
        nfev += lm_iters
        viol = _violation(problem, helper.full_x(z))
        if viol < best_viol:
            best_z, best_viol = z, viol
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

    # made after the restoration, whose own plans are gone by then
    plan = _AlPlan(problem, problem.lower < problem.upper)
    for outer in range(opts.max_outer):
        x, nfev = _inner_solve(problem, plan, x, lam, mu, rho, opts)
        inner_total += nfev
        outer_done = outer + 1
        ceq = eval_constraints(problem.eq_blocks, x)
        cineq = eval_constraints(problem.ineq_blocks, x)
        lam = lam + rho * ceq
        mu = np.clip(mu + rho * cineq, 0.0, None)
        kkt = kkt_residual(problem, x, lam, mu)
        viol = max(kkt.eq_viol, kkt.ineq_viol)
        obj = eval_objective(problem, x)
        if best is None or viol <= best[0]:
            best = (viol, x.copy(), lam.copy(), mu.copy(), kkt)
        feasible = (kkt.eq_viol <= opts.tol_eq
                    and kkt.ineq_viol <= opts.tol_ineq)
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

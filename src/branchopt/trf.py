# Ported from SciPy 1.17.1: scipy/optimize/_lsq/least_squares.py,
# scipy/optimize/_lsq/trf.py, scipy/optimize/_lsq/common.py and
# scipy/sparse/linalg/_isolve/lsmr.py (with _sym_ortho from lsqr.py).
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# LSMR: Copyright (C) 2010 David Fong and Michael Saunders.
#   David Chin-lung Fong, Institute for Computational and Mathematical
#   Engineering, Stanford University; Michael Saunders, Systems
#   Optimization Laboratory, Dept of MS&E, Stanford University.
"""Bounded trust-region reflective least squares with LSMR subproblems.

This is scipy 1.17.1's ``least_squares(method="trf", tr_solver="lsmr")``
(Branch, Coleman & Li, 1999; LSMR by Fong & Saunders, 2011) ported
operation for operation, for the one configuration the NLP solver's
restoration uses: a callable returning a CSR Jacobian, finite bounds on
at least one variable, linear loss, ``lsmr`` with its default tolerances
and regularization, ``x_scale`` of ``"jac"`` or ``1.0``, and the
tolerances and ``max_nfev`` the caller passes.  Each float operation is
the one scipy performs, in scipy's order, on the same data, so the
iterates, ``nfev`` and ``status`` are scipy's to the last bit.

The port exists for speed.  scipy's LSMR multiplies through three
stacked ``LinearOperator``s (``right_multiplied_operator``,
``regularized_lsq_operator`` and the matrix's own), each adding Python
dispatch, an ``np.hstack`` and a conjugated copy of ``J.T`` per
Jacobian; on the restoration's 183 x 177 Jacobians that dispatch, not
the arithmetic, is most of the time.  Here ``_lsmr`` works on
``A = [J diag(d); diag(c)]`` directly: ``A @ v`` adds ``J @ (v * d)``
and ``c * v`` into the two halves of a preallocated ``u``, and
``A.T @ u`` is ``d * (J.T @ u[:m]) + c * u[m:]``, each elementwise
product written into one work vector.  ``norm(u)`` is
``math.sqrt(u.dot(u))``, the dot product ``numpy.linalg.norm`` takes, over
the whole of ``u``.  The LSMR recurrences run on Python floats instead of
numpy scalars: the same IEEE operations, except that a division by an
exact zero, which only an underflowed rotation can produce, raises
``ZeroDivisionError`` where scipy goes on with ``inf``.

Every product with a Jacobian, in LSMR and outside it, calls scipy's
compiled kernel directly (``matvec`` and ``rmatvec``): ``csr_matvec``
for ``J @ x``, and for ``J.T @ y`` ``csc_matvec`` on ``J``'s own three
arrays, which is what scipy's ``J.T`` is.  Each writes into a fresh zero
vector, as scipy's ``@`` does once its Python dispatch has picked the
kernel, so every float is scipy's.  The two-column ``J @ (S * d)`` is one
``J @ x`` per column: scipy's ``csr_matvecs`` adds the same products in
the same order.  On the restoration's 183 x 177 Jacobians (1,417
entries, on a 2-core x86-64 machine) the dispatch took about half of
each ``J @ x`` (9.4 against 4.8 us), and building ``J.T`` took 15 us,
more than a product.  The kernels are in the private module
``scipy.sparse._sparsetools``; ``tests/test_trf.py`` holds them to
scipy's ``@`` byte for byte.

Kept: the ``least_squares`` front end's strictly feasible start
(``make_strictly_feasible`` with its default step) and its check that
the first residuals are finite, ``trf_bounds`` with ``select_step``'s
reflected and Cauchy steps, the 2-D subspace trust-region solve with its
``np.roots`` branch, and the helpers they call.  ``trf_no_bounds`` is
kept too: scipy takes it when every bound is infinite.  A transcription
never restores such a problem (with ``dt_min == dt_max`` fixing every
time step, the cart-pole's impact normal force and the arm's elapsed
times keep finite bounds), but ``nlp.solve`` accepts any
``NlpProblem``, and unbounded ones reach restoration.  Left out, as the
restoration never reaches them: loss functions, callbacks, ``verbose``,
the ``exact`` solver, the ``method`` and ``tr_solver`` arguments,
``tr_options``, the ``lm`` parameter that only ``exact`` reads, and the
argument checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import norm
from scipy.linalg import LinAlgError, cho_factor, cho_solve, qr
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

__all__ = ["TrfResult", "least_squares"]


class TrfResult(NamedTuple):
    """The solution, the number of residual evaluations and scipy's
    termination status (0: ``max_nfev`` reached; 1, 2, 3, 4: the
    ``gtol``, ``ftol``, ``xtol`` or both ``ftol`` and ``xtol`` tests)."""

    x: np.ndarray
    nfev: int
    status: int


def least_squares(fun, x0, *, jac, bounds, x_scale, max_nfev, ftol, xtol,
                  gtol):
    """Minimize ``0.5 * ||fun(x)||^2`` over ``bounds`` from ``x0``, as
    ``scipy.optimize.least_squares(fun, x0, jac=jac, bounds=bounds,
    method="trf", tr_solver="lsmr", x_scale=x_scale, max_nfev=max_nfev,
    ftol=ftol, xtol=xtol, gtol=gtol)`` does.

    ``jac(x)`` returns a CSR matrix, or any record of its ``data``,
    ``indices``, ``indptr`` and ``shape``, which is all the port reads;
    ``x_scale`` is ``"jac"`` or ``1.0``.
    As in scipy, a problem whose every bound is infinite runs the
    unbounded variant.
    """
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    x0 = _make_strictly_feasible(np.asarray(x0, dtype=float), lb, ub)
    f0 = fun(x0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")
    J0 = jac(x0)
    if not (isinstance(x_scale, str) and x_scale == "jac"):
        x_scale = np.resize(np.asarray(x_scale, dtype=float), x0.shape)
    if np.all(lb == -np.inf) and np.all(ub == np.inf):
        return _trf_no_bounds(fun, jac, x0, f0, J0, ftol, xtol, gtol,
                              max_nfev, x_scale)
    return _trf_bounds(fun, jac, x0, f0, J0, lb, ub, ftol, xtol, gtol,
                       max_nfev, x_scale)


def _scales(J, x_scale):
    """The variable scales and their inverses at the first Jacobian."""
    if isinstance(x_scale, str) and x_scale == "jac":
        return _compute_jac_scale(J)
    return x_scale, 1 / x_scale


def _trf_bounds(fun, jac, x0, f0, J0, lb, ub, ftol, xtol, gtol, max_nfev,
                x_scale):
    x = x0.copy()
    f = f0
    nfev = 1
    J = J0
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = rmatvec(J, f)

    jac_scale = isinstance(x_scale, str) and x_scale == "jac"
    scale, scale_inv = _scales(J, x_scale)

    v, dv = _cl_scaling_vector(x, g, lb, ub)
    v[dv != 0] *= scale_inv[dv != 0]
    Delta = norm(x0 * scale_inv / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    termination_status = None

    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)

        g_norm = norm(g * v, ord=np.inf)
        if g_norm < gtol:
            termination_status = 1

        if termination_status is not None or nfev == max_nfev:
            break

        # the Coleman-Li scaling applied after x_scale
        v[dv != 0] *= scale_inv[dv != 0]
        d = v**0.5 * scale
        diag_h = g * dv * scale
        g_h = d * g

        f_augmented[:m] = f
        J_h = _right_multiplied(J, d)
        a, b = _build_quadratic_1d(J_h, g_h, -g_h, diag=diag_h)
        to_tr = Delta / norm(g_h)
        ag_value = _minimize_quadratic_1d(a, b, 0, to_tr)[1]
        reg_term = -ag_value / Delta**2

        gn_h = _lsmr(J, d, f_augmented, c=(diag_h + reg_term)**0.5)
        S = np.vstack((g_h, gn_h)).T
        S, _ = qr(S, mode="economic")
        JS = np.column_stack([matvec(J, s * d) for s in S.T])
        B_S = np.dot(JS.T, JS) + np.dot(S.T * diag_h, S)
        g_S = S.T.dot(g_h)

        # theta controls step back step ratio from the bounds.
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_S, _ = _solve_trust_region_2d(B_S, g_S, Delta)
            p_h = S.dot(p_S)

            p = d * p_h  # Trust-region solution in the original space.
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)

            x_new = _make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)

            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)

            step_norm = norm(step)
            termination_status = _check_termination(
                actual_reduction, cost, step_norm, norm(x), ratio, ftol, xtol)
            if termination_status is not None:
                break

            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = jac(x)
            g = rmatvec(J, f)
            if jac_scale:
                scale, scale_inv = _compute_jac_scale(J, scale_inv)

    if termination_status is None:
        termination_status = 0
    return TrfResult(x, nfev, termination_status)


def _trf_no_bounds(fun, jac, x0, f0, J0, ftol, xtol, gtol, max_nfev,
                   x_scale):
    x = x0.copy()
    f = f0
    nfev = 1
    J = J0
    cost = 0.5 * np.dot(f, f)
    g = rmatvec(J, f)

    jac_scale = isinstance(x_scale, str) and x_scale == "jac"
    scale, scale_inv = _scales(J, x_scale)

    Delta = norm(x0 * scale_inv)
    if Delta == 0:
        Delta = 1.0

    termination_status = None

    while True:
        g_norm = norm(g, ord=np.inf)
        if g_norm < gtol:
            termination_status = 1

        if termination_status is not None or nfev == max_nfev:
            break

        d = scale
        g_h = d * g

        J_h = _right_multiplied(J, d)
        a, b = _build_quadratic_1d(J_h, g_h, -g_h)
        to_tr = Delta / norm(g_h)
        ag_value = _minimize_quadratic_1d(a, b, 0, to_tr)[1]
        reg_term = -ag_value / Delta**2

        # scipy's (damp**2 + reg_term)**0.5 at its default damp of 0.0
        damp_full = (0.0**2 + reg_term)**0.5
        gn_h = _lsmr(J, d, f, damp=float(damp_full))
        S = np.vstack((g_h, gn_h)).T
        S, _ = qr(S, mode="economic")
        JS = np.column_stack([matvec(J, s * d) for s in S.T])
        B_S = np.dot(JS.T, JS)
        g_S = S.T.dot(g_h)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_S, _ = _solve_trust_region_2d(B_S, g_S, Delta)
            step_h = S.dot(p_S)

            predicted_reduction = -_evaluate_quadratic(J_h, g_h, step_h)
            step = d * step_h
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)

            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new

            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)

            step_norm = norm(step)
            termination_status = _check_termination(
                actual_reduction, cost, step_norm, norm(x), ratio, ftol, xtol)
            if termination_status is not None:
                break

            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = jac(x)
            g = rmatvec(J, f)
            if jac_scale:
                scale, scale_inv = _compute_jac_scale(J, scale_inv)

    if termination_status is None:
        termination_status = 0
    return TrfResult(x, nfev, termination_status)


def matvec(J, x):
    """``J @ x`` for a CSR matrix ``J``: the ``csr_matvec`` call that
    scipy's ``@`` ends in, into a fresh zero vector, without its dispatch.
    """
    m, n = J.shape
    out = np.zeros(m)
    csr_matvec(m, n, J.indptr, J.indices, J.data, x, out)
    return out


def rmatvec(J, y, data=None):
    """``J.T @ y`` for a CSR matrix ``J``, or with ``data`` in place of
    ``J.data``: scipy's ``J.T`` is the CSC matrix on the same arrays, and
    its ``@`` ends in this ``csc_matvec`` call, into a fresh zero vector.
    """
    m, n = J.shape
    out = np.zeros(n)
    csc_matvec(n, m, J.indptr, J.indices,
               J.data if data is None else data, y, out)
    return out


def _right_multiplied(J, d):
    """The product ``s -> J @ (s * d)`` of ``J diag(d)``."""
    return lambda s: matvec(J, s * d)


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """Select the best step according to Trust Region Reflective algorithm."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag=diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    # Compute the reflected direction.
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # Restrict trust-region step, such that it hits the bound.
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # Reflected direction will cross first either feasible region or trust
    # region boundary.
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)

    # Find lower and upper bounds on a step size along the reflected
    # direction, considering the strict feasibility requirement.
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    # Check if reflection step is available.
    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, s0=p_h, diag=diag_h)
        r_stride, r_value = _minimize_quadratic_1d(
            a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # Now correct p_h to make it strictly interior.
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag=diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag=diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


# -- LSMR -------------------------------------------------------------------


def _sym_ortho(a, b):
    """Stable implementation of Givens rotation (S.-C. Choi).  The exact
    zeros are the integer 0, as in scipy: negated, they stay +0.  The
    signs are ``np.sign``'s, written out: 0.0 of a zero, NaN of a NaN."""
    if b == 0:
        sign = 1.0 if a > 0 else -1.0 if a < 0 else 0.0 if a == 0 else a
        return sign, 0, abs(a)
    elif a == 0:
        return 0, (1.0 if b > 0 else -1.0 if b < 0 else b), abs(b)
    elif abs(b) > abs(a):
        # b is neither zero nor NaN
        tau = a / b
        s = (1.0 if b > 0 else -1.0) / math.sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        # a is not zero
        tau = b / a
        sign = 1.0 if a > 0 else -1.0 if a < 0 else a
        c = sign / math.sqrt(1 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _lsmr(J, d, b, c=None, damp=0.0):
    """``scipy.sparse.linalg.lsmr(A, b, damp=damp)[0]`` with scipy's
    default tolerances and iteration limit, for ``A = [J diag(d);
    diag(c)]`` or, without ``c``, ``A = J diag(d)``."""
    atol = btol = 1e-6
    ctol = 1 / 1e8  # 1 / conlim
    m, n = J.shape
    maxiter = min(b.size, n)
    # u's halves are views: A @ v adds into them in place
    u = b.copy()
    top, bottom = u[:m], u[m:]
    normb = math.sqrt(u.dot(u))
    x = np.zeros(n)
    # the elementwise products, written here before each is added
    work = np.empty(n)
    beta = normb
    if beta > 0:
        u *= 1 / beta
        v = rmatvec(J, top)
        v *= d
        if c is not None:
            np.multiply(c, bottom, out=work)
            v += work
        alpha = math.sqrt(v.dot(v))
    else:
        v = np.zeros(n)
        alpha = 0.0
    if alpha > 0:
        v *= 1 / alpha

    # Initialize variables for 1st iteration.
    itn = 0
    zetabar = alpha * beta
    alphabar = alpha
    rho = 1.0
    rhobar = 1.0
    cbar = 1.0
    sbar = 0.0
    h = v.copy()
    hbar = np.zeros(n)

    # Initialize variables for estimation of ||r||.
    betadd = beta
    betad = 0.0
    rhodold = 1.0
    tautildeold = 0.0
    thetatilde = 0.0
    zeta = 0.0
    dd = 0.0

    # Initialize variables for estimation of ||A|| and cond(A)
    normA2 = alpha * alpha
    maxrbar = 0.0
    minrbar = 1e100

    normar = alpha * beta
    if normar == 0 or normb == 0:
        return x

    while itn < maxiter:
        itn = itn + 1

        # Perform the next step of the bidiagonalization to obtain the
        # next  beta, u, alpha, v.  These satisfy the relations
        #         beta*u  =  A@v   -  alpha*u,
        #        alpha*v  =  A'@u  -  beta*v.
        u *= -alpha
        np.multiply(v, d, out=work)
        top += matvec(J, work)
        if c is not None:
            np.multiply(c, v, out=work)
            bottom += work
        beta = math.sqrt(u.dot(u))

        if beta > 0:
            u *= 1 / beta
            v *= -beta
            w = rmatvec(J, top)
            w *= d
            if c is not None:
                np.multiply(c, bottom, out=work)
                w += work
            v += w
            alpha = math.sqrt(v.dot(v))
            if alpha > 0:
                v *= 1 / alpha

        # At this point, beta = beta_{k+1}, alpha = alpha_{k+1}.

        # Construct rotation Qhat_{k,2k+1}.
        chat, shat, alphahat = _sym_ortho(alphabar, damp)

        # Use a plane rotation (Q_i) to turn B_i to R_i
        rhoold = rho
        c_, s, rho = _sym_ortho(alphahat, beta)
        thetanew = s * alpha
        alphabar = c_ * alpha

        # Use a plane rotation (Qbar_i) to turn R_i^T to R_i^bar
        rhobarold = rhobar
        zetaold = zeta
        thetabar = sbar * rho
        rhotemp = cbar * rho
        cbar, sbar, rhobar = _sym_ortho(cbar * rho, thetanew)
        zeta = cbar * zetabar
        zetabar = - sbar * zetabar

        # Update h, h_hat, x.
        hbar *= - (thetabar * rho / (rhoold * rhobarold))
        hbar += h
        np.multiply(zeta / (rho * rhobar), hbar, out=work)
        x += work
        h *= - (thetanew / rho)
        h += v

        # Estimate of ||r||.

        # Apply rotation Qhat_{k,2k+1}.
        betaacute = chat * betadd
        betacheck = -shat * betadd

        # Apply rotation Q_{k,k+1}.
        betahat = c_ * betaacute
        betadd = -s * betaacute

        # Apply rotation Qtilde_{k-1}.
        thetatildeold = thetatilde
        ctildeold, stildeold, rhotildeold = _sym_ortho(rhodold, thetabar)
        thetatilde = stildeold * rhobar
        rhodold = ctildeold * rhobar
        betad = - stildeold * betad + ctildeold * betahat

        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
        taud = (zeta - thetatilde * tautildeold) / rhodold
        dd = dd + betacheck * betacheck
        normr = math.sqrt(dd + (betad - taud) * (betad - taud)
                          + betadd * betadd)

        # Estimate ||A||.
        normA2 = normA2 + beta * beta
        normA = math.sqrt(normA2)
        normA2 = normA2 + alpha * alpha

        # Estimate cond(A).
        maxrbar = max(maxrbar, rhobarold)
        if itn > 1:
            minrbar = min(minrbar, rhobarold)
        condA = max(maxrbar, rhotemp) / min(minrbar, rhotemp)

        # Test for convergence.
        normar = abs(zetabar)
        normx = math.sqrt(x.dot(x))

        test1 = normr / normb
        if (normA * normr) != 0:
            test2 = normar / (normA * normr)
        else:
            test2 = math.inf
        test3 = 1 / condA
        t1 = test1 / (1 + normA * normx / normb)
        rtol = btol + atol * normA * normx / normb

        # scipy's stopping tests: any of them ends the iteration (scipy's
        # istop, which says which, is not needed)
        if (itn >= maxiter or 1 + test3 <= 1 or 1 + test2 <= 1
                or 1 + t1 <= 1 or test3 <= ctol or test2 <= atol
                or test1 <= rtol):
            break

    return x


# -- helpers of trf (scipy/optimize/_lsq/common.py) -------------------------


def _intersect_trust_region(x, s, Delta):
    """Find the intersection of a line with the boundary of a trust region:
    the negative and positive roots t of ||(x + s*t)||**2 = Delta**2."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")

    b = np.dot(x, s)

    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")

    d = np.sqrt(b*b - a*c)  # Root from one fourth of the discriminant.

    # Computations below avoid loss of significance, see "Numerical Recipes".
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q

    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _solve_trust_region_2d(B, g, Delta):
    """Solve a general trust-region problem in 2 dimensions, reformulated
    as a 4th order algebraic equation solved by ``numpy.roots``."""
    try:
        R, lower = cho_factor(B)
        p = -cho_solve((R, lower), g)
        if np.dot(p, p) <= Delta**2:
            return p, True
    except LinAlgError:
        pass

    a = B[0, 0] * Delta**2
    b = B[0, 1] * Delta**2
    c = B[1, 1] * Delta**2

    d = g[0] * Delta
    f = g[1] * Delta

    coeffs = np.array(
        [-b + d, 2 * (a - c + f), 6 * b, 2 * (-a + c + f), -b - d])
    t = np.roots(coeffs)  # Can handle leading zeros.
    t = np.real(t[np.isreal(t)])

    p = Delta * np.vstack((2 * t / (1 + t**2), (1 - t**2) / (1 + t**2)))
    value = 0.5 * np.sum(p * B.dot(p), axis=0) + np.dot(g, p)
    i = np.argmin(value)
    p = p[:, i]

    return p, False


def _update_tr_radius(Delta, actual_reduction, predicted_reduction,
                      step_norm, bound_hit):
    """The new trust-region radius and the ratio of the actual to the
    predicted reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0

    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0

    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag=None, s0=None):
    """Coefficients of f(t) = 0.5 * (s0 + s*t).T * (J.T*J + diag) *
    (s0 + s*t) + g.T * (s0 + s*t): a for t**2, b for t, and the free term
    c if ``s0`` is given; ``J(s)`` is the product ``J @ s``."""
    v = J(s)
    a = np.dot(v, v)
    if diag is not None:
        a += np.dot(s * diag, s)
    a *= 0.5

    b = np.dot(g, s)

    if s0 is not None:
        u = J(s0)
        b += np.dot(u, v)
        c = 0.5 * np.dot(u, u) + np.dot(g, s0)
        if diag is not None:
            b += np.dot(s0 * diag, s)
            c += 0.5 * np.dot(s0 * diag, s0)
        return a, b, c
    else:
        return a, b


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """Minimum point and value of t * (a * t + b) + c over [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag=None):
    """0.5 * s.T * (J.T * J + diag) * s + g.T * s for one step s; ``J(s)``
    is the product ``J @ s``."""
    Js = J(s)
    q = np.dot(Js, Js)
    if diag is not None:
        q += np.dot(s * diag, s)

    l = np.dot(s, g)

    return 0.5 * q + l


def _in_bounds(x, lb, ub):
    """Check if a point lies within bounds."""
    return np.all((x >= lb) & (x <= ub))


def _step_size_to_bound(x, s, lb, ub):
    """The smallest t >= 0 with x + s * t on a bound, and per variable
    whether it reaches its lower (-1) or upper (1) bound there, or not (0).
    """
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over='ignore'):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _find_active_constraints(x, lb, ub, rtol):
    """Per variable, whether its lower (-1) or upper (1) bound is active
    at x, within ``rtol`` of the closest bound's magnitude, or neither (0).
    """
    active = np.zeros_like(x, dtype=int)

    if rtol == 0:
        active[x <= lb] = -1
        active[x >= ub] = 1
        return active

    lower_dist = x - lb
    upper_dist = ub - x

    lower_threshold = rtol * np.maximum(1, np.abs(lb))
    upper_threshold = rtol * np.maximum(1, np.abs(ub))

    lower_active = (np.isfinite(lb) &
                    (lower_dist <= np.minimum(upper_dist, lower_threshold)))
    active[lower_active] = -1

    upper_active = (np.isfinite(ub) &
                    (upper_dist <= np.minimum(lower_dist, upper_threshold)))
    active[upper_active] = 1

    return active


def _make_strictly_feasible(x, lb, ub, rstep=1e-10):
    """Shift a point to the interior of a feasible region.

    Each element of the returned vector is at least at a relative distance
    `rstep` from the closest bound. If ``rstep=0`` then `np.nextafter` is used.
    """
    x_new = x.copy()

    active = _find_active_constraints(x, lb, ub, rstep)
    lower_mask = np.equal(active, -1)
    upper_mask = np.equal(active, 1)

    if rstep == 0:
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        x_new[lower_mask] = (lb[lower_mask] +
                             rstep * np.maximum(1, np.abs(lb[lower_mask])))
        x_new[upper_mask] = (ub[upper_mask] -
                             rstep * np.maximum(1, np.abs(ub[upper_mask])))

    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])

    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector v and its derivatives dv: v is the
    distance to the bound the anti-gradient points at, where that bound
    is finite, and 1 elsewhere."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)

    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1

    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1

    return v, dv


def _compute_jac_scale(J, scale_inv_old=None):
    """Variable scales from the Jacobian's column norms, never below their
    previous values.  The squared norms are scipy's ``J.power(2).sum(
    axis=0)``, which multiplies ``J.power(2).T`` by ones: for a ``J``
    without duplicate entries, ``J.data ** 2`` is that power's data."""
    scale_inv = rmatvec(J, np.ones(J.shape[0]), J.data ** 2)**0.5

    if scale_inv_old is None:
        scale_inv[scale_inv == 0] = 1
    else:
        scale_inv = np.maximum(scale_inv, scale_inv_old)

    return 1 / scale_inv, scale_inv


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """Termination status of the ftol and xtol tests, or None."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)

    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None
